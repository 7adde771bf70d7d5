"""Deterministic CSV and JSON output helpers.

Numbers are written with 17 significant digits and LF line endings so
repeated runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_csv(path, columns: dict):
    """Write the named numeric columns, of equal length, as a header and
    one row per index, every value as '%.17g' writes it, which equals
    format(float(x), '.17g'): one % over the row template repeated once
    per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns.values()])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    body = row * len(rows) % tuple(rows.ravel().tolist())
    path.write_text(",".join(columns) + "\n" + body, newline="\n")


def write_json(path, payload: dict):
    """Write payload as sorted, indented, strict JSON: NaN or inf raises ValueError."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", newline="\n")
