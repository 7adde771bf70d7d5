"""Deterministic CSV and JSON output helpers.

Numbers are written with 17 significant digits and LF line endings so
repeated runs with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def write_json(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n")
