"""Whether two nonrecip trees give the same outputs, byte for byte.

Usage (from the repository root):

    python tools/same_outputs.py PYTHONPATH_A PYTHONPATH_B

Each PYTHONPATH (say the `src` of a checkout of the parent commit, and
`src`) selects a nonrecip package.  Every command of COMMANDS runs once
per path as a fresh `python -m nonrecip.cli` process, with OMP, OpenBLAS
and MKL pinned to one thread and its outputs in a temporary directory.
The exit codes, stdout and every output file are compared byte for byte.
For a JSON or CSV file that differs, the largest absolute change of each
numeric scalar or column is printed with it.  Prints one JSON object and
exits 0 only if every command is identical.  Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CLI = [sys.executable, "-m", "nonrecip.cli"]

# short and strongly coupled, so that the noisy d = 27 run takes a few
# thousand steps
SHORT_THREE_LEVEL = ("[scenario]\nmodel = full_three_level\ntau_ns = 29\n"
                     "[coupling]\ng_a_mhz = 50\ng_b_mhz = 50\n")

# a design by the lambda solve, not the default lambda
PHASE_4_5 = "[scenario]\ntarget_phase_rad = 4.5\n"
# the benchmark's operations: a design-verify target, and the noisy-se
# reference scenario (the circulator phase, the step pinned at 0.05 ns).
# tools/cli_times.py times them on these texts
DESIGN_VERIFY = "[scenario]\ntarget_phase_rad = 4.5\ntau_ns = 200\n"
NOISY_SE = "[scenario]\ntarget_phase_rad = 4.71238898038469\nstep_ns = 0.05\n"

# name: (scenario text or None, argv after the global --out/--config)
COMMANDS = {
    "design": (None, ["design"]),
    "ideal_design": (None, ["--model", "ideal", "design"]),
    "full_qubit_design": (None, ["--model", "full_qubit", "design"]),
    "design_phase_4_5": (PHASE_4_5, ["design"]),
    # the pulses at tau = 200 and at tau = 29 (with eta.csv at d = 3)
    "design_verify_ideal_design": (DESIGN_VERIFY, ["--model", "ideal", "design"]),
    "three_level_design": (SHORT_THREE_LEVEL, ["design"]),
    "full_qubit_design_phase_4_5": (PHASE_4_5, ["--model", "full_qubit", "design"]),
    "solve_lambda": (None, ["solve-lambda"]),
    "sweep_lambda": (None, ["sweep-lambda"]),
    # near pi, where the phase quadrature needs its 512- to 2,048-node rules
    "sweep_lambda_near_pi": (None, ["sweep-lambda", "--lo", "3.0", "--hi", "3.138",
                                    "-n", "35"]),
    "ideal_ensemble": (None, ["--model", "ideal", "simulate", "--initial", "ensemble"]),
    "se_transfer_100": (None, ["simulate", "--initial", "100"]),
    "se_ensemble": (None, ["simulate", "--initial", "ensemble"]),
    "se_closed_transfer_010": (None, ["--no-noise", "simulate", "--initial", "010"]),
    "design_verify_verify": (DESIGN_VERIFY, ["--model", "ideal", "--no-noise", "simulate",
                                             "--initial", "100"]),
    "noisy_se_transfer_010": (NOISY_SE, ["simulate", "--initial", "010"]),
    "full_qubit_ensemble": (None, ["--model", "full_qubit", "simulate",
                                   "--initial", "ensemble"]),
    "full_qubit_closed_transfer_100": (None, ["--model", "full_qubit", "--no-noise",
                                              "simulate", "--initial", "100"]),
    "reproduce_fig3": (None, ["reproduce-fig3"]),
    "reproduce_fig3_closed": (None, ["--no-noise", "reproduce-fig3"]),
    "reproduce_fig3_ideal": (None, ["--model", "ideal", "reproduce-fig3"]),
    "three_level_transfer_100": (SHORT_THREE_LEVEL, ["simulate", "--initial", "100"]),
    "three_level_closed_transfer_001": (SHORT_THREE_LEVEL, ["--no-noise", "simulate",
                                                            "--initial", "001"]),
}


def run(text: str | None, argv: list[str], pythonpath: str) -> dict:
    """{"exit": code, "stdout": bytes, "files": {relative path: bytes}} of
    one process running the command with nonrecip from pythonpath."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(pythonpath),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        options = ["--out", str(out)]
        if text is not None:
            (Path(work) / "scenario.ini").write_text(text, encoding="utf-8")
            options += ["--config", str(Path(work) / "scenario.ini")]
        done = subprocess.run(CLI + options + argv, env=env, cwd=work,
                              capture_output=True, check=False)
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit": done.returncode, "stdout": done.stdout, "files": files}


def _scalars(value, key=""):
    """(key path, leaf) of every leaf of a parsed JSON value."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _scalars(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _scalars(v, f"{key}[{i}]")
    else:
        yield key, value


def _change(a, b):
    """|a - b| of two numbers (0 for equal ones, NaN and inf included),
    or "changed" if they are not both numbers and differ."""
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if a == b or (numbers and math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if numbers else "changed"


def _columns(data: bytes) -> dict[str, list]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def changes(name: str, a: bytes, b: bytes) -> dict:
    """The largest absolute change of each JSON scalar or CSV column that
    differs between two versions of a file, or why it cannot be told."""
    try:
        if name.endswith(".json"):
            old, new = (dict(_scalars(json.loads(x))) for x in (a, b))
            keys = old.keys() | new.keys()
            found = {k: _change(old[k], new[k]) if k in old and k in new else "missing"
                     for k in sorted(keys)}
        elif name.endswith(".csv"):
            old, new = _columns(a), _columns(b)
            found = {}
            for k in sorted(old.keys() | new.keys()):
                if k not in old or k not in new or len(old[k]) != len(new[k]):
                    found[k] = "missing or resized"
                else:
                    found[k] = max((_change(x, y) for x, y in zip(old[k], new[k])),
                                   default=0.0)
        else:
            return {"bytes": "differ"}
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return {"unreadable": str(exc)}
    return {k: v for k, v in found.items() if v != 0.0}


def compare(a: dict, b: dict) -> dict:
    """What differs between two runs of one command; empty if nothing."""
    diff = {}
    if a["exit"] != b["exit"]:
        diff["exit"] = [a["exit"], b["exit"]]
    if a["stdout"] != b["stdout"]:
        diff["stdout"] = [a["stdout"].decode(errors="replace"),
                          b["stdout"].decode(errors="replace")]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if name not in a["files"] or name not in b["files"]:
            diff[name] = "only in " + ("A" if name in a["files"] else "B")
        elif a["files"][name] != b["files"][name]:
            diff[name] = changes(name, a["files"][name], b["files"][name])
    return diff


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or args[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    result = {}
    for name, (text, command) in COMMANDS.items():
        a, b = (run(text, command, path) for path in args)
        diff = compare(a, b)
        result[name] = {"identical": not diff, "exit": a["exit"],
                        "files": len(a["files"])}
        if diff:
            result[name]["differences"] = diff
    identical = all(r["identical"] for r in result.values())
    print(json.dumps({"A": args[0], "B": args[1], "identical": identical,
                      "commands": result}, indent=2))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
