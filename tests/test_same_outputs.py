"""tools/same_outputs.py's comparison of two runs of one command, on
hand-made runs: every byte-identity claim about the outputs rests on it."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs",
                                               ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)
compare, changes = same_outputs.compare, same_outputs.changes

SUMMARY = b'{"f_s": 0.5, "model": "ideal", "populations": {"pop": [1.0, 2.0]}}\n'
CURVE = b"t_ns,fidelity\n0,1\n1,0.5\n2,0.25\n"


def run(exit_code=0, stdout=b"ok\n", **files):
    """A run dict as same_outputs.run returns it: files default to one
    JSON summary and one CSV, and a keyword of None drops that file."""
    found = {"report.json": SUMMARY, "curve.csv": CURVE}
    found.update({f"{name}.{'json' if name == 'report' else 'csv'}": data
                  for name, data in files.items()})
    return {"exit": exit_code, "stdout": stdout,
            "files": {name: data for name, data in found.items() if data is not None}}


def test_identical_runs_differ_in_nothing():
    assert compare(run(), run()) == {}


def test_a_moved_json_scalar_reports_its_change():
    moved = SUMMARY.replace(b"2.0]", b"2.5]")
    assert compare(run(), run(report=moved)) == {"report.json": {"populations.pop[1]": 0.5}}


def test_a_moved_csv_column_reports_its_largest_change():
    moved = b"t_ns,fidelity\n0,1\n1,0.625\n2,0.5\n"
    assert compare(run(), run(curve=moved)) == {"curve.csv": {"fidelity": 0.25}}


def test_a_resized_column_is_named():
    shorter = b"t_ns,fidelity\n0,1\n1,0.5\n"
    assert changes("curve.csv", CURVE, shorter) == {
        "fidelity": "missing or resized", "t_ns": "missing or resized"}


def test_a_key_or_column_missing_on_one_side_is_named():
    assert changes("report.json", SUMMARY, b'{"f_s": 0.5, "populations": '
                   b'{"pop": [1.0, 2.0]}}') == {"model": "missing"}
    assert changes("curve.csv", CURVE, b"t_ns\n0\n1\n2\n") == {
        "fidelity": "missing or resized"}


def test_a_file_in_one_tree_only_is_named():
    assert compare(run(), run(curve=None)) == {"curve.csv": "only in A"}
    assert compare(run(report=None), run()) == {"report.json": "only in B"}


def test_nan_against_nan_is_no_change():
    assert changes("report.json", b'{"x": NaN, "y": 1}', b'{"x": NaN, "y": 1.0}') == {}
    assert changes("curve.csv", b"x\nnan\n1\n", b"x\nNaN\n1.0\n") == {}


def test_a_non_numeric_change_is_named():
    assert changes("report.json", SUMMARY, SUMMARY.replace(b"ideal", b"full_qubit")) == {
        "model": "changed"}


def test_a_different_exit_code_or_stdout_is_reported():
    assert compare(run(), run(exit_code=1)) == {"exit": [0, 1]}
    assert compare(run(), run(stdout=b"other\n")) == {"stdout": ["ok\n", "other\n"]}
