import json

import numpy as np
import pytest

from nonrecip.reporting import write_csv, write_json
from scenario_text import fmt


def test_write_csv_matches_per_value_fmt(tmp_path):
    # the rows as the per-value writer joined them: fmt of each value
    edge = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e17, -1e17,
            0.1, 1.0 / 3.0, 145.0, -2.5e-300]
    rng = np.random.default_rng(5)
    floats = np.concatenate([edge, rng.standard_normal(1000)
                             * 10.0 ** rng.integers(-20, 20, 1000)])
    ints = np.arange(-len(floats) // 2, len(floats) - len(floats) // 2)
    columns = {"t_ns": floats, "count": ints, "rev": floats[::-1]}
    expected = "\n".join(
        ["t_ns,count,rev"]
        + [",".join(fmt(v) for v in row) for row in zip(*columns.values())]) + "\n"
    write_csv(tmp_path / "out.csv", columns)
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


def test_write_json_is_strict(tmp_path):
    # finite payloads are written as before; NaN and inf, which have no
    # JSON token, are refused and leave no file behind
    payload = {"b": [1.0, -0.0, 5e-324, 1e300], "a": {"n": 3, "s": "x", "f": None}}
    write_json(tmp_path / "ok.json", payload)
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "ok.json").read_bytes() == expected.encode()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"fidelity": bad})
        assert not (tmp_path / "bad.json").exists()
