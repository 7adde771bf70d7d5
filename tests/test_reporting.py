import numpy as np

from nonrecip.reporting import fmt, write_csv


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
