import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nonrecip import cli, metrics
from nonrecip.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_ROOT_FAILURE,
    EXIT_UNATTAINABLE_DRIVE,
    main,
)
from nonrecip.config import (
    ScenarioConfig,
    load_config,
    parse_config,
    with_overrides,
)
from nonrecip.devices import ideal_model
from nonrecip.invariant import (
    synthesize_pulses,
    target_unitary,
    theta_plus_magnitudes,
)
from nonrecip.propagation import IntegratorError
from scenario_text import serialize_config


class TestConfig:
    def test_round_trip_is_identity(self):
        cfg = ScenarioConfig(
            model="ideal", tau_ns=120.0, lambda_=0.61, noise=False,
            step_ns=0.02, g_a_mhz=9.5, alpha_m_mhz=215.0, gamma_b_khz=6.0,
        )
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text

    def test_target_phase_variant(self):
        cfg = ScenarioConfig(lambda_=None, target_phase_rad=1.5 * np.pi)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_lambda_target_exclusivity(self):
        with pytest.raises(ValueError):
            ScenarioConfig(lambda_=0.5, target_phase_rad=1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(lambda_=None, target_phase_rad=None)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(model="cat")

    def test_with_overrides_swaps_design_input(self):
        cfg = ScenarioConfig()
        assert cfg.lambda_ is not None
        swapped = with_overrides(cfg, target_phase_rad=np.pi)
        assert swapped.lambda_ is None
        assert swapped.target_phase_rad == np.pi
        back = with_overrides(swapped, lambda_=0.7)
        assert back.target_phase_rad is None

    def test_file_round_trip(self, tmp_path):
        cfg = ScenarioConfig(model="full_qubit", noise=True)
        path = tmp_path / "scenario.ini"
        path.write_text(serialize_config(cfg))
        assert load_config(path) == cfg

    def test_byte_order_mark_is_read_past(self, tmp_path):
        # editors on Windows may save UTF-8 with a BOM, which configparser
        # would take for text before the first section header
        text = serialize_config(ScenarioConfig(model="full_qubit")).encode("utf-8")
        plain, marked = tmp_path / "plain.ini", tmp_path / "bom.ini"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_config(marked) == load_config(plain)
        marked.write_bytes(b"\xef\xbb\xbf[scenario]\nmodel = ideal\xff\n")
        with pytest.raises(ValueError, match=re.escape(str(marked))):
            load_config(marked)

    def test_effective_step_defaults(self, tmp_path):
        def resolved_step(cfg):
            cfg_path, out = tmp_path / "scenario.ini", tmp_path / "out"
            cfg_path.write_text(serialize_config(cfg))
            assert main(["--config", str(cfg_path), "--out", str(out), "--no-noise",
                         "simulate", "--initial", "100"]) == EXIT_OK
            return json.loads((out / "report.json").read_text())["step_ns"]

        # the pulse-sample grid of 2,000 intervals, refined twofold for the
        # single-excitation carrier
        assert resolved_step(ScenarioConfig(model="ideal")) == 145.0 / 2000
        assert resolved_step(ScenarioConfig()) == 145.0 / 4000
        assert resolved_step(ScenarioConfig(step_ns=0.1)) == 0.1


ROOT = Path(__file__).resolve().parents[1]


class TestScenarioReader:
    @pytest.mark.parametrize("text, named", [
        ("[scenario]\nmodel = ideal\ntau = 100\nlamda = 0.6\n",
         "[scenario] tau: unknown key"),
        ("[transmon_q]\nalpha_mhz = 220\n", "[transmon_q]: unknown section"),
        ("[DEFAULT]\nnoise = false\n", "[DEFAULT] noise: unknown key"),
        ("[scenario]\nn_samples = 4001\n", "[scenario] n_samples: unknown key"),
        ("[scenario]\nrecord_stride = 10\n", "[scenario] record_stride: unknown key"),
        ("[scenario]\ntau_ns = 100\ntau_ns = 120\n",
         "option 'tau_ns' in section 'scenario' already exists"),
        ("tau_ns = 100\n", "no section headers. file: '{path}', line: 1 'tau_ns = 100"),
        ("[scenario]\ntau_ns = abc\n", "[scenario] tau_ns: could not convert"),
    ], ids=["misspelt-keys", "unknown-section", "default-key", "n_samples",
            "record_stride", "duplicate-key", "no-section-header", "unparsable-value"])
    def test_refused_file_exits_1_naming_the_key(self, tmp_path, capsys, text, named):
        cfg_path, out = tmp_path / "bad.ini", tmp_path / "out"
        cfg_path.write_text(text)
        code = main(["--config", str(cfg_path), "--out", str(out),
                     "simulate", "--initial", "100"])
        assert code == EXIT_FAILURE
        assert named.format(path=cfg_path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"[scenario]\nmodel = ideal\xff\n"],
                             ids=["missing", "not-utf-8"])
    def test_unreadable_config_file_exits_1_naming_the_path(self, tmp_path, capsys,
                                                            content):
        cfg_path, out = tmp_path / "scenario.ini", tmp_path / "out"
        if content is not None:
            cfg_path.write_bytes(content)
        code = main(["--config", str(cfg_path), "--out", str(out), "design"])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg_path) in err
        assert not out.exists()

    @pytest.mark.parametrize("workload", ["design-verify", "noisy-se"])
    def test_accepts_every_benchmark_file(self, tmp_path, workload):
        # the benchmark's own make_targets writes the files, so a key the
        # reader stops taking fails here before it fails a benchmark run
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        targets = run.make_targets(workload, 1, tmp_path / "inputs")
        paths = {op["argv"][op["argv"].index("--config") + 1]
                 for target in targets for op in target}
        assert paths
        for path in paths:
            cfg = load_config(path)
            assert cfg.lambda_ is None and cfg.target_phase_rad is not None

    def test_readme_example_is_the_default_scenario(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert parse_config(example) == ScenarioConfig()


class TestDesignCommand:
    def test_design_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--out", str(out), "--model", "ideal", "design"])
        assert code == EXIT_OK
        assert (out / "pulses.csv").exists()
        summary = json.loads((out / "design_summary.json").read_text())
        assert summary["lambda"] == pytest.approx(0.4974)
        assert summary["character"] == "non_reciprocal"
        assert summary["theta_plus_rad"] == pytest.approx(1.5 * np.pi, abs=1e-2)
        assert summary["theta_plus_quad_error"] >= 0.0
        assert "lambda_residual_rad" not in summary  # lambda was given

    def test_device_design_emits_drive_envelope(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--out", str(out), "design"])
        assert code == EXIT_OK
        assert (out / "eta.csv").exists()
        summary = json.loads((out / "design_summary.json").read_text())
        assert 0.55 < summary["bessel_peak_ratio_a"] < 0.59

    def test_divergent_lambda_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(serialize_config(with_overrides(ScenarioConfig(), lambda_=5.0)))
        code = main(["--config", str(cfg_path), "--out",
                     str(tmp_path / "out"), "design"])
        assert code == EXIT_UNATTAINABLE_DRIVE

    @pytest.mark.parametrize("command", [["design"], ["simulate", "--initial", "100"]])
    def test_unattainable_drive_writes_no_file(self, tmp_path, capsys, command):
        # the drives are inverted before any output is written
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("[scenario]\nlambda = 1.5\n[coupling]\ng_a_mhz = 2\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out)] + command)
        assert code == EXIT_UNATTAINABLE_DRIVE
        assert "effective coupling g'_A requires J1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", [
        "tau_ns = 1e-310", "lambda = 1e-320", "lambda = 5e-324\ntau_ns = 1e-5"])
    def test_overflowing_couplings_are_refused_without_warnings(self, tmp_path, capsys,
                                                               scenario):
        # the coupling rates overflow: PulsePair refuses the samples, and
        # no RuntimeWarning reaches stderr
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(f"[scenario]\n{scenario}\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out),
                     "--model", "ideal", "design"])
        assert code == EXIT_UNATTAINABLE_DRIVE
        assert capsys.readouterr().err == "error: pulse samples must be finite\n"
        assert not out.exists()

    def test_tiny_lambda_is_refused_before_the_quadrature(self, tmp_path, capsys):
        # 1/sin of the phase integrand would overflow, with RuntimeWarnings
        cfg_path = tmp_path / "tiny.ini"
        cfg_path.write_text("[scenario]\nlambda = 1e-306\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out),
                     "--model", "ideal", "design"])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: lambda = 1e-306 is below") and err.count("\n") == 1
        assert not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(out1), "--model", "ideal", "design"]) == EXIT_OK
        assert main(["--out", str(out2), "--model", "ideal", "design"]) == EXIT_OK
        for name in ("pulses.csv", "design_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # simulate's report.json, with its step diagnostics, and its CSV
        for initial, csv in (("100", "trajectory_100.csv"),
                             ("ensemble", "ensemble_fidelity.csv")):
            outs = [tmp_path / f"{initial}_{i}" for i in range(2)]
            for out in outs:
                assert main(["--out", str(out), "--model", "ideal", "--no-noise",
                             "simulate", "--initial", initial]) == EXIT_OK
            for name in ("report.json", csv):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            report = json.loads((outs[0] / "report.json").read_text())
            assert report["steps"] == 2000
            assert report["step_ns"] == 145.0 / 2000

    def test_diagnostics_and_byte_identical_reruns(self, tmp_path):
        cfg_path = tmp_path / "target.ini"
        cfg_path.write_text(serialize_config(
            ScenarioConfig(lambda_=None, target_phase_rad=1.5 * np.pi)))
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["--config", str(cfg_path), "--out", str(out),
                         "design"]) == EXIT_OK
        for name in ("pulses.csv", "eta.csv", "design_summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        summary = json.loads((outs[0] / "design_summary.json").read_text())
        assert 0.0 <= summary["theta_plus_quad_error"] <= 1e-12 * summary["theta_plus_rad"]
        assert summary["lambda_residual_rad"] == abs(
            summary["theta_plus_rad"] - 1.5 * np.pi)
        assert summary["lambda_residual_rad"] < 1e-12
        # one route from lambda to theta_plus: solve-lambda and fig3's
        # panels a and b read the same values bit for bit
        lam, theta = summary["lambda"], summary["theta_plus_rad"]
        assert main(["--out", str(tmp_path / "solve"), "solve-lambda",
                     "--target-phase-rad", str(1.5 * np.pi)]) == EXIT_OK
        solution = json.loads((tmp_path / "solve" / "lambda_solution.json").read_text())
        assert (solution["lambda"], solution["theta_plus_rad"]) == (lam, theta)
        assert main(["--out", str(tmp_path / "fig3"), "--model", "ideal",
                     "reproduce-fig3"]) == EXIT_OK
        panels = json.loads((tmp_path / "fig3" / "fig3_summary.json").read_text())["panels"]
        assert (panels["a"]["lambda"], panels["b"]["theta_plus_rad"]) == (lam, theta)
        assert summary["theta_plus_raw_rad"] == -theta
        assert summary["theta_plus_mod_2pi_rad"] == theta % (2.0 * np.pi)
        assert summary["theta_plus_quad_error"] == theta_plus_magnitudes(lam)[1][0]


class TestNonFiniteScenarioValues:
    @pytest.mark.parametrize("key, value", [
        ("tau_ns", "nan"), ("tau_ns", "inf"),
        ("step_ns", "nan"), ("step_ns", "inf"), ("step_ns", "0"), ("step_ns", "-0.05"),
    ])
    def test_simulate_exits_1_naming_the_field(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(f"[scenario]\n{key} = {value}\n")
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "simulate", "--initial", "100"])
        assert code == EXIT_FAILURE
        assert f"{key} must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section, key, field", [
        ("scenario", "lambda", "lambda_"),
        ("scenario", "target_phase_rad", "target_phase_rad"),
    ] + [("coupling", k, k) for k in
         ("g_a_mhz", "g_b_mhz", "delta_mhz", "nu_mhz", "omega_m_ghz")] + [
        (f"transmon_{s}", f"{q}_{u}", f"{q}_{s}_{u}")
        for s in "amb" for q, u in (("alpha", "mhz"), ("gamma", "khz"))
    ])
    def test_non_finite_float_exits_1_naming_the_field(self, tmp_path, capsys,
                                                        section, key, field, value):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(f"[{section}]\n{key} = {value}\n")
        code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "simulate", "--initial", "100"])
        assert code == EXIT_FAILURE
        assert f"{field} must be finite, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["design"], ["simulate", "--initial", "100"]])
    @pytest.mark.parametrize("value", ["0", "-10"])
    @pytest.mark.parametrize("key", ["g_a_mhz", "g_b_mhz"])
    def test_non_positive_coupling_exits_1_naming_the_field(self, tmp_path, capsys,
                                                           key, value, command):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(f"[coupling]\n{key} = {value}\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out)] + command)
        assert code == EXIT_FAILURE
        assert f"{key} must be > 0" in capsys.readouterr().err
        assert not (out / "design_summary.json").exists()

    @pytest.mark.parametrize("command", [["design"], ["simulate", "--initial", "100"]])
    @pytest.mark.parametrize("key, value, message", [
        ("omega_m_ghz", "0", "omega_m_ghz must be > 0, got 0.0"),
        ("omega_m_ghz", "-5", "omega_m_ghz must be > 0, got -5.0"),
        ("delta_mhz", "-5000", "omega_m_ghz + delta_mhz / 1000 must be > 0, got 0.0"),
        ("delta_mhz", "-6000", "omega_m_ghz + delta_mhz / 1000 must be > 0, got -1.0"),
    ])
    def test_non_physical_chain_frequency_exits_1_naming_the_field(
            self, tmp_path, capsys, key, value, message, command):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(f"[coupling]\n{key} = {value}\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out)] + command)
        assert code == EXIT_FAILURE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["--model", "ideal", "design"],
                                         ["simulate", "--initial", "100"]])
    @pytest.mark.parametrize("section, key, value, message", [
        (f"transmon_{s}", "alpha_mhz", v, f"alpha_{s}_mhz must be > 0, got {float(v)}")
        for s in "amb" for v in ("0", "-5")] + [
        (f"transmon_{s}", "gamma_khz", "-1", f"gamma_{s}_khz must be >= 0, got -1.0")
        for s in "amb"])
    def test_out_of_range_transmon_value_exits_1_naming_the_field(
            self, tmp_path, capsys, section, key, value, message, command):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out)] + command)
        assert code == EXIT_FAILURE
        assert message in capsys.readouterr().err
        assert not (out / "design_summary.json").exists()

    @pytest.mark.parametrize("command", [["design"], ["simulate"]])
    @pytest.mark.parametrize("coupling, message", [
        ("omega_m_ghz = 1e308", "omega_m_ghz must be finite in rad/ns, got inf"),
        # finite as omega_M, but omega_M + delta overflows for A and B
        ("omega_m_ghz = 2.86e307\ndelta_mhz = 1.7e308",
         "omega_m_ghz + delta_mhz / 1000 must be finite in rad/ns, got inf"),
    ])
    def test_overflowing_chain_frequency_exits_1_naming_the_field(
            self, tmp_path, capsys, coupling, message, command):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text(f"[coupling]\n{coupling}\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out)] + command)
        assert code == EXIT_FAILURE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_target_phase_flag_exits_1(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "out"), "solve-lambda",
                     "--target-phase-rad", "nan"])
        assert code == EXIT_FAILURE
        assert "target_phase_rad must be finite" in capsys.readouterr().err

    def test_reports_refuse_a_non_finite_or_zero_step(self):
        # the step goes straight to the kernels: 0 is refused, not read as
        # the model's default step
        model = ideal_model(synthesize_pulses(0.4974, 145.0))
        for step in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="step must be finite"):
                metrics.fidelity_reports(model, np.eye(3), ["100"], step=step)


class TestStepCap:
    """A run of more than propagation.MAX_STEPS steps is refused before
    its records are allocated: exit 1, naming the step count."""

    def test_reports_refuse_a_full_qubit_model_of_too_many_steps(self):
        # omega_M = 1e6 GHz: the default step resolves a phase of 6.3e6
        # rad/ns, 5,800,004,000 steps over 145 ns
        cfg = ScenarioConfig(model="full_qubit", omega_m_ghz=1e6)
        _, pulses, theta, _ = cli._resolve_design(cfg)
        model = cli._build_model(cfg, pulses)
        with pytest.raises(ValueError, match="takes 5800004000 steps"):
            metrics.fidelity_reports(model, target_unitary(theta), ["100"])

    def test_simulate_exits_1_naming_the_step_count(self, tmp_path, capsys):
        cfg_path = tmp_path / "big.ini"
        cfg_path.write_text("[scenario]\nstep_ns = 1e-9\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out), "--model", "ideal",
                     "simulate", "--initial", "100"])
        assert code == EXIT_FAILURE
        assert "takes 145000000000 steps, over the 1000000 allowed" in capsys.readouterr().err
        assert not out.exists()


class TestSolveLambdaCommand:
    def test_solves_circulator_phase(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--out", str(out), "solve-lambda",
                     "--target-phase-rad", str(1.5 * np.pi)])
        assert code == EXIT_OK
        payload = json.loads((out / "lambda_solution.json").read_text())
        assert payload["lambda"] == pytest.approx(0.4974, abs=5e-4)
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed == payload

    def test_bad_bracket_exit_code(self, tmp_path):
        code = main(["--out", str(tmp_path / "out"), "solve-lambda",
                     "--target-phase-rad", "100.0", "--bracket", "0.3", "1.0"])
        assert code == EXIT_ROOT_FAILURE


class TestSweepCommand:
    def test_sweep_outputs_and_monotonicity(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--out", str(out), "sweep-lambda",
                     "--lo", "0.3", "--hi", "0.8", "-n", "6"])
        assert code == EXIT_OK
        rows = np.loadtxt(out / "lambda_sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (6, 3)
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["monotonic"] is True
        assert summary["direction"] == "decreasing"

    @pytest.mark.parametrize("bound, value", [
        ("--hi", "inf"), ("--hi", "nan"), ("--lo", "-inf"), ("--lo", "nan")])
    def test_non_finite_bound_is_refused_by_name(self, tmp_path, capsys, bound,
                                                  value):
        # an infinite --hi passed the 0 < lo < hi check and numpy warned on
        # the grid before the error
        out = tmp_path / "out"
        argv = ["--out", str(out), "sweep-lambda", "-n", "6", f"{bound}={value}"]
        assert main(argv) == EXIT_FAILURE
        assert f"{bound} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()


def _loaded_around(tmp_path, argv, prefixes):
    """Run cli.main(argv) in a fresh process and return the modules whose
    names start with one of prefixes, loaded before and after the run."""
    import nonrecip

    code = ("import json, sys, nonrecip.cli as cli\n"
            f"prefixes = {tuple(prefixes)!r}\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith(prefixes))\n"
            "print(json.dumps(loaded()))\n"
            f"assert cli.main({['--out', str(tmp_path / 'out')] + argv!r}) == 0\n"
            "print(json.dumps(loaded()))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(nonrecip.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return json.loads(out[0]), json.loads(out[-1])


class TestImports:
    @pytest.mark.parametrize("argv", [
        ["design"],
        ["solve-lambda"],
        ["sweep-lambda", "--lo", "0.3", "--hi", "0.8", "-n", "6"],
        ["--model", "ideal", "--no-noise", "simulate", "--initial", "100"],
        ["--model", "full_qubit", "--no-noise", "simulate", "--initial", "100"],
        ["simulate", "--initial", "100"],
        ["simulate", "--initial", "ensemble"],
    ], ids=["design", "solve-lambda", "sweep-lambda", "ideal-closed",
            "full_qubit-closed", "noisy-transfer", "noisy-ensemble"])
    def test_commands_load_no_scipy(self, tmp_path, argv):
        # J1 is a power series and the dissipator propagator a numpy Taylor
        # sum per site, so no command pays for importing scipy (about 0.3 s);
        # the Gauss-Legendre rules come from the Legendre recurrence, so none
        # loads numpy.polynomial or runs its companion-matrix eigensolve
        heavy = ("scipy", "multiprocessing", "numpy.polynomial")
        assert _loaded_around(tmp_path, argv, heavy) == ([], [])


# short and strongly coupled, so that the noisy d = 27 run takes a few
# thousand steps
SHORT_THREE_LEVEL = ("[scenario]\nmodel = full_three_level\ntau_ns = 29\n"
                     "[coupling]\ng_a_mhz = 50\ng_b_mhz = 50\n")


class TestNoLinalg:
    @pytest.mark.parametrize("scenario, argv", [
        (None, ["--no-noise", "simulate", "--initial", "100"]),
        (None, ["simulate", "--initial", "100"]),
        (SHORT_THREE_LEVEL, ["simulate", "--initial", "100"]),
    ], ids=["closed", "open-d8", "open-d27"])
    def test_commands_call_no_numpy_linalg(self, tmp_path, monkeypatch, scenario,
                                           argv):
        # check_density tests positivity by a numpy Cholesky, so that no
        # command pages in LAPACK (+0.75 MB of peak RSS at its first call)
        calls = []

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return wrapper

        for name in np.linalg.__all__:
            f = getattr(np.linalg, name)
            if callable(f) and not isinstance(f, type):
                monkeypatch.setattr(np.linalg, name, counted(name, f))
        args = ["--out", str(tmp_path / "out")]
        if scenario is not None:
            (tmp_path / "s.ini").write_text(scenario)
            args += ["--config", str(tmp_path / "s.ini")]
        assert main(args + argv) == EXIT_OK
        assert calls == []


class TestSimulateCommand:
    def test_ideal_transfer_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--out", str(out), "--model", "ideal", "--no-noise",
                     "simulate", "--initial", "100"])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"model", "noise", "steps", "step_ns", "trace_loss",
                               "phase_per_step_rad", "initial", "fidelity",
                               "final_populations", "final_leakage"}
        assert report["fidelity"] > 0.999
        assert report["noise"] is False
        assert 0.0 <= report["trace_loss"] <= 2e-6
        assert (out / "trajectory_100.csv").exists()

    def test_ideal_ensemble_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--out", str(out), "--model", "ideal", "--no-noise",
                     "simulate", "--initial", "ensemble"])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"model", "noise", "steps", "step_ns", "trace_loss",
                               "phase_per_step_rad", "f_m", "initial_fidelity"}
        assert report["f_m"] > 0.999
        assert report["initial_fidelity"] == pytest.approx(0.125, abs=1e-6)

    def test_report_csv_headers(self, tmp_path):
        # the models larger than the logical space add a leakage column
        transfer = "t_ns,pop_100,pop_010,pop_001,fidelity"
        leaky = "t_ns,pop_100,pop_010,pop_001,leakage,fidelity"
        ensemble = "t_ns,fidelity"
        cfg_path = tmp_path / "coarse.ini"
        cfg_path.write_text(serialize_config(ScenarioConfig(step_ns=0.05)))
        runs = [
            (["--model", "ideal", "--no-noise", "simulate", "--initial", "100"],
             {"trajectory_100.csv": transfer}),
            (["simulate", "--initial", "100"], {"trajectory_100.csv": leaky}),
            (["simulate", "--initial", "ensemble"], {"ensemble_fidelity.csv": ensemble}),
            (["reproduce-fig3"], {"fig3c_ensemble_fidelity.csv": ensemble,
                                  "fig3d_initial_100.csv": leaky,
                                  "fig3e_initial_001.csv": leaky,
                                  "fig3f_initial_010.csv": leaky}),
        ]
        for i, (argv, headers) in enumerate(runs):
            out = tmp_path / f"out{i}"
            assert main(["--config", str(cfg_path), "--out", str(out)] + argv) == EXIT_OK
            for name, header in headers.items():
                with open(out / name, encoding="utf-8") as f:
                    assert f.readline() == header + "\n", name


class TestOnePropagation:
    """Each command's reports come from one kernel call on the union of
    the members they need, and score against the designed unitary."""

    @staticmethod
    def members_per_call(monkeypatch) -> list[int]:
        """The member count of every kernel call that the reports make, or
        the shape of an input that is not a (k, d) or (k, d, d) block."""
        calls = []
        master, schrodinger = metrics.integrate_master, metrics.propagate_schrodinger

        def spy_master(h, channels, rho0, tau, step):
            calls.append(len(rho0) if rho0.ndim == 3 else np.shape(rho0))
            return master(h, channels, rho0, tau, step)

        def spy_schrodinger(h, psi, tau, step):
            calls.append(len(psi) if np.ndim(psi) == 2 else np.shape(psi))
            return schrodinger(h, psi, tau, step)

        monkeypatch.setattr(metrics, "integrate_master", spy_master)
        monkeypatch.setattr(metrics, "propagate_schrodinger", spy_schrodinger)
        return calls

    @pytest.mark.parametrize("model, noise", [("single_excitation", True),
                                              ("ideal", False)])
    @pytest.mark.parametrize("argv, members", [
        (["simulate", "--initial", "100"], [1]),
        (["simulate", "--initial", "ensemble"], [3]),
        (["reproduce-fig3"], [4])])
    def test_kernel_calls_per_command(self, tmp_path, monkeypatch, model, noise,
                                      argv, members):
        cfg_path = tmp_path / "coarse.ini"
        cfg_path.write_text(serialize_config(ScenarioConfig(
            model=model, noise=noise, step_ns=0.05)))
        calls = self.members_per_call(monkeypatch)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]
                    + argv) == EXIT_OK
        assert calls == members

    @pytest.mark.parametrize("noise", [True, False], ids=["noisy", "closed"])
    def test_fig3_panels_equal_simulate_runs(self, tmp_path, noise):
        # 1.5 pi solves the same lambda that reproduce-fig3 solves
        cfg_path = tmp_path / "circulator.ini"
        cfg_path.write_text(serialize_config(ScenarioConfig(
            lambda_=None, target_phase_rad=4.71238898038469, step_ns=0.05)))
        flags = ["--config", str(cfg_path)] + ([] if noise else ["--no-noise"])
        fig3 = tmp_path / "fig3"
        assert main(flags + ["--out", str(fig3), "reproduce-fig3"]) == EXIT_OK
        panels = json.loads((fig3 / "fig3_summary.json").read_text())["panels"]
        for panel, initial, csv in (("c", "ensemble", "ensemble_fidelity.csv"),
                                    ("d", "100", "trajectory_100.csv"),
                                    ("e", "001", "trajectory_001.csv"),
                                    ("f", "010", "trajectory_010.csv")):
            out = tmp_path / initial
            assert main(flags + ["--out", str(out), "simulate",
                                 "--initial", initial]) == EXIT_OK
            name = ("fig3c_ensemble_fidelity.csv" if panel == "c"
                    else f"fig3{panel}_initial_{initial}.csv")
            assert (fig3 / name).read_bytes() == (out / csv).read_bytes()
            report = json.loads((out / "report.json").read_text())
            assert report["noise"] is noise
            key = "f_m" if panel == "c" else "fidelity"
            assert panels[panel]["f_m" if panel == "c" else "f_s"] == report[key]

    def test_ensemble_scores_the_designed_unitary(self, tmp_path, capsys):
        # the ideal model realises U(theta_plus) for any designed phase;
        # fixed circulator targets read F_m = 0.786374 here
        cfg_path = tmp_path / "phase4.ini"
        cfg_path.write_text(serialize_config(ScenarioConfig(
            model="ideal", tau_ns=200.0, lambda_=None, target_phase_rad=4.0)))
        for initial in ("ensemble", "100", "010", "001"):
            out = tmp_path / initial
            assert main(["--config", str(cfg_path), "--out", str(out), "simulate",
                         "--initial", initial]) == EXIT_OK
            report = json.loads((out / "report.json").read_text())
            assert report["f_m" if initial == "ensemble" else "fidelity"] >= 1.0 - 1e-9


class TestFailureReporting:
    @pytest.mark.parametrize("argv, code", [
        (["--bogus", "design"], EXIT_FAILURE),
        (["sweep-lambda", "--lo", "-inf"], EXIT_FAILURE),
        (["simulate", "--initial", "7"], EXIT_FAILURE),
        (["--help"], EXIT_OK),
    ], ids=["unknown-flag", "flag-without-value", "invalid-choice", "help"])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv, code):
        # argparse's own usage-error code, 2, is the unattainable-drive code
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out)] + argv)
        assert exc.value.code == code
        err = capsys.readouterr().err
        assert ("error: " in err) == (code == EXIT_FAILURE)
        assert not out.exists()

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        # main parses with the one parser built at import, so no later call
        # adds an argument to a parser
        def refuse(*args, **kwargs):
            raise AssertionError("a parser was built after import")

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
        out = str(tmp_path / "out")
        assert main(["--out", out, "design"]) == EXIT_OK
        assert main(["--out", out, "simulate", "--initial", "010"]) == EXIT_OK

    @pytest.mark.parametrize("tau, code", [("1e-160", EXIT_FAILURE), ("1e-100", EXIT_OK)])
    def test_non_finite_hamiltonian_is_refused(self, tmp_path, capsys, tau, code):
        # at tau = 1e-160 ns the pulse interpolant's slopes overflow and H(t)
        # is not finite, which no smaller step could mend; numpy's warnings
        # would raise here, and stderr holds the one error line
        cfg_path = tmp_path / "short.ini"
        cfg_path.write_text(f"[scenario]\nmodel = ideal\ntau_ns = {tau}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == code
        err = capsys.readouterr().err.splitlines()
        if code == EXIT_OK:
            assert err == []
        else:
            assert err == ["error: Hamiltonian lost Hermiticity: its values are not "
                           "finite; a propagation would not conserve probability"]
            assert not (out / "report.json").exists()

    def test_overflowing_closed_run_exits_1(self, tmp_path, capsys):
        # step 1.5 ns cannot resolve the full chain; the states overflow
        # unless the trace-loss rule refuses the run first
        cfg_path = tmp_path / "coarse.ini"
        cfg_path.write_text("[scenario]\nmodel = full_three_level\n"
                            "tau_ns = 600\nstep_ns = 1.5\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out), "--no-noise",
                     "simulate", "--initial", "100"])
        assert code == EXIT_FAILURE
        assert "reduce the step" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_uncountable_default_step_exits_1(self, tmp_path, capsys):
        # a finite omega_M whose full-chain phase rate times tau overflows
        # the step count
        cfg_path = tmp_path / "fast.ini"
        cfg_path.write_text("[coupling]\nomega_m_ghz = 1e307\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_path), "--out", str(out),
                     "--model", "full_qubit", "simulate"])
        assert code == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert err.startswith("error: phase rate 1.2566370614359173e+308 rad/ns")
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["simulate"], EXIT_FAILURE),
        (["design"], EXIT_OK),
        # the full chains run detuned drives as they are
        (["--model", "full_qubit", "--no-noise", "simulate"], EXIT_OK),
    ])
    def test_detuned_drive_refused_by_the_single_excitation_model_only(
            self, tmp_path, capsys, argv, code):
        cfg_path = tmp_path / "detuned.ini"
        cfg_path.write_text("[coupling]\nnu_mhz = 300\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out)] + argv) == code
        refused = "resonance condition delta_j = nu_j not satisfied"
        assert (refused in capsys.readouterr().err) == (code == EXIT_FAILURE)
        assert (out / "report.json").exists() == (argv[-1] == "simulate"
                                                  and code == EXIT_OK)

    def test_resonant_drive_runs_at_a_large_chain_frequency(self, tmp_path, capsys):
        # at omega_M = 2 pi 1e7 rad/ns one ulp of omega is 7.5e-9, so the
        # rounding of omega_j - omega_M exceeds 1e-9; the resonance check
        # allows for it, and still refuses a detuned drive there
        for extra, code in (("", EXIT_OK), ("nu_mhz = 300\n", EXIT_FAILURE)):
            cfg_path = tmp_path / "far.ini"
            cfg_path.write_text("[coupling]\nomega_m_ghz = 1e7\n" + extra)
            out = tmp_path / f"out{code}"
            argv = ["--config", str(cfg_path), "--out", str(out), "simulate",
                    "--initial", "100"]
            assert main(argv) == code
            refused = "resonance condition delta_j = nu_j not satisfied"
            assert (refused in capsys.readouterr().err) == (code == EXIT_FAILURE)

    def test_unwritable_output_exits_1_naming_the_path(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        code = main(["--out", str(out), "--model", "ideal", "design"])
        assert code == EXIT_FAILURE
        assert str(out) in capsys.readouterr().err

    def test_integrator_error_exit_code(self, tmp_path, monkeypatch, capsys,
                                        break_hermiticity):
        build = cli._build_model
        monkeypatch.setattr(cli, "_build_model",
                            lambda c, p: break_hermiticity(build(c, p)))
        code = main(["--out", str(tmp_path / "out"), "--model", "ideal",
                     "simulate", "--initial", "100"])
        assert code == EXIT_FAILURE
        assert "lost Hermiticity" in capsys.readouterr().err

    def test_failed_panel_records_error_type(self, tmp_path, monkeypatch):
        # panels c-f share one propagation, so they fail together
        def broken(*args, **kwargs):
            raise IntegratorError("forced failure")

        monkeypatch.setattr(cli, "fidelity_reports", broken)
        out = tmp_path / "out"
        code = main(["--out", str(out), "--model", "ideal", "--no-noise",
                     "reproduce-fig3"])
        assert code == EXIT_FAILURE
        panels = json.loads((out / "fig3_summary.json").read_text())["panels"]
        failed = {"status": "failed", "error": "forced failure",
                  "error_type": "IntegratorError"}
        assert [panels[name] for name in "cdef"] == [failed] * 4
        assert panels["a"]["status"] == panels["b"]["status"] == "ok"
        assert not list(out.glob("fig3[c-f]_*.csv"))

    def test_ideal_fig3_summary_reports_no_noise(self, tmp_path):
        # the ideal model has no channels, so its panels run closed even
        # with noise on, and the summary says so as report.json does
        out = tmp_path / "out"
        assert main(["--out", str(out), "--model", "ideal", "reproduce-fig3"]) == 0
        assert json.loads((out / "fig3_summary.json").read_text())["noise"] is False
        assert main(["--out", str(out), "--model", "ideal", "simulate",
                     "--initial", "ensemble"]) == 0
        assert json.loads((out / "report.json").read_text())["noise"] is False
