"""Command-line front end: pulse design, lambda sweeps, simulation runs
and the reference-figure reproduction bundle.

Exit codes: 0 success, 1 generic failure (a command-line usage error
included), 2 unattainable drive, 3 root-finding failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import invariant as inv
from .config import (
    MODELS,
    ScenarioConfig,
    THETA_CIRCULATOR,
    load_config,
    with_overrides,
)
from .devices import (
    SimulationModel,
    UnattainableDriveError,
    full_chain_model,
    ideal_model,
    invert_bessel_drive,
    single_excitation_model,
)
from .invariant import PulseDivergenceError, RootBracketError, NonMonotonicBracketError
from .metrics import fidelity_reports
from .reporting import write_csv, write_json

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNATTAINABLE_DRIVE = 2
EXIT_ROOT_FAILURE = 3

REFERENCE_LAMBDA = 0.4974
REFERENCE_F_S = {"100": 0.9908, "001": 0.9925, "010": 0.9928}
REFERENCE_F_M = 0.9923

RECIPROCAL_TOL = 1e-3


def _resolve_design(cfg: ScenarioConfig):
    """(lambda, pulses, |theta_plus|, its quadrature error) for the
    scenario."""
    lam = cfg.lambda_
    if lam is None:
        lam = inv.solve_lambda(cfg.target_phase_rad)
    pulses = inv.synthesize_pulses(inv.AuxiliaryTrajectory(lam, cfg.tau_ns))
    (theta,), (error,), _ = inv.theta_plus_magnitudes(lam)
    return lam, pulses, float(theta), float(error)


def _chain_drives(cfg: ScenarioConfig, pulses):
    """(chain, drives) of a device model: the scenario's chain and the
    Bessel-inverted drive envelopes of the pulses on it."""
    chain = cfg.chain_spec()
    return chain, invert_bessel_drive(pulses, chain)


def _build_model(cfg: ScenarioConfig, pulses) -> SimulationModel:
    if cfg.model == "ideal":
        return ideal_model(pulses)
    build = (single_excitation_model if cfg.model == "single_excitation"
             else full_chain_model)
    return build(*_chain_drives(cfg, pulses))


def _reports(cfg: ScenarioConfig, model: SimulationModel, theta_plus: float,
             initials) -> dict[str, tuple[dict, dict]]:
    """The (summary, columns) of each initial, "ensemble" or a logical
    basis label, against the designed unitary, all from one propagation
    at the model's default step unless the scenario sets step_ns."""
    return fidelity_reports(model, inv.target_unitary(theta_plus), initials,
                            noise=cfg.noise, step=cfg.step_ns)


def cmd_design(cfg: ScenarioConfig, out_dir: Path) -> int:
    lam, pulses, theta, error = _resolve_design(cfg)
    pulses.write_csv(out_dir / "pulses.csv")
    theta_mod = theta % (2.0 * math.pi)
    summary = {
        "lambda": lam,
        "tau_ns": cfg.tau_ns,
        "theta_plus_rad": theta,
        "theta_plus_mod_2pi_rad": theta_mod,
        "theta_plus_raw_rad": -theta,
        "theta_plus_quad_error": error,
        "character": ("reciprocal" if abs(theta_mod - math.pi) < RECIPROCAL_TOL
                      else "non_reciprocal"),
    }
    if cfg.lambda_ is None:
        summary["lambda_residual_rad"] = abs(theta - cfg.target_phase_rad)
    if cfg.model != "ideal":
        chain, drives = _chain_drives(cfg, pulses)
        drives.write_csv(out_dir / "eta.csv")
        summary["bessel_peak_ratio_a"] = float(abs(pulses.g_a).max() / (2 * chain.g_a))
        summary["bessel_peak_ratio_b"] = float(abs(pulses.g_b).max() / (2 * chain.g_b))
    write_json(out_dir / "design_summary.json", summary)
    print(f"design: lambda = {lam:.6f}, "
          f"|theta_plus| = {theta:.6f} rad ({summary['character']})")
    return EXIT_OK


def cmd_solve_lambda(cfg: ScenarioConfig, out_dir: Path,
                     bracket: tuple[float, float]) -> int:
    target = cfg.target_phase_rad
    if target is None:
        target = THETA_CIRCULATOR
    lam = inv.solve_lambda(target, bracket=bracket)
    theta = inv.theta_plus_magnitudes(lam)[0][0]
    payload = {"lambda": lam, "target_phase_rad": target, "theta_plus_rad": theta}
    print(json.dumps(payload, sort_keys=True))
    write_json(out_dir / "lambda_solution.json", payload)
    return EXIT_OK


def _write_sweep(path: Path, lams) -> np.ndarray:
    """Write the rows (lambda, |theta_plus|, |theta_plus| mod 2 pi) from one
    vectorised phase quadrature (tau drops out) and return |theta_plus|."""
    thetas = inv.theta_plus_magnitudes(lams)[0]
    write_csv(path, {"lambda": lams, "theta_plus_rad": thetas,
                     "theta_plus_mod_2pi_rad": thetas % (2.0 * math.pi)})
    return thetas


def cmd_sweep_lambda(lo: float, hi: float, n: int, out_dir: Path) -> int:
    for name, value in (("--lo", lo), ("--hi", hi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (0.0 < lo < hi) or n < 2:
        raise ValueError("sweep requires 0 < lo < hi and n >= 2")
    diffs = np.diff(_write_sweep(out_dir / "lambda_sweep.csv", np.linspace(lo, hi, n)))
    direction = ("decreasing" if np.all(diffs < 0) else
                 "increasing" if np.all(diffs > 0) else "none")
    monotonic = direction != "none"
    write_json(out_dir / "sweep_summary.json", {
        "lo": lo, "hi": hi, "n": n, "monotonic": monotonic, "direction": direction})
    print(f"sweep: {n} points on [{lo}, {hi}], monotonic={'yes' if monotonic else 'no'}")
    return EXIT_OK


def cmd_simulate(cfg: ScenarioConfig, initial: str, out_dir: Path) -> int:
    _, pulses, theta, _ = _resolve_design(cfg)
    summary, columns = _reports(cfg, _build_model(cfg, pulses), theta, [initial])[initial]
    write_csv(out_dir / ("ensemble_fidelity.csv" if initial == "ensemble"
                         else f"trajectory_{initial}.csv"), columns)
    write_json(out_dir / "report.json", summary)
    if initial == "ensemble":
        print(f"simulate[ensemble]: F_m = {summary['f_m']:.6f} "
              f"(t=0 value {summary['initial_fidelity']:.4f})")
    else:
        print(f"simulate[{initial}]: F_s = {summary['fidelity']:.6f}")
    return EXIT_OK


def cmd_reproduce_fig3(cfg: ScenarioConfig, out_dir: Path) -> int:
    """Panels a (lambda sweep) and b (pulses), then c (ensemble) and d-f
    (transfers from 100, 001, 010) from one propagation.  When that
    propagation fails, panels c-f are failed with its error and the
    summary is still written; a failed write ends the command."""
    cfg = with_overrides(cfg, target_phase_rad=THETA_CIRCULATOR)
    lam, pulses, theta, _ = _resolve_design(cfg)
    model = _build_model(cfg, pulses)
    _write_sweep(out_dir / "fig3a_lambda_sweep.csv", np.linspace(0.15, 1.0, 35))
    pulses.write_csv(out_dir / "fig3b_pulses.csv")
    panels = {
        "a": {"lambda": lam, "lambda_matches": abs(lam - REFERENCE_LAMBDA) <= 5e-4,
              "status": "ok"},
        "b": {"theta_plus_rad": theta, "status": "ok"},
    }
    initials = {"c": "ensemble", "d": "100", "e": "001", "f": "010"}
    try:
        reports = _reports(cfg, model, theta, initials.values())
    except Exception as exc:  # noqa: BLE001 - panels a and b still stand
        panels.update(dict.fromkeys(initials, {
            "status": "failed", "error": str(exc), "error_type": type(exc).__name__}))
    else:
        for panel, initial in initials.items():
            summary, columns = reports[initial]
            if initial == "ensemble":
                write_csv(out_dir / "fig3c_ensemble_fidelity.csv", columns)
                panels[panel] = {
                    "f_m": summary["f_m"], "initial_fidelity": summary["initial_fidelity"],
                    "f_m_matches": abs(summary["f_m"] - REFERENCE_F_M) <= 5e-3}
            else:
                write_csv(out_dir / f"fig3{panel}_initial_{initial}.csv", columns)
                f_s = summary["fidelity"]
                panels[panel] = {"initial": initial, "f_s": f_s,
                                 "f_s_matches": abs(f_s - REFERENCE_F_S[initial]) <= 5e-3}
            panels[panel]["status"] = "ok"
    write_json(out_dir / "fig3_summary.json", {
        "panels": panels, "model": cfg.model, "noise": model.is_open(cfg.noise),
        "reference": {"lambda": REFERENCE_LAMBDA, "f_s": REFERENCE_F_S,
                      "f_m": REFERENCE_F_M}})
    for name, payload in panels.items():
        print(f"panel {name}: {payload['status']}")
    failed = any(p["status"] == "failed" for p in panels.values())
    return EXIT_FAILURE if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors exit EXIT_FAILURE instead of
    2, which is EXIT_UNATTAINABLE_DRIVE here.  Subparsers are of the same
    class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAILURE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonrecip",
        description="Pulse design and simulation for a non-reciprocal "
                    "three-level circulator.",
    )
    parser.add_argument("--config", type=Path, help="scenario config file")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--no-noise", action="store_true",
                        help="disable the Lindblad channels")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("design")
    p = sub.add_parser("solve-lambda")
    p.add_argument("--target-phase-rad", type=float)
    p.add_argument("--bracket", type=float, nargs=2, default=(0.1, 1.0))
    p = sub.add_parser("sweep-lambda")
    p.add_argument("--lo", type=float, default=0.15)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("-n", "--num", type=int, default=35)
    p = sub.add_parser("simulate")
    p.add_argument("--initial", default="100",
                   choices=("100", "010", "001", "ensemble"))
    sub.add_parser("reproduce-fig3")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.model:
        overrides["model"] = args.model
    if args.no_noise:
        overrides["noise"] = False
    if getattr(args, "target_phase_rad", None) is not None:
        overrides["target_phase_rad"] = args.target_phase_rad
    out_dir = args.out
    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        cfg = with_overrides(cfg, **overrides)
        if args.command == "design":
            code = cmd_design(cfg, out_dir)
        elif args.command == "solve-lambda":
            code = cmd_solve_lambda(cfg, out_dir, bracket=tuple(args.bracket))
        elif args.command == "sweep-lambda":
            code = cmd_sweep_lambda(args.lo, args.hi, args.num, out_dir)
        elif args.command == "simulate":
            code = cmd_simulate(cfg, args.initial, out_dir)
        else:  # reproduce-fig3: argparse enforces the choices
            code = cmd_reproduce_fig3(cfg, out_dir)
    except (UnattainableDriveError, PulseDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNATTAINABLE_DRIVE
    except (RootBracketError, NonMonotonicBracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ROOT_FAILURE
    except (ValueError, RuntimeError, OSError) as exc:  # OSError names its file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return code


if __name__ == "__main__":
    sys.exit(main())
