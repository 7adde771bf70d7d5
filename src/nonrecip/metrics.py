"""Fidelities, population traces and the exact ensemble average."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devices import SINGLE_EXCITATION_LABELS, SimulationModel
from .propagation import (
    IntegratorError,
    PropagationConfig,
    integrate_master,
    propagate_schrodinger,
)
from .reporting import write_csv
from .statespace import PureState


@dataclass
class RunReport:
    """What every fidelity run reports: the record times and the fidelity
    at each, the model, whether its channels were on, the step count and
    size (ns), the model's phase-rate bound times that size (rad; at most
    2 pi / 20 at the default step), and the worst member's change in
    trace that the raw step maps caused (Trajectory.trace_loss)."""

    times: np.ndarray
    fidelity_curve: np.ndarray
    model_name: str
    noise: bool
    steps: int
    step_ns: float
    phase_per_step_rad: float
    trace_loss: float

    def to_json_dict(self) -> dict:
        return {"model": self.model_name, "noise": self.noise,
                "steps": self.steps, "step_ns": self.step_ns,
                "phase_per_step_rad": self.phase_per_step_rad,
                "trace_loss": self.trace_loss}

    def columns(self) -> dict[str, np.ndarray]:
        """The report's own CSV columns, written between t_ns and fidelity."""
        return {}

    def write_csv(self, path):
        write_csv(path, {"t_ns": self.times, **self.columns(),
                         "fidelity": self.fidelity_curve})


@dataclass
class TransferReport(RunReport):
    """Populations and final fidelity for a single basis-state transfer."""

    initial_label: str
    populations: dict[str, np.ndarray]
    leakage: np.ndarray | None = None

    @property
    def fidelity(self) -> float:
        return float(np.clip(self.fidelity_curve[-1], 0.0, 1.0))

    def to_json_dict(self) -> dict:
        final = {k: float(v[-1]) for k, v in self.populations.items()}
        leakage = float(self.leakage[-1]) if self.leakage is not None else 0.0
        return {**super().to_json_dict(), "initial": self.initial_label,
                "fidelity": self.fidelity, "final_populations": final,
                "final_leakage": leakage}

    def columns(self) -> dict[str, np.ndarray]:
        columns = {f"pop_{k}": v for k, v in self.populations.items()}
        if self.leakage is not None:
            columns["leakage"] = self.leakage
        return columns


@dataclass
class EnsembleReport(RunReport):
    """Uniform-average fidelity over a one-parameter family of inputs."""

    @property
    def f_m(self) -> float:
        return float(self.fidelity_curve[-1])

    @property
    def initial_fidelity(self) -> float:
        return float(self.fidelity_curve[0])

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "f_m": self.f_m,
                "initial_fidelity": self.initial_fidelity}


def _evolve(model: SimulationModel, initial_states, noise: bool,
            cfg: PropagationConfig | None) -> tuple[dict, np.ndarray, np.ndarray]:
    """Propagate the k initial model-space vectors from 0 to tau in one
    call (at the model's default step when cfg is None) and return the
    RunReport fields it fixes, all but the fidelity curve, the (k,
    records, 3, 3) block of rho(t) on the logical indices and the (k,
    records) trace of rho(t).

    H is first checked to be Hermitian at 65 times: both kernels refuse
    a member only once the raw step maps change its trace by over 2e-6,
    and below that an open run's projected maps would hide a non-Hermitian
    H.  A closed run (not model.is_open(noise)) propagates a (d, k) block
    of psi columns and forms the block from the logical amplitudes only;
    an open run propagates the (k, d, d) block of psi psi^H, and also
    checks every final state with check_density.  A single state goes in
    unbatched, as a PureState or one (d, d) matrix: the per-state calls
    whose steps perfbench's traced worker counts."""
    cfg = cfg or PropagationConfig(step=model.default_step)
    noise = model.is_open(noise)
    idx = np.array(model.logical_indices)
    psi = np.column_stack(initial_states)
    d, k = psi.shape
    h = model.hamiltonian.matrices(np.linspace(0.0, model.tau, 65))
    if np.max(np.abs(h - h.conj().transpose(0, 2, 1))) > 1e-9:
        raise IntegratorError("Hamiltonian lost Hermiticity; a propagation "
                              "would not conserve probability")
    if noise:
        rho0 = psi.T[:, :, None] * psi.T[:, None, :].conj()
        traj = integrate_master(model.hamiltonian, model.channels,
                                rho0[0] if k == 1 else rho0, model.tau, cfg)
        rhos = traj.states.reshape(len(traj.times), k, d, d).swapaxes(0, 1)
        # one advanced index: chained ones make a (k, records, 3, d) copy
        blocks = rhos[..., idx[:, None], idx]
        traces = np.trace(rhos, axis1=2, axis2=3).real
    else:
        traj = propagate_schrodinger(model.hamiltonian,
                                     PureState(psi[:, 0]) if k == 1 else psi,
                                     model.tau, cfg)
        x = traj.states.reshape(len(traj.times), d, k).transpose(2, 0, 1)
        amps = x[..., idx]
        blocks = amps[..., :, None] * amps[..., None, :].conj()
        # np.trace(psi psi^H) bit for bit; (x * x.conj()).real.sum() is not
        traces = (x * x.conj()).sum(axis=-1).real
    run = dict(times=traj.times, model_name=model.name, noise=noise,
               steps=traj.steps, step_ns=traj.step,
               phase_per_step_rad=model.phase_rate * traj.step,
               trace_loss=traj.trace_loss)
    return run, blocks, traces


def transfer_fidelity(model: SimulationModel, initial: str, target: PureState,
                      noise: bool = True,
                      cfg: PropagationConfig | None = None) -> TransferReport:
    """Propagate a logical basis state and report its fidelity to the
    target, a state of the 3-dimensional logical space, with per-state
    population curves and (for models larger than the logical space) the
    leakage out of it, the trace of rho(t) less the three populations."""
    if target.dim != 3:
        raise ValueError(f"target dim {target.dim} is not the 3-dimensional "
                         "logical space")
    initial_vec = np.eye(model.dim)[model.logical_index(initial)]
    run, (block,), (trace,) = _evolve(model, [initial_vec], noise, cfg)

    populations = {label: block[:, i, i].real
                   for i, label in enumerate(SINGLE_EXCITATION_LABELS)}
    leakage = (np.clip(trace - sum(populations.values()), 0.0, None)
               if model.dim > 3 else None)
    curve = (block @ target.amplitudes @ target.amplitudes.conj()).real
    return TransferReport(**run, fidelity_curve=curve, initial_label=initial,
                          populations=populations, leakage=leakage)


def ensemble_fidelity(model: SimulationModel, noise: bool = True,
                      cfg: PropagationConfig | None = None) -> EnsembleReport:
    """Average fidelity of the send-and-receive protocol.

    Inputs cos(v)|010> + sin(v)|001> map to targets
    i cos(v)|100> + i sin(v)|010>; F_m is the fidelity averaged uniformly
    over v.  By linearity each input ends in c^2 rho_010 + s^2 rho_001 +
    c s X (c = cos v, s = sin v), where X = 2 rho_+ - rho_010 - rho_001
    and rho_010, rho_001, rho_+ propagate |010>, |001> and
    (|010> + |001>)/sqrt(2).  Its fidelity is quartic in (c, s), so the
    average is exact from <c^4> = <s^4> = 3/8, <c^2 s^2> = 1/8 and
    vanishing odd moments: F_m = (3 a_010 + e_010 + a_001 + 3 e_001 +
    b_X) / 8, with a and e the <100|.|100> and <010|.|010> entries and
    b_X = <100|X|010> + <010|X|100>, all real parts.
    """
    e010, e001 = np.eye(model.dim)[list(model.logical_indices[1:])]
    run, blocks, _ = _evolve(
        model, [e010, e001, (e010 + e001) / math.sqrt(2.0)], noise, cfg)
    # the (records, 2, 2) stacks of (|100>, |010>) blocks, the targets' span
    r010, r001, r_plus = blocks[..., :2, :2].real
    x = 2.0 * r_plus - r010 - r001
    curve = (3.0 * r010[:, 0, 0] + r010[:, 1, 1] + r001[:, 0, 0]
             + 3.0 * r001[:, 1, 1] + x[:, 0, 1] + x[:, 1, 0]) / 8.0
    return EnsembleReport(**run, fidelity_curve=curve)
