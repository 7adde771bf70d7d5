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
            cfg: PropagationConfig | None) -> tuple[dict, np.ndarray]:
    """Propagate the k initial model-space vectors from 0 to tau in one
    call (at the model's default step when cfg is None) and return the
    RunReport fields it fixes, all but the fidelity curve, and rho(t) as a
    (k, records, d, d) array.

    H is first checked to be Hermitian at 65 times: both kernels refuse
    a member only once the raw step maps change its trace by over 2e-6,
    and below that an open run's projected maps would hide a non-Hermitian
    H.  A closed run (noise off, or a model without channels) propagates
    the states as a (d, k) block of psi columns and forms psi psi^H; an
    open run propagates the (k, d, d) block of psi psi^H, and also checks
    every final state with check_density.  A single state goes in
    unbatched, as a PureState or one (d, d) matrix: the per-state calls
    whose steps perfbench's traced worker counts."""
    cfg = cfg or PropagationConfig(step=model.default_step)
    noise = noise and bool(model.channels)
    psi = np.column_stack(initial_states)
    one = psi.shape[1] == 1
    h = model.hamiltonian.matrices(np.linspace(0.0, model.tau, 65))
    if np.max(np.abs(h - h.conj().transpose(0, 2, 1))) > 1e-9:
        raise IntegratorError("Hamiltonian lost Hermiticity; a propagation "
                              "would not conserve probability")
    if noise:
        rho0 = psi.T[:, :, None] * psi.T[:, None, :].conj()
        traj = integrate_master(model.hamiltonian, model.channels,
                                rho0[0] if one else rho0, model.tau, cfg)
        shape = (len(traj.times), -1, model.dim, model.dim)
        rhos = traj.states.reshape(shape).swapaxes(0, 1)
    else:
        traj = propagate_schrodinger(model.hamiltonian,
                                     PureState(psi[:, 0]) if one else psi,
                                     model.tau, cfg)
        x = traj.states.reshape(len(traj.times), model.dim, -1).transpose(2, 0, 1)
        rhos = x[..., :, None] * x[..., None, :].conj()
    run = dict(times=traj.times, model_name=model.name, noise=noise,
               steps=traj.steps, step_ns=traj.step,
               phase_per_step_rad=model.phase_rate * traj.step,
               trace_loss=traj.trace_loss)
    return run, rhos


def transfer_fidelity(model: SimulationModel, initial: str, target: PureState,
                      noise: bool = True,
                      cfg: PropagationConfig | None = None) -> TransferReport:
    """Propagate a logical basis state and report its fidelity to the
    target, a state of the 3-dimensional logical space placed at the
    model's logical indices, with per-state population curves and (for
    models larger than the logical space) the leakage out of it."""
    if target.dim != 3:
        raise ValueError(f"target dim {target.dim} is not the 3-dimensional "
                         "logical space")
    target_vec = np.zeros(model.dim, dtype=complex)
    target_vec[list(model.logical_indices)] = target.amplitudes
    initial_vec = np.eye(model.dim)[model.logical_index(initial)]
    run, (rhos,) = _evolve(model, [initial_vec], noise, cfg)

    populations = {
        label: rhos[:, i, i].real
        for label, i in zip(SINGLE_EXCITATION_LABELS, model.logical_indices)
    }
    leakage = None
    if model.dim > 3:
        total = sum(populations.values())
        leakage = np.clip(np.trace(rhos, axis1=1, axis2=2).real - total, 0.0, None)
    curve = (rhos @ target_vec @ target_vec.conj()).real
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
    i100, i010, i001 = model.logical_indices
    e010, e001 = np.eye(model.dim)[[i010, i001]]
    run, (rho_010, rho_001, rho_plus) = _evolve(
        model, [e010, e001, (e010 + e001) / math.sqrt(2.0)], noise, cfg)
    # the (records, 2, 2) stacks of (|100>, |010>) blocks, the targets' span
    block = (slice(None),) + np.ix_([i100, i010], [i100, i010])
    r010, r001, r_plus = (r[block].real for r in (rho_010, rho_001, rho_plus))
    x = 2.0 * r_plus - r010 - r001
    curve = (3.0 * r010[:, 0, 0] + r010[:, 1, 1] + r001[:, 0, 0]
             + 3.0 * r001[:, 1, 1] + x[:, 0, 1] + x[:, 1, 0]) / 8.0
    return EnsembleReport(**run, fidelity_curve=curve)
