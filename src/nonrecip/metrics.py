"""Fidelities, population traces, ensemble averages and non-reciprocity
quantifiers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devices import SINGLE_EXCITATION_LABELS, SimulationModel
from .propagation import (
    IntegratorError,
    PropagationConfig,
    Trajectory,
    integrate_master,
    propagate_schrodinger,
)
from .statespace import PureState

ISOLATION_FLOOR_DB = -120.0


@dataclass
class TransferReport:
    """Populations and final fidelity for a single basis-state transfer."""

    initial_label: str
    fidelity: float
    times: np.ndarray
    populations: dict[str, np.ndarray]
    fidelity_curve: np.ndarray
    leakage: np.ndarray | None = None
    model_name: str = ""
    noise: bool = True
    steps: int = 0
    step_ns: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "initial": self.initial_label,
            "model": self.model_name,
            "noise": self.noise,
            "steps": self.steps,
            "step_ns": self.step_ns,
            "fidelity": self.fidelity,
            "final_populations": {
                k: float(v[-1]) for k, v in self.populations.items()
            },
            "final_leakage": (
                float(self.leakage[-1]) if self.leakage is not None else 0.0
            ),
        }

    def write_csv(self, path):
        from .reporting import write_csv

        labels = list(self.populations)
        header = ["t_ns"] + [f"pop_{k}" for k in labels]
        columns = [self.times] + [self.populations[k] for k in labels]
        if self.leakage is not None:
            header.append("leakage")
            columns.append(self.leakage)
        header.append("fidelity")
        columns.append(self.fidelity_curve)
        write_csv(path, header, zip(*columns))


@dataclass
class EnsembleReport:
    """Uniform-average fidelity over a one-parameter family of inputs."""

    count: int
    f_m: float
    times: np.ndarray
    fidelity_curve: np.ndarray
    model_name: str = ""
    noise: bool = True
    steps: int = 0
    step_ns: float = 0.0

    @property
    def initial_fidelity(self) -> float:
        return float(self.fidelity_curve[0])

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "model": self.model_name,
            "noise": self.noise,
            "steps": self.steps,
            "step_ns": self.step_ns,
            "f_m": self.f_m,
            "initial_fidelity": self.initial_fidelity,
        }

    def write_csv(self, path):
        from .reporting import write_csv

        write_csv(path, ["t_ns", "fidelity"], zip(self.times, self.fidelity_curve))


def _evolve(model: SimulationModel, initial_states, noise: bool,
            cfg: PropagationConfig) -> tuple[Trajectory, np.ndarray]:
    """Propagate the k initial model-space vectors from 0 to tau in one
    call and return its trajectory (record times, steps, step size) and
    rho(t) as a (k, records, d, d) array.

    A closed run (noise off, or a model without channels) propagates the
    states as a (d, k) block of psi columns, once H is checked to be
    Hermitian at 65 times, and forms psi psi^H; an open run propagates the
    (k, d, d) block of psi psi^H, and integrate_master checks every final
    state.  A single state goes in unbatched, as a PureState or one
    (d, d) matrix: the per-state calls whose steps perfbench's traced
    worker counts."""
    psi = np.column_stack(initial_states)
    one = psi.shape[1] == 1
    if noise and model.channels:
        rho0 = psi.T[:, :, None] * psi.T[:, None, :].conj()
        traj = integrate_master(model.hamiltonian, model.channels,
                                rho0[0] if one else rho0, model.tau, cfg)
        shape = (len(traj.times), -1, model.dim, model.dim)
        return traj, traj.states.reshape(shape).swapaxes(0, 1)
    h = model.hamiltonian.matrices(np.linspace(0.0, model.tau, 65))
    if np.max(np.abs(h - h.conj().transpose(0, 2, 1))) > 1e-9:
        raise IntegratorError("Hamiltonian lost Hermiticity; a closed "
                              "run would not conserve the norm")
    traj = propagate_schrodinger(model.hamiltonian, PureState(psi[:, 0]) if one else psi,
                                 model.tau, cfg)
    x = traj.states.reshape(len(traj.times), model.dim, -1).transpose(2, 0, 1)
    return traj, x[..., :, None] * x[..., None, :].conj()


def transfer_fidelity(
    model: SimulationModel,
    initial: str,
    target: PureState,
    noise: bool = True,
    cfg: PropagationConfig | None = None,
) -> TransferReport:
    """Propagate a logical basis state and report its fidelity to the
    target, a state of the 3-dimensional logical space placed at the
    model's logical indices, with per-state population curves and (for
    models larger than the logical space) the leakage out of it."""
    if target.dim != 3:
        raise ValueError(f"target dim {target.dim} is not the 3-dimensional "
                         "logical space")
    cfg = cfg or PropagationConfig(step=model.default_step)
    target_vec = np.zeros(model.dim, dtype=complex)
    target_vec[list(model.logical_indices)] = target.amplitudes
    initial_vec = np.eye(model.dim)[model.logical_index(initial)]
    traj, (rhos,) = _evolve(model, [initial_vec], noise, cfg)

    populations = {
        label: rhos[:, i, i].real
        for label, i in zip(SINGLE_EXCITATION_LABELS, model.logical_indices)
    }
    fidelity_curve = (rhos @ target_vec @ target_vec.conj()).real
    leakage = None
    if model.dim > 3:
        total = sum(populations.values())
        leakage = np.clip(np.trace(rhos, axis1=1, axis2=2).real - total, 0.0, None)
    return TransferReport(
        initial_label=initial,
        fidelity=float(np.clip(fidelity_curve[-1], 0.0, 1.0)),
        times=traj.times,
        populations=populations,
        fidelity_curve=fidelity_curve,
        leakage=leakage,
        model_name=model.name,
        noise=noise and bool(model.channels),
        steps=traj.steps,
        step_ns=traj.step,
    )


def ensemble_fidelity(
    model: SimulationModel,
    count: int = 1001,
    noise: bool = True,
    cfg: PropagationConfig | None = None,
) -> EnsembleReport:
    """Average fidelity of the send-and-receive protocol.

    Inputs cos(v)|010> + sin(v)|001> map to targets
    i cos(v)|100> + i sin(v)|010>; the average over count uniformly
    spaced v in [0, 2*pi] (trapezoidal, endpoints included) is F_m.

    The master equation is linear in rho, so every member is assembled
    exactly from three propagations, of |010>, |001> and
    |+> = (|010> + |001>)/sqrt(2): the coherence term X + X^H, with
    X = |010><001| propagated, is 2 rho_+ - rho_010 - rho_001.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    cfg = cfg or PropagationConfig(step=model.default_step)
    i100, i010, i001 = model.logical_indices
    e010, e001 = np.eye(model.dim)[[i010, i001]]
    traj, (rho_010, rho_001, rho_plus) = _evolve(
        model, [e010, e001, (e010 + e001) / math.sqrt(2.0)], noise, cfg)

    thetas = np.linspace(0.0, 2.0 * math.pi, count)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    # only the (|100>, |010>) sub-blocks enter the target expectation;
    # each stack below has shape (records, 2, 2)
    tgt = (slice(None),) + np.ix_([i100, i010], [i100, i010])
    subs = [rho_010[tgt], rho_001[tgt]]
    subs.append(2.0 * rho_plus[tgt] - subs[0] - subs[1])

    def expect(sub):
        return (
            np.outer(sub[:, 0, 0].real, cos_t**2)
            + np.outer((sub[:, 0, 1] + sub[:, 1, 0]).real, cos_t * sin_t)
            + np.outer(sub[:, 1, 1].real, sin_t**2)
        )

    f_theta = (
        cos_t**2 * expect(subs[0])
        + sin_t**2 * expect(subs[1])
        + sin_t * cos_t * expect(subs[2])
    )
    curve = np.trapezoid(f_theta, thetas, axis=1) / (2.0 * math.pi)
    return EnsembleReport(
        count=count,
        f_m=float(curve[-1]),
        times=traj.times,
        fidelity_curve=curve,
        model_name=model.name,
        noise=noise and bool(model.channels),
        steps=traj.steps,
        step_ns=traj.step,
    )


def transmission_matrix(u) -> np.ndarray:
    """T[i][j] = |<i|U|j>|^2 for a unitary U; columns sum to 1."""
    m = np.asarray(u)
    if np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) > 1e-6:
        raise ValueError("transmission matrix requires a unitary input")
    return np.abs(m) ** 2


def isolation(u, source: int, destination: int) -> float:
    """Backward-to-forward transmission ratio in dB, floored at -120."""
    t = transmission_matrix(u)
    forward = t[destination][source]
    backward = t[source][destination]
    if backward == 0.0 or forward == 0.0:
        if backward == 0.0:
            return ISOLATION_FLOOR_DB
        return -ISOLATION_FLOOR_DB
    return max(ISOLATION_FLOOR_DB, 10.0 * math.log10(backward / forward))
