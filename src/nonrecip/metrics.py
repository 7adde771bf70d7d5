"""Fidelities, population traces, ensemble averages and non-reciprocity
quantifiers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devices import SimulationModel
from .propagation import (
    IntegratorError,
    PropagationConfig,
    Trajectory,
    check_density,
    integrate_master,
    propagate_schrodinger,
)
from .statespace import Operator, PureState

ISOLATION_FLOOR_DB = -120.0


@dataclass
class TransferReport:
    """Populations and final fidelity for a single basis-state transfer."""

    initial_label: str
    target: PureState
    fidelity: float
    times: np.ndarray
    populations: dict[str, np.ndarray]
    fidelity_curve: np.ndarray
    leakage: np.ndarray | None = None
    model_name: str = ""
    noise: bool = True

    def to_json_dict(self) -> dict:
        return {
            "initial": self.initial_label,
            "model": self.model_name,
            "noise": self.noise,
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

    @property
    def initial_fidelity(self) -> float:
        return float(self.fidelity_curve[0])

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "model": self.model_name,
            "noise": self.noise,
            "f_m": self.f_m,
            "initial_fidelity": self.initial_fidelity,
        }

    def write_csv(self, path):
        from .reporting import write_csv

        write_csv(path, ["t_ns", "fidelity"], zip(self.times, self.fidelity_curve))


def _run_density(model: SimulationModel, rho0: np.ndarray, noise: bool,
                 cfg: PropagationConfig) -> Trajectory:
    channels = model.channels if noise else ()
    return integrate_master(model.hamiltonian, channels, rho0, model.tau, cfg)


def _embed_target(model: SimulationModel, target: PureState) -> np.ndarray:
    if target.dim == model.dim:
        return np.array(target.amplitudes)
    if target.dim == 3:
        return model.embed_logical(target.amplitudes)
    raise ValueError(
        f"target dim {target.dim} matches neither the model dim {model.dim} "
        "nor the 3-dimensional logical space"
    )


def transfer_fidelity(
    model: SimulationModel,
    initial: str,
    target: PureState,
    noise: bool = True,
    cfg: PropagationConfig | None = None,
) -> TransferReport:
    """Propagate a logical basis state and report its fidelity to the
    target, with per-state population curves and (for models larger
    than the logical space) the leakage out of it.  A closed transfer
    (noise off or no channels) propagates psi, once H is checked to be
    Hermitian at 65 times; otherwise rho is propagated and checked."""
    cfg = cfg or PropagationConfig(step=model.default_step)
    target_vec = _embed_target(model, target)
    idx = model.logical_index(initial)

    if noise and model.channels:
        rho0 = np.zeros((model.dim, model.dim), dtype=complex)
        rho0[idx, idx] = 1.0
        traj = _run_density(model, rho0, noise, cfg)
        check_density(traj.final)
        rhos = np.array(traj.states)
    else:
        h = model.hamiltonian.matrices(np.linspace(0.0, model.tau, 65))
        if np.max(np.abs(h - h.conj().transpose(0, 2, 1))) > 1e-9:
            raise IntegratorError("Hamiltonian lost Hermiticity; a closed "
                                  "transfer would not conserve the norm")
        psi0 = PureState.basis_state(model.dim, idx)
        traj = propagate_schrodinger(model.hamiltonian, psi0, model.tau, cfg)
        states = np.array(traj.states)
        rhos = states[:, :, None] * states[:, None, :].conj()

    populations = {
        label: rhos[:, i, i].real
        for label, i in zip(model.logical_labels, model.logical_indices)
    }
    fidelity_curve = (rhos @ target_vec @ target_vec.conj()).real
    leakage = None
    if model.dim > 3:
        total = sum(populations.values())
        leakage = np.clip(np.trace(rhos, axis1=1, axis2=2).real - total, 0.0, None)
    return TransferReport(
        initial_label=initial,
        target=target,
        fidelity=float(np.clip(fidelity_curve[-1], 0.0, 1.0)),
        times=traj.times,
        populations=populations,
        fidelity_curve=fidelity_curve,
        leakage=leakage,
        model_name=model.name,
        noise=noise and bool(model.channels),
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

    The master equation is linear in rho, so the three independent
    blocks |010><010|, |001><001| and |010><001| are propagated once
    and every ensemble member is assembled from them exactly.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    cfg = cfg or PropagationConfig(step=model.default_step)
    i100, i010, i001 = model.logical_indices

    def seed(i, j):
        return np.outer(np.eye(model.dim)[i], np.eye(model.dim)[j])

    block_010 = _run_density(model, seed(i010, i010), noise, cfg)
    block_001 = _run_density(model, seed(i001, i001), noise, cfg)
    block_x = _run_density(model, seed(i010, i001), noise, cfg)
    # the coherence block |010><001| is not a density matrix
    check_density(block_010.final)
    check_density(block_001.final)

    thetas = np.linspace(0.0, 2.0 * math.pi, count)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    # only the (|100>, |010>) sub-blocks enter the target expectation;
    # each stack below has shape (records, 2, 2)
    tgt = np.ix_([i100, i010], [i100, i010])
    subs = [np.array([m[tgt] for m in blk.states])
            for blk in (block_010, block_001, block_x)]
    subs[2] = subs[2] + subs[2].conj().transpose(0, 2, 1)

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
        times=block_010.times,
        fidelity_curve=curve,
        model_name=model.name,
        noise=noise and bool(model.channels),
    )


def transmission_matrix(u) -> np.ndarray:
    """T[i][j] = |<i|U|j>|^2 for a unitary U; columns sum to 1."""
    m = u.matrix if isinstance(u, Operator) else np.asarray(u)
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
