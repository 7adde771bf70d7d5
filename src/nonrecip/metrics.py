"""Fidelities, population traces and the exact ensemble average, each
command's read from one block of states propagated together."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devices import SINGLE_EXCITATION_LABELS, SimulationModel
from .propagation import IntegratorError, integrate_master, propagate_schrodinger
from .reporting import write_csv


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
            step: float | None) -> tuple[dict, np.ndarray, np.ndarray]:
    """Propagate the k initial model-space vectors from 0 to tau in one
    call (at the model's default step when step is None) and return the
    RunReport fields it fixes, all but the fidelity curve, the (k,
    records, 3, 3) block of rho(t) on the logical indices and the (k,
    records) trace of rho(t).

    H is first checked to be Hermitian at 65 times: both kernels refuse
    a member only once the raw step maps change its trace by over 2e-6,
    and below that an open run's projected maps would hide a non-Hermitian
    H.  A closed run (not model.is_open(noise)) propagates the (k, d)
    block of kets and forms the 3x3 block from the logical amplitudes
    only; an open run propagates the (k, d, d) block of psi psi^H, and
    also checks every final state with check_density."""
    step = model.default_step if step is None else step
    noise = model.is_open(noise)
    idx = np.array(model.logical_indices)
    psi = np.stack(initial_states)
    h = model.hamiltonian.matrices(np.linspace(0.0, model.tau, 65))
    if np.max(np.abs(h - h.conj().transpose(0, 2, 1))) > 1e-9:
        raise IntegratorError("Hamiltonian lost Hermiticity; a propagation "
                              "would not conserve probability")
    if noise:
        rho0 = psi[:, :, None] * psi[:, None, :].conj()
        traj = integrate_master(model.hamiltonian, model.channels, rho0, model.tau, step)
        rhos = traj.states.swapaxes(0, 1)
        # one advanced index: chained ones make a (k, records, 3, d) copy
        blocks = rhos[..., idx[:, None], idx]
        traces = np.trace(rhos, axis1=2, axis2=3).real
    else:
        traj = propagate_schrodinger(model.hamiltonian, psi, model.tau, step)
        x = traj.states.swapaxes(0, 1)
        amps = x[..., idx]
        blocks = amps[..., :, None] * amps[..., None, :].conj()
        # np.trace(psi psi^H) bit for bit; (x * x.conj()).real.sum() is not
        traces = (x * x.conj()).sum(axis=-1).real
    run = dict(times=traj.times, model_name=model.name, noise=noise,
               steps=traj.steps, step_ns=traj.step,
               phase_per_step_rad=model.phase_rate * traj.step,
               trace_loss=traj.trace_loss)
    return run, blocks, traces


def _expect(rho: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u|rho|w> at every record of a (records, 3, 3) stack."""
    return rho @ w @ u.conj()


def fidelity_reports(model: SimulationModel, unitary, initials, noise: bool = True,
                     step: float | None = None) -> dict[str, RunReport]:
    """Each initial's report, keyed by initial: a logical basis label for
    a transfer, "ensemble" for the input ensemble.  Column j of the 3x3
    logical matrix unitary is the target of basis state j.  One _evolve
    call propagates the members that the reports need (each transfer's
    basis state; |010>, |001> and |+> = (|010> + |001>)/sqrt(2) for the
    ensemble) as one block, at the model's default step when step is
    None, so every report's trace_loss is the worst member's.

    A transfer reports its fidelity to its target, the population curves
    and, for models larger than the logical space, the leakage: the
    trace of rho(t) less the three populations.

    The ensemble input cos(v)|010> + sin(v)|001> has the target c u1 +
    s u2 (c = cos v, s = sin v; u1, u2 the targets of |010> and |001>)
    and by linearity ends in c^2 rho_010 + s^2 rho_001 + c s X, with X =
    2 rho_+ - rho_010 - rho_001.  The fidelity is quartic in (c, s), so
    its uniform average over v is exact from <c^4> = <s^4> = 3/8,
    <c^2 s^2> = 1/8 and vanishing odd moments: F_m = (3<u1|rho_010|u1> +
    <u2|rho_010|u2> + <u1|rho_001|u1> + 3<u2|rho_001|u2> +
    2 Re<u1|X|u2>) / 8.
    """
    targets = np.asarray(unitary, dtype=complex)
    if targets.shape != (3, 3):
        raise ValueError(f"target matrix of shape {targets.shape} does not act "
                         "on the 3-dimensional logical space")
    targets = np.ascontiguousarray(targets.T)  # row j: the target of state j
    # the ensemble's own member is |+>
    needs = {initial: ("010", "001", initial) if initial == "ensemble" else (initial,)
             for initial in initials}
    members = list(dict.fromkeys(m for labels in needs.values() for m in labels))
    eye = np.eye(model.dim)
    basis = {m: eye[model.logical_index(m)] for m in members if m != "ensemble"}
    run, blocks, traces = _evolve(model, [
        (basis["010"] + basis["001"]) / math.sqrt(2.0) if m == "ensemble" else basis[m]
        for m in members], noise, step)
    block, trace = dict(zip(members, blocks)), dict(zip(members, traces))

    reports: dict[str, RunReport] = {}
    for initial in needs:
        if initial == "ensemble":
            u1, u2 = targets[1:]
            r010, r001 = block["010"], block["001"]
            x = 2.0 * block[initial] - r010 - r001
            curve = (3.0 * _expect(r010, u1, u1) + _expect(r010, u2, u2)
                     + _expect(r001, u1, u1) + 3.0 * _expect(r001, u2, u2)
                     + 2.0 * _expect(x, u1, u2)).real / 8.0
            reports[initial] = EnsembleReport(**run, fidelity_curve=curve)
            continue
        populations = {label: block[initial][:, i, i].real
                       for i, label in enumerate(SINGLE_EXCITATION_LABELS)}
        leakage = (np.clip(trace[initial] - sum(populations.values()), 0.0, None)
                   if model.dim > 3 else None)
        u = targets[SINGLE_EXCITATION_LABELS.index(initial)]
        reports[initial] = TransferReport(
            **run, fidelity_curve=_expect(block[initial], u, u).real,
            initial_label=initial, populations=populations, leakage=leakage)
    return reports
