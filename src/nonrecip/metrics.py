"""Fidelities, population traces and the exact ensemble average, each
command's read from one block of states propagated together."""

from __future__ import annotations

import math

import numpy as np

from .devices import SINGLE_EXCITATION_LABELS, SimulationModel
from .propagation import IntegratorError, integrate_master, propagate_schrodinger


def _evolve(model: SimulationModel, initial_states, noise: bool,
            step: float | None) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Propagate the k initial model-space vectors from 0 to tau in one
    call (at the model's default step when step is None) and return the
    JSON fields that every report of the call shares, the record times,
    the (k, records, 3, 3) block of rho(t) on the logical indices and the
    (k, records) trace of rho(t).

    H is first checked to be finite and Hermitian at 65 times: both
    kernels refuse a member only once the raw step maps change its trace
    by over 2e-6, and below that an open run's projected maps would hide
    a non-Hermitian H.  A closed run (not model.is_open(noise))
    propagates the (k, d) block of kets and forms the 3x3 block from the
    logical amplitudes only; an open run propagates the (k, d, d) block
    of psi psi^H, and also checks every final state with check_density."""
    step = model.default_step if step is None else step
    noise = model.is_open(noise)
    idx = np.array(model.logical_indices)
    psi = np.stack(initial_states)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite H is refused below
        h = model.hamiltonian.matrices(np.linspace(0.0, model.tau, 65))
        asymmetry = np.max(np.abs(h - h.conj().transpose(0, 2, 1)))
    if not asymmetry <= 1e-9:
        finite = "" if np.isfinite(asymmetry) else ": its values are not finite"
        raise IntegratorError(f"Hamiltonian lost Hermiticity{finite}; a propagation "
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
    run = {"model": model.name, "noise": noise, "steps": traj.steps,
           "step_ns": traj.step, "phase_per_step_rad": model.phase_rate * traj.step,
           "trace_loss": traj.trace_loss}
    return run, traj.times, blocks, traces


def _expect(rho: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u|rho|w> at every record of a (records, 3, 3) stack."""
    return rho @ w @ u.conj()


def fidelity_reports(model: SimulationModel, unitary, initials, noise: bool = True,
                     step: float | None = None
                     ) -> dict[str, tuple[dict, dict[str, np.ndarray]]]:
    """Each initial's (summary, columns), keyed by initial: a logical
    basis label for a transfer, "ensemble" for the input ensemble.
    summary is the report.json dict, columns the CSV columns in order,
    from t_ns (the record times) to fidelity (the fidelity curve).
    Column j of the 3x3 logical matrix unitary is the target of basis
    state j.  One _evolve call propagates the members that the reports
    need (each transfer's basis state; |010>, |001> and |+> = (|010> +
    |001>)/sqrt(2) for the ensemble) as one block, at the model's default
    step when step is None.

    Every summary holds model, noise (whether its channels were on),
    steps and step_ns (the step count and size), phase_per_step_rad (the
    model's phase-rate bound times the step; at most 2 pi / 20 at the
    default step) and trace_loss, the worst member's change in trace
    that the raw step maps caused.  A transfer's columns put pop_100,
    pop_010, pop_001 and, for models larger than the logical space,
    leakage (the trace of rho(t) less the three populations, clipped at
    0) between those two; its summary adds initial, fidelity (the final
    value clipped to [0, 1]), final_populations and final_leakage (0
    without a leakage column).

    The ensemble input cos(v)|010> + sin(v)|001> has the target c u1 +
    s u2 (c = cos v, s = sin v; u1, u2 the targets of |010> and |001>)
    and by linearity ends in c^2 rho_010 + s^2 rho_001 + c s X, with X =
    2 rho_+ - rho_010 - rho_001.  The fidelity is quartic in (c, s), so
    its uniform average over v is exact from <c^4> = <s^4> = 3/8,
    <c^2 s^2> = 1/8 and vanishing odd moments: F_m = (3<u1|rho_010|u1> +
    <u2|rho_010|u2> + <u1|rho_001|u1> + 3<u2|rho_001|u2> +
    2 Re<u1|X|u2>) / 8.  Its columns are t_ns and that curve; its summary
    adds f_m and initial_fidelity, the curve's last and first values.
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
    run, times, blocks, traces = _evolve(model, [
        (basis["010"] + basis["001"]) / math.sqrt(2.0) if m == "ensemble" else basis[m]
        for m in members], noise, step)
    block, trace = dict(zip(members, blocks)), dict(zip(members, traces))

    reports = {}
    for initial in needs:
        if initial == "ensemble":
            u1, u2 = targets[1:]
            r010, r001 = block["010"], block["001"]
            x = 2.0 * block[initial] - r010 - r001
            curve = (3.0 * _expect(r010, u1, u1) + _expect(r010, u2, u2)
                     + _expect(r001, u1, u1) + 3.0 * _expect(r001, u2, u2)
                     + 2.0 * _expect(x, u1, u2)).real / 8.0
            reports[initial] = (
                {**run, "f_m": float(curve[-1]), "initial_fidelity": float(curve[0])},
                {"t_ns": times, "fidelity": curve})
            continue
        populations = {label: block[initial][:, i, i].real
                       for i, label in enumerate(SINGLE_EXCITATION_LABELS)}
        columns = {"t_ns": times, **{f"pop_{k}": v for k, v in populations.items()}}
        if model.dim > 3:
            columns["leakage"] = np.clip(trace[initial] - sum(populations.values()),
                                         0.0, None)
        u = targets[SINGLE_EXCITATION_LABELS.index(initial)]
        columns["fidelity"] = curve = _expect(block[initial], u, u).real
        reports[initial] = ({
            **run, "initial": initial,
            "fidelity": float(np.clip(curve[-1], 0.0, 1.0)),
            "final_populations": {k: float(v[-1]) for k, v in populations.items()},
            "final_leakage": float(columns["leakage"][-1]) if model.dim > 3 else 0.0,
        }, columns)
    return reports
