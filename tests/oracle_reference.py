"""The brute-force evolution-operator oracle, a time-ordered product of
midpoint exponentials, and the global-phase-aligned operator distance:
the references that the RK4 kernel and the designed unitaries of
nonrecip are tested against."""

import numpy as np

from nonrecip.propagation import _grid
from nonrecip.statespace import ControlHamiltonian


def evolution_operator_oracle(
    gen: ControlHamiltonian, tau: float, step: float = 0.001
) -> np.ndarray:
    """U(tau), as a complex (d, d) array: the time-ordered product of
    per-step midpoint exponentials exp(-i H(t_k + dt/2) dt).

    This is the brute-force reference for any designed evolution
    operator; accuracy is limited only by the step size.
    """
    n, dt = _grid(tau, step)
    hs = gen.matrices((np.arange(n) + 0.5) * dt)
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * w * dt)
    steps = np.einsum("kij,kj,klj->kil", v, phases, v.conj())
    u = np.eye(gen.dim, dtype=complex)
    for k in range(n):
        u = steps[k] @ u
    return u


def global_phase_distance(u1, u2) -> tuple[float, float]:
    """(distance, phi) minimizing ||u1 - exp(i*phi)*u2|| over the global
    phase, measured in the operator (spectral) norm."""
    m1, m2 = np.asarray(u1), np.asarray(u2)
    phi = float(np.angle(np.trace(m2.conj().T @ m1)))
    dist = float(np.linalg.norm(m1 - np.exp(1j * phi) * m2, 2))
    return dist, phi
