"""The Lewis-Riesenfeld references that the design is tested against:
the invariant I(t) and its eigenstates in closed form, the evolution
operator their expansion predicts, the invariant's boundary and
von-Neumann residuals for a pulse pair, and the transmission and
isolation of an evolution operator.  No command runs them; the tests
compare nonrecip's design and propagation with them."""

import math
from dataclasses import dataclass

import numpy as np

from nonrecip.invariant import AuxiliaryTrajectory, PulsePair, theta_plus_magnitudes

ISOLATION_FLOOR_DB = -120.0


def beta_dot(traj: AuxiliaryTrajectory, t):
    """d(beta)/dt = 70 pi u^3 (1 - u)^3 / tau, u = t / tau: the closed-form
    derivative of the trajectory's beta ramp."""
    u = np.asarray(t, dtype=float) / traj.tau
    return 70.0 * np.pi * u**3 * (1.0 - u) ** 3 / traj.tau


def invariant_stack(traj: AuxiliaryTrajectory, t):
    """I(t) and dI/dt (closed-form derivative of the entries) in the
    {A, M, B} basis, each stacked to shape (m, 3, 3) over the times t."""
    g, b, gd, bd = (np.atleast_1d(f(t)) for f in (
        traj.gamma, traj.beta, traj.gamma_dot, lambda t: beta_dot(traj, t)))
    cg, sg, cb, sb = np.cos(g), np.sin(g), np.cos(b), np.sin(b)

    def matrix(am, ab, mb):
        m = np.zeros((len(g), 3, 3), dtype=complex)
        m[:, 0, 1] = m[:, 1, 0] = am
        m[:, 0, 2], m[:, 2, 0] = -1j * ab, 1j * ab
        m[:, 1, 2] = m[:, 2, 1] = mb
        return 0.5 * m

    return (matrix(cg * sb, sg, cg * cb),
            matrix(-gd * sg * sb + bd * cg * cb, gd * cg, -gd * sg * cb - bd * cg * sb))


def invariant_eigenstates(traj: AuxiliaryTrajectory, t: float):
    """(mu_0, mu_plus, mu_minus): closed-form eigenstates of the invariant,
    as unit-norm amplitude vectors.

    Eigenvalues are 0, +1/2 and -1/2 respectively, independent of t.
    """
    g = float(traj.gamma(t))
    b = float(traj.beta(t))
    cg, sg, cb, sb = math.cos(g), math.sin(g), math.cos(b), math.sin(b)
    mu0 = np.array([cg * cb, -1j * sg, -cg * sb], dtype=complex)
    mup = np.array(
        [sg * cb + 1j * sb, 1j * cg, -sg * sb + 1j * cb], dtype=complex
    ) / math.sqrt(2.0)
    mum = np.array(
        [sg * cb - 1j * sb, 1j * cg, -sg * sb - 1j * cb], dtype=complex
    ) / math.sqrt(2.0)
    return mu0, mup, mum


def lr_predicted_evolution(traj: AuxiliaryTrajectory) -> np.ndarray:
    """Evolution operator from the invariant-eigenstate expansion.

    Sum over n in {0, +, -} of exp(-i*theta_n) |mu_n(tau)><mu_n(0)|,
    theta_n = (0, theta_plus, -theta_plus), in the convention of
    target_unitary.
    """
    theta_plus = theta_plus_magnitudes(traj.lambda_)[0][0]
    start = invariant_eigenstates(traj, 0.0)
    end = invariant_eigenstates(traj, traj.tau)
    thetas = (0.0, theta_plus, -theta_plus)
    u = np.zeros((3, 3), dtype=complex)
    for theta, s0, s1 in zip(thetas, start, end):
        u += np.exp(-1j * theta) * np.outer(s1, s0.conj())
    return u


@dataclass(frozen=True)
class BoundaryDiagnostics:
    """Commutator and von-Neumann residual norms for a designed pulse set."""

    commutator_start: float
    commutator_end: float
    max_von_neumann_residual: float


def check_boundary(
    traj: AuxiliaryTrajectory, pulses: PulsePair, n_grid: int = 10001
) -> BoundaryDiagnostics:
    """Frobenius norms of [H, I] at the endpoints and of the von-Neumann
    residual dI/dt + i[H(t), I(t)] over a uniform grid of n_grid >= 2
    points."""
    if n_grid < 2:
        raise ValueError("n_grid must be >= 2")
    times = np.linspace(0.0, traj.tau, n_grid)
    h = pulses.hamiltonian().matrices(times)
    i_mat, di = invariant_stack(traj, times)
    comm = h @ i_mat - i_mat @ h
    return BoundaryDiagnostics(
        commutator_start=float(np.linalg.norm(comm[0])),
        commutator_end=float(np.linalg.norm(comm[-1])),
        max_von_neumann_residual=float(
            np.linalg.norm(di + 1j * comm, axis=(1, 2)).max()
        ),
    )


def transmission_matrix(u) -> np.ndarray:
    """T[i][j] = |<i|U|j>|^2 for a unitary U; columns sum to 1."""
    m = np.asarray(u)
    if np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) > 1e-6:
        raise ValueError("transmission matrix requires a unitary input")
    return np.abs(m) ** 2


def isolation(u, source: int, destination: int) -> float:
    """Backward-to-forward transmission ratio in dB, clamped to
    [-120, 120]: a zero backward transmission reads -120, a zero forward
    one +120, and so does a ratio beyond either end."""
    t = transmission_matrix(u)
    forward = t[destination][source]
    backward = t[source][destination]
    if backward == 0.0:
        return ISOLATION_FLOOR_DB
    if forward == 0.0:
        return -ISOLATION_FLOOR_DB
    db = 10.0 * math.log10(backward / forward)
    return min(-ISOLATION_FLOOR_DB, max(ISOLATION_FLOOR_DB, db))
