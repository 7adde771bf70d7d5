"""Invariant-based pulse design for the three-level circulator.

An auxiliary trajectory (gamma(t), beta(t)) parameterized by a single
dimensionless knob lambda determines, in closed form, a pair of effective
coupling pulses.  The associated dynamical invariant commutes with the
Hamiltonian at the protocol endpoints, and the phase accumulated by its
eigenstates over one period fixes the realized evolution operator.  The
invariant's scale is arbitrary and fixed at one, so its eigenvalues are
0 and +-1/2; its three branches accumulate the phases (0, +theta_plus,
-theta_plus).  A phase of 3*pi/2 yields the one-way circulator; pi
yields a reciprocal swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .reporting import write_csv
from .statespace import ControlHamiltonian, PureState


class TrajectoryRangeError(ValueError):
    """Time argument outside [0, tau]."""


class PulseDivergenceError(ValueError):
    """Synthesized couplings are non-finite (trajectory reaches gamma = pi)."""


class RootBracketError(ValueError):
    """The lambda bracket does not contain the requested phase."""


class NonMonotonicBracketError(ValueError):
    """|theta_plus(lambda)| is not strictly monotonic on the bracket."""


@dataclass(frozen=True)
class AuxiliaryTrajectory:
    """Closed-form auxiliary angles gamma(t), beta(t) on [0, tau].

    gamma(t) = lambda * t^2 (t - tau)^2 / (tau/2)^4 rises from 0 to
    lambda at mid-protocol and returns to 0; beta(t) is a seventh-order
    polynomial ramp from 0 to pi/2 with three vanishing derivatives at
    each end.  All evaluators accept scalars or arrays.
    """

    lambda_: float
    tau: float

    def __post_init__(self):
        for name, value in (("lambda", self.lambda_), ("tau", self.tau)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    def _check_range(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.tau + 1e-12):
            raise TrajectoryRangeError(f"t outside [0, {self.tau}]")
        return np.clip(t, 0.0, self.tau)

    def gamma(self, t):
        u = self._check_range(t) / self.tau
        return 16.0 * self.lambda_ * u**2 * (1.0 - u) ** 2

    def beta(self, t):
        u = self._check_range(t) / self.tau
        return np.pi * u**4 * (-10.0 * u**3 + 35.0 * u**2 - 42.0 * u + 17.5)

    def gamma_dot(self, t):
        u = self._check_range(t) / self.tau
        return 32.0 * self.lambda_ * u * (1.0 - u) * (1.0 - 2.0 * u) / self.tau

    def beta_dot(self, t):
        u = self._check_range(t) / self.tau
        return 70.0 * np.pi * u**3 * (1.0 - u) ** 3 / self.tau

    def beta_dot_over_gamma(self, t):
        """beta_dot/gamma with the common t^2 (tau-t)^2 factor cancelled.

        Finite everywhere, including the endpoints where both factors
        vanish; this is the quantity that keeps the cot(gamma) terms of
        the coupling formulas removable.
        """
        u = self._check_range(t) / self.tau
        return 35.0 * np.pi * u * (1.0 - u) / (8.0 * self.lambda_ * self.tau)


def _gamma_over_tan(gamma):
    """gamma * cos(gamma) / sin(gamma), series-safe near gamma = 0."""
    gamma = np.asarray(gamma, dtype=float)
    small = np.abs(gamma) < 1e-6
    safe = np.where(small, 1.0, gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = safe * np.cos(safe) / np.sin(safe)
    return np.where(small, 1.0 - gamma**2 / 3.0, ratio)


def coupling_values(traj: AuxiliaryTrajectory, t):
    """Effective couplings (g'_A, g'_B) at time t, in rad/ns.

    g'_A = 2[beta_dot cot(gamma) sin(beta) + gamma_dot cos(beta)] and
    g'_B = 2[beta_dot cot(gamma) cos(beta) - gamma_dot sin(beta)],
    evaluated in a rearranged form whose endpoint limits are exactly 0.
    """
    g = traj.gamma(t)
    b = traj.beta(t)
    gd = traj.gamma_dot(t)
    cot_term = traj.beta_dot_over_gamma(t) * _gamma_over_tan(g)
    g_a = 2.0 * (cot_term * np.sin(b) + gd * np.cos(b))
    g_b = 2.0 * (cot_term * np.cos(b) - gd * np.sin(b))
    return g_a, g_b


@dataclass(frozen=True)
class PulsePair:
    """Sampled effective couplings on a uniform time grid over [0, tau]."""

    times: np.ndarray
    g_a: np.ndarray
    g_b: np.ndarray

    def __post_init__(self):
        for name in ("times", "g_a", "g_b"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (len(self.times) == len(self.g_a) == len(self.g_b)):
            raise ValueError("pulse arrays must have equal length")
        if not (np.all(np.isfinite(self.g_a)) and np.all(np.isfinite(self.g_b))):
            raise PulseDivergenceError("pulse samples must be finite")
        for arr in (self.g_a, self.g_b):
            if abs(arr[0]) > 1e-9 or abs(arr[-1]) > 1e-9:
                raise ValueError("pulses must vanish at t = 0 and t = tau")

    @property
    def tau(self) -> float:
        return float(self.times[-1])

    def g_a_at(self, t):
        return np.interp(t, self.times, self.g_a)

    def g_b_at(self, t):
        return np.interp(t, self.times, self.g_b)

    def hamiltonian(self) -> ControlHamiltonian:
        """The ideal three-level Hamiltonian in control form: the pulses
        couple |A> and |B> to |M> with strength g'_j/2."""
        ops = np.zeros((2, 3, 3))
        ops[0, 0, 1] = ops[0, 1, 0] = ops[1, 2, 1] = ops[1, 1, 2] = 1.0
        return ControlHamiltonian(np.zeros((3, 3)), ops, lambda t: 0.5 * np.stack(
            [self.g_a_at(t), self.g_b_at(t)], axis=-1))

    def write_csv(self, path):
        write_csv(
            path,
            ["t_ns", "gprime_a_rad_per_ns", "gprime_b_rad_per_ns"],
            zip(self.times, self.g_a, self.g_b),
        )


def synthesize_pulses(traj: AuxiliaryTrajectory, n_samples: int = 2001) -> PulsePair:
    """Tabulate the coupling pulses on a uniform grid of n_samples points.

    Raises PulseDivergenceError when the trajectory passes through
    gamma = pi (lambda >= pi), where the couplings diverge.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if traj.lambda_ >= np.pi:
        raise PulseDivergenceError(
            f"couplings diverge for lambda = {traj.lambda_} (gamma reaches pi)"
        )
    times = np.linspace(0.0, traj.tau, n_samples)
    g_a, g_b = coupling_values(traj, times)
    g_a = np.array(g_a)
    g_b = np.array(g_b)
    # exact analytic limits at the removable endpoint singularities
    g_a[0] = g_a[-1] = 0.0
    g_b[0] = g_b[-1] = 0.0
    return PulsePair(times, g_a, g_b)


def _invariant_stack(traj: AuxiliaryTrajectory, t):
    """I(t) and dI/dt (closed-form derivative of the entries) in the
    {A, M, B} basis, each stacked to shape (m, 3, 3) over the times t."""
    g, b, gd, bd = (np.atleast_1d(f(t)) for f in (
        traj.gamma, traj.beta, traj.gamma_dot, traj.beta_dot))
    cg, sg, cb, sb = np.cos(g), np.sin(g), np.cos(b), np.sin(b)

    def matrix(am, ab, mb):
        m = np.zeros((len(g), 3, 3), dtype=complex)
        m[:, 0, 1] = m[:, 1, 0] = am
        m[:, 0, 2], m[:, 2, 0] = -1j * ab, 1j * ab
        m[:, 1, 2] = m[:, 2, 1] = mb
        return 0.5 * m

    return (matrix(cg * sb, sg, cg * cb),
            matrix(-gd * sg * sb + bd * cg * cb, gd * cg, -gd * sg * cb - bd * cg * sb))


def invariant_at(traj: AuxiliaryTrajectory, t: float) -> np.ndarray:
    """The unit-scale dynamical invariant I(t) in the {A, M, B} basis."""
    return _invariant_stack(traj, t)[0][0]


def invariant_eigenstates(traj: AuxiliaryTrajectory, t: float):
    """(mu_0, mu_plus, mu_minus): closed-form eigenstates of the invariant.

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
    return PureState(mu0), PureState(mup), PureState(mum)


@dataclass(frozen=True)
class LRPhaseResult:
    """Accumulated invariant-eigenstate phase over one period.

    The branches (0, +, -) accumulate (0, theta_plus, -theta_plus), with
    theta_plus > 0 in the convention of target_unitary; the signed
    defining integral of the plus branch is -theta_plus.
    theta_plus_mod_2pi is theta_plus reduced to [0, 2*pi), and
    quad_error the quadrature's error estimate for theta_plus.
    """

    theta_plus: float
    quad_error: float

    @property
    def theta_plus_mod_2pi(self) -> float:
        return self.theta_plus % (2.0 * math.pi)


def _validate_pulses_match(traj: AuxiliaryTrajectory, pulses: PulsePair):
    if abs(pulses.tau - traj.tau) > 1e-9:
        raise ValueError("pulse grid span does not match trajectory duration")
    probes = traj.tau * np.array([0.211, 0.483, 0.747])
    ga_ref, gb_ref = coupling_values(traj, probes)
    scale = max(np.max(np.abs(ga_ref)), np.max(np.abs(gb_ref)), 1e-12)
    err = max(
        np.max(np.abs(pulses.g_a_at(probes) - ga_ref)),
        np.max(np.abs(pulses.g_b_at(probes) - gb_ref)),
    )
    if err > 1e-3 * scale:
        raise ValueError("pulses were not synthesized from this trajectory")


PHASE_RTOL = 1e-12


@lru_cache(maxsize=None)
def _phase_rule(n: int):
    """s^2 and 70 pi s^3 w at the nodes of the n-point Gauss-Legendre
    rule on [0, 1] with weights w, s = u (1 - u)."""
    x, w = np.polynomial.legendre.leggauss(n)
    s = 0.25 * (1.0 - x) * (1.0 + x)
    return s**2, 70.0 * math.pi * s**3 * (0.5 * w)


def _theta_plus_rule(lams, n: int):
    """|theta_plus| for each lambda of the 1-D array lams by the n-node rule."""
    s2, num = _phase_rule(n)
    return (1.0 / np.sin(16.0 * lams[:, None] * s2)) @ num


def _theta_plus(lams):
    """theta_plus_magnitudes, plus the node count of the rule that
    converged for each lambda."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if np.any(lams >= math.pi) or np.any(lams <= 0.0):
        raise ValueError("phase integrand non-finite unless 0 < lambda < pi")
    # NaN: the first rule has no predecessor to agree with
    value, err = np.full(lams.shape, np.nan), np.full(lams.shape, np.inf)
    nodes = np.zeros(lams.shape, dtype=int)
    todo = np.arange(lams.size)
    for n in 2 ** np.arange(6, 12):
        finer = _theta_plus_rule(lams[todo], int(n))
        err[todo], value[todo], nodes[todo] = np.abs(finer - value[todo]), finer, n
        todo = todo[~(err[todo] <= PHASE_RTOL * finer)]
        if not todo.size:
            return value, err, nodes
    raise ValueError("phase quadrature did not converge with 2048 nodes")


def theta_plus_magnitudes(lams):
    """(|theta_plus|, error estimate) for each lambda in (0, pi).

    With u = t/tau the phase needs no tau:
    |theta_plus| = 70 pi int_0^1 u^3 (1-u)^3 / sin(16 lambda u^2 (1-u)^2) du.
    Gauss-Legendre rules of 64, 128, ... 2048 nodes are applied until
    two successive rules agree to PHASE_RTOL (relative); their
    difference is the error estimate.  ValueError for lambda outside
    (0, pi) or when 2048 nodes do not suffice (pi - lambda < ~1.5e-3).
    """
    return _theta_plus(lams)[:2]


def lr_phase(
    traj: AuxiliaryTrajectory, pulses: PulsePair | None = None
) -> LRPhaseResult:
    """Integrate the invariant-eigenstate phase over one period.

    The defining integral reduces in closed form to
    d(theta)/dt = -beta_dot/sin(gamma) for the plus branch, whose
    magnitude theta_plus_magnitudes integrates (ValueError for
    lambda >= pi).
    """
    if pulses is not None:
        _validate_pulses_match(traj, pulses)
    mag, err = (float(v[0]) for v in theta_plus_magnitudes(traj.lambda_))
    return LRPhaseResult(mag, quad_error=err)


def bisect_increasing(f, targets, lo: float, hi: float):
    """x in [lo, hi] with f(x) = y for each y in targets, f vectorised
    and increasing.  Each bracket keeps f(lo) < y <= f(hi) and is halved
    until no midpoint lies strictly inside it (floating-point
    resolution), at most 64 times; its lower end is returned, so
    y <= f(lo) gives lo exactly."""
    y = np.asarray(targets, dtype=float)
    lo, hi = np.full(y.shape, float(lo)), np.full(y.shape, float(hi))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        below = f(mid) < y
        lo, hi = np.where(inside & below, mid, lo), np.where(inside & ~below, mid, hi)
    return lo


PRESCAN_POINTS = 32
ROOT_PHASE_TOL = 1e-6


def solve_lambda(
    target_phase: float,
    tau: float,
    bracket: tuple[float, float] = (0.1, 1.0),
) -> float:
    """Find lambda with |theta_plus(lambda)| equal to target_phase.

    One vectorised prescan of PRESCAN_POINTS points validates strict
    monotonicity and a sign change on the bracket; the root is then
    bisected to floating-point resolution inside the prescan cell that
    holds it, with the one Gauss-Legendre rule that converged at the
    cell's ends, and re-verified to ROOT_PHASE_TOL (rad) by the adaptive
    quadrature.  tau (> 0) drops out.
    """
    if not math.isfinite(target_phase):
        raise ValueError(f"target phase must be finite, got {target_phase}")
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")

    scan = np.linspace(lo, hi, PRESCAN_POINTS)
    vals, _, nodes = _theta_plus(scan)
    diffs = np.diff(vals)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise NonMonotonicBracketError(
            "|theta_plus(lambda)| is not strictly monotonic on the bracket"
        )
    f_lo, f_hi = vals[0] - target_phase, vals[-1] - target_phase
    if f_lo * f_hi > 0:
        raise RootBracketError(
            f"target phase {target_phase} rad not attained on bracket {bracket}: "
            f"|theta_plus| spans [{min(vals)}, {max(vals)}]"
        )
    # bisect sign * |theta_plus|, which increases along the scan, with
    # the finer of the rules that converged at the cell's ends
    sign = 1.0 if vals[-1] > vals[0] else -1.0
    k = int(np.searchsorted(sign * vals, sign * target_phase))
    n = int(nodes[[max(k - 1, 0), k]].max())
    lam = float(bisect_increasing(
        lambda l: sign * _theta_plus_rule(l, n), [sign * target_phase],
        scan[max(k - 1, 0)], scan[k])[0])
    residual = abs(theta_plus_magnitudes(lam)[0][0] - target_phase)
    if residual > ROOT_PHASE_TOL:
        raise RootBracketError(f"root refinement stalled at residual {residual}")
    return lam


def target_unitary(theta_plus: float) -> np.ndarray:
    """The designed evolution operator U[theta_plus] in the {A, M, B} basis."""
    c, s = math.cos(theta_plus), math.sin(theta_plus)
    return np.array(
        [
            [0.0, -1j * s, c],
            [0.0, c, -1j * s],
            [-1.0, 0.0, 0.0],
        ],
        dtype=complex,
    )


def lr_predicted_evolution(traj: AuxiliaryTrajectory, pulses: PulsePair) -> np.ndarray:
    """Evolution operator from the invariant-eigenstate expansion.

    Sum over n in {0, +, -} of exp(-i*theta_n) |mu_n(tau)><mu_n(0)|,
    theta_n = (0, theta_plus, -theta_plus), in the convention of
    target_unitary.
    """
    theta_plus = lr_phase(traj, pulses).theta_plus
    start = invariant_eigenstates(traj, 0.0)
    end = invariant_eigenstates(traj, traj.tau)
    thetas = (0.0, theta_plus, -theta_plus)
    u = np.zeros((3, 3), dtype=complex)
    for theta, s0, s1 in zip(thetas, start, end):
        u += np.exp(-1j * theta) * np.outer(s1.amplitudes, s0.amplitudes.conj())
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
    i_mat, di = _invariant_stack(traj, times)
    comm = h @ i_mat - i_mat @ h
    return BoundaryDiagnostics(
        commutator_start=float(np.linalg.norm(comm[0])),
        commutator_end=float(np.linalg.norm(comm[-1])),
        max_von_neumann_residual=float(
            np.linalg.norm(di + 1j * comm, axis=(1, 2)).max()
        ),
    )
