"""Invariant-based pulse design for the three-level circulator.

An auxiliary trajectory (gamma(t), beta(t)) parameterized by a single
dimensionless knob lambda determines, in closed form, a pair of effective
coupling pulses.  The associated dynamical invariant commutes with the
Hamiltonian at the protocol endpoints, and the phase accumulated by its
eigenstates over one period fixes the realized evolution operator.  The
invariant's scale is arbitrary and fixed at one, so its eigenvalues are
0 and +-1/2; its three branches accumulate the phases (0, +theta_plus,
-theta_plus).  A phase of 3*pi/2 yields the one-way circulator; pi
yields a reciprocal swap.  The phase depends on lambda alone, and one
function, theta_plus_magnitudes, computes it: values, quadrature errors
and node counts for an array of lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .reporting import write_csv
from .statespace import ControlHamiltonian, _freeze


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
    """Effective couplings at time t, in rad/ns, as the rows (g'_A, g'_B).

    g'_A = 2[beta_dot cot(gamma) sin(beta) + gamma_dot cos(beta)] and
    g'_B = 2[beta_dot cot(gamma) cos(beta) - gamma_dot sin(beta)],
    evaluated in a rearranged form whose endpoint limits are exactly 0.
    """
    g = traj.gamma(t)
    b = traj.beta(t)
    gd = traj.gamma_dot(t)
    cot_term = traj.beta_dot_over_gamma(t) * _gamma_over_tan(g)
    return 2.0 * np.stack([cot_term * np.sin(b) + gd * np.cos(b),
                           cot_term * np.cos(b) - gd * np.sin(b)])


@dataclass(frozen=True, eq=False)
class PulsePair:
    """Effective couplings sampled on a uniform time grid over [0, tau],
    the rows (g'_A, g'_B) of the read-only (2, len(times)) array g."""

    times: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(self.times, float))
        object.__setattr__(self, "g", _freeze(self.g, float))
        if self.g.shape != (2, len(self.times)):
            raise ValueError("pulse arrays must have equal length")
        if not np.all(np.isfinite(self.g)):
            raise PulseDivergenceError("pulse samples must be finite")
        if np.any(np.abs(self.g[:, [0, -1]]) > 1e-9):
            raise ValueError("pulses must vanish at t = 0 and t = tau")

    def g_at(self, t):
        """g'_A and g'_B at the times t, linearly interpolated, as rows."""
        return np.stack([np.interp(t, self.times, g) for g in self.g])

    def hamiltonian(self) -> ControlHamiltonian:
        """The ideal three-level Hamiltonian in control form: the pulses
        couple |A> and |B> to |M> with strength g'_j/2."""
        ops = np.zeros((2, 3, 3))
        ops[0, 0, 1] = ops[0, 1, 0] = ops[1, 2, 1] = ops[1, 1, 2] = 1.0
        return ControlHamiltonian(np.zeros((3, 3)), ops,
                                  lambda t: 0.5 * np.stack(self.g_at(t), axis=-1))

    def write_csv(self, path):
        write_csv(path, {"t_ns": self.times, "gprime_a_rad_per_ns": self.g[0],
                         "gprime_b_rad_per_ns": self.g[1]})


PULSE_SAMPLES = 2001


def synthesize_pulses(traj: AuxiliaryTrajectory) -> PulsePair:
    """Tabulate the coupling pulses on a uniform grid of PULSE_SAMPLES points.

    Raises PulseDivergenceError when the trajectory passes through
    gamma = pi (lambda >= pi), where the couplings diverge.
    """
    if traj.lambda_ >= np.pi:
        raise PulseDivergenceError(
            f"couplings diverge for lambda = {traj.lambda_} (gamma reaches pi)"
        )
    times = np.linspace(0.0, traj.tau, PULSE_SAMPLES)
    g = coupling_values(traj, times)
    g[:, [0, -1]] = 0.0  # the exact limits at the removable endpoint singularities
    return PulsePair(times, g)


PHASE_RTOL = 1e-12


def _gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule
    on [-1, 1], in O(n^2) work (Hale & Townsend, SIAM J. Sci. Comput. 35,
    A652 (2013)).

    Newton steps on P_n start from x_i = -cos(pi (i + 3/4) / (n + 1/2));
    P_n and P_{n-1} come from k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2},
    and P_n' = n (P_{n-1} - x P_n) / (1 - x^2).  The steps stop once
    none moves a node by more than 4e-16, at most ten.  The weights
    w = 2 / ((1 - x^2) P_n'(x)^2) are evaluated as the equal
    1 / sum_{k<n} (k + 1/2) P_k(x)^2 (Christoffel-Darboux), a sum of
    squares that rounding barely touches near x = +-1, and carried to
    first order from the last iterate to the root.  Nodes and weights
    are then symmetrised about 0.
    """
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):
        p0, p1, kern = np.ones(n), x, np.full(n, 0.5)
        for k in range(2, n + 1):
            kern += (k - 0.5) * p1 * p1
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        s = (1.0 - x) * (1.0 + x)
        dx = p1 * s / (n * (p0 - x * p1))
        if np.abs(dx).max() <= 4e-16:
            break
        x = x - dx
    # d(log w)/dx = -2x / (1 - x^2) at a root
    w = (1.0 + 2.0 * x * dx / s) / kern
    x = x - dx
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


@lru_cache(maxsize=None)
def _phase_rule(n: int):
    """s^2 and 70 pi s^3 w at the nodes of the n-point Gauss-Legendre
    rule on [0, 1] with weights w, s = u (1 - u).  The rule on [-1, 1]
    comes from _gauss_legendre: Newton on the Legendre recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2} from
    x_i = -cos(pi (i + 3/4) / (n + 1/2)), with weights
    2 / ((1 - x^2) P_n'(x)^2) (Hale & Townsend 2013), then mapped by
    u = (1 + x) / 2."""
    x, w = _gauss_legendre(n)
    s = 0.25 * (1.0 - x) * (1.0 + x)
    return s**2, 70.0 * math.pi * s**3 * (0.5 * w)


def _theta_plus_rule(lams, n: int, slope: bool = False):
    """|theta_plus| for each lambda of the 1-D array lams by the n-node
    rule; with slope, also its derivative in lambda by the same nodes,
    -sum num 16 s^2 cos(16 lambda s^2) / sin^2(16 lambda s^2)."""
    s2, num = _phase_rule(n)
    inv = 1.0 / np.sin(16.0 * lams[:, None] * s2)
    if not slope:
        return inv @ num
    return inv @ num, (-16.0 * s2 * np.cos(16.0 * lams[:, None] * s2) * inv * inv) @ num


def theta_plus_magnitudes(lams):
    """(|theta_plus|, error estimate, node count) for each lambda in (0, pi).

    The invariant's branches (0, +, -) accumulate (0, +theta_plus,
    -theta_plus) over one period, with theta_plus > 0 in the convention
    of target_unitary.  The plus branch obeys
    d(theta)/dt = -beta_dot/sin(gamma), so its signed defining integral
    is -theta_plus.  With u = t/tau the phase needs no tau:
    |theta_plus| = 70 pi int_0^1 u^3 (1-u)^3 / sin(16 lambda u^2 (1-u)^2) du.
    Gauss-Legendre rules of 64, 128, ... 2048 nodes are applied until
    two successive rules agree to PHASE_RTOL (relative); their
    difference is the error estimate, and the finer rule's node count
    is returned.  ValueError for lambda outside (0, pi) (NaN included)
    or when 2048 nodes do not suffice (pi - lambda < ~1.5e-3).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all((lams > 0.0) & (lams < math.pi)):
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


PRESCAN_POINTS = 32
ROOT_PHASE_TOL = 1e-6


def solve_lambda(
    target_phase: float,
    bracket: tuple[float, float] = (0.1, 1.0),
) -> float:
    """Find lambda with |theta_plus(lambda)| equal to target_phase, at
    any tau: the phase depends on lambda alone (theta_plus_magnitudes).

    One vectorised prescan of PRESCAN_POINTS points validates strict
    monotonicity and a sign change on the bracket.  In the prescan cell
    of the root, with the one Gauss-Legendre rule that converged at its
    ends, Newton steps on theta_plus and its slope from linear
    interpolation shrink the cell by each value's sign and stay strictly
    inside it, until its ends are adjacent doubles (at most 10 steps);
    its start-side end, the root that bisecting the cell gives, is
    re-verified to ROOT_PHASE_TOL (rad) by the adaptive quadrature.
    """
    if not math.isfinite(target_phase):
        raise ValueError(f"target phase must be finite, got {target_phase}")
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")

    scan = np.linspace(lo, hi, PRESCAN_POINTS)
    vals, _, nodes = theta_plus_magnitudes(scan)
    diffs = np.diff(vals)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise NonMonotonicBracketError(
            "|theta_plus(lambda)| is not strictly monotonic on the bracket"
        )
    f_lo, f_hi = vals[0] - target_phase, vals[-1] - target_phase
    if f_lo * f_hi > 0:
        raise RootBracketError(
            f"target phase {target_phase} rad not attained on bracket {bracket}: "
            f"|theta_plus| ranges over [{min(vals)}, {max(vals)}]"
        )
    # the cell (scan[k - 1], scan[k]] of the root along the monotonic
    # scan; sign * (|theta_plus| - target_phase) is < 0 at lo, >= 0 at hi
    sign = 1.0 if vals[-1] > vals[0] else -1.0
    k = min(max(int(np.searchsorted(sign * vals, sign * target_phase)), 1),
            PRESCAN_POINTS - 1)
    lo, hi = float(scan[k - 1]), float(scan[k])
    n = int(nodes[k - 1:k + 1].max())
    lam = lo + float((target_phase - vals[k - 1]) / (vals[k] - vals[k - 1])) * (hi - lo)
    for _ in range(10):
        value, slope = _theta_plus_rule(np.array([lam]), n, slope=True)
        lo, hi = (lam, hi) if sign * (value[0] - target_phase) < 0 else (lo, lam)
        if math.nextafter(lo, hi) == hi:
            lam = lo
            break
        lam = min(max(lam - float((value[0] - target_phase) / slope[0]),
                      math.nextafter(lo, hi)), math.nextafter(hi, lo))
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
