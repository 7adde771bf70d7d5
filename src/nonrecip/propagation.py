"""Closed-system and Lindblad propagators, plus the brute-force
evolution-operator oracle.

Fixed-step RK4 is the only integrator; the oracle's product of midpoint
exponentials is the reference it is tested against.  Every propagation
works on a ControlHamiltonian H(t) = H0 + sum_j c_j(t) A_j, as
dx/dt = S_0 x + sum_j c_j(t) S_j x with constant blocks S_j, tabulates
the coefficients on the half-step grid one chunk of steps at a time, and
takes one state or a block of states, every one of which it checks at
the end.  The two paths differ in how a step is applied:

- closed runs (x = psi, S_j = -i A_j, d x d) multiply step maps: one RK4
  step is a fixed polynomial M_k in the generator at the start, midpoint
  and end of the step, so each chunk's maps are formed in one batched
  pass and a step is one M_k @ X for a (d, k) block X of states.  A map
  costs about 3 d^3 multiply-adds, cheap for d x d generators;
- open runs (x = vec(rho), sparse CSR d^2 x d^2 blocks: the commutators
  with A_j, the dissipators folded into S_0) apply the four stages to the
  vector, or to the (d^2, k) columns of a (k, d, d) block, because
  d^2 x d^2 maps were measured slower (24 s against about 3 s for the
  noisy single-excitation transfer).

Fixed-step, fixed-order arithmetic throughout: identical inputs produce
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .statespace import ControlHamiltonian, PureState


class StepTooLargeError(RuntimeError):
    """Norm drift exceeded the closed-system tolerance."""


class IntegratorError(RuntimeError):
    """A propagated density matrix, or the generator of a closed
    transfer, violated its invariants."""


@dataclass(frozen=True)
class PropagationConfig:
    """Fixed-step integration settings.

    step is in ns; the caller is responsible for resolving the fastest
    Hamiltonian phase (about twenty samples per period).  States are
    recorded every record_stride steps.
    """

    step: float = 0.05
    record_stride: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and > 0, got {self.step}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class Trajectory:
    """Time-stamped states from a propagation run of steps steps of
    size step (ns): states stacks one record per time, each shaped like
    the initial state or block."""

    times: np.ndarray
    states: np.ndarray
    steps: int
    step: float

    @property
    def final(self):
        return self.states[-1]


_CHUNK = 256  # steps per coefficient table, which keeps the tables small
# matrix entries per table of step maps, 96 kB: 682 steps per chunk at
# d = 3, 8 at d = 27.  Larger tables raise the peak RSS of a design-and-
# verify process (by about 0.2 MB at 128 kB); smaller ones slow d = 27.
_MAP_ENTRIES = 6144


def _grid(tau: float, step: float) -> tuple[int, float]:
    n = max(1, int(round(tau / step)))
    return n, tau / n


def _lindblad_stack(gen: ControlHamiltonian, channels: Sequence) -> sparse.csr_matrix:
    """[S_0; S_1; ...; S_J] for vec(rho): S_0 holds -i[H0, .] and the
    dissipators, S_j the commutator with A_j."""
    eye = sparse.identity(gen.dim, dtype=complex, format="csr")

    def commutator(a):
        a = sparse.csr_matrix(a)
        return -1j * (sparse.kron(a, eye) - sparse.kron(eye, a.T))

    drift = commutator(gen.h0)
    for c in channels:
        op = sparse.csr_matrix(c.operator)
        sq = op.conj().T @ op
        drift = drift + c.rate * (
            sparse.kron(op, op.conj())
            - 0.5 * (sparse.kron(sq, eye) + sparse.kron(eye, sq.T))
        )
    return sparse.vstack([drift] + [commutator(a) for a in gen.ops], format="csr")


def _rk4(stack, gen: ControlHamiltonian, x0, tau: float, cfg) -> Trajectory:
    """Classical RK4 for dx/dt = S_0 x + sum_j c_j(t) S_j x, where the
    (1 + J) blocks of stack are S_0..S_J and x0 is a vector or a block of
    columns.  For each chunk of steps the table holds (1, c(t)) on the
    half-step times, so rows 2k, 2k + 1 and 2k + 2 are the start, midpoint
    and end of step k, and the stage derivative at row s is
    table[s] @ (stack @ x), over the (blocks, rows x columns) reshape."""
    n, dt = _grid(tau, cfg.step)
    blocks = stack.shape[0] // stack.shape[1]
    weights = np.array([1.0, 2.0, 2.0, 1.0], dtype=complex) * (dt / 6.0)
    x = np.array(x0, dtype=complex)
    k = np.empty((4,) + x.shape, dtype=complex)
    flat = k.reshape(4, -1)  # a view: the stages write into k

    def stage(i, x, c):
        np.dot(c, (stack @ x).reshape(blocks, -1), out=flat[i])

    times, states = [0.0], [x.copy()]
    for first in range(0, n, _CHUNK):
        steps = range(first, min(n, first + _CHUNK))
        half = np.arange(2 * first, 2 * steps[-1] + 3) * (0.5 * dt)
        table = np.column_stack([np.ones(len(half)), gen.coeffs(half)])
        for step in steps:
            s = 2 * (step - first)
            stage(0, x, table[s])
            stage(1, x + 0.5 * dt * k[0], table[s + 1])
            stage(2, x + 0.5 * dt * k[1], table[s + 1])
            stage(3, x + dt * k[2], table[s + 2])
            x = x + (weights @ flat).reshape(x.shape)
            _record(times, states, x, step, n, dt, cfg)
    return Trajectory(np.array(times), np.array(states), n, dt)


def _step_maps(gen: ControlHamiltonian, s0, s, first: int, last: int, dt: float):
    """The RK4 step maps of steps first..last - 1 for dX/dt = L(t) X with
    L = S_0 + sum_j c_j S_j, where S_0 = s0 and the rows of s are the
    flattened S_j.  With L0, Lm and L1 the generator at the start,
    midpoint and end of a step, P2 = Lm + (dt/2) Lm L0,
    P3 = Lm + (dt/2) Lm P2, P4 = L1 + dt L1 P3 and
    M = I + (dt/6)(L0 + 2 P2 + 2 P3 + P4), the polynomial that the four
    stages of _rk4 apply.  Formed in place, so that a chunk holds four
    tables (L at the step ends, Lm, P2 and P3), and M takes Lm's place."""
    c = gen.coeffs(np.arange(2 * first, 2 * last + 1) * (0.5 * dt))
    d = gen.dim
    # separate contiguous tables: in-place updates of strided views copy
    ends = (c[::2] @ s).reshape(-1, d, d)
    ends += s0
    lm = (c[1::2] @ s).reshape(-1, d, d)
    lm += s0
    l0, l1 = ends[:-1], ends[1:]
    p2 = lm @ l0
    p2 *= 0.5 * dt
    p2 += lm
    p3 = lm @ p2
    p3 *= 0.5 * dt
    p3 += lm
    # Lm is not needed any more: M accumulates in its place
    maps = np.multiply(p2, 2.0, out=lm)
    maps += l0
    p4 = np.matmul(l1, p3, out=p2)
    p4 *= dt
    p4 += l1
    p3 *= 2.0
    maps += p3
    maps += p4
    maps *= dt / 6.0
    maps.reshape(len(maps), -1)[:, ::d + 1] += 1.0  # + I, without a buffer
    return maps


def propagate_schrodinger(
    gen: ControlHamiltonian, psi0: PureState | np.ndarray, tau: float,
    cfg: PropagationConfig | None = None,
) -> Trajectory:
    """Integrate i d|psi>/dt = H(t)|psi> from 0 to tau by RK4 step maps
    (_step_maps), one M @ X per step.  psi0 is a PureState, or a (d, k)
    array whose k columns are propagated together, and each recorded
    state has the same shape.

    Raises StepTooLargeError when the norm of any column drifts by more
    than 1e-6.
    """
    cfg = cfg or PropagationConfig()
    s0, s = -1j * gen.h0, -1j * gen.ops.reshape(len(gen.ops), -1)
    chunk = max(1, _MAP_ENTRIES // gen.dim**2)
    n, dt = _grid(tau, cfg.step)
    x0 = psi0.amplitudes if isinstance(psi0, PureState) else np.asarray(psi0)
    x = np.array(x0, dtype=complex)
    times, states = [0.0], [x.copy()]
    for first in range(0, n, chunk):
        maps = _step_maps(gen, s0, s, first, min(n, first + chunk), dt)
        for step in range(first, first + len(maps)):
            x = maps[step - first] @ x
            _record(times, states, x, step, n, dt, cfg)
        del maps  # free this chunk's maps before the next chunk's are formed
    traj = Trajectory(np.array(times), np.array(states), n, dt)
    drift = np.max(np.abs(np.linalg.norm(traj.final, axis=0)
                          - np.linalg.norm(x0, axis=0)))
    if drift > 1e-6:
        raise StepTooLargeError(f"norm drift {drift:.3e} exceeds 1e-6; reduce the step")
    return traj


def _record(times, states, state, k, n, dt, cfg):
    if (k + 1) % cfg.record_stride == 0 or k == n - 1:
        times.append((k + 1) * dt)
        states.append(state.copy())


def integrate_master(
    gen: ControlHamiltonian, channels: Sequence, rho0: np.ndarray, tau: float,
    cfg: PropagationConfig,
) -> Trajectory:
    """RK4 integration of drho/dt = i[rho, H(t)] + sum_k Gamma_k L(O_k)
    from rho0: one (d, d) density matrix, or a (k, d, d) block propagated
    together as the k columns of vec rho.  Each recorded state has rho0's
    shape, and every final member must pass check_density, else
    IntegratorError."""
    rho0 = np.asarray(rho0)
    d = gen.dim
    x0 = rho0.reshape(-1, d * d).T.copy() if rho0.ndim == 3 else rho0.ravel()
    traj = _rk4(_lindblad_stack(gen, channels), gen, x0, tau, cfg)
    x = np.moveaxis(traj.states.reshape(len(traj.times), d * d, -1), 2, 1)
    traj.states = x.reshape((len(traj.times),) + rho0.shape)
    check_density(traj.final)
    return traj


def check_density(rho: np.ndarray):
    """Raise IntegratorError unless rho, or every member of a (k, d, d)
    block, has unit trace (1e-8), is Hermitian (1e-9) and has no
    eigenvalue below -1e-6."""
    rho = np.reshape(rho, (-1,) + np.shape(rho)[-2:])
    tr = np.trace(rho, axis1=1, axis2=2)
    bad = np.flatnonzero((np.abs(tr.real - 1.0) > 1e-8) | (np.abs(tr.imag) > 1e-8))
    if bad.size:
        raise IntegratorError(f"trace drifted to {complex(tr[bad[0]])!r}; reduce the step")
    adjoint = rho.conj().transpose(0, 2, 1)
    if np.max(np.abs(rho - adjoint)) > 1e-9:
        raise IntegratorError("final state lost Hermiticity; reduce the step")
    if np.linalg.eigvalsh(0.5 * (rho + adjoint)).min() < -1e-6:
        raise IntegratorError("final state lost positivity; reduce the step")


def evolution_operator_oracle(
    gen: ControlHamiltonian, tau: float, cfg: PropagationConfig | None = None
) -> np.ndarray:
    """U(tau), as a complex (d, d) array: the time-ordered product of
    per-step midpoint exponentials exp(-i H(t_k + dt/2) dt).

    This is the brute-force reference for any designed evolution
    operator; accuracy is limited only by the step size.
    """
    cfg = cfg or PropagationConfig(step=0.001)
    n, dt = _grid(tau, cfg.step)
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
