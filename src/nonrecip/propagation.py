"""Closed-system and Lindblad propagators, plus the brute-force
evolution-operator oracle.

Fixed-step RK4 is the only integrator of the Hamiltonian part (the
oracle's product of midpoint exponentials is its test reference).  Every
propagation works on a ControlHamiltonian H(t) = H0 + sum_j c_j(t) A_j
and takes one state or a block of states.  One RK4 step of
dX/dt = -iH(t) X is a fixed polynomial M_k in the generator at the start,
midpoint and end of the step, so _raw_maps forms the maps of both kernels
a chunk at a time, in one batched pass (about 3 d^3 multiply-adds a map):

- closed runs apply one M_k @ X per step to a (d, k) block X of states;
- open runs Strang-split drho/dt = -i[H, rho] + D(rho) (Strang, SIAM J.
  Numer. Anal. 5, 506 (1968)), second order in D and fourth in H: a step
  is rho <- E(M_k rho M_k^H) for a (k, d, d) block, with E = exp(D dt)
  formed once by a sparse Taylor sum and E_half = exp(D dt/2) opening the
  run and closing each record.  RK4's maps do not keep the trace (it
  drifts by 6e-8 over the noisy single-excitation run from |010> at step
  0.05 ns, above check_density's 1e-8), so each map first takes one
  Newton-Schulz polar step towards the unitaries (Hairer, Lubich &
  Wanner, Geometric Numerical Integration, IV.4), an O(dt^6) change.

One rule refuses a step that is too large: StepTooLargeError once the raw
maps have changed a member's trace by more than 2e-6, checked after every
chunk.  With K = I - M^H M, an open run sums tr(K rho) over the states the
maps act on, which the projection cannot hide.  A pure state's trace is
its squared norm, and sum_k psi_k^H K_k psi_k telescopes to its change, so
a closed run checks one norm a chunk.  An overflow's inf or NaN is refused
too.  Closed maps stay raw: projecting took the maps of a 2,900-step ideal
run from 5.1 to 8.4 ms (of 12.7), closed d = 8 and 27 runs +24% and +73%.

Fixed-step, fixed-order arithmetic throughout: identical inputs produce
bit-identical outputs, and a block member's arithmetic does not depend
on the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statespace import ControlHamiltonian, PureState


class StepTooLargeError(RuntimeError):
    """The raw RK4 step maps changed the trace (a pure state's squared
    norm) of a member by more than 2e-6, or it overflowed."""


class IntegratorError(RuntimeError):
    """A propagated density matrix, or the generator of a closed
    transfer, violated its invariants."""


@dataclass(frozen=True)
class PropagationConfig:
    """Fixed-step integration settings.

    step is in ns; the caller is responsible for resolving the fastest
    Hamiltonian phase (about twenty samples per period; each model's
    default_step does).  States are recorded every record_stride steps.
    """

    step: float
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


# matrix entries per table of step maps, 96 kB: 682 steps per chunk at
# d = 3, 8 at d = 27.  Larger tables raise the peak RSS of a design-and-
# verify process (by about 0.2 MB at 128 kB); smaller ones slow d = 27.
_MAP_ENTRIES = 6144


def _grid(tau: float, step: float) -> tuple[int, float]:
    n = max(1, int(round(tau / step)))
    return n, tau / n


def _step_maps(gen: ControlHamiltonian, s0, s, first: int, last: int, dt: float):
    """The RK4 step maps of steps first..last - 1 for dX/dt = L(t) X with
    L = S_0 + sum_j c_j S_j, where S_0 = s0 and the rows of s are the
    flattened S_j.  With L0, Lm and L1 the generator at the start,
    midpoint and end of a step, P2 = Lm + (dt/2) Lm L0,
    P3 = Lm + (dt/2) Lm P2, P4 = L1 + dt L1 P3 and
    M = I + (dt/6)(L0 + 2 P2 + 2 P3 + P4), the polynomial that the four
    stages of classical RK4 apply.  Formed in place, so that a chunk holds
    four tables (L at the step ends, Lm, P2 and P3), and M takes Lm's
    place."""
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


def _raw_maps(gen: ControlHamiltonian, n: int, dt: float):
    """(first, maps) for each chunk of the n steps of size dt: _step_maps
    of -iH(t) from step first, at most _MAP_ENTRIES entries.  A chunk is
    formed when asked for, so a caller that drops its maps never holds two."""
    s0, s = -1j * gen.h0, -1j * gen.ops.reshape(len(gen.ops), -1)
    chunk = max(1, _MAP_ENTRIES // gen.dim**2)
    for first in range(0, n, chunk):
        yield first, _step_maps(gen, s0, s, first, min(n, first + chunk), dt)


def _check_trace_loss(lost):
    """The one trace-loss rule (see the module docstring), given the trace
    that the raw maps have taken from each member so far."""
    worst = np.max(np.abs(lost))
    if not worst <= 2e-6:  # a NaN is refused too
        raise StepTooLargeError(f"the raw step maps changed the trace by {worst:.3e}, "
                                "over 2e-6; reduce the step")


@np.errstate(over="ignore", invalid="ignore")  # the rule refuses inf and NaN
def propagate_schrodinger(
    gen: ControlHamiltonian, psi0: PureState | np.ndarray, tau: float,
    cfg: PropagationConfig,
) -> Trajectory:
    """Integrate i d|psi>/dt = H(t)|psi> from 0 to tau by the raw RK4 step
    maps, one M @ X per step.  psi0 is a PureState, or a (d, k) array
    whose k columns are propagated together, and each recorded state has
    the same shape.  Raises StepTooLargeError by the trace-loss rule."""
    n, dt = _grid(tau, cfg.step)
    x = np.array(psi0.amplitudes if isinstance(psi0, PureState) else psi0, dtype=complex)
    norm0 = np.sum(np.abs(x) ** 2, axis=0)
    times, states = [0.0], [x]
    for first, maps in _raw_maps(gen, n, dt):
        for step in range(first, first + len(maps)):
            x = maps[step - first] @ x  # a new array: records need no copy
            if _due(step, n, cfg):
                times.append((step + 1) * dt)
                states.append(x)
        del maps  # free this chunk's maps before the next chunk's are formed
        _check_trace_loss(norm0 - np.sum(np.abs(x) ** 2, axis=0))
    return Trajectory(np.array(times), np.array(states), n, dt)


def _due(k: int, n: int, cfg: PropagationConfig) -> bool:
    """Whether the state after step k of n is recorded."""
    return (k + 1) % cfg.record_stride == 0 or k == n - 1


def _expm_taylor(a: sparse.csr_matrix) -> sparse.csr_matrix:
    """exp(a) for a sparse a: the Taylor sum of a / 2^s, scaled to a
    1-norm of at most 1/2, squared s times.  The sum stops before the
    first term with no entry above 2^-53; since |(T b)_ij| <= max|T| |b|_1,
    the terms left out change no entry by more than 4/3 of that.  A small
    a keeps s = 0 and the sparsity of its first few powers."""
    from scipy import sparse

    norm = float(abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    a = a / 2.0**squarings
    e = term = sparse.identity(a.shape[0], dtype=complex, format="csr")
    k = 1
    while True:
        term = (term @ a) / k
        if abs(term).max() <= 2.0**-53:
            break
        e = e + term
        k += 1
    for _ in range(squarings):
        e = e @ e
    return e


def _dissipator_propagators(channels: Sequence, d: int, dt: float):
    """(exp(D dt/2), exp(D dt)), as CSR, for the dissipator
    D = sum_k Gamma_k (O_k (x) O_k^* - ((O_k^H O_k) (x) I +
    I (x) (O_k^H O_k)^T) / 2) on row-major vec rho.  D maps every matrix
    to a traceless one, so each Taylor term does too and both preserve
    the trace.  scipy.sparse is imported here, on the first open run, so
    that designs and closed runs never load it."""
    from scipy import sparse

    eye = sparse.identity(d, dtype=complex, format="csr")
    gen = sparse.csr_matrix((d * d, d * d), dtype=complex)
    for c in channels:
        op = sparse.csr_matrix(c.operator)
        sq = op.conj().T @ op
        gen = gen + c.rate * (sparse.kron(op, op.conj())
                              - 0.5 * (sparse.kron(sq, eye) + sparse.kron(eye, sq.T)))
    return _expm_taylor(gen * (0.5 * dt)), _expm_taylor(gen * dt)


def _unitary_maps(maps: np.ndarray):
    """The raw step maps after one Newton-Schulz polar step
    M (3I - M^H M) / 2 = M + M K / 2, taken in place, and the raw maps'
    defects K = I - M^H M.  RK4's K is O(dt^6) for an anti-Hermitian
    generator, so the projection changes a map by O(dt^6), keeping RK4
    fourth order, and leaves K = O(|K|^2)."""
    k = np.matmul(maps.conj().transpose(0, 2, 1), maps)
    k *= -1.0
    k.reshape(len(k), -1)[:, ::maps.shape[-1] + 1] += 1.0
    maps += 0.5 * (maps @ k)
    return maps, k


@np.errstate(over="ignore", invalid="ignore")  # the rule refuses inf and NaN
def integrate_master(
    gen: ControlHamiltonian, channels: Sequence, rho0: np.ndarray, tau: float,
    cfg: PropagationConfig,
) -> Trajectory:
    """Strang-split integration of drho/dt = i[rho, H(t)] + sum_k
    Gamma_k L(O_k) from rho0: one (d, d) density matrix, or a (k, d, d)
    block propagated together.  A step is rho <- E(M rho M^H), with M a
    unitary-projected RK4 step map of the closed part (_unitary_maps) and
    E = exp(D dt) the constant dissipator propagator; E_half opens the run
    and closes each recorded state, so the record after n steps is
    E_half M E M ... E M E_half rho0.  Each recorded state has rho0's shape.

    Raises StepTooLargeError by the trace-loss rule, and IntegratorError
    unless every final member passes check_density."""
    n, dt = _grid(tau, cfg.step)
    half, full = _dissipator_propagators(channels, gen.dim, dt)

    def dissipate(e, r):
        """e applied to the vec rho of each member of the (k, d, d) block
        r, as the (d^2, k) columns of one CSR product, so that a member's
        arithmetic does not depend on k."""
        return np.ascontiguousarray((e @ r.reshape(len(r), -1).T).T).reshape(r.shape)

    r = np.array(rho0, dtype=complex).reshape(-1, gen.dim, gen.dim)
    times, states = [0.0], [r]
    r = dissipate(half, r)
    lost = np.zeros(len(r))
    for first, maps in _raw_maps(gen, n, dt):
        maps, defects = _unitary_maps(maps)
        adjoints = maps.conj().transpose(0, 2, 1)
        acted_on = np.empty((len(maps),) + r.shape, dtype=complex)
        for step in range(first, first + len(maps)):
            acted_on[step - first] = r
            r = maps[step - first] @ r @ adjoints[step - first]
            if _due(step, n, cfg):
                times.append((step + 1) * dt)
                states.append(dissipate(half, r))
            r = dissipate(full, r)
        # tr(K rho) = sum_ij K_ij conj(rho_ij) for a Hermitian rho
        lost += (acted_on.reshape(len(maps), len(r), -1).conj()
                 @ defects.reshape(len(maps), -1, 1)).real.sum(axis=(0, 2))
        del maps, defects, adjoints, acted_on  # before the next chunk's are formed
        _check_trace_loss(lost)
    check_density(states[-1])
    return Trajectory(np.array(times), np.array(states).reshape(
        (len(times),) + np.shape(rho0)), n, dt)


def check_density(rho: np.ndarray):
    """Raise IntegratorError unless rho, or every member of a (k, d, d)
    block, is finite, has unit trace (1e-8), is Hermitian (1e-9) and has
    no eigenvalue below -1e-6."""
    rho = np.reshape(rho, (-1,) + np.shape(rho)[-2:])
    if not np.all(np.isfinite(rho)):
        raise IntegratorError("final state is not finite; reduce the step")
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
