"""Closed-system and Lindblad propagators.

Fixed-step RK4 is the only integrator of the Hamiltonian part (a product
of midpoint exponentials in tests/oracle_reference.py is its test
reference).  Every propagation works on a ControlHamiltonian
H(t) = H0 + sum_j c_j(t) A_j and takes a block of k states, a (k, d)
array of kets or a (k, d, d) array of density matrices, and a member's
arithmetic does not depend on the block: each member takes the same
operations as a one-member block, bit for bit.  One RK4 step of
dX/dt = -iH(t) X is a fixed polynomial M_k in the generator at the start,
midpoint and end of the step, so _raw_maps forms the maps of both kernels
a chunk at a time: three products of stacks of w x w maps, and two more
for an open run's projection, each w^3 multiply-adds a map.  It forms
them on the support of H only, the w basis states that H0 or an A_j
touches (|001>, |010> and |100> of the single-excitation model, every
state of the others): off it a map is exactly I.  A batched matmul makes
one BLAS call per map, about 480 ns at w = 3 for 27 multiply-adds, so up
to w = _STEP_LAST_MAX (the ideal and single-excitation models) the stacks
lie step-last in memory and a product is w broadcast multiply-adds over
all of a chunk's steps, about 63 ns a map at w = 3.  The full chains
(w = 8 and 27) keep batched matmul, and every kernel receives
C-contiguous (m, w, w) maps.

- closed runs apply one M_k x per step to each ket's support part, one
  mat-vec per member (one gemm on a block of columns put them up to 3e-14
  off their one-member runs): ndarray.dot on the (w,) part of a
  one-member run, batched matmul on the (k, w, 1) stack of a block, the
  same gemv either way.  Every other amplitude is written through
  unchanged;
- open runs Strang-split drho/dt = -i[H, rho] + D(rho) (Strang, SIAM J.
  Numer. Anal. 5, 506 (1968)), second order in D and fourth in H: a step
  is rho <- E(M_k rho M_k^H) for a (k, d, d) block, with M_k the support
  maps written into d x d identity tables that serve the run (the maps
  themselves when the support is the whole space), E = exp(D dt)
  formed once and E_half = exp(D dt/2) opening the run and closing each
  record.  Each channel acts on one site, so E is the Kronecker product
  of the sites' dense Taylor-summed exponentials, combined into one
  64 x 64 factor at d = 8 and one 9 x 9 per transmon at d = 27, applied
  by batched matmuls along each factor's axes of rho, in numpy alone.  A
  step takes three numpy calls, each writing into a buffer: M_k rho, then
  (M_k rho) M_k^H, then E of that into the next slot of the chunk's
  (m + 1, k, d, d) buffer of the states that its maps act on, which the
  trace-loss sum reads.  E is applied only by argument-free calls bound
  once a run (at d = 8 the one mat-vec on bound vec views): one E call per
  slot, and one E_half call into a buffer that a recorded step copies to
  its record.  The steps iterate the slots, maps and adjoints together,
  so a step makes its three calls and no other dispatch.  A one-member
  run makes all three by ndarray.dot, on 2-D (d, d) views and at d = 8 on
  E's flat vec: the gemm and gemv that a block's batched matmuls make per
  member, without the ufunc dispatch (E's 64 x 64 mat-vec took 3.0-3.3 us
  a call against 4.9-5.8 us by matmul on a loaded host).  RK4's maps do
  not keep the trace (it drifts by 6e-8 over the noisy single-excitation
  run from |010> at step 0.05 ns, above check_density's 1e-8), so each
  map first takes one Newton-Schulz polar step towards the unitaries
  (Hairer, Lubich & Wanner, Geometric Numerical Integration, IV.4), an
  O(dt^6) change, on the support, where it leaves I.

One rule refuses a step that is too large: StepTooLargeError once the raw
maps have changed a member's trace by more than 2e-6, checked after every
chunk.  With K = I - M^H M, an open run sums tr(K rho) over the states the
maps act on, which the projection cannot hide; K is 0 off the support,
so the sum reads the support block.  A pure state's trace is its squared
norm, and sum_k psi_k^H K_k psi_k telescopes to its change, so a closed
run checks the squared norm of the kets' support parts once a chunk.  An
overflow's inf or NaN is refused too.  Closed maps stay raw: projecting
takes the maps of the 2,000-step ideal run from 0.8 to 1.3 ms (of 2.2),
and took closed d = 8 and 27 runs +24% and +73%.

Fixed-step, fixed-order arithmetic throughout: identical inputs produce
bit-identical outputs.  States are recorded every RECORD_STRIDE steps and
after the last, into one array allocated for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .statespace import ControlHamiltonian


class StepTooLargeError(RuntimeError):
    """The raw RK4 step maps changed the trace (a pure state's squared
    norm) of a member by more than 2e-6, or it overflowed."""


class IntegratorError(RuntimeError):
    """A propagated density matrix, or the generator of a closed
    transfer, violated its invariants."""


RECORD_STRIDE = 50


@dataclass(eq=False)
class Trajectory:
    """Time-stamped states from a propagation run of steps steps of
    size step (ns): states stacks one record per time, each a (k, d) block
    of kets or a (k, d, d) block of matrices.  trace_loss is the largest
    change in a member's trace (a pure state's squared norm) that the raw
    step maps caused, the quantity the trace-loss rule bounds."""

    times: np.ndarray
    states: np.ndarray
    steps: int
    step: float
    trace_loss: float


# matrix entries per table of d x d step maps, 96 kB: 682 steps per chunk
# at d = 3, 96 at d = 8, 8 at d = 27.  A chunk is sized by d, not by the
# support, because the open kernel's chunk buffer and identity tables hold
# d x d matrices: 682-step chunks for the 3-state support at d = 8 took a
# noisy single-excitation run's tracemalloc peak from 0.57 to 2.78 MB for
# 5% less time.  Larger tables raise the peak RSS of
# a design-and-verify process (by about 0.2 MB at 128 kB); smaller ones
# slow d = 27.  Measured when single_excitation's maps were formed on a
# 4-state index range, before its exact 3-state support, and on all of
# d = 27, fresh `simulate --initial 100`
# processes (tools/cli_times.py, best of 5, alternating; 1x against 2x and
# 4x) took: noisy single_excitation 0.206 s / 33.1 MB at 1x, 0.206 s /
# 33.3 MB at 2x, 0.202 s / 33.8 MB at 4x; noisy full_three_level 2.96 s /
# 41.0 MB at 1x, 2.84 s / 41.4 MB at 2x, 3.07 s / 41.1 MB against 2.81 s /
# 43.1 MB at 4x.  d = 8 does not gain, and the d = 27 gain costs RSS.
_MAP_ENTRIES = 6144

# The largest support whose maps are formed step-last (_stack): a product
# of two stacks of 6144 / w^2 maps took, per map, by batched matmul against
# step-last _matmul (with _UFUNC_BUFFER, one BLAS thread, a shared 2-vCPU
# host, three runs): 458-494 / 63 ns at w = 3, 464-575 / 150-154 at 4,
# 557-631 / 345-355 at 5, 567-604 / 584-618 at 6 and 667-868 / 1,417-1,525
# at 8.  So the full chains (w = 8 and 27) keep batched matmul.
_STEP_LAST_MAX = 5

# Elements per ufunc buffer while a chunk's maps are formed.  A broadcast
# operand is copied into one, and numpy's default of 8,192 holds a whole
# step-last operand: at w = 3 and 682 maps each product allocated two
# 98 kB buffers and took 65 us, against 16 kB and 41-44 us at 512-1,024
# (w = 2 to 5 alike).  Each map comes out the same, bit for bit.
_UFUNC_BUFFER = 512

# The most entries of a dissipator propagator whose site factors are
# combined into one factor: a larger one is applied a site at a time.  At
# d = 8 one dense 64 x 64 E product takes 2.8-3.5 us against 10.6-15.8 us
# for the CSR E it replaced; at d = 27 a whole dense 729 x 729 E took the
# noisy transfer from 4.4 to 17.8 s, where one 9 x 9 factor per site is no
# slower than CSR.
_WHOLE_E_ENTRIES = 64**2


# 30 times the longest default run (32,000 steps on the full chains); at
# the cap a 4-member d = 27 open block's 20,001 records hold 0.93 GB
MAX_STEPS = 10**6


def _grid(tau: float, step: float) -> tuple[int, float]:
    """(n, dt): tau in the nearest whole number n of steps of about step
    ns.  Each model's default_step resolves its fastest phase (devices).
    Raises ValueError unless tau and step are finite and > 0, and when n
    exceeds MAX_STEPS, before anything is allocated."""
    for name, value in (("tau", tau), ("step", step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    n = tau / step  # inf when the quotient overflows
    n = max(1, round(n)) if math.isfinite(n) else n
    if n > MAX_STEPS:
        raise ValueError(f"tau = {tau} ns in steps of about {step} ns takes {n} "
                         f"steps, over the {MAX_STEPS} allowed")
    return n, tau / n


def _stack(m: int, w: int) -> np.ndarray:
    """An uninitialised (m, w, w) stack of maps: step-last in memory, a
    view of a (w, w, m) array, for w <= _STEP_LAST_MAX, else C-ordered."""
    if w > _STEP_LAST_MAX:
        return np.empty((m, w, w), dtype=complex)
    return np.empty((w, w, m), dtype=complex).transpose(2, 0, 1)


def _matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b for two (m, w, w) stacks of maps, into out (by default a new
    _stack).  Up to w = _STEP_LAST_MAX it is w broadcast multiply-adds over
    all m steps, sum_j a[:, :, j] b[:, j, :]: 2w - 1 ufunc calls where a
    batched matmul makes one BLAS call per map.  On step-last stacks every
    call's inner loop runs along contiguous steps."""
    w = a.shape[-1]
    if out is None:
        out = _stack(len(a), w)
    if w > _STEP_LAST_MAX:
        return np.matmul(a, b, out=out)
    np.multiply(a[..., :1], b[..., :1, :], out=out)
    term = np.empty_like(out)
    for j in range(1, w):
        np.multiply(a[..., j:j + 1], b[..., j:j + 1, :], out=term)
        out += term
    return out


def _step_maps(gen: ControlHamiltonian, s0, s, first: int, last: int, dt: float):
    """The RK4 step maps of steps first..last - 1 for dX/dt = L(t) X with
    L = S_0 + sum_j c_j S_j, where S_0 = s0 and the rows of s are the
    flattened S_j, as a _stack.  With L0, Lm and L1 the generator at the
    start, midpoint and end of a step, P2 = Lm + (dt/2) Lm L0,
    P3 = Lm + (dt/2) Lm P2, P4 = L1 + dt L1 P3 and
    M = I + (dt/6)(L0 + 2 P2 + 2 P3 + P4), the polynomial that the four
    stages of classical RK4 apply.  Formed in place, so that a chunk holds
    four stacks (L at the step ends, Lm, P2 and P3), and M takes Lm's
    place."""
    c = gen.coeffs(np.arange(2 * first, 2 * last + 1) * (0.5 * dt))
    w, m = len(s0), last - first
    # separate stacks: in-place updates of strided views copy
    ends, lm = _stack(m + 1, w), _stack(m, w)
    for table, rows in ((ends, c[::2]), (lm, c[1::2])):
        if w > _STEP_LAST_MAX:
            np.matmul(rows, s, out=table.reshape(len(rows), w * w))
        else:  # the same sums, written step-last
            np.matmul(s.T, rows.T, out=table.transpose(1, 2, 0).reshape(w * w, len(rows)))
        table += s0
    l0, l1 = ends[:-1], ends[1:]
    p2 = _matmul(lm, l0)
    p2 *= 0.5 * dt
    p2 += lm
    p3 = _matmul(lm, p2)
    p3 *= 0.5 * dt
    p3 += lm
    # Lm is not needed any more: M accumulates in its place
    maps = np.multiply(p2, 2.0, out=lm)
    maps += l0
    p4 = _matmul(l1, p3, out=p2)
    p4 *= dt
    p4 += l1
    p3 *= 2.0
    maps += p3
    maps += p4
    maps *= dt / 6.0
    np.einsum("...ii->...i", maps)[...] += 1.0  # + I, on a view in either layout
    return maps


def _unitary_maps(maps: np.ndarray):
    """The raw step maps after one Newton-Schulz polar step
    M (3I - M^H M) / 2 = M + M K / 2, taken in place, and the raw maps'
    defects K = I - M^H M, a _stack.  RK4's K is O(dt^6) for an
    anti-Hermitian generator, so the projection changes a map by O(dt^6),
    keeping RK4 fourth order, and leaves K = O(|K|^2)."""
    k = _matmul(maps.conj().transpose(0, 2, 1), maps)
    k *= -1.0
    np.einsum("...ii->...i", k)[...] += 1.0
    step = _matmul(maps, k)
    step *= 0.5
    maps += step
    return maps, k


def _chunk(d: int) -> int:
    """Steps per chunk: _MAP_ENTRIES entries of d x d maps."""
    return max(1, _MAP_ENTRIES // d**2)


def _raw_maps(gen: ControlHamiltonian, n: int, dt: float, project: bool = False):
    """(first, maps, defects) for each chunk of the n steps of size dt:
    maps is the C-contiguous (m, w, w) stack of _step_maps of -iH(t) from
    step first, on gen.support only, and defects is None; with project,
    maps and defects are _unitary_maps of them.  Off the support H is 0,
    so a d x d map is exactly I there, and maps holds the (w, w) block on
    the support that is not, w = len(gen.support).  A chunk is formed when
    asked for and yielded unbound, so a caller that drops its maps never
    holds two."""
    rows, cols = np.ix_(gen.support, gen.support)
    s0 = -1j * gen.h0[rows, cols]
    s = -1j * gen.ops[:, rows, cols].reshape(len(gen.ops), -1)
    chunk = _chunk(gen.dim)
    for first in range(0, n, chunk):
        yield (first,) + _formed(gen, s0, s, first, min(n, first + chunk), dt, project)


def _formed(gen: ControlHamiltonian, s0, s, first: int, last: int, dt: float,
            project: bool) -> tuple:
    """(maps, defects) as _raw_maps yields them for steps first..last - 1,
    formed with ufunc buffers of _UFUNC_BUFFER elements."""
    size = np.setbufsize(_UFUNC_BUFFER)
    try:
        maps = _step_maps(gen, s0, s, first, last, dt)
        maps, defects = _unitary_maps(maps) if project else (maps, None)
    finally:
        np.setbufsize(size)
    return (np.ascontiguousarray(maps),
            None if defects is None else np.ascontiguousarray(defects))


def _check_trace_loss(lost) -> float:
    """The one trace-loss rule (see the module docstring), given the trace
    that the raw maps have taken from each member so far; returns the
    worst member's."""
    worst = float(np.max(np.abs(lost)))
    if not worst <= 2e-6:  # a NaN is refused too
        raise StepTooLargeError(f"the raw step maps changed the trace by {worst:.3e}, "
                                "over 2e-6; reduce the step")
    return worst


def _records(n: int, dt: float, first: np.ndarray):
    """The record times of an n-step run of step dt, after 0, RECORD_STRIDE,
    2 RECORD_STRIDE, ... and n steps, and an uninitialised (records,
    *first.shape) array of blocks whose row 0 is first."""
    times = np.append(np.arange(0, n, RECORD_STRIDE), n) * dt
    states = np.empty((len(times),) + first.shape, dtype=complex)
    states[0] = first
    return times, states


def _schedule(states: np.ndarray, n: int, first: int, m: int) -> list:
    """For each of the m steps of an n-step run from step first, the
    record block of states that the state after it is written into, or
    None: after every RECORD_STRIDE steps and after the last, as _records
    times them."""
    due = [None] * m
    for j in range(first // RECORD_STRIDE + 1, (first + m) // RECORD_STRIDE + 1):
        due[j * RECORD_STRIDE - 1 - first] = states[j]
    if first + m == n:
        due[-1] = states[-1]
    return due


@np.errstate(over="ignore", invalid="ignore")  # the rule refuses inf and NaN
def propagate_schrodinger(
    gen: ControlHamiltonian, psi0: np.ndarray, tau: float, step: float,
) -> Trajectory:
    """Integrate i d|psi>/dt = H(t)|psi> from 0 to tau by the raw RK4 step
    maps of about step ns, one M @ x per step and ket of the (k, d) block
    psi0 on the support of H, recording (k, d) blocks whose amplitudes off
    the support are psi0's.  Raises StepTooLargeError by the trace-loss
    rule."""
    n, dt = _grid(tau, step)
    psi0 = np.array(psi0, dtype=complex)
    k, w = len(psi0), len(gen.support)
    # the support parts: one member's (w,) ket, stepped by ndarray.dot, or
    # the (k, w, 1) stack of a block, by batched matmul; the same gemv per ket
    x, product = ((psi0[0, gen.support], np.ndarray.dot) if k == 1
                  else (psi0[:, gen.support, None], np.matmul))
    norm0 = np.sum(np.abs(x.reshape(k, w)) ** 2, axis=1)
    times, states = _records(n, dt, psi0)
    states[1:] = psi0  # H leaves the amplitudes off the support as they are
    for first, maps, _ in _raw_maps(gen, n, dt):
        for map_, record in zip(maps, _schedule(states, n, first, len(maps))):
            x = product(map_, x)
            if record is not None:
                record[:, gen.support] = x.reshape(k, w)
        del maps, map_  # free this chunk's maps before the next chunk's are formed
        loss = _check_trace_loss(norm0 - np.sum(np.abs(x.reshape(k, w)) ** 2, axis=1))
    return Trajectory(times, states, n, dt, loss)


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square a: the Taylor sum of a / 2^s, scaled to a
    1-norm of at most 1/2, squared s times.  The sum stops before the
    first term with no entry above 2^-53; since |(T b)_ij| <= max|T| |b|_1,
    the terms left out change no entry by more than 4/3 of that."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    a = a / 2.0**squarings
    e = term = np.eye(len(a), dtype=complex)
    k = 1
    while True:
        term = (term @ a) / k
        if np.abs(term).max() <= 2.0**-53:
            break
        e = e + term
        k += 1
    for _ in range(squarings):
        e = e @ e
    return e


class _Factored:
    """exp(D t) for a dissipator that is a sum of one generator per site:
    the Kronecker product of dense factors (Van Loan, J. Comput. Appl.
    Math. 123, 85 (2000)), one per group of sites, the group dims
    multiplying to d.  A group's factor acts on the row-major vec of its
    (g, g) block of rho.

    Bound to a (k, d, d) block, it interleaves the axes of each member to
    ((i_1, j_1), ..., (i_m, j_m)) and multiplies each pair axis by its
    factor with one batched matmul, so that a member's arithmetic does not
    depend on k: from the left, batched over the axes before it, except
    the last of several factors, which multiplies from the right.  With
    one factor the interleaving is the identity; with none, E is too."""

    def __init__(self, dims: Sequence[int], factors: Sequence[np.ndarray]):
        m = len(dims)
        self.dims, self.factors = tuple(dims), tuple(factors)
        self._interleave = (0,) + tuple(a for s in range(1, m + 1) for a in (s, s + m))
        self._back = tuple(int(a) for a in np.argsort(self._interleave))
        self._pairs = tuple(g for g in self.dims for _ in "ij")
        # (from the right, pair entries before the factor's, factor)
        self._products = [(0 < f == m - 1, math.prod(self.dims[:f]) ** 2,
                           e.T if 0 < f == m - 1 else e)
                          for f, e in enumerate(self.factors)]
        # one factor: the one matmul on each member's vec writes the result
        self._whole = self.factors[0] if m == 1 else None

    def bind(self, r: np.ndarray, outs: Sequence[np.ndarray]) -> list:
        """One argument-free call per array of outs, E's only entry point:
        each writes E of every member of the C-contiguous (k, d, d) block r
        into its out, a C-contiguous complex array of r's shape (with one
        factor, the one mat-vec on each member's vec, bound to vec views)."""
        if self._whole is None:
            return [partial(self._apply, r, out) for out in outs]
        # one member: ndarray.dot on the flat vec, the gemv that matmul
        # makes for each member of a block, without the ufunc dispatch
        product, vecs = ((np.ndarray.dot, -1) if len(r) == 1
                         else (np.matmul, (len(r), -1, 1)))
        r = r.reshape(vecs)
        return [partial(product, self._whole, r, out.reshape(vecs)) for out in outs]

    def _apply(self, r: np.ndarray, out: np.ndarray):
        """E of r into out, by the factors in turn (none: a copy)."""
        x = r
        if self.factors:
            k = len(r)
            x = r.reshape((k,) + self.dims * 2).transpose(self._interleave)
            for right, before, e in self._products:
                x = x.reshape(k, before, -1) @ e if right else e @ x.reshape(
                    k * before, len(e), -1)
            x = x.reshape((k,) + self._pairs).transpose(self._back)
        np.copyto(out.reshape(x.shape), x)


def _dissipator_propagators(channels: Sequence, d: int, dt: float):
    """(exp(D dt/2), exp(D dt)) as _Factored propagators, for the
    dissipator D = sum_k Gamma_k (O_k (x) O_k^* - ((O_k^H O_k) (x) I +
    I (x) (O_k^H O_k)^T) / 2) on row-major vec rho, O_k acting on its
    channel's site.  The sites' parts of D commute, so each site's factor
    is the Taylor-summed exponential of its own part (4 x 4 or 9 x 9,
    summing that site's channels).  Where the whole E holds at most
    _WHOLE_E_ENTRIES entries (64 x 64 at d = 8), the site factors are
    combined into that one factor, their Kronecker product, whose column
    m is their image of the m-th unit matrix.  A site's part maps every
    matrix to a traceless one, so each Taylor term does too and every
    factor preserves the trace.  Raises ValueError unless the channels'
    site dims multiply to d."""
    site_dims = {}
    for c in channels:
        if site_dims.setdefault(c.site, len(c.operator)) != len(c.operator):
            raise ValueError(f"channels on site {c.site} act on different dims")
    if not channels:
        return _Factored((), ()), _Factored((), ())
    shape = [site_dims.get(s, 0) for s in range(max(site_dims) + 1)]
    if math.prod(shape) != d:
        raise ValueError(f"the channels' site dims {shape} (0: a site without "
                         f"a channel) do not multiply to d = {d}")
    gens = [np.zeros((g * g, g * g), dtype=complex) for g in shape]
    for c in channels:
        op, eye = c.operator, np.eye(len(c.operator))
        sq = op.conj().T @ op
        gens[c.site] += c.rate * (np.kron(op, op.conj())
                                  - 0.5 * (np.kron(sq, eye) + np.kron(eye, sq.T)))
    es = [_Factored(shape, [_expm_taylor(g * t) for g in gens]) for t in (0.5 * dt, dt)]
    if d**4 > _WHOLE_E_ENTRIES:
        return tuple(es)
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    images = [np.empty_like(units) for _ in es]
    for e, image in zip(es, images):
        e.bind(units, [image])[0]()
    return tuple(_Factored([d], [i.reshape(d * d, -1).T.copy()]) for i in images)


@np.errstate(over="ignore", invalid="ignore")  # the rule refuses inf and NaN
def integrate_master(
    gen: ControlHamiltonian, channels: Sequence, rho0: np.ndarray, tau: float,
    step: float,
) -> Trajectory:
    """Strang-split integration of drho/dt = i[rho, H(t)] + sum_k
    Gamma_k L(O_k) at about step ns from rho0, a (k, d, d) block of density
    matrices.  A step is rho <- E(M rho M^H), with M a unitary-projected
    RK4 step map of the closed part (_unitary_maps) and E = exp(D dt) the
    constant dissipator propagator; E_half opens the run and closes each
    recorded block, so the record after n steps is
    E_half M E M ... E M E_half rho0.  Each record is a (k, d, d) block.

    Raises StepTooLargeError by the trace-loss rule, and IntegratorError
    unless every final member passes check_density."""
    n, dt = _grid(tau, step)
    d = gen.dim
    half, full = _dissipator_propagators(channels, d, dt)
    r = np.array(rho0, dtype=complex)
    times, states = _records(n, dt, r)
    # acted_on[i] is the state that map i of a chunk acts on; acted_on[m]
    # ends the chunk and starts the next
    acted_on = np.empty((min(n, _chunk(d)) + 1,) + r.shape, dtype=complex)
    half.bind(r, [acted_on[0]])[0]()
    a, b, c = (np.empty_like(acted_on[0]) for _ in range(3))
    # bound once, not per record: step i's E of b into slot i + 1, E_half of
    # b into c for a record.  A list of the slots' views kept for the run
    # read 0.15 MB more peak RSS in short noisy-se benchmark runs
    into_next, half_into_c = full.bind(b, acted_on[1:]), half.bind(b, [c])[0]
    # one member steps 2-D (d, d) views by ndarray.dot, a block its
    # (k, d, d) stacks by batched matmul: the same gemm per member
    product, slots, a_, b_ = ((np.ndarray.dot, acted_on[:, 0], a[0], b[0]) if len(r) == 1
                              else (np.matmul, acted_on, a, b))
    # the support block of a (..., d, d) array, and identity tables whose
    # support block each chunk's maps fill; the whole space takes slices and
    # the maps themselves (fancy indexing took 62 us a chunk at d = 27)
    whole = len(gen.support) == d
    on_support = (slice(None),) * 2 if whole else np.ix_(gen.support, gen.support)
    tables = None if whole else np.tile(np.eye(d, dtype=complex),
                                        (len(acted_on) - 1, 1, 1))
    lost = np.zeros(len(r))
    for first, maps, defects in _raw_maps(gen, n, dt, project=True):
        m = len(maps)
        if not whole:
            tables[:m][(..., *on_support)] = maps
            maps = tables[:m]
        adjoints = maps.conj().transpose(0, 2, 1)
        for rho, map_, adjoint, record, e_into_next in zip(
                slots, maps, adjoints, _schedule(states, n, first, m), into_next):
            product(map_, rho, a_)
            product(a_, adjoint, b_)
            if record is not None:
                half_into_c()
                record[...] = c
            e_into_next()
        # tr(K rho) = sum_ij K_ij conj(rho_ij) for a Hermitian rho, and K
        # is 0 off the support
        part = acted_on[:m][(..., *on_support)].reshape(m, len(r), -1)
        lost += (part.conj() @ defects.reshape(m, -1, 1)).real.sum(axis=(0, 2))
        acted_on[0] = acted_on[m]
        del maps, defects, adjoints, map_, adjoint  # before the next chunk's are formed
        loss = _check_trace_loss(lost)
    check_density(states[-1])
    return Trajectory(times, states, n, dt, loss)


def check_density(rho: np.ndarray):
    """Raise IntegratorError unless every member of the (k, d, d) block
    rho is finite, has unit trace (1e-8), is Hermitian (1e-9) and has no
    eigenvalue at or below -1e-6."""
    if not np.all(np.isfinite(rho)):
        raise IntegratorError("final state is not finite; reduce the step")
    tr = np.trace(rho, axis1=1, axis2=2)
    bad = np.flatnonzero((np.abs(tr.real - 1.0) > 1e-8) | (np.abs(tr.imag) > 1e-8))
    if bad.size:
        raise IntegratorError(f"trace drifted to {complex(tr[bad[0]])!r}; reduce the step")
    adjoint = rho.conj().transpose(0, 2, 1)
    if np.max(np.abs(rho - adjoint)) > 1e-9:
        raise IntegratorError("final state lost Hermiticity; reduce the step")
    # Cholesky of the Hermitian part plus 1e-6 I, all members a column at
    # a time: a pivot not > 0 means an eigenvalue at or below -1e-6
    a = 0.5 * (rho + adjoint) + 1e-6 * np.eye(rho.shape[-1])
    for j in range(rho.shape[-1]):
        if not np.all(a[:, j, j].real > 0):
            raise IntegratorError("final state lost positivity; reduce the step")
        col = a[:, j + 1:, j] / np.sqrt(a[:, j, j].real)[:, None]
        a[:, j + 1:, j + 1:] -= col[:, :, None] * col[:, None, :].conj()
