"""Stage-by-stage classical RK4 on a stack of constant blocks: the
reference that the step-map and Strang-split kernels of
nonrecip.propagation are tested against."""

import math

import numpy as np

from nonrecip.propagation import RECORD_STRIDE, Trajectory, _grid

CHUNK = 256  # steps per coefficient table


def embedded(channels) -> list:
    """Each channel's operator on the whole product space: identity on the
    other sites, whose dims are read from the channels, as the kernel
    reads them."""
    dims = {c.site: len(c.operator) for c in channels}
    shape = [dims[s] for s in range(len(dims))]
    return [np.kron(np.kron(np.eye(math.prod(shape[:c.site])), c.operator),
                    np.eye(math.prod(shape[c.site + 1:]))) for c in channels]


def dissipator(channels, d: int) -> np.ndarray:
    """The (d^2, d^2) dissipator sum_k Gamma_k (O_k (x) O_k^* -
    ((O_k^H O_k) (x) I + I (x) (O_k^H O_k)^T) / 2) on row-major vec(rho),
    each O_k embedded in the d-dim space."""
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for c, op in zip(channels, embedded(channels)):
        sq = op.conj().T @ op
        out += c.rate * (np.kron(op, op.conj())
                         - 0.5 * (np.kron(sq, eye) + np.kron(eye, sq.T)))
    return out


def lindblad_stack(gen, channels) -> np.ndarray:
    """[S_0; S_1; ...; S_J] for row-major vec(rho), as a dense
    ((1 + J) d^2, d^2) array: S_0 holds -i[H0, .] and the dissipator,
    S_j the commutator with A_j."""
    eye = np.eye(gen.dim)

    def commutator(a):
        return -1j * (np.kron(a, eye) - np.kron(eye, a.T))

    drift = commutator(gen.h0) + dissipator(channels, gen.dim)
    return np.concatenate([drift] + [commutator(a) for a in gen.ops])


def rk4(stack, gen, x0, tau: float, step: float) -> Trajectory:
    """Classical RK4 for dx/dt = S_0 x + sum_j c_j(t) S_j x, where the
    (1 + J) blocks of stack are S_0..S_J and x0 is a vector or a block of
    columns.  For each chunk of steps the table holds (1, c(t)) on the
    half-step times, so rows 2k, 2k + 1 and 2k + 2 are the start, midpoint
    and end of step k, and the stage derivative at row s is
    table[s] @ (stack @ x), over the (blocks, rows x columns) reshape."""
    n, dt = _grid(tau, step)
    blocks = stack.shape[0] // stack.shape[1]
    weights = np.array([1.0, 2.0, 2.0, 1.0], dtype=complex) * (dt / 6.0)
    x = np.array(x0, dtype=complex)
    k = np.empty((4,) + x.shape, dtype=complex)
    flat = k.reshape(4, -1)  # a view: the stages write into k

    def stage(i, x, c):
        np.dot(c, (stack @ x).reshape(blocks, -1), out=flat[i])

    times, states = [0.0], [x.copy()]
    for first in range(0, n, CHUNK):
        steps = range(first, min(n, first + CHUNK))
        half = np.arange(2 * first, 2 * steps[-1] + 3) * (0.5 * dt)
        table = np.column_stack([np.ones(len(half)), gen.coeffs(half)])
        for step in steps:
            s = 2 * (step - first)
            stage(0, x, table[s])
            stage(1, x + 0.5 * dt * k[0], table[s + 1])
            stage(2, x + 0.5 * dt * k[1], table[s + 1])
            stage(3, x + dt * k[2], table[s + 2])
            x = x + (weights @ flat).reshape(x.shape)
            if (step + 1) % RECORD_STRIDE == 0 or step == n - 1:
                times.append((step + 1) * dt)
                states.append(x.copy())
    # the trace loss is the kernels' rule; the reference does not track it
    return Trajectory(np.array(times), np.array(states), n, dt, math.nan)


def master_rk4(gen, channels, rho0, tau: float, step: float) -> Trajectory:
    """Vec-rho RK4 of the master equation from one (d, d) rho0; each
    recorded state is a (d, d) matrix."""
    d = gen.dim
    traj = rk4(lindblad_stack(gen, channels), gen, np.ravel(rho0), tau, step)
    traj.states = traj.states.reshape(-1, d, d)
    return traj


def batched_step_maps(gen, first: int, last: int, dt: float) -> np.ndarray:
    """The (m, d, d) RK4 step maps of steps first..last - 1 of -iH(t) on
    the whole space, each product a batched matmul: M = I + (dt/6)(L0 +
    2 P2 + 2 P3 + P4) with P2 = Lm + (dt/2) Lm L0, P3 = Lm + (dt/2) Lm P2
    and P4 = L1 + dt L1 P3, summed in the order that the kernels sum it."""
    c = gen.coeffs(np.arange(2 * first, 2 * last + 1) * (0.5 * dt))
    d = gen.dim
    s0, s = -1j * gen.h0, -1j * gen.ops.reshape(len(gen.ops), -1)
    ends = (c[::2] @ s).reshape(-1, d, d) + s0
    lm = (c[1::2] @ s).reshape(-1, d, d) + s0
    l0, l1 = ends[:-1], ends[1:]
    p2 = (lm @ l0) * (0.5 * dt) + lm
    p3 = (lm @ p2) * (0.5 * dt) + lm
    p4 = (l1 @ p3) * dt + l1
    return (2.0 * p2 + l0 + 2.0 * p3 + p4) * (dt / 6.0) + np.eye(d)


def batched_unitary_maps(maps: np.ndarray) -> tuple:
    """(M + M K / 2, K) with K = I - M^H M, each product a batched
    matmul."""
    k = np.eye(maps.shape[-1]) - maps.conj().transpose(0, 2, 1) @ maps
    return maps + 0.5 * (maps @ k), k
