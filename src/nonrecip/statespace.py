"""Finite-dimensional complex state-space primitives.

Plain complex ndarrays carry every Hamiltonian, invariant, unitary, ket
and density matrix in this package; the propagators take and record
blocks of them, (k, d) kets or (k, d, d) matrices.  The one value type
here adds what an array cannot check by itself: ControlHamiltonian, the
control form H(t) = H0 + sum_j c_j(t) A_j with its shapes checked,
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ControlHamiltonian:
    """H(t) = h0 + sum_j c_j(t) A_j: a constant drift h0, fixed operators
    ops = (A_1..A_J) of shape (J, d, d), and coeffs mapping m times to
    the (m, J) coefficient table.  A Hermitian H pairs a non-Hermitian
    A_j with its adjoint under the conjugate coefficient.

    span = (lo, hi) is the smallest index range [lo, hi) that holds every
    nonzero entry of h0 and ops, read from their pattern with no
    tolerance ((0, 0) for an H that is zero): outside the block
    [lo, hi) x [lo, hi), H(t) is exactly 0 at every t."""

    h0: np.ndarray
    ops: np.ndarray
    coeffs: Callable[[np.ndarray], np.ndarray]
    span: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h0", _freeze(self.h0))
        object.__setattr__(self, "ops", _freeze(self.ops))
        if self.ops.ndim != 3 or self.ops.shape[1:] != self.h0.shape:
            raise ValueError(f"ops {self.ops.shape} vs h0 {self.h0.shape}")
        pattern = (self.h0 != 0) | np.any(self.ops != 0, axis=0)
        touched = np.flatnonzero(pattern.any(axis=0) | pattern.any(axis=1))
        object.__setattr__(self, "span", (int(touched[0]), int(touched[-1]) + 1)
                           if touched.size else (0, 0))

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def matrices(self, times) -> np.ndarray:
        """H at each of the given times, stacked to shape (m, d, d)."""
        c = self.coeffs(np.atleast_1d(np.asarray(times, dtype=float)))
        return self.h0 + np.tensordot(c, self.ops, axes=1)
