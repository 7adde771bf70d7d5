"""Finite-dimensional complex state-space primitives.

Plain complex ndarrays carry every Hamiltonian, invariant, unitary, ket
and density matrix in this package; the propagators take and record
blocks of them, (k, d) kets or (k, d, d) matrices.  The one value type
here adds what an array cannot check by itself: ControlHamiltonian, the
control form H(t) = H0 + sum_j c_j(t) A_j with its shapes checked,
immutable after construction.  Its support, the basis states that H
touches, is where the propagators form their step maps: off it a map is
exactly I, and a closed run writes the amplitudes there through as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _freeze(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ControlHamiltonian:
    """H(t) = h0 + sum_j c_j(t) A_j: a constant drift h0, fixed operators
    ops = (A_1..A_J) of shape (J, d, d), and coeffs mapping m times to
    the (m, J) coefficient table.  A Hermitian H pairs a non-Hermitian
    A_j with its adjoint under the conjugate coefficient.

    support is the sorted, read-only array of the basis states that some
    nonzero entry of h0 or ops touches, read from their pattern with no
    tolerance (empty for an H that is zero): every row and column of H(t)
    off the support is exactly 0 at every t."""

    h0: np.ndarray
    ops: np.ndarray
    coeffs: Callable[[np.ndarray], np.ndarray]
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h0", _freeze(self.h0, complex))
        object.__setattr__(self, "ops", _freeze(self.ops, complex))
        if self.ops.ndim != 3 or self.ops.shape[1:] != self.h0.shape:
            raise ValueError(f"ops {self.ops.shape} vs h0 {self.h0.shape}")
        pattern = (self.h0 != 0) | np.any(self.ops != 0, axis=0)
        support = np.flatnonzero(pattern.any(axis=0) | pattern.any(axis=1))
        support.setflags(write=False)
        object.__setattr__(self, "support", support)

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def matrices(self, times) -> np.ndarray:
        """H at each of the given times, stacked to shape (m, d, d)."""
        c = self.coeffs(np.atleast_1d(np.asarray(times, dtype=float)))
        return self.h0 + np.tensordot(c, self.ops, axes=1)
