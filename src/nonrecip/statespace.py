"""Labeled finite-dimensional complex state-space primitives.

Dense complex matrices over explicitly labeled bases are the universal
carrier for Hamiltonians, invariants, unitaries and density matrices in
this package.  All value types are immutable after construction and all
operations here are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

HERMITICITY_TOL = 1e-9
NORM_TOL = 1e-9


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class BasisLabel:
    """A named basis vector with its position in the basis ordering."""

    name: str
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"basis index must be non-negative, got {self.index}")


def make_basis(names) -> tuple[BasisLabel, ...]:
    """Basis labels with contiguous indices, in the given name order."""
    return tuple(BasisLabel(str(n), i) for i, n in enumerate(names))


def three_level_basis() -> tuple[BasisLabel, ...]:
    """The {|A>, |M>, |B>} basis of the ideal three-level system."""
    return make_basis(["A", "M", "B"])


def _check_contiguous(basis: tuple[BasisLabel, ...]):
    if [b.index for b in basis] != list(range(len(basis))):
        raise ValueError("basis indices must be distinct and contiguous from 0")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix over a labeled basis."""

    matrix: np.ndarray
    basis: tuple[BasisLabel, ...]

    def __post_init__(self):
        m = _freeze(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("operator entries must be finite")
        if m.shape[0] != len(self.basis):
            raise DimensionMismatchError(
                f"dim {m.shape[0]} != basis length {len(self.basis)}"
            )
        _check_contiguous(self.basis)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ControlHamiltonian:
    """H(t) = h0 + sum_j c_j(t) A_j: a constant drift h0, fixed operators
    ops = (A_1..A_J) of shape (J, d, d), and coeffs mapping m times to
    the (m, J) coefficient table.  A Hermitian H pairs a non-Hermitian
    A_j with its adjoint under the conjugate coefficient.  Calling the
    instance returns the d x d matrix H(t)."""

    h0: np.ndarray
    ops: np.ndarray
    coeffs: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "h0", _freeze(self.h0))
        object.__setattr__(self, "ops", _freeze(self.ops))
        if self.ops.ndim != 3 or self.ops.shape[1:] != self.h0.shape:
            raise DimensionMismatchError(f"ops {self.ops.shape} vs h0 {self.h0.shape}")

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def matrices(self, times) -> np.ndarray:
        """H at each of the given times, stacked to shape (m, d, d)."""
        c = self.coeffs(np.atleast_1d(np.asarray(times, dtype=float)))
        return self.h0 + np.tensordot(c, self.ops, axes=1)

    def __call__(self, t) -> np.ndarray:
        return self.matrices(t)[0]


@dataclass(frozen=True)
class PureState:
    """A complex amplitude vector, unit-norm unless flagged otherwise
    (normalized is keyword-only)."""

    amplitudes: np.ndarray
    normalized: bool = field(default=True, kw_only=True)

    def __post_init__(self):
        a = _freeze(self.amplitudes)
        object.__setattr__(self, "amplitudes", a)
        if a.ndim != 1:
            raise ValueError("amplitudes must be a vector")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitudes must be finite")
        if self.normalized:
            norm_sq = float(np.sum(np.abs(a) ** 2))
            if abs(norm_sq - 1.0) > NORM_TOL:
                raise ValueError(f"state not normalized: |psi|^2 = {norm_sq!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    @staticmethod
    def basis_state(dim: int, index: int) -> "PureState":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return PureState(v)


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = _freeze(self.entries)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix not Hermitian within 1e-9")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1 within 1e-9")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -NORM_TOL:
            raise ValueError(f"density matrix has eigenvalue {evals.min()} < -1e-9")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]
