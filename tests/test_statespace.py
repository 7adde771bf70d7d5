import numpy as np
import pytest

from nonrecip.statespace import (
    DensityMatrix,
    DimensionMismatchError,
    NonHermitianError,
    Operator,
    PureState,
    fidelity_pure_target,
    make_basis,
    matrix_exponential_step,
    tensor_product,
    three_level_basis,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = Operator(np.eye(2), make_basis(["0", "1"]))


def op2(matrix):
    return Operator(matrix, make_basis(["0", "1"]))


class TestTensorProduct:
    def test_identity_times_identity(self):
        out = tensor_product(I2, I2)
        assert np.array_equal(out.matrix, np.eye(4))
        assert [b.name for b in out.basis] == ["00", "01", "10", "11"]

    def test_raising_times_identity(self):
        raising = op2([[0, 1], [0, 0]])
        out = tensor_product(raising, I2)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 1
        assert np.array_equal(out.matrix, expected)

    def test_double_bit_flip(self):
        xx = tensor_product(op2(SX), op2(SX))
        state11 = np.array([0, 0, 0, 1], dtype=complex)
        assert np.array_equal(xx.matrix @ state11, [1, 0, 0, 0])

    def test_associativity_exact_on_dyadic_entries(self):
        # entry products of dyadic rationals are exact in binary floats
        rng = np.random.default_rng(7)
        ops = [
            op2((rng.integers(-8, 9, size=(2, 2))
                 + 1j * rng.integers(-8, 9, size=(2, 2))) / 4.0)
            for _ in range(3)
        ]
        left = tensor_product(tensor_product(ops[0], ops[1]), ops[2])
        right = tensor_product(ops[0], tensor_product(ops[1], ops[2]))
        assert np.array_equal(left.matrix, right.matrix)
        assert [b.name for b in left.basis] == [b.name for b in right.basis]

    def test_associativity_generic(self):
        rng = np.random.default_rng(8)
        ops = [
            op2(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            for _ in range(3)
        ]
        left = tensor_product(tensor_product(ops[0], ops[1]), ops[2])
        right = tensor_product(ops[0], tensor_product(ops[1], ops[2]))
        assert np.allclose(left.matrix, right.matrix, rtol=1e-15, atol=0)


class TestMatrixExponentialStep:
    def test_zero_hamiltonian(self):
        out = matrix_exponential_step(op2(np.zeros((2, 2))), 3.7)
        assert np.allclose(out.matrix, np.eye(2), atol=1e-14)

    def test_diagonal_case(self):
        omega = 0.35
        h = op2(np.diag([0.0, omega]))
        out = matrix_exponential_step(h, 2.0)
        assert np.allclose(
            out.matrix, np.diag([1.0, np.exp(-1j * omega * 2.0)]), atol=1e-14
        )

    def test_rabi_half_period(self):
        omega = 0.21
        dt = np.pi / omega
        out = matrix_exponential_step(op2(0.5 * omega * SX), dt)
        assert np.max(np.abs(out.matrix - (-1j) * SX)) < 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = Operator(m + m.conj().T, make_basis("abcd"))
            u = matrix_exponential_step(h, rng.uniform(0.1, 10.0)).matrix
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            matrix_exponential_step(op2([[0, 1], [0, 0]]), 1.0)


class TestFidelityPureTarget:
    def test_self_fidelity(self):
        psi = PureState(np.array([1, 1j, 0], dtype=complex) / np.sqrt(2))
        assert fidelity_pure_target(psi, psi.density_matrix()) == pytest.approx(1.0)

    def test_orthogonal(self):
        psi = PureState.basis_state(3, 0)
        phi = PureState.basis_state(3, 2)
        assert fidelity_pure_target(phi, psi.density_matrix()) == pytest.approx(0.0)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(3) / 3.0)
        psi = PureState(np.array([0.6, 0.8j, 0.0]))
        assert fidelity_pure_target(psi, rho) == pytest.approx(1.0 / 3.0)

    def test_linearity_in_rho(self):
        rng = np.random.default_rng(3)
        v1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        v2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho1 = PureState(v1 / np.linalg.norm(v1)).density_matrix()
        rho2 = PureState(v2 / np.linalg.norm(v2)).density_matrix()
        tgt = PureState.basis_state(3, 1)
        for p in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = DensityMatrix(p * rho1.entries + (1 - p) * rho2.entries)
            expected = p * fidelity_pure_target(tgt, rho1) + (
                1 - p
            ) * fidelity_pure_target(tgt, rho2)
            assert fidelity_pure_target(tgt, mix) == pytest.approx(
                expected, abs=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity_pure_target(PureState.basis_state(2, 0), DensityMatrix(np.eye(3) / 3))


class TestValidation:
    def test_density_matrix_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2, 0.0])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))
        PureState(np.array([1.0, 1.0]), normalized=False)  # explicit opt-out

    def test_pure_state_flag_is_keyword_only(self):
        # a basis passed by position must not be read as the flag
        with pytest.raises(TypeError):
            PureState(np.array([1.0, 0.0]), make_basis(["0", "1"]))

    def test_operator_rejects_basis_mismatch(self):
        with pytest.raises(ValueError):
            Operator(np.eye(3), make_basis(["0", "1"]))

    def test_three_level_basis_names(self):
        assert [b.name for b in three_level_basis()] == ["A", "M", "B"]
