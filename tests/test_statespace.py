import numpy as np
import pytest

from nonrecip.statespace import (
    DensityMatrix,
    Operator,
    PureState,
    make_basis,
    three_level_basis,
)


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
