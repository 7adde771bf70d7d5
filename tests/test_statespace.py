import numpy as np
import pytest

from nonrecip.statespace import PureState


class TestValidation:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(np.array([np.nan, 0.0]))
