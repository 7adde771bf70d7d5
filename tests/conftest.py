import dataclasses

import pytest


def _with_anti_hermitian_drift(model):
    """The model with an anti-Hermitian drift on |100>, which breaks the
    Hermiticity of every propagated density matrix."""
    h = model.hamiltonian
    drift = h.h0.copy()
    drift[model.logical_index("100"), model.logical_index("100")] -= 0.01j
    return dataclasses.replace(model, hamiltonian=dataclasses.replace(h, h0=drift))


@pytest.fixture
def break_hermiticity():
    """A function that spoils a SimulationModel's Hamiltonian."""
    return _with_anti_hermitian_drift
