"""Property tests on random small control forms H(t) = H0 + sum_j c_j(t) A_j
with d in {2, 3, 4}, tau <= 5 ns and step 0.01 ns: the master-equation
integrator keeps a pure initial rho a unit-trace density matrix, and the
evolution-operator oracle is unitary.  Examples are derandomized and no
example database is kept, so every run checks the same cases."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nonrecip.devices import LindbladChannel
from nonrecip.propagation import check_density, integrate_master
from nonrecip.statespace import ControlHamiltonian
from oracle_reference import evolution_operator_oracle

STEP = 0.01
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)

unit = st.floats(-1.0, 1.0)
durations = st.floats(0.1, 5.0)


def complex_arrays(*shape):
    return arrays(float, (2,) + shape, elements=unit).map(lambda x: x[0] + 1j * x[1])


def hermitian(m):
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


@st.composite
def control_forms(draw, d):
    """Hermitian drift and operators under real coefficients
    a_j cos(w_j t + p_j), w_j in [0, 5] rad/ns."""
    j = draw(st.integers(1, 3))
    h0 = hermitian(draw(complex_arrays(d, d)))
    ops = hermitian(draw(complex_arrays(j, d, d)))
    amp, freq, phase = (draw(arrays(float, j, elements=e))
                        for e in (unit, st.floats(0.0, 5.0), st.floats(0.0, 6.3)))
    return ControlHamiltonian(
        h0, ops, lambda t: amp * np.cos(np.outer(t, freq) + phase))


@st.composite
def open_systems(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    gen = draw(control_forms(d))
    ops = draw(complex_arrays(draw(st.integers(0, 2)), d, d))
    rates = draw(arrays(float, len(ops), elements=st.floats(0.0, 0.5)))
    psi = draw(complex_arrays(d))
    return gen, [LindbladChannel(o, r) for o, r in zip(ops, rates)], psi


@PROPERTY
@given(open_systems(), durations)
def test_master_equation_keeps_a_pure_state_a_density_matrix(system, tau):
    gen, channels, psi = system
    assume(np.linalg.norm(psi) > 0.1)
    psi = psi / np.linalg.norm(psi)
    traj = integrate_master(gen, channels, np.outer(psi, psi.conj())[None], tau, STEP)
    trace = np.trace(traj.states, axis1=2, axis2=3)
    assert np.max(np.abs(trace - 1.0)) <= 1e-12
    check_density(traj.states[-1])


@PROPERTY
@given(st.sampled_from([2, 3, 4]).flatmap(control_forms), durations)
def test_oracle_is_unitary(gen, tau):
    u = evolution_operator_oracle(gen, tau, STEP)
    assert np.max(np.abs(u.conj().T @ u - np.eye(gen.dim))) <= 1e-12
