"""The control-form Hamiltonians against the direct dense formulas, the
noisy fidelities of the propagation kernel at step 0.05 ns against
their pinned and converged (step 0.0025 ns) values, and each model's
default step against the coefficient phases that it has to resolve."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nonrecip.config import ScenarioConfig
from nonrecip.devices import (
    STEPS_PER_PERIOD,
    full_chain_model,
    ideal_model,
    invert_bessel_drive,
    single_excitation_indices,
    single_excitation_model,
)
from nonrecip.invariant import (
    PULSE_SAMPLES,
    AuxiliaryTrajectory,
    PulsePair,
    synthesize_pulses,
    target_unitary,
    theta_plus_magnitudes,
)
from nonrecip.metrics import fidelity_reports
from nonrecip.propagation import propagate_schrodinger
from nonrecip.statespace import ControlHamiltonian
from lr_reference import beta_dot, check_boundary

TAU = 145.0
# lambda solved from the circulator phase 3*pi/2 at tau = 145 ns
LAMBDA_SOLVED = 0.4974732655934123
# the Strang-split kernel at step 0.05 ns; the vec-rho RK4 kernel it
# replaced read 0.988191733438181, 0.9894959324740917, 0.9893123603304758
# and F_m 0.9877005179736711, 1.4e-8 to 4.5e-8 from the converged values
SEED_F_S = {
    "100": 0.988191718987117,
    "010": 0.9894958871584246,
    "001": 0.9893123149632091,
}
SEED_F_M = 0.9877004784804755
# the same runs at step 0.0025 ns
CONVERGED_F_S = {
    "100": 0.9881917199552182,
    "010": 0.9894958877363955,
    "001": 0.9893123162517494,
}
CONVERGED_F_M = 0.987700479287333
# noisy full_qubit leakage after the transfer from |100> at step 0.0025 ns
CONVERGED_FULL_QUBIT_LEAKAGE = 3.646188317750765e-3


@pytest.fixture(scope="module")
def pulses():
    return synthesize_pulses(AuxiliaryTrajectory(LAMBDA_SOLVED, TAU))


@pytest.fixture(scope="module")
def drives(pulses):
    return invert_bessel_drive(pulses, ScenarioConfig().chain_spec())


@pytest.fixture(scope="module")
def times():
    return np.random.default_rng(2024).uniform(0.0, TAU, 25)


def embed(h3):
    """A 3 x 3 single-excitation matrix placed in the qubit product space."""
    idx = single_excitation_indices(2)
    h = np.zeros((8, 8), dtype=complex)
    h[np.ix_(idx, idx)] = h3
    return h


def single_excitation_dense(chain, drives, t):
    omega_a, omega_m, omega_b = chain.omega
    f_a, f_b = drives.phases(t)
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = chain.g_a * np.exp(1j * ((omega_a - omega_m) * t - f_a))
    h[2, 1] = chain.g_b * np.exp(1j * ((omega_b - omega_m) * t - f_b))
    return h + h.conj().T


def full_chain_dense(chain, drives, t):
    """g_a x_a x_m 1 + g_b 1 x_m x_b - sum_k alpha_k |2><2|_k, built
    from the rotating-frame position operators."""
    d = chain.d
    low = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    eye = np.eye(d)

    def x(phase):
        op = low * np.exp(1j * phase)
        return op + op.conj().T

    omega_a, omega_m, omega_b = chain.omega
    f_a, f_b = drives.phases(t)
    x_a = x(-omega_a * t + f_a)
    x_b = x(-omega_b * t + f_b)
    x_m = x(-omega_m * t)
    h = (chain.g_a * np.kron(np.kron(x_a, x_m), eye)
         + chain.g_b * np.kron(np.kron(eye, x_m), x_b))
    if d == 3:
        top = np.diag([0.0, 0.0, 1.0])
        for k, alpha in enumerate(chain.alpha):
            mats = [eye, eye, eye]
            mats[k] = top
            h = h - alpha * np.kron(np.kron(mats[0], mats[1]), mats[2])
    return h


class TestControlFormMatchesDenseFormulas:
    def test_ideal(self, pulses, times):
        h = ideal_model(pulses).hamiltonian
        for t in times:
            dense = np.zeros((3, 3))
            dense[0, 1] = dense[1, 0] = 0.5 * pulses.g_at(t)[0]
            dense[2, 1] = dense[1, 2] = 0.5 * pulses.g_at(t)[1]
            assert np.max(np.abs(h.matrices([t])[0] - dense)) < 1e-12

    def test_single_excitation(self, drives, times):
        chain = ScenarioConfig().chain_spec()
        h = single_excitation_model(chain, drives).hamiltonian
        for t in times:
            dense = embed(single_excitation_dense(chain, drives, t))
            assert np.max(np.abs(h.matrices([t])[0] - dense)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_full_chain(self, drives, times, d):
        chain = replace(ScenarioConfig().chain_spec(), d=d)
        h = full_chain_model(chain, drives).hamiltonian
        for t in times:
            dense = full_chain_dense(chain, drives, t)
            assert np.max(np.abs(h.matrices([t])[0] - dense)) < 1e-12

    def test_vectorised_matches_pointwise(self, drives, times):
        chain3 = replace(ScenarioConfig().chain_spec(), d=3)
        h = full_chain_model(chain3, drives).hamiltonian
        stacked = h.matrices(times)
        assert stacked.shape == (len(times), 27, 27)
        for t, m in zip(times, stacked):
            assert np.array_equal(m, h.matrices([t])[0])


class TestSeedFidelities:
    """Noisy single-excitation fidelities at step 0.05 ns: pinned, and
    within 2e-9 of their converged values."""

    @pytest.fixture(scope="class")
    def setup(self, pulses, drives):
        traj = AuxiliaryTrajectory(LAMBDA_SOLVED, TAU)
        theta = theta_plus_magnitudes(traj.lambda_)[0][0]
        model = single_excitation_model(ScenarioConfig().chain_spec(), drives)
        return model, theta, 0.05

    @pytest.fixture(scope="class")
    def reports(self, setup):
        model, theta, step = setup
        return fidelity_reports(model, target_unitary(theta),
                                ("100", "010", "001", "ensemble"), step=step)

    @pytest.mark.parametrize("initial", ["100", "010", "001"])
    def test_transfer(self, reports, initial):
        summary, _ = reports[initial]
        assert summary["fidelity"] == pytest.approx(SEED_F_S[initial], abs=1e-10)
        assert summary["fidelity"] == pytest.approx(CONVERGED_F_S[initial], abs=2e-9)

    def test_ensemble(self, reports):
        summary, _ = reports["ensemble"]
        assert summary["f_m"] == pytest.approx(SEED_F_M, abs=1e-10)
        assert summary["f_m"] == pytest.approx(CONVERGED_F_M, abs=2e-9)

    def test_full_qubit_leakage_at_default_step(self, setup, drives):
        _, theta, _ = setup
        model = full_chain_model(ScenarioConfig().chain_spec(), drives)
        summary, columns = fidelity_reports(model, target_unitary(theta), ["100"])["100"]
        assert summary["step_ns"] == TAU / 32000  # 2,000 intervals, refined 16-fold
        assert columns["leakage"][-1] == pytest.approx(CONVERGED_FULL_QUBIT_LEAKAGE,
                                                       abs=1e-9)


class TestDefaultStepRule:
    """Each model's default step: the 2,000 pulse-sample intervals refined
    until the fastest coefficient phase takes at most 2 pi / 20 a step."""

    def test_ideal_steps_end_on_the_pulse_samples(self, pulses):
        model = ideal_model(pulses)
        gen, calls = model.hamiltonian, []
        spy = ControlHamiltonian(gen.h0, gen.ops,
                                 lambda t: (calls.append(t), gen.coeffs(t))[1])
        traj = propagate_schrodinger(spy, np.eye(3)[:1], model.tau,
                                     model.default_step)
        assert traj.steps == PULSE_SAMPLES - 1
        # the start, midpoint and end of every step; chunks share their ends
        nodes = np.unique(np.concatenate(calls))
        assert len(nodes) == 2 * traj.steps + 1
        assert np.max(np.abs(nodes[::2] - pulses.times)) <= 1e-12
        assert model.phase_rate == 0.0

    @pytest.mark.parametrize("build, d, steps", [
        (single_excitation_model, 2, 4000), (full_chain_model, 2, 32000),
        (full_chain_model, 3, 32000)])
    def test_bound_covers_the_coefficient_phases(self, drives, build, d, steps):
        model = build(replace(ScenarioConfig().chain_spec(), d=d), drives)
        dt, n, fastest = 1e-4, round(TAU / 1e-4), 0.0
        for first in range(0, n, 100_000):  # the 1e-4 ns table in slices
            c = model.hamiltonian.coeffs(np.arange(first, min(n, first + 100_000) + 1) * dt)
            fastest = max(fastest, float(np.max(np.abs(np.angle(c[1:] / c[:-1])))) / dt)
        # 6.127 and 68.959 rad/ns against bounds of 6.169 and 69.001
        assert fastest <= model.phase_rate <= 1.01 * fastest
        assert model.phase_rate * model.default_step <= 2.0 * math.pi / STEPS_PER_PERIOD
        assert round(TAU / model.default_step) == steps

    # |F(default step) - F(half of it)| measured at the fig3 design: 2.7e-15
    # and 1.1e-14 (ideal), 1.9e-10 (noisy single_excitation) and 3.0e-8
    # (closed full_qubit)
    @pytest.mark.parametrize("name, initial, noise, bound", [
        ("ideal", "100", False, 1e-13), ("ideal", "ensemble", False, 1e-13),
        ("single_excitation", "100", True, 5e-10), ("full_qubit", "100", False, 5e-8)])
    def test_default_step_is_converged(self, pulses, drives, name, initial, noise, bound):
        chain = ScenarioConfig().chain_spec()
        model = (ideal_model(pulses) if name == "ideal" else
                 single_excitation_model(chain, drives) if name == "single_excitation"
                 else full_chain_model(chain, drives))
        theta = theta_plus_magnitudes(LAMBDA_SOLVED)[0][0]

        def fidelity(step):
            summary, _ = fidelity_reports(model, target_unitary(theta), [initial],
                                          noise=noise, step=step)[initial]
            return summary["f_m" if initial == "ensemble" else "fidelity"]

        half = 0.5 * model.default_step
        assert abs(fidelity(None) - fidelity(half)) <= bound


def test_long_three_level_run_completes():
    # at tau = 220 ns a step of 0.005 ns (the device default before the
    # step rule, which gives 0.0046) has raw maps that change the trace of
    # this run's states by 2.2e-7; a bound on their worst case over all 27
    # levels passed 1e-6 at about 215 ns and refused the run
    traj = AuxiliaryTrajectory(0.4974, 220.0)
    pulses = synthesize_pulses(traj)
    chain = ScenarioConfig(model="full_three_level").chain_spec()
    model = full_chain_model(chain, invert_bessel_drive(pulses, chain))
    unitary = target_unitary(theta_plus_magnitudes(traj.lambda_)[0][0])
    summary, _ = fidelity_reports(model, unitary, ["100"], step=0.005)["100"]
    assert (model.dim, summary["step_ns"]) == (27, 0.005)
    # the vec-rho RK4 kernel read 0.9726293649267329
    assert summary["fidelity"] == pytest.approx(0.972629152557472, abs=1e-10)


def invariant_and_derivative(traj, t):
    """I(t) and dI/dt at one time, entry by entry."""
    g, b = float(traj.gamma(t)), float(traj.beta(t))
    gd, bd = float(traj.gamma_dot(t)), float(beta_dot(traj, t))
    cg, sg, cb, sb = math.cos(g), math.sin(g), math.cos(b), math.sin(b)

    def matrix(am, ab, mb):
        return 0.5 * np.array(
            [[0.0, am, -1j * ab], [am, 0.0, mb], [1j * ab, mb, 0.0]], dtype=complex)

    return (matrix(cg * sb, sg, cg * cb),
            matrix(-gd * sg * sb + bd * cg * cb, gd * cg, -gd * sg * cb - bd * cg * sb))


class TestCheckBoundaryMatchesPointwiseLoop:
    def test_loop_reference(self, pulses):
        traj = AuxiliaryTrajectory(LAMBDA_SOLVED, TAU)
        perturbed = PulsePair(pulses.times, [pulses.g[0], 0.98 * pulses.g[1]])
        for pp in (pulses, perturbed):
            ideal = ideal_model(pp).hamiltonian
            comms, worst = [], 0.0
            for t in np.linspace(0.0, TAU, 501):
                h = ideal.matrices([t])[0]
                i_mat, di = invariant_and_derivative(traj, t)
                comms.append(np.linalg.norm(h @ i_mat - i_mat @ h))
                worst = max(worst, np.linalg.norm(di + 1j * (h @ i_mat - i_mat @ h)))
            diag = check_boundary(traj, pp, n_grid=501)
            assert diag.commutator_start == pytest.approx(comms[0], abs=1e-12)
            assert diag.commutator_end == pytest.approx(comms[-1], abs=1e-12)
            assert diag.max_von_neumann_residual == pytest.approx(worst, abs=1e-12)


class TestCheckBoundarySeedValues:
    """check_boundary over the default 10001-point grid, as computed by
    the earlier point-by-point loop."""

    def test_designed_and_perturbed_pulses(self):
        traj = AuxiliaryTrajectory(0.4974, TAU)
        pulses = synthesize_pulses(traj)
        diag = check_boundary(traj, pulses)
        assert diag.commutator_start == pytest.approx(0.0, abs=1e-12)
        assert diag.commutator_end == pytest.approx(0.0, abs=1e-12)
        assert diag.max_von_neumann_residual == pytest.approx(
            1.3965051558032531e-08, abs=1e-12)
        perturbed = PulsePair(pulses.times, [1.01 * pulses.g[0], pulses.g[1]])
        diag = check_boundary(traj, perturbed)
        assert diag.max_von_neumann_residual == pytest.approx(
            1.709827343220283e-04, abs=1e-12)

    def test_grid_must_include_both_ends(self, pulses):
        with pytest.raises(ValueError):
            check_boundary(AuxiliaryTrajectory(LAMBDA_SOLVED, TAU), pulses,
                           n_grid=1)
