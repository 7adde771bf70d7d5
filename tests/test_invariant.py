import math

import numpy as np
import pytest
from scipy import integrate, optimize

from nonrecip.invariant import (
    AuxiliaryTrajectory,
    NonMonotonicBracketError,
    PulseDivergenceError,
    PulsePair,
    RootBracketError,
    TrajectoryRangeError,
    check_boundary,
    coupling_values,
    invariant_at,
    invariant_eigenstates,
    lr_phase,
    lr_predicted_evolution,
    solve_lambda,
    synthesize_pulses,
    target_unitary,
    theta_plus_magnitudes,
)
from nonrecip.devices import ideal_model, J1_PEAK
from nonrecip.propagation import (
    PropagationConfig,
    evolution_operator_oracle,
    global_phase_distance,
)
from nonrecip.units import mhz

TAU = 145.0
LAMBDA_REF = 0.4974
THETA_CIRC = 1.5 * np.pi


@pytest.fixture(scope="module")
def traj():
    return AuxiliaryTrajectory(LAMBDA_REF, TAU)


@pytest.fixture(scope="module")
def pulses(traj):
    return synthesize_pulses(traj)


class TestTrajectory:
    def test_midpoint_values(self, traj):
        g, b = traj.gamma(TAU / 2), traj.beta(TAU / 2)
        assert g == pytest.approx(LAMBDA_REF, abs=1e-12)
        assert b == pytest.approx(np.pi / 4, abs=1e-12)

    def test_boundary_conditions(self, traj):
        g0, b0 = traj.gamma(0.0), traj.beta(0.0)
        g1, b1 = traj.gamma(TAU), traj.beta(TAU)
        assert abs(g0) < 1e-12 and abs(g1) < 1e-12
        assert abs(b0) < 1e-12
        assert b1 == pytest.approx(np.pi / 2, abs=1e-12)

    def test_gamma_positive_interior(self, traj):
        ts = np.linspace(0.0, TAU, 501)[1:-1]
        assert np.all(traj.gamma(ts) > 0)

    def test_derivatives_match_finite_differences(self, traj):
        # oracle: central differences of the closed-form angles
        h = 1e-5
        for t in np.linspace(0.2, TAU - 0.2, 17):
            gd_fd = (traj.gamma(t + h) - traj.gamma(t - h)) / (2 * h)
            bd_fd = (traj.beta(t + h) - traj.beta(t - h)) / (2 * h)
            assert traj.gamma_dot(t) == pytest.approx(gd_fd, abs=1e-8)
            assert traj.beta_dot(t) == pytest.approx(bd_fd, abs=1e-8)

    def test_rejects_out_of_range(self, traj):
        with pytest.raises(TrajectoryRangeError):
            traj.gamma(-1.0)
        with pytest.raises(TrajectoryRangeError):
            traj.beta(TAU + 1.0)

    @pytest.mark.parametrize("lam, tau, name", [
        (math.nan, TAU, "lambda"), (0.0, TAU, "lambda"),
        (LAMBDA_REF, math.inf, "tau"), (LAMBDA_REF, math.nan, "tau"),
        (LAMBDA_REF, -1.0, "tau"),
    ])
    def test_rejects_non_finite_or_non_positive_inputs(self, lam, tau, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            AuxiliaryTrajectory(lam, tau)


class TestSynthesizePulses:
    def test_endpoints_vanish(self, pulses):
        assert pulses.g_a[0] == 0.0 and pulses.g_a[-1] == 0.0
        assert pulses.g_b[0] == 0.0 and pulses.g_b[-1] == 0.0

    def test_matches_direct_formula(self, traj, pulses):
        # oracle: plain cot(gamma) evaluation away from the endpoints
        ts = np.linspace(0.05 * TAU, 0.95 * TAU, 101)
        g, b = traj.gamma(ts), traj.beta(ts)
        gd, bd = traj.gamma_dot(ts), traj.beta_dot(ts)
        ga_direct = 2 * (bd / np.tan(g) * np.sin(b) + gd * np.cos(b))
        gb_direct = 2 * (bd / np.tan(g) * np.cos(b) - gd * np.sin(b))
        ga, gb = coupling_values(traj, ts)
        assert np.max(np.abs(ga - ga_direct)) < 1e-12
        assert np.max(np.abs(gb - gb_direct)) < 1e-12

    def test_counterintuitive_pulse_ordering(self, pulses):
        # STIRAP heritage: the B-leg pulse peaks before the A-leg pulse
        assert pulses.times[np.argmax(pulses.g_b)] < pulses.times[np.argmax(pulses.g_a)]

    def test_peak_ratio_within_bessel_range(self, traj):
        dense = synthesize_pulses(traj, 10001)
        g = mhz(10.0)
        ratio = max(np.abs(dense.g_a).max(), np.abs(dense.g_b).max()) / (2 * g)
        # peak grazes the J1 maximum; invertible up to the clamp slack
        assert ratio == pytest.approx(J1_PEAK, rel=2e-4)
        assert ratio < J1_PEAK * (1 + 5e-4)

    def test_finite_everywhere(self, traj):
        dense = synthesize_pulses(traj, 20001)
        assert np.all(np.isfinite(dense.g_a)) and np.all(np.isfinite(dense.g_b))

    def test_divergent_trajectory_rejected(self, traj):
        with pytest.raises(PulseDivergenceError):
            synthesize_pulses(AuxiliaryTrajectory(5.0, TAU))
        # non-finite samples are rejected by PulsePair itself
        pulses = synthesize_pulses(traj, 11)
        g_a = pulses.g_a.copy()
        g_a[5] = np.inf
        with pytest.raises(PulseDivergenceError, match="finite"):
            PulsePair(pulses.times, g_a, pulses.g_b)

    def test_requires_two_samples(self, traj):
        with pytest.raises(ValueError):
            synthesize_pulses(traj, 1)


class TestInvariant:
    def test_start_form(self, traj):
        m = invariant_at(traj, 0.0)
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 2] = expected[2, 1] = 0.5  # (|M><B| + |B><M|)/2
        assert np.allclose(m, expected, atol=1e-12)

    def test_end_form(self, traj):
        m = invariant_at(traj, TAU)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = expected[1, 0] = 0.5
        assert np.allclose(m, expected, atol=1e-12)

    def test_spectrum_constancy(self, traj):
        rng = np.random.default_rng(42)
        for t in rng.uniform(0.0, TAU, 100):
            evals = np.sort(np.linalg.eigvalsh(invariant_at(traj, t)))
            assert np.max(np.abs(evals - [-0.5, 0.0, 0.5])) < 1e-10

    def test_eigenstate_endpoints(self, traj):
        mu0, mup, mum = invariant_eigenstates(traj, 0.0)
        assert np.allclose(mu0.amplitudes, [1, 0, 0], atol=1e-12)
        assert np.allclose(mup.amplitudes, np.array([0, 1j, 1j]) / np.sqrt(2), atol=1e-12)
        assert np.allclose(mum.amplitudes, np.array([0, 1j, -1j]) / np.sqrt(2), atol=1e-12)
        mu0_end, _, _ = invariant_eigenstates(traj, TAU)
        assert np.allclose(mu0_end.amplitudes, [0, 0, -1], atol=1e-12)

    def test_eigen_residual(self, traj):
        rng = np.random.default_rng(5)
        for t in rng.uniform(0.0, TAU, 100):
            i_mat = invariant_at(traj, t)
            mu0, mup, mum = invariant_eigenstates(traj, t)
            for state, eig in ((mu0, 0.0), (mup, 0.5), (mum, -0.5)):
                resid = i_mat @ state.amplitudes - eig * state.amplitudes
                assert np.linalg.norm(resid) < 1e-10

    def test_eigenstate_orthonormality(self, traj):
        rng = np.random.default_rng(17)
        for t in rng.uniform(0.0, TAU, 100):
            states = invariant_eigenstates(traj, t)
            v = np.stack([s.amplitudes for s in states])
            assert np.max(np.abs(v @ v.conj().T - np.eye(3))) < 1e-10


def generic_phase_integrand(traj, pulses, t, branch, h=1e-6):
    """<mu_n|(i d/dt - H)|mu_n> via finite differences; independent of
    the closed-form reduction used by lr_phase."""
    mu = invariant_eigenstates(traj, t)[branch].amplitudes
    mu_p = invariant_eigenstates(traj, min(t + h, traj.tau))[branch].amplitudes
    mu_m = invariant_eigenstates(traj, max(t - h, 0.0))[branch].amplitudes
    dmu = (mu_p - mu_m) / (2 * h)
    ham = np.zeros((3, 3), dtype=complex)
    ham[0, 1] = 0.5 * pulses.g_a_at(t)
    ham[2, 1] = 0.5 * pulses.g_b_at(t)
    ham = ham + ham.conj().T
    return (mu.conj() @ (1j * dmu - ham @ mu)).real


class TestLRPhase:
    def test_circulator_anchor(self, traj, pulses):
        result = lr_phase(traj, pulses)
        assert abs(result.theta_plus - THETA_CIRC) < 1e-3

    def test_sign_structure(self, traj):
        assert lr_phase(traj).theta_plus > 0

    def test_matches_defining_integral(self, traj, pulses):
        # oracle: Simpson quadrature of the generic integrand; a fine pulse
        # table keeps interpolation error in the oracle's H below tolerance
        fine = synthesize_pulses(traj, n_samples=8001)
        ts = np.linspace(0.0, TAU, 8001)
        vals = np.array(
            [generic_phase_integrand(traj, fine, t, branch=1) for t in ts]
        )
        raw = integrate.simpson(vals, x=ts)
        # the signed integral of the plus branch is -theta_plus
        assert -lr_phase(traj, pulses).theta_plus == pytest.approx(raw, abs=1e-6)

    def test_zero_branch_integrand_vanishes(self, traj, pulses):
        for t in np.linspace(0.5, TAU - 0.5, 37):
            assert abs(generic_phase_integrand(traj, pulses, t, branch=0)) < 1e-9

    def test_rejects_foreign_pulses(self, traj):
        other = synthesize_pulses(AuxiliaryTrajectory(0.8, TAU))
        with pytest.raises(ValueError):
            lr_phase(traj, other)


def quad_theta_plus(lam, tau):
    """|theta_plus| by adaptive quadrature of the time-domain integrand
    beta_dot / sin(gamma), independent of the Gauss-Legendre rules."""
    traj = AuxiliaryTrajectory(lam, tau)
    return integrate.quad(lambda t: traj.beta_dot(t) / math.sin(traj.gamma(t)),
                          0.0, tau, epsabs=1e-10, epsrel=1e-12, limit=200)[0]


class TestPhaseQuadrature:
    @pytest.mark.parametrize("tau", [145.0, 260.0])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 1.9, 2.5, 3.05])
    def test_matches_adaptive_quadrature(self, lam, tau):
        result = lr_phase(AuxiliaryTrajectory(lam, tau))
        assert result.theta_plus == pytest.approx(quad_theta_plus(lam, tau), rel=1e-12)
        assert 0.0 <= result.quad_error <= 1e-12 * result.theta_plus

    def test_vectorised_matches_scalar(self):
        lams = np.linspace(0.15, 3.1, 40)
        values, errors = theta_plus_magnitudes(lams)
        for lam, value, err in zip(lams, values, errors):
            scalar = lr_phase(AuxiliaryTrajectory(lam, TAU))
            assert value == pytest.approx(scalar.theta_plus, rel=1e-14)
            assert err <= 1e-12 * value

    @pytest.mark.parametrize("lams", [[0.5, np.pi], [0.0], [3.5], [3.1415]])
    def test_rejects_lambda_outside_open_range(self, lams):
        with pytest.raises(ValueError):
            theta_plus_magnitudes(lams)


class TestSolveLambda:
    def test_reference_lambda_pinned(self):
        # Brent's method on adaptive quadrature solved this design to
        # 0.4974732655934123; the exact root is 0.49747326559346612
        lam = solve_lambda(THETA_CIRC, TAU)
        assert abs(lam - 0.4974732655934123) <= 1e-12

    # (target, bracket): the decreasing branch, then the increasing one
    # beyond the phase minimum near lambda = 1.9
    @pytest.mark.parametrize("target, bracket", [
        (4.0, (0.1, 1.0)), (4.6, (0.1, 1.0)), (THETA_CIRC, (0.1, 1.0)),
        (5.2, (0.1, 1.0)), (THETA_CIRC, (2.0, 3.0))])
    def test_matches_brentq_reference(self, target, bracket):
        ref = optimize.brentq(lambda l: quad_theta_plus(l, TAU) - target,
                              *bracket, xtol=1e-15, rtol=1e-15)
        assert abs(solve_lambda(target, TAU, bracket=bracket) - ref) <= 1e-12

    def test_reference_anchor(self):
        lam = solve_lambda(THETA_CIRC, TAU, bracket=(0.1, 1.0))
        assert lam == pytest.approx(LAMBDA_REF, abs=5e-4)

    def test_round_trip(self):
        lam = solve_lambda(THETA_CIRC, TAU)
        theta = lr_phase(AuxiliaryTrajectory(lam, TAU)).theta_plus
        assert abs(theta - THETA_CIRC) < 1e-6

    def test_no_sign_change_raises(self):
        with pytest.raises(RootBracketError):
            solve_lambda(100.0, TAU, bracket=(0.3, 1.0))

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_target_raises_value_error(self, target):
        with pytest.raises(ValueError, match="target phase must be finite") as exc:
            solve_lambda(target, TAU)
        assert exc.type is ValueError

    def test_bracket_spanning_phase_minimum_raises(self):
        # theta_plus(lambda) turns around near lambda ~ 1.9
        with pytest.raises(NonMonotonicBracketError):
            solve_lambda(np.pi, TAU, bracket=(0.3, 2.5))

    def test_reciprocal_design_propagates_to_swap(self):
        lam = solve_lambda(np.pi, TAU, bracket=(0.3, 1.5))
        traj_pi = AuxiliaryTrajectory(lam, TAU)
        model = ideal_model(synthesize_pulses(traj_pi))
        u = evolution_operator_oracle(model.hamiltonian, TAU, PropagationConfig(step=0.001))
        expected = target_unitary(np.pi)
        assert expected[1, 1] == -1.0 and expected[0, 2] == -1.0
        dist, _ = global_phase_distance(u, expected)
        assert dist < 2e-3


class TestTargetUnitary:
    def test_circulator_form(self):
        u = target_unitary(THETA_CIRC)
        expected = np.array(
            [[0, 1j, 0], [0, 0, 1j], [-1, 0, 0]], dtype=complex
        )
        assert np.allclose(u, expected, atol=1e-12)

    def test_reciprocal_form(self):
        u = target_unitary(np.pi)
        expected = np.array(
            [[0, 0, -1], [0, -1, 0], [-1, 0, 0]], dtype=complex
        )
        assert np.allclose(u, expected, atol=1e-12)

    def test_a_maps_to_minus_b(self):
        for theta in np.linspace(0, 2 * np.pi, 13):
            assert np.allclose(
                target_unitary(theta)[:, 0], [0, 0, -1], atol=1e-12
            )

    def test_unitarity(self):
        for theta in np.linspace(0, 2 * np.pi, 29):
            u = target_unitary(theta)
            assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12


class TestLRPredictedEvolution:
    def test_zero_branch_contribution(self, traj, pulses):
        u = lr_predicted_evolution(traj, pulses)
        assert u[2, 0] == pytest.approx(-1.0, abs=1e-9)
        assert abs(u[0, 0]) < 1e-9 and abs(u[1, 0]) < 1e-9

    def test_matches_target_unitary(self, traj, pulses):
        u = lr_predicted_evolution(traj, pulses)
        theta = lr_phase(traj, pulses).theta_plus
        assert np.max(np.abs(u - target_unitary(theta))) < 1e-9

    def test_unitary(self, traj, pulses):
        u = lr_predicted_evolution(traj, pulses)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-9

    def test_matches_time_ordered_oracle(self, traj, pulses):
        u_pred = lr_predicted_evolution(traj, pulses)
        model = ideal_model(pulses)
        u_num = evolution_operator_oracle(
            model.hamiltonian, TAU, PropagationConfig(step=0.001)
        )
        dist, _ = global_phase_distance(u_num, u_pred)
        assert dist < 1e-3


class TestCheckBoundary:
    def test_commutators_vanish(self, traj, pulses):
        diag = check_boundary(traj, pulses)
        assert diag.commutator_start < 1e-9
        assert diag.commutator_end < 1e-9

    def test_grid_residual_small(self, traj, pulses):
        diag = check_boundary(traj, pulses)
        assert diag.max_von_neumann_residual < 1e-6

    def test_perturbed_pulses_detected(self, traj, pulses):
        from nonrecip.invariant import PulsePair

        perturbed = PulsePair(pulses.times, 1.01 * pulses.g_a, pulses.g_b)
        diag = check_boundary(traj, perturbed)
        # an order of magnitude above the valid-design bound
        assert diag.max_von_neumann_residual > 1e-4
