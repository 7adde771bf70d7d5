import math

import numpy as np
import pytest
from scipy import integrate, optimize

from nonrecip import invariant
from nonrecip.invariant import (
    PRESCAN_POINTS,
    _gauss_legendre,
    _theta_plus_rule,
    AuxiliaryTrajectory,
    NonMonotonicBracketError,
    PulseDivergenceError,
    PulsePair,
    RootBracketError,
    TrajectoryRangeError,
    coupling_values,
    solve_lambda,
    synthesize_pulses,
    target_unitary,
    theta_plus_magnitudes,
)
from nonrecip.devices import ideal_model, J1_PEAK
from nonrecip.units import mhz
from bisection_reference import bisect_increasing
from lr_reference import (
    beta_dot,
    check_boundary,
    invariant_eigenstates,
    invariant_stack,
    lr_predicted_evolution,
)
from oracle_reference import evolution_operator_oracle, global_phase_distance

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
            assert beta_dot(traj, t) == pytest.approx(bd_fd, abs=1e-8)

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
        gd, bd = traj.gamma_dot(ts), beta_dot(traj, ts)
        ga_direct = 2 * (bd / np.tan(g) * np.sin(b) + gd * np.cos(b))
        gb_direct = 2 * (bd / np.tan(g) * np.cos(b) - gd * np.sin(b))
        ga, gb = coupling_values(traj, ts)
        assert np.max(np.abs(ga - ga_direct)) < 1e-12
        assert np.max(np.abs(gb - gb_direct)) < 1e-12

    def test_counterintuitive_pulse_ordering(self, pulses):
        # STIRAP heritage: the B-leg pulse peaks before the A-leg pulse
        assert pulses.times[np.argmax(pulses.g_b)] < pulses.times[np.argmax(pulses.g_a)]

    def test_peak_ratio_within_bessel_range(self, traj):
        g_a, g_b = coupling_values(traj, np.linspace(0.0, TAU, 10001))
        g = mhz(10.0)
        ratio = max(np.abs(g_a).max(), np.abs(g_b).max()) / (2 * g)
        # peak grazes the J1 maximum; invertible up to the clamp slack
        assert ratio == pytest.approx(J1_PEAK, rel=2e-4)
        assert ratio < J1_PEAK * (1 + 5e-4)

    def test_finite_everywhere(self, traj):
        g_a, g_b = coupling_values(traj, np.linspace(0.0, TAU, 20001))
        assert np.all(np.isfinite(g_a)) and np.all(np.isfinite(g_b))

    def test_divergent_trajectory_rejected(self, pulses):
        with pytest.raises(PulseDivergenceError):
            synthesize_pulses(AuxiliaryTrajectory(5.0, TAU))
        # non-finite samples are rejected by PulsePair itself
        g_a = pulses.g_a.copy()
        g_a[5] = np.inf
        with pytest.raises(PulseDivergenceError, match="finite"):
            PulsePair(pulses.times, g_a, pulses.g_b)


class TestInvariant:
    def test_start_form(self, traj):
        m = invariant_stack(traj, 0.0)[0][0]
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 2] = expected[2, 1] = 0.5  # (|M><B| + |B><M|)/2
        assert np.allclose(m, expected, atol=1e-12)

    def test_end_form(self, traj):
        m = invariant_stack(traj, TAU)[0][0]
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = expected[1, 0] = 0.5
        assert np.allclose(m, expected, atol=1e-12)

    def test_spectrum_constancy(self, traj):
        rng = np.random.default_rng(42)
        for t in rng.uniform(0.0, TAU, 100):
            evals = np.sort(np.linalg.eigvalsh(invariant_stack(traj, t)[0][0]))
            assert np.max(np.abs(evals - [-0.5, 0.0, 0.5])) < 1e-10

    def test_eigenstate_endpoints(self, traj):
        mu0, mup, mum = invariant_eigenstates(traj, 0.0)
        assert np.allclose(mu0, [1, 0, 0], atol=1e-12)
        assert np.allclose(mup, np.array([0, 1j, 1j]) / np.sqrt(2), atol=1e-12)
        assert np.allclose(mum, np.array([0, 1j, -1j]) / np.sqrt(2), atol=1e-12)
        mu0_end, _, _ = invariant_eigenstates(traj, TAU)
        assert np.allclose(mu0_end, [0, 0, -1], atol=1e-12)

    def test_eigen_residual(self, traj):
        rng = np.random.default_rng(5)
        for t in rng.uniform(0.0, TAU, 100):
            i_mat = invariant_stack(traj, t)[0][0]
            mu0, mup, mum = invariant_eigenstates(traj, t)
            for state, eig in ((mu0, 0.0), (mup, 0.5), (mum, -0.5)):
                resid = i_mat @ state - eig * state
                assert np.linalg.norm(resid) < 1e-10

    def test_eigenstate_orthonormality(self, traj):
        rng = np.random.default_rng(17)
        for t in rng.uniform(0.0, TAU, 100):
            states = invariant_eigenstates(traj, t)
            v = np.stack(states)
            assert np.max(np.abs(v @ v.conj().T - np.eye(3))) < 1e-10


def generic_phase_integrand(traj, pulses, t, branch, h=1e-6):
    """<mu_n|(i d/dt - H)|mu_n> via finite differences; independent of
    the closed-form reduction used by theta_plus_magnitudes."""
    mu = invariant_eigenstates(traj, t)[branch]
    mu_p = invariant_eigenstates(traj, min(t + h, traj.tau))[branch]
    mu_m = invariant_eigenstates(traj, max(t - h, 0.0))[branch]
    dmu = (mu_p - mu_m) / (2 * h)
    ham = np.zeros((3, 3), dtype=complex)
    ham[0, 1] = 0.5 * pulses.g_a_at(t)
    ham[2, 1] = 0.5 * pulses.g_b_at(t)
    ham = ham + ham.conj().T
    return (mu.conj() @ (1j * dmu - ham @ mu)).real


class TestLRPhase:
    def test_circulator_anchor(self, traj):
        theta = theta_plus_magnitudes(traj.lambda_)[0][0]
        assert abs(theta - THETA_CIRC) < 1e-3

    def test_sign_structure(self, traj):
        assert theta_plus_magnitudes(traj.lambda_)[0][0] > 0

    def test_matches_defining_integral(self, traj):
        # oracle: Simpson quadrature of the generic integrand; a fine pulse
        # table keeps interpolation error in the oracle's H below tolerance
        ts = np.linspace(0.0, TAU, 8001)
        fine = PulsePair(ts, *coupling_values(traj, ts))
        vals = np.array(
            [generic_phase_integrand(traj, fine, t, branch=1) for t in ts]
        )
        raw = integrate.simpson(vals, x=ts)
        # the signed integral of the plus branch is -theta_plus
        assert -theta_plus_magnitudes(traj.lambda_)[0][0] == pytest.approx(raw, abs=1e-6)

    def test_zero_branch_integrand_vanishes(self, traj, pulses):
        for t in np.linspace(0.5, TAU - 0.5, 37):
            assert abs(generic_phase_integrand(traj, pulses, t, branch=0)) < 1e-9


def quad_theta_plus(lam, tau):
    """|theta_plus| by adaptive quadrature of the time-domain integrand
    beta_dot / sin(gamma), independent of the Gauss-Legendre rules."""
    traj = AuxiliaryTrajectory(lam, tau)
    return integrate.quad(lambda t: beta_dot(traj, t) / math.sin(traj.gamma(t)),
                          0.0, tau, epsabs=1e-10, epsrel=1e-12, limit=200)[0]


class TestPhaseQuadrature:
    @pytest.mark.parametrize("tau", [145.0, 260.0])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 1.9, 2.5, 3.05])
    def test_matches_adaptive_quadrature(self, lam, tau):
        (theta,), (error,), _ = theta_plus_magnitudes(lam)
        assert theta == pytest.approx(quad_theta_plus(lam, tau), rel=1e-12)
        assert 0.0 <= error <= 1e-12 * theta

    def test_vectorised_matches_scalar(self):
        lams = np.linspace(0.15, 3.1, 40)
        values, errors, _ = theta_plus_magnitudes(lams)
        for lam, value, err in zip(lams, values, errors):
            scalar = theta_plus_magnitudes(lam)[0][0]
            assert value == pytest.approx(scalar, rel=1e-14)
            assert err <= 1e-12 * value

    # 3.1415 lies inside (0, pi), where 2048 nodes do not suffice
    @pytest.mark.parametrize("lams, match", [
        ([0.5, np.pi], "0 < lambda < pi"), ([0.0], "0 < lambda < pi"),
        ([3.5], "0 < lambda < pi"), ([3.1415], "did not converge"),
        ([np.nan], "0 < lambda < pi"), ([0.5, np.nan], "0 < lambda < pi")],
        ids=[f"lams{i}" for i in range(6)])
    def test_rejects_lambda_outside_open_range(self, lams, match):
        with pytest.raises(ValueError, match=match):
            theta_plus_magnitudes(lams)


class TestGaussLegendre:
    # the node counts theta_plus_magnitudes uses
    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048])
    def test_symmetric_and_normalised(self, n):
        x, w = _gauss_legendre(n)
        assert np.all(x == -x[::-1]) and np.all(w == w[::-1])
        assert abs(w.sum() - 2.0) <= 1e-15

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_integrates_even_monomials_exactly(self, n):
        x, w = _gauss_legendre(n)
        k = np.arange(n)  # x^(2k) for 2k <= 2n - 2
        moments = w @ x[:, None] ** (2 * k)
        np.testing.assert_allclose(moments, 2.0 / (2 * k + 1), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048])
    def test_nodes_match_eigenvalue_rule(self, n):
        # numpy's leggauss (companion-matrix eigenvalues plus one Newton
        # step) is an independent reference.  Both place the nodes to an
        # absolute 1e-16, so the ulp is that of 1, the scale of [-1, 1].
        ref, _ = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(_gauss_legendre(n)[0] - ref)) <= 2 * np.spacing(1.0)


class TestSolveLambda:
    def test_reference_lambda_pinned(self):
        # Brent's method on adaptive quadrature solved this design to
        # 0.4974732655934123; the exact root is 0.49747326559346612
        lam = solve_lambda(THETA_CIRC)
        assert abs(lam - 0.4974732655934123) <= 1e-12

    def test_reference_lambda_to_rounding(self):
        # the root of |theta_plus(lambda)| = 3 pi / 2 at 40 digits, by
        # mpmath's findroot on 70 pi int_0^1 u^3 (1-u)^3 /
        # sin(16 lambda u^2 (1-u)^2) du evaluated with mp.quad, is
        # 0.4974732655934661036; the constant is the same double
        assert abs(solve_lambda(THETA_CIRC) - 0.49747326559346612) <= 1e-15

    # (target, bracket): the decreasing branch, then the increasing one
    # beyond the phase minimum near lambda = 1.9
    @pytest.mark.parametrize("target, bracket", [
        (4.0, (0.1, 1.0)), (4.6, (0.1, 1.0)), (THETA_CIRC, (0.1, 1.0)),
        (5.2, (0.1, 1.0)), (THETA_CIRC, (2.0, 3.0))])
    def test_matches_brentq_reference(self, target, bracket):
        ref = optimize.brentq(lambda l: quad_theta_plus(l, TAU) - target,
                              *bracket, xtol=1e-15, rtol=1e-15)
        assert abs(solve_lambda(target, bracket=bracket) - ref) <= 1e-12

    def test_reference_anchor(self):
        lam = solve_lambda(THETA_CIRC, bracket=(0.1, 1.0))
        assert lam == pytest.approx(LAMBDA_REF, abs=5e-4)

    def test_round_trip(self):
        lam = solve_lambda(THETA_CIRC)
        theta = theta_plus_magnitudes(lam)[0][0]
        assert abs(theta - THETA_CIRC) < 1e-6

    def test_no_sign_change_raises(self):
        with pytest.raises(RootBracketError):
            solve_lambda(100.0, bracket=(0.3, 1.0))

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_target_raises_value_error(self, target):
        with pytest.raises(ValueError, match="target phase must be finite") as exc:
            solve_lambda(target)
        assert exc.type is ValueError

    def test_bracket_spanning_phase_minimum_raises(self):
        # theta_plus(lambda) turns around near lambda ~ 1.9
        with pytest.raises(NonMonotonicBracketError):
            solve_lambda(np.pi, bracket=(0.3, 2.5))

    def test_reciprocal_design_propagates_to_swap(self):
        lam = solve_lambda(np.pi, bracket=(0.3, 1.5))
        traj_pi = AuxiliaryTrajectory(lam, TAU)
        model = ideal_model(synthesize_pulses(traj_pi))
        u = evolution_operator_oracle(model.hamiltonian, TAU, 0.001)
        expected = target_unitary(np.pi)
        assert expected[1, 1] == -1.0 and expected[0, 2] == -1.0
        dist, _ = global_phase_distance(u, expected)
        assert dist < 2e-3


def bisected_lambda(target, bracket):
    """solve_lambda's root by the bisection that its Newton steps
    replaced: the same prescan cell and Gauss-Legendre rule, bisected to
    floating-point resolution by bisect_increasing, one lambda a call."""
    scan = np.linspace(*bracket, PRESCAN_POINTS)
    vals, _, nodes = theta_plus_magnitudes(scan)
    sign = 1.0 if vals[-1] > vals[0] else -1.0
    k = int(np.searchsorted(sign * vals, sign * target))
    n = int(nodes[[max(k - 1, 0), k]].max())
    return float(bisect_increasing(lambda l: sign * _theta_plus_rule(l, n),
                                   [sign * target], scan[max(k - 1, 0)], scan[k])[0])


# attainable targets on the decreasing branch (|theta_plus| from 22.93 to
# 2.52 rad on (0.1, 1.0)) and on the increasing one (1.80 to 4.74 rad on
# (2.0, 3.0)), the circulator phase on each
NEWTON_GRID = ([(t, (0.1, 1.0)) for t in np.linspace(2.53, 22.92, 400)]
               + [(t, (2.0, 3.0)) for t in np.linspace(1.81, 4.74, 100)]
               + [(THETA_CIRC, (0.1, 1.0)), (THETA_CIRC, (2.0, 3.0))])


class TestNewtonAgainstBisection:
    def test_root_within_2_ulp_of_the_bisection(self):
        worst_ulps, worst_residual_change = 0.0, 0.0
        for target, bracket in NEWTON_GRID:
            ref, lam = bisected_lambda(target, bracket), solve_lambda(target, bracket)
            worst_ulps = max(worst_ulps, abs(lam - ref) / math.ulp(ref))
            residual, ref_residual = (abs(theta_plus_magnitudes(x)[0][0] - target)
                                      for x in (lam, ref))
            worst_residual_change = max(worst_residual_change,
                                        abs(residual - ref_residual) / math.ulp(target))
        assert worst_ulps <= 2.0
        assert worst_residual_change <= 2.0

    def test_rule_calls_after_the_prescan(self, monkeypatch):
        # Newton's steps, each a call with slope, then the residual's
        # adaptive quadrature; the bisection made 50 calls after the
        # prescan's.  Resolving the root to the bisection's double takes
        # 1-3 of Newton's steps, more where theta_plus is steep (near 0.1)
        calls, after_prescan = [], []

        def rule(lams, n, slope=False):
            calls.append(slope)
            return _theta_plus_rule(lams, n, slope=slope)

        def magnitudes(lams):
            out = theta_plus_magnitudes(lams)
            after_prescan.append(len(calls))
            return out

        monkeypatch.setattr(invariant, "_theta_plus_rule", rule)
        monkeypatch.setattr(invariant, "theta_plus_magnitudes", magnitudes)
        newton, total = [], []
        for target, bracket in NEWTON_GRID:
            calls.clear()
            after_prescan.clear()
            solve_lambda(target, bracket)
            newton.append(sum(calls))
            total.append(len(calls) - after_prescan[0])
        assert np.median(newton) <= 5 and max(newton) < 10  # none hit the cap
        assert np.median(total) <= 7

    @pytest.mark.parametrize("target, bracket", [
        (2.4, (0.1, 1.0)), (23.0, (0.1, 1.0)), (1.7, (2.0, 3.0)), (4.8, (2.0, 3.0))])
    def test_unattained_target_refused(self, target, bracket):
        with pytest.raises(RootBracketError, match="not attained on bracket"):
            solve_lambda(target, bracket)


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
    def test_zero_branch_contribution(self, traj):
        u = lr_predicted_evolution(traj)
        assert u[2, 0] == pytest.approx(-1.0, abs=1e-9)
        assert abs(u[0, 0]) < 1e-9 and abs(u[1, 0]) < 1e-9

    def test_matches_target_unitary(self, traj):
        u = lr_predicted_evolution(traj)
        theta = theta_plus_magnitudes(traj.lambda_)[0][0]
        assert np.max(np.abs(u - target_unitary(theta))) < 1e-9

    def test_unitary(self, traj):
        u = lr_predicted_evolution(traj)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-9

    def test_matches_time_ordered_oracle(self, traj, pulses):
        u_pred = lr_predicted_evolution(traj)
        model = ideal_model(pulses)
        u_num = evolution_operator_oracle(
            model.hamiltonian, TAU, 0.001
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
        perturbed = PulsePair(pulses.times, 1.01 * pulses.g_a, pulses.g_b)
        diag = check_boundary(traj, perturbed)
        # an order of magnitude above the valid-design bound
        assert diag.max_von_neumann_residual > 1e-4
