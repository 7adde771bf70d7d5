import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, special

from nonrecip.config import ScenarioConfig
from nonrecip.devices import (
    BESSEL_CLAMP_RTOL,
    DriveWaveform,
    J1_PEAK,
    J1_PEAK_X,
    UnattainableDriveError,
    bessel_j1,
    chain_labels,
    full_chain_model,
    ideal_model,
    invert_bessel_drive,
    invert_bessel_j1,
    lindblad_channels,
    single_excitation_indices,
    single_excitation_model,
)
from nonrecip.invariant import (
    solve_lambda,
    synthesize_pulses,
    target_unitary,
    theta_plus_magnitudes,
)
from nonrecip.metrics import fidelity_reports
from nonrecip.propagation import propagate_schrodinger
from nonrecip.units import khz, mhz
from bisection_reference import bisect_increasing
from rk4_reference import embedded

TAU = 145.0


@pytest.fixture(scope="module")
def pulses():
    return synthesize_pulses(0.4974, TAU)


@pytest.fixture(scope="module")
def chain():
    return ScenarioConfig().chain_spec()


@pytest.fixture(scope="module")
def drives(pulses, chain):
    return invert_bessel_drive(pulses, chain)


def quiet(chain):
    """Drives that stay off over [0, TAU]."""
    return DriveWaveform(np.array([0.0, TAU]), np.zeros((2, 2)), chain.nu)


def single_excitation_h(chain, drives, t):
    """H(t) of the single-excitation model on |100>, |010>, |001>."""
    idx = single_excitation_indices(2)
    h = single_excitation_model(chain, drives).hamiltonian.matrices([t])[0]
    return h[np.ix_(idx, idx)]


def full_chain_h(chain, drives, t):
    return full_chain_model(chain, drives).hamiltonian.matrices([t])[0]


def j1_series(x: float) -> float:
    """Ascending power series of J1, summed to machine precision."""
    term = x / 2.0
    total = term
    k = 1
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        term *= -(x * x / 4.0) / (k * (k + 1))
        total += term
        k += 1
    return total


class TestBesselJ1:
    def test_vectorised_inverse_matches_brentq(self):
        ys = np.linspace(0.0, J1_PEAK, 10001)
        eta = invert_bessel_j1(ys)
        assert eta[0] == 0.0 and eta[-1] == J1_PEAK_X
        ref = [optimize.brentq(lambda x: special.j1(x) - y, 0.0, J1_PEAK_X,
                               xtol=1e-14, rtol=1e-15) for y in ys[1:-1]]
        assert np.max(np.abs(eta[1:-1] - ref)) <= 1e-12
        assert np.max(np.abs(bessel_j1(eta) - ys)) <= 1e-15

    def test_series_matches_scipy_on_principal_branch(self):
        x = np.linspace(0.0, J1_PEAK_X, 200001)[1:]
        ref = special.j1(x)
        assert np.max(np.abs(bessel_j1(x) - ref) / ref) <= 1e-15
        assert bessel_j1(0.0) == 0.0

    def test_scalar_input_gives_scalar(self):
        value = bessel_j1(1.0)
        assert np.shape(value) == ()
        assert value == pytest.approx(special.j1(1.0), rel=1e-15)

    @pytest.mark.parametrize("bad", [-1e-300, -1e-3, np.nextafter(J1_PEAK, 1.0),
                                     J1_PEAK * (1 + 1e-12)])
    def test_inverse_rejects_values_outside_principal_range(self, bad):
        with pytest.raises(ValueError, match=r"outside the principal range \[0, "):
            invert_bessel_j1(np.array([0.1, bad]))
        with pytest.raises(ValueError, match="outside the principal range"):
            invert_bessel_j1(bad)

    def test_against_series_oracle(self):
        for x in np.linspace(0.0, 3.5, 71):
            assert bessel_j1(x) == pytest.approx(j1_series(x), abs=1e-14)

    def test_peak_value(self):
        assert bessel_j1(1.8412) == pytest.approx(0.581865, abs=1e-6)
        assert J1_PEAK == pytest.approx(j1_series(J1_PEAK_X), abs=1e-15)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(23)
        for eta in rng.uniform(0.0, 1.8, 100):
            assert invert_bessel_j1(bessel_j1(eta)) == pytest.approx(eta, abs=1e-9)

    def test_monotone_on_principal_branch(self):
        etas = np.linspace(0.0, J1_PEAK_X, 200)
        vals = bessel_j1(etas)
        assert np.all(np.diff(vals) > 0)


def design_ratios(phase, tau):
    """The (2, samples) J1 values that invert_bessel_drive inverts for the
    design of the LR phase at tau on the default chain."""
    chain = ScenarioConfig().chain_spec()
    pulses = synthesize_pulses(solve_lambda(phase), tau)
    ratios = np.abs(pulses.g) / (
        2.0 * np.array([[chain.g_a], [chain.g_b]]))
    return np.minimum(ratios, J1_PEAK)


# the circulator design of fig3 (peak ratio 0.99993 of J1_PEAK), and the
# corners and centre of perfbench's design-verify box of (phase, tau)
DESIGNS = [(1.5 * math.pi, 145.0), (4.0, 180.0), (5.2, 180.0), (4.0, 260.0),
           (5.2, 260.0), (4.6, 220.0)]


class TestNewtonInversion:
    """invert_bessel_j1's Newton steps against bisect_increasing, the
    bisection that it replaced, on a 200,001-point grid of [0, J1_PEAK]
    and on designed drives."""

    @pytest.fixture(scope="class", params=["grid", "peak"] + DESIGNS)
    def values(self, request):
        if request.param == "grid":
            return np.linspace(0.0, J1_PEAK, 200001)
        if request.param == "peak":  # the 2,000 doubles just below J1_PEAK
            return J1_PEAK - np.arange(2000, 0, -1) * 2.0**-53
        return design_ratios(*request.param)

    def test_matches_bisection_below_the_peak(self, values):
        eta = invert_bessel_j1(values)
        ref = bisect_increasing(bessel_j1, values, 0.0, J1_PEAK_X)
        below = values < 0.9999 * J1_PEAK
        assert np.max(np.abs(eta - ref)[below], initial=0.0) <= 3e-14
        assert 0.0 <= eta.min() and eta.max() <= J1_PEAK_X

    def test_relative_residual(self, values):
        # the bisection's 64 halvings leave 1.5e-14 at small y
        y = values[values > 0]
        assert np.max(np.abs(bessel_j1(invert_bessel_j1(y)) - y) / y) <= 1e-15

    def test_ends_of_the_branch_are_exact(self):
        assert invert_bessel_j1(0.0) == 0.0
        assert invert_bessel_j1(J1_PEAK) == J1_PEAK_X
        assert np.array_equal(invert_bessel_j1(np.array([0.0, J1_PEAK, 0.0])),
                              [0.0, J1_PEAK_X, 0.0])

    def test_shape_follows_the_input(self):
        assert np.shape(invert_bessel_j1(0.3)) == ()
        assert invert_bessel_j1(np.array([0.3])).shape == (1,)


class TestInvertBesselDrive:
    def test_zero_pulse_gives_zero_envelope(self, chain):
        from nonrecip.invariant import PulsePair

        times = np.linspace(0.0, TAU, 11)
        quiet = PulsePair(times, np.zeros((2, 11)))
        d = invert_bessel_drive(quiet, chain)
        assert np.all(d.eta[0] == 0.0) and np.all(d.eta[1] == 0.0)

    def test_inversion_residual(self, pulses, chain, drives):
        # clamped samples at the grazing peak are allowed the clamp slack
        recon_a = 2 * chain.g_a * bessel_j1(drives.eta[0])
        recon_b = 2 * chain.g_b * bessel_j1(drives.eta[1])
        scale = 2 * chain.g_a * J1_PEAK
        assert np.max(np.abs(recon_a - pulses.g[0])) < BESSEL_CLAMP_RTOL * scale
        assert np.max(np.abs(recon_b - pulses.g[1])) < BESSEL_CLAMP_RTOL * scale
        interior = (drives.eta[0] > 0) & (drives.eta[0] < J1_PEAK_X - 1e-9)
        assert np.max(np.abs(recon_a - pulses.g[0])[interior]) < 1e-10

    def test_negative_coupling_gives_negative_envelope(self, chain):
        # at lambda = 1.5 the designed g' dips to -0.00715 rad/ns (peak
        # ratio 0.886 of J1_PEAK), so J1(-eta) = -J1(eta) must carry the sign
        pulses = synthesize_pulses(1.5, TAU)
        assert pulses.g.min() < -7e-3
        drives = invert_bessel_drive(pulses, chain)
        for g, eta, g_static in zip(pulses.g, drives.eta, (chain.g_a, chain.g_b)):
            assert np.array_equal(np.sign(eta[1:-1]), np.sign(g[1:-1]))
            interior = (eta != 0) & (np.abs(eta) < J1_PEAK_X - 1e-9)
            recon = 2 * g_static * bessel_j1(eta)
            assert np.max(np.abs(recon - g)[interior]) < 1e-10

    @pytest.mark.parametrize("build", [single_excitation_model, full_chain_model])
    def test_negative_coupling_transfer(self, chain, build):
        # |g'| in place of g' reads F_s 0.968 on both models
        pulses = synthesize_pulses(1.5, TAU)
        model = build(chain, invert_bessel_drive(pulses, chain))
        unitary = target_unitary(theta_plus_magnitudes(1.5)[0][0])
        summary, _ = fidelity_reports(model, unitary, ["100"], noise=False)["100"]
        assert summary["fidelity"] >= 0.995

    def test_unattainable_drive(self, chain):
        big = synthesize_pulses(2.5, TAU)
        with pytest.raises(UnattainableDriveError) as err:
            invert_bessel_drive(big, chain)
        # the message names the worst ratio and its time
        ratio, time = re.search(r"J1 = (\S+) > \S+ at t = (\S+) ns",
                                str(err.value)).groups()
        assert 0.0 < float(time) < TAU
        assert float(ratio) > J1_PEAK

    def test_envelope_invariants(self, drives):
        for eta in drives.eta:
            assert eta[0] == 0.0 and eta[-1] == 0.0
            assert eta.min() >= 0.0 and eta.max() <= J1_PEAK_X + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_waveform_rejects_non_finite_envelope(self, bad):
        t, ok = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.0])
        DriveWaveform(t, [ok, ok], 1.0)
        for eta in (([0.0, bad, 0.0], ok), (ok, [0.0, bad, 0.0])):
            with pytest.raises(ValueError, match="finite"):
                DriveWaveform(t, eta, 1.0)

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (1, 3), (3,)])
    def test_waveform_must_match_the_times(self, shape):
        # one row per track, one column per time, refused at construction
        with pytest.raises(ValueError, match="two envelopes of len\\(times\\) samples"):
            DriveWaveform(np.linspace(0.0, 1.0, 3), np.zeros(shape), 1.0)


class TestIdealHamiltonian:
    def test_zero_at_endpoints(self, pulses):
        h = ideal_model(pulses).hamiltonian
        assert np.allclose(h.matrices([0.0])[0], 0.0, atol=1e-12)
        assert np.allclose(h.matrices([TAU])[0], 0.0, atol=1e-12)

    def test_structure(self, pulses):
        for t in np.linspace(1.0, TAU - 1.0, 9):
            h = ideal_model(pulses).hamiltonian.matrices([t])[0]
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            assert np.all(np.diag(h) == 0)
            assert h[0, 2] == 0 and h[2, 0] == 0

    def test_midpoint_magnitudes(self, pulses):
        h = ideal_model(pulses).hamiltonian.matrices([TAU / 2])[0]
        assert abs(h[0, 1]) == pytest.approx(pulses.g_at(TAU / 2)[0] / 2, abs=1e-12)
        assert abs(h[2, 1]) == pytest.approx(pulses.g_at(TAU / 2)[1] / 2, abs=1e-12)


class TestSingleExcitationHamiltonian:
    def test_undriven_at_zero(self, chain):
        h = single_excitation_h(chain, quiet(chain), 0.0)
        g = mhz(10.0)
        assert h[0, 1] == pytest.approx(g, abs=1e-15)
        assert h[2, 1] == pytest.approx(g, abs=1e-15)
        assert g == pytest.approx(0.06283, abs=5e-6)

    def test_phase_preserves_magnitude(self, chain, drives):
        for t in np.linspace(0.0, TAU, 13):
            h = single_excitation_h(chain, drives, t)
            assert abs(h[0, 1]) == pytest.approx(chain.g_a, rel=1e-12)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_effective_coupling_first_harmonic(self, chain):
        # time average of exp(i(Delta t - F)) over one drive period against
        # the first Jacobi-Anger coefficient, at constant envelope
        eta = 1.1
        period = 2 * np.pi / chain.nu
        delta_a = chain.omega[0] - chain.omega[1]
        ts = np.linspace(0.0, period, 20001)
        avg = np.mean(np.exp(1j * (delta_a * ts - eta * np.sin(chain.nu * ts))))
        assert abs(avg) == pytest.approx(bessel_j1(eta), rel=0.02)


class TestFullChainHamiltonian:
    def test_single_excitation_projection(self, chain):
        h_full = full_chain_h(chain, quiet(chain), 0.0)
        h_sub = single_excitation_h(chain, quiet(chain), 0.0)
        idx = list(single_excitation_indices(2))
        assert np.allclose(h_full[np.ix_(idx, idx)], h_sub, atol=1e-12)

    def test_counter_rotating_magnitude(self, chain, drives):
        # <110|H|000> comes from the excitation-non-conserving term
        for t in np.linspace(0.0, TAU, 7):
            h = full_chain_h(chain, drives, t)
            assert abs(h[6, 0]) == pytest.approx(chain.g_a, rel=1e-12)

    def test_does_not_conserve_excitation_number(self, chain, drives):
        n_op = np.zeros((8, 8))
        for i in range(8):
            n_op[i, i] = bin(i).count("1")
        h = full_chain_h(chain, drives, 10.0)
        assert np.linalg.norm(h @ n_op - n_op @ h) > 1e-3

    def test_excitation_conserved_in_reduced_model(self, chain, drives):
        idx = list(single_excitation_indices(2))
        n_op = np.eye(3)  # all single-excitation states have N = 1
        for t in np.linspace(0.0, TAU, 7):
            h = single_excitation_h(chain, drives, t)
            assert np.linalg.norm(h @ n_op - n_op @ h) == 0.0

    def test_three_level_ladder_enhancement(self, drives):
        chain3 = replace(ScenarioConfig().chain_spec(), d=3)
        drives3 = DriveWaveform(drives.times, drives.eta, drives.nu)
        h = full_chain_h(chain3, drives3, 3.0)
        labels = chain_labels(3)
        # A-transmon 1<->2 ladder with M 0<->1: |210> vs |100> coupling
        hi = abs(h[labels.index("200"), labels.index("110")])
        lo = abs(h[labels.index("100"), labels.index("010")])
        assert hi == pytest.approx(math.sqrt(2) * lo, rel=1e-12)

    def test_three_level_anharmonicity_on_diagonal(self):
        chain3 = replace(ScenarioConfig().chain_spec(), d=3)
        h = full_chain_h(chain3, quiet(chain3), 0.0)
        labels = chain_labels(3)
        assert h[labels.index("200"), labels.index("200")] == pytest.approx(
            -mhz(220.0), abs=1e-15
        )
        assert h[labels.index("020"), labels.index("020")] == pytest.approx(
            -mhz(210.0), abs=1e-15
        )

    def test_hermitian_everywhere(self, chain, drives):
        rng = np.random.default_rng(31)
        for t in rng.uniform(0.0, TAU, 25):
            h = full_chain_h(chain, drives, t)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestLindbladChannels:
    def test_reference_rates(self, chain):
        channels = lindblad_channels(chain, 2)
        assert [c.rate for c in channels] == [khz(3.0), khz(4.0), khz(5.0)]
        assert channels[0].rate == pytest.approx(2 * np.pi * 3e-6)

    def test_collapse_action_on_excited(self, chain):
        channels = lindblad_channels(chain, 2)
        # A-transmon channel applied to |100>: |1>_A -> |0>_A - |1>_A
        idx100, idx010, _ = single_excitation_indices(2)
        v = np.zeros(8, dtype=complex)
        v[idx100] = 1.0
        out = embedded(channels)[0] @ v
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        expected[idx100] = -1.0
        assert np.allclose(out, expected, atol=1e-15)

    def test_acts_on_one_factor(self, chain):
        site = np.array([[1, 1], [0, -1]], dtype=complex)
        channels = lindblad_channels(chain, 2)
        for k, (channel, op) in enumerate(zip(channels, embedded(channels))):
            assert channel.site == k
            assert np.array_equal(channel.operator, site)
            mats = [np.eye(2, dtype=complex)] * 3
            mats[k] = site
            expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
            assert np.array_equal(op, expected)

    def test_operator_is_read_only_complex(self, chain):
        op = lindblad_channels(chain, 2)[0].operator
        assert op.dtype == complex and op.shape == (2, 2)
        with pytest.raises(ValueError):
            op[0, 0] = 2.0

    def test_three_level_channel_annihilates_top_level(self):
        chain3 = replace(ScenarioConfig().chain_spec(), d=3)
        channels = lindblad_channels(chain3, 3)
        assert [c.site for c in channels] == [0, 1, 2]
        assert channels[2].operator.shape == (3, 3)
        m = embedded(channels)[2]  # B transmon
        labels = chain_labels(3)
        v = np.zeros(27, dtype=complex)
        v[labels.index("002")] = 1.0
        assert np.allclose(m @ v, 0.0, atol=1e-15)


class TestEmbedding:
    def test_chain_labels_are_a_major(self):
        assert chain_labels(2) == ["000", "001", "010", "011", "100", "101", "110", "111"]
        labels = chain_labels(3)
        assert [labels[i] for i in single_excitation_indices(3)] == ["100", "010", "001"]

    def test_chain_spec_validation(self):
        chain = ScenarioConfig().chain_spec()
        with pytest.raises(ValueError):
            replace(chain, d=4)
        # unchecked, 0 pins eta at the J1 peak and NaN gives eta = 0, silently
        for name in ("g_a", "g_b"):
            for value in (0.0, float("nan"), -0.05):
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    replace(chain, **{name: value})
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="nu must be finite"):
                replace(chain, nu=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("site", [0, 1, 2])
    @pytest.mark.parametrize("name", ["omega", "alpha", "gamma"])
    def test_chain_spec_rejects_non_finite_transmon_value(self, name, site, value):
        # NaN passes the alpha > 0 and gamma >= 0 checks, and a NaN rate
        # surfaced only as a failed eigenvalue solve after a noisy run
        chain = ScenarioConfig().chain_spec()
        values = list(getattr(chain, name))
        values[site] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(chain, **{name: tuple(values)})

    @pytest.mark.parametrize("site", [0, 1, 2])
    @pytest.mark.parametrize("name, value, message", [
        ("alpha", 0.0, "alpha must be > 0"), ("alpha", -1.3, "alpha must be > 0"),
        ("gamma", -1e-5, "gamma must be >= 0"),
    ])
    def test_chain_spec_rejects_out_of_range_transmon_value(self, name, value,
                                                            message, site):
        chain = ScenarioConfig().chain_spec()
        values = list(getattr(chain, name))
        values[site] = value
        with pytest.raises(ValueError, match=message):
            replace(chain, **{name: tuple(values)})



# each of these dataclasses holds ndarrays, where the generated __eq__
# would compare field tuples and ask an array for its truth value
BUILT_PARTS = {
    "Trajectory": lambda pulses, drives, model: propagate_schrodinger(
        model.hamiltonian, np.eye(model.dim)[[model.logical_indices[0]]], 1.0, 0.05),
    "PulsePair": lambda pulses, drives, model: pulses,
    "DriveWaveform": lambda pulses, drives, model: drives,
    "SimulationModel": lambda pulses, drives, model: model,
    "ControlHamiltonian": lambda pulses, drives, model: model.hamiltonian,
    "LindbladChannel": lambda pulses, drives, model: model.channels[0],
}


@pytest.mark.parametrize("name", sorted(BUILT_PARTS))
def test_array_holders_compare_and_hash_by_identity(chain, name):
    built = []
    for _ in range(2):  # equal fields in separate arrays
        pulses = synthesize_pulses(0.4974, TAU)
        drives = invert_bessel_drive(pulses, chain)
        built.append(BUILT_PARTS[name](pulses, drives,
                                       single_excitation_model(chain, drives)))
    a, b = built
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
