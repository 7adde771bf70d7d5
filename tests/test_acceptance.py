"""End-to-end acceptance checks for the circulator design toolkit.

Each test prints a single PASS/FAIL line (visible with pytest -s, or in
the captured-output section on failure) alongside the assertion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from nonrecip.config import ScenarioConfig
from nonrecip.devices import (
    LindbladChannel,
    full_chain_model,
    ideal_model,
    invert_bessel_drive,
    invert_bessel_j1,
    single_excitation_model,
)
from nonrecip.invariant import (
    solve_lambda,
    synthesize_pulses,
    target_unitary,
    theta_plus_magnitudes,
)
from nonrecip.metrics import fidelity_reports
from nonrecip.propagation import integrate_master, propagate_schrodinger
from nonrecip.statespace import ControlHamiltonian
from lr_reference import (
    check_boundary,
    invariant_eigenstates,
    invariant_stack,
    isolation,
    lr_predicted_evolution,
    transmission_matrix,
)
from oracle_reference import evolution_operator_oracle, global_phase_distance

TAU = 145.0
LAMBDA_REF = 0.4974
THETA_CIRC = 1.5 * np.pi
F_S_REF = {"100": 0.9908, "001": 0.9925, "010": 0.9928}
F_M_REF = 0.9923
INITIALS = ("100", "001", "010")


def check(name: str, ok: bool, detail: str = ""):
    print(f"[PRIMARY] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def pulses():
    return synthesize_pulses(LAMBDA_REF, TAU)


@pytest.fixture(scope="module")
def theta_plus():
    return theta_plus_magnitudes(LAMBDA_REF)[0][0]


@pytest.fixture(scope="module")
def ideal(pulses):
    return ideal_model(pulses)


@pytest.fixture(scope="module")
def chain():
    return ScenarioConfig().chain_spec()


@pytest.fixture(scope="module")
def device(pulses, chain):
    return single_excitation_model(chain, invert_bessel_drive(pulses, chain))


@pytest.fixture(scope="module")
def full_qubit(pulses, chain):
    return full_chain_model(chain, invert_bessel_drive(pulses, chain))


@pytest.fixture(scope="module")
def noisy_reports(device, theta_plus):
    """The three noisy transfers and the noisy ensemble, from one call."""
    return fidelity_reports(device, target_unitary(theta_plus),
                            INITIALS + ("ensemble",), noise=True)


@pytest.fixture(scope="module")
def clean_reports(device, theta_plus):
    return fidelity_reports(device, target_unitary(theta_plus), INITIALS,
                            noise=False)


class TestLambdaAnchor:
    def test_solve_lambda_reference_point(self):
        start = time.monotonic()
        lam = solve_lambda(THETA_CIRC, bracket=(0.1, 1.0))
        elapsed = time.monotonic() - start
        ok = abs(lam - LAMBDA_REF) <= 5e-4 and elapsed < 10.0
        check("lambda anchor",
              ok, f"(lambda = {lam:.6f}, {elapsed:.1f} s)")


class TestOperatorCirculator:
    def test_oracle_matches_designed_unitary(self, ideal):
        start = time.monotonic()
        u = evolution_operator_oracle(ideal.hamiltonian, TAU, 0.001)
        d_target, _ = global_phase_distance(u, target_unitary(THETA_CIRC))
        d_lr, _ = global_phase_distance(
            u, lr_predicted_evolution(LAMBDA_REF, TAU))
        elapsed = time.monotonic() - start
        ok = d_target < 1e-3 and d_lr < 1e-3 and elapsed < 5.0
        check("operator-level circulator", ok,
              f"(|U - target| = {d_target:.2e}, |U - predicted| = {d_lr:.2e}, "
              f"{elapsed:.1f} s)")


class TestBasisTransferFidelities:
    def test_single_excitation_transfers_with_noise(self, noisy_reports):
        details = []
        ok = True
        for initial in INITIALS:
            f = noisy_reports[initial][0]["fidelity"]
            ok = ok and abs(f - F_S_REF[initial]) <= 5e-3
            details.append(f"F_s[{initial}] = {f:.5f} (ref {F_S_REF[initial]})")
        check("basis-transfer fidelities", ok,
              "(driven-frame single-excitation model with qubit collapse "
              "channels; " + ", ".join(details) + ")")


class TestEnsembleFidelity:
    def test_average_over_input_circle(self, noisy_reports):
        summary, _ = noisy_reports["ensemble"]
        f_m, f_0 = summary["f_m"], summary["initial_fidelity"]
        ok = abs(f_m - F_M_REF) <= 5e-3 and abs(f_0 - 0.125) <= 1e-2
        check("ensemble fidelity", ok,
              f"(F_m = {f_m:.5f} ref {F_M_REF}, F(0) = {f_0:.4f})")


class TestNonReciprocity:
    def test_forward_backward_asymmetry(self, ideal):
        u = evolution_operator_oracle(ideal.hamiltonian, TAU, 0.005)
        t = transmission_matrix(u)
        forward = t[2, 0]   # A -> B
        backward = t[0, 2]  # B -> A
        iso_db = isolation(u, source=0, destination=2)
        recip = transmission_matrix(target_unitary(np.pi))
        recip_gap = abs(recip[0, 2] - recip[2, 0])
        ok = (forward >= 0.999 and backward <= 1e-3 and iso_db <= -30.0
              and recip_gap <= 1e-6)
        check("non-reciprocity", ok,
              f"(T[B<-A] = {forward:.5f}, T[A<-B] = {backward:.2e}, "
              f"isolation = {iso_db:.1f} dB, reciprocal gap = {recip_gap:.1e})")


class TestNoiseBudget:
    def test_decoherence_contribution(self, noisy_reports, clean_reports):
        noisy = np.mean([noisy_reports[i][0]["fidelity"] for i in INITIALS])
        clean = np.mean([clean_reports[i][0]["fidelity"] for i in INITIALS])
        drop = clean - noisy
        ok = abs(drop - 0.0052) <= 3e-3
        check("noise budget: decoherence", ok,
              f"(infidelity rises by {drop:.5f} with channels on, ref 0.0052)")

    def test_leakage_contribution(self, full_qubit, theta_plus):
        _, columns = fidelity_reports(full_qubit, target_unitary(theta_plus), ["100"],
                                      noise=True)["100"]
        leak = float(columns["leakage"][-1])
        ok = abs(leak - 0.0025) <= 2e-3
        check("noise budget: leakage", ok,
              f"(population outside the single-excitation subspace at tau "
              f"= {leak:.5f}, ref 0.0025)")


SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

# F_s(100), F_s(010), F_s(001) and F_m of the noisy single-excitation model
# at lambda = 0.4974 and its default step, with each transmon's channel
# set replaced by (operator, rate / Gamma_k) pairs: the README's noise
# model, O = sigma^- + sigma_z at Gamma_k, against its split forms
NOISE_CHANNEL_TABLE = {
    "O at Gamma": (None, (0.988204169001, 0.989487612068, 0.989310550735,
                          0.987701336789)),
    "sigma^- and sigma_z at Gamma": (
        [(SIGMA_MINUS, 1.0), (SIGMA_Z, 1.0)],
        (0.988204891711, 0.989486592891, 0.989310981588, 0.987700762841)),
    "sigma^- at Gamma, sigma_z at Gamma/2": (
        [(SIGMA_MINUS, 1.0), (SIGMA_Z, 0.5)],
        (0.989938519438, 0.991669304332, 0.991417913790, 0.990769155172)),
    "sigma^- only": ([(SIGMA_MINUS, 1.0)],
                     (0.991677214042, 0.993859436437, 0.993532018266,
                      0.993854801059)),
    "sigma_z only": ([(SIGMA_Z, 1.0)],
                     (0.991811797014, 0.993043810867, 0.992978999646,
                      0.991307166192)),
}


class TestNoiseChannelTable:
    """Pins each row of the noise-channel table (README, "Noise model"),
    so that a change of channel shows its effect on every anchor.  The
    split rows put two channels on one site."""

    @pytest.mark.parametrize("row", NOISE_CHANNEL_TABLE)
    def test_row(self, device, theta_plus, row):
        parts, want = NOISE_CHANNEL_TABLE[row]
        if parts is not None:
            device = replace(device, channels=tuple(
                LindbladChannel(op, scale * c.rate, c.site)
                for c in device.channels for op, scale in parts))
        reports = fidelity_reports(device, target_unitary(theta_plus),
                                   ("100", "010", "001", "ensemble"), noise=True)
        got = [reports[i][0]["fidelity"] for i in ("100", "010", "001")]
        got.append(reports["ensemble"][0]["f_m"])
        assert np.max(np.abs(np.array(got) - want)) <= 1e-8


class TestPropertySuite:
    def test_structural_properties(self, pulses, device):
        results = []

        def sub(name, ok, detail=""):
            results.append((name, ok, detail))

        # invariant spectrum is {0, +1/2, -1/2} at every instant
        rng = np.random.default_rng(0)
        worst = 0.0
        for t in rng.uniform(0.0, TAU, 50):
            w = np.sort(np.linalg.eigvalsh(invariant_stack(LAMBDA_REF, TAU, t)[0][0]))
            worst = max(worst, np.max(np.abs(w - np.array([-0.5, 0.0, 0.5]))))
        sub("spectrum constancy", worst < 1e-10, f"{worst:.1e}")

        # eigenstates stay orthonormal
        worst = 0.0
        for t in rng.uniform(0.0, TAU, 50):
            v = np.column_stack(invariant_eigenstates(LAMBDA_REF, TAU, t))
            worst = max(worst, np.max(np.abs(v.conj().T @ v - np.eye(3))))
        sub("orthonormality", worst < 1e-10, f"{worst:.1e}")

        # dI/dt + i[H, I] = 0 on the design grid; endpoint commutators vanish
        diag = check_boundary(LAMBDA_REF, TAU, pulses)
        sub("von-Neumann residual", diag.max_von_neumann_residual < 1e-6,
            f"{diag.max_von_neumann_residual:.1e}")
        comm = max(diag.commutator_start, diag.commutator_end)
        sub("boundary commutators", comm < 1e-9, f"{comm:.1e}")

        # density-matrix invariants survive an open-system run
        i0 = device.logical_indices[0]
        rho0 = np.zeros((1, device.dim, device.dim), dtype=complex)
        rho0[0, i0, i0] = 1.0
        out = integrate_master(
            device.hamiltonian, device.channels, rho0, 5.0,
            device.default_step,
        ).states[-1][0]
        tr_ok = abs(np.trace(out).real - 1.0) < 1e-9
        herm_ok = np.max(np.abs(out - out.conj().T)) < 1e-9
        pos_ok = np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() > -1e-8
        sub("trace/Hermiticity/positivity", tr_ok and herm_ok and pos_ok)

        # fixed-step integrator converges at fourth order
        sx = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        h = ControlHamiltonian(np.zeros((2, 2)), sx[None],
                               lambda t: np.cos(0.7 * t)[:, None])
        psi0 = np.array([[1.0, 0.0]])
        ref = propagate_schrodinger(h, psi0, 4.0, 0.0005).states[-1][0]
        errs = [np.linalg.norm(propagate_schrodinger(h, psi0, 4.0, s).states[-1][0] - ref)
                for s in (0.08, 0.04)]
        ratio = errs[0] / errs[1]
        sub("order-4 convergence", 12.0 < ratio < 20.0, f"ratio {ratio:.1f}")

        # Bessel inversion round trip
        from nonrecip.devices import bessel_j1
        worst = max(
            abs(bessel_j1(invert_bessel_j1(y)) - y)
            for y in np.linspace(0.0, 0.58, 30)
        )
        sub("Bessel round trip", worst < 1e-9, f"{worst:.1e}")

        # transmission columns are probability distributions
        rng2 = np.random.default_rng(9)
        a = rng2.normal(size=(3, 3)) + 1j * rng2.normal(size=(3, 3))
        q, _ = np.linalg.qr(a)
        col = np.max(np.abs(transmission_matrix(q).sum(axis=0) - 1.0))
        sub("column stochasticity", col < 1e-9, f"{col:.1e}")

        ok = all(r[1] for r in results)
        detail = "; ".join(
            f"{name} {'ok' if good else 'FAIL'}"
            + (f" ({d})" if d and not good else "")
            for name, good, d in results
        )
        check("property suite", ok, f"({detail})")
