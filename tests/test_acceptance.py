"""End-to-end acceptance checks for the circulator design toolkit.

Each test prints a single PASS/FAIL line (visible with pytest -s, or in
the captured-output section on failure) alongside the assertion.
"""

import time

import numpy as np
import pytest

from nonrecip.config import ScenarioConfig
from nonrecip.devices import (
    full_chain_model,
    ideal_model,
    invert_bessel_drive,
    invert_bessel_j1,
    single_excitation_model,
)
from nonrecip.invariant import (
    AuxiliaryTrajectory,
    check_boundary,
    invariant_at,
    invariant_eigenstates,
    lr_phase,
    lr_predicted_evolution,
    solve_lambda,
    synthesize_pulses,
    target_unitary,
)
from nonrecip.metrics import (
    ensemble_fidelity,
    isolation,
    transfer_fidelity,
    transmission_matrix,
)
from nonrecip.propagation import (
    PropagationConfig,
    evolution_operator_oracle,
    global_phase_distance,
    integrate_master,
    propagate_schrodinger,
)
from nonrecip.statespace import ControlHamiltonian, PureState

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
def traj():
    return AuxiliaryTrajectory(LAMBDA_REF, TAU)


@pytest.fixture(scope="module")
def pulses(traj):
    return synthesize_pulses(traj)


@pytest.fixture(scope="module")
def theta_plus(traj, pulses):
    return lr_phase(traj, pulses).theta_plus


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


def _target(theta_plus, initial):
    column = ("100", "010", "001").index(initial)
    return PureState(target_unitary(theta_plus)[:, column])


def _transfers(model, theta_plus, noise):
    return {
        initial: transfer_fidelity(model, initial, _target(theta_plus, initial),
                                   noise=noise)
        for initial in INITIALS
    }


@pytest.fixture(scope="module")
def noisy_transfers(device, theta_plus):
    return _transfers(device, theta_plus, noise=True)


@pytest.fixture(scope="module")
def clean_transfers(device, theta_plus):
    return _transfers(device, theta_plus, noise=False)


class TestLambdaAnchor:
    def test_solve_lambda_reference_point(self):
        start = time.monotonic()
        lam = solve_lambda(THETA_CIRC, TAU, bracket=(0.1, 1.0))
        elapsed = time.monotonic() - start
        ok = abs(lam - LAMBDA_REF) <= 5e-4 and elapsed < 10.0
        check("lambda anchor",
              ok, f"(lambda = {lam:.6f}, {elapsed:.1f} s)")


class TestOperatorCirculator:
    def test_oracle_matches_designed_unitary(self, ideal, traj, pulses):
        start = time.monotonic()
        u = evolution_operator_oracle(ideal.hamiltonian, TAU,
                                      PropagationConfig(step=0.001))
        d_target, _ = global_phase_distance(u, target_unitary(THETA_CIRC))
        d_lr, _ = global_phase_distance(
            u, lr_predicted_evolution(traj, pulses))
        elapsed = time.monotonic() - start
        ok = d_target < 1e-3 and d_lr < 1e-3 and elapsed < 5.0
        check("operator-level circulator", ok,
              f"(|U - target| = {d_target:.2e}, |U - predicted| = {d_lr:.2e}, "
              f"{elapsed:.1f} s)")


class TestBasisTransferFidelities:
    def test_single_excitation_transfers_with_noise(self, noisy_transfers):
        details = []
        ok = True
        for initial in INITIALS:
            f = noisy_transfers[initial].fidelity
            ok = ok and abs(f - F_S_REF[initial]) <= 5e-3
            details.append(f"F_s[{initial}] = {f:.5f} (ref {F_S_REF[initial]})")
        check("basis-transfer fidelities", ok,
              "(driven-frame single-excitation model with qubit collapse "
              "channels; " + ", ".join(details) + ")")


class TestEnsembleFidelity:
    def test_average_over_input_circle(self, device):
        report = ensemble_fidelity(device, noise=True)
        ok = (abs(report.f_m - F_M_REF) <= 5e-3
              and abs(report.initial_fidelity - 0.125) <= 1e-2)
        check("ensemble fidelity", ok,
              f"(F_m = {report.f_m:.5f} ref {F_M_REF}, "
              f"F(0) = {report.initial_fidelity:.4f})")


class TestNonReciprocity:
    def test_forward_backward_asymmetry(self, ideal):
        u = evolution_operator_oracle(ideal.hamiltonian, TAU,
                                      PropagationConfig(step=0.005))
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
    def test_decoherence_contribution(self, noisy_transfers, clean_transfers):
        noisy = np.mean([noisy_transfers[i].fidelity for i in INITIALS])
        clean = np.mean([clean_transfers[i].fidelity for i in INITIALS])
        drop = clean - noisy
        ok = abs(drop - 0.0052) <= 3e-3
        check("noise budget: decoherence", ok,
              f"(infidelity rises by {drop:.5f} with channels on, ref 0.0052)")

    def test_leakage_contribution(self, full_qubit, theta_plus):
        report = transfer_fidelity(full_qubit, "100",
                                   _target(theta_plus, "100"), noise=True)
        leak = float(report.leakage[-1])
        ok = abs(leak - 0.0025) <= 2e-3
        check("noise budget: leakage", ok,
              f"(population outside the single-excitation subspace at tau "
              f"= {leak:.5f}, ref 0.0025)")


class TestPropertySuite:
    def test_structural_properties(self, traj, pulses, device):
        results = []

        def sub(name, ok, detail=""):
            results.append((name, ok, detail))

        # invariant spectrum is {0, +1/2, -1/2} at every instant
        rng = np.random.default_rng(0)
        worst = 0.0
        for t in rng.uniform(0.0, TAU, 50):
            w = np.sort(np.linalg.eigvalsh(invariant_at(traj, t)))
            worst = max(worst, np.max(np.abs(w - np.array([-0.5, 0.0, 0.5]))))
        sub("spectrum constancy", worst < 1e-10, f"{worst:.1e}")

        # eigenstates stay orthonormal
        worst = 0.0
        for t in rng.uniform(0.0, TAU, 50):
            v = np.column_stack(
                [s.amplitudes for s in invariant_eigenstates(traj, t)]
            )
            worst = max(worst, np.max(np.abs(v.conj().T @ v - np.eye(3))))
        sub("orthonormality", worst < 1e-10, f"{worst:.1e}")

        # dI/dt + i[H, I] = 0 on the design grid; endpoint commutators vanish
        diag = check_boundary(traj, pulses)
        sub("von-Neumann residual", diag.max_von_neumann_residual < 1e-6,
            f"{diag.max_von_neumann_residual:.1e}")
        comm = max(diag.commutator_start, diag.commutator_end)
        sub("boundary commutators", comm < 1e-9, f"{comm:.1e}")

        # density-matrix invariants survive an open-system run
        i0 = device.logical_index("100")
        rho0 = np.zeros((device.dim, device.dim), dtype=complex)
        rho0[i0, i0] = 1.0
        out = integrate_master(
            device.hamiltonian, device.channels, rho0, 5.0,
            PropagationConfig(step=device.default_step),
        ).final
        tr_ok = abs(np.trace(out).real - 1.0) < 1e-9
        herm_ok = np.max(np.abs(out - out.conj().T)) < 1e-9
        pos_ok = np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() > -1e-8
        sub("trace/Hermiticity/positivity", tr_ok and herm_ok and pos_ok)

        # fixed-step integrator converges at fourth order
        sx = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        h = ControlHamiltonian(np.zeros((2, 2)), sx[None],
                               lambda t: np.cos(0.7 * t)[:, None])
        psi0 = PureState(np.array([1.0, 0.0]))
        ref = propagate_schrodinger(
            h, psi0, 4.0, PropagationConfig(step=0.0005)).final
        errs = [
            np.linalg.norm(propagate_schrodinger(
                h, psi0, 4.0,
                PropagationConfig(step=s)).final - ref)
            for s in (0.08, 0.04)
        ]
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
