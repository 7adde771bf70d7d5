import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nonrecip.config import ScenarioConfig
from nonrecip.devices import (
    full_chain_model,
    ideal_model,
    invert_bessel_drive,
    single_excitation_model,
)
from nonrecip.invariant import (
    AuxiliaryTrajectory,
    synthesize_pulses,
    target_unitary,
)
from nonrecip.metrics import ensemble_fidelity, transfer_fidelity
from nonrecip.propagation import (
    IntegratorError,
    PropagationConfig,
    check_density,
    integrate_master,
    propagate_schrodinger,
)
from nonrecip.statespace import PureState
from lr_reference import ISOLATION_FLOOR_DB, isolation, transmission_matrix
from oracle_reference import evolution_operator_oracle

TAU = 145.0
LAMBDA = 0.4974
THETA_CIRC = 1.5 * np.pi
# the single-excitation model is run at 0.05 ns, within 2e-8 of its
# step-0.005 fidelities
COARSE = PropagationConfig(step=0.05)


def logical_state(amps):
    return PureState(np.asarray(amps, dtype=complex))


@pytest.fixture(scope="module")
def pulses():
    return synthesize_pulses(AuxiliaryTrajectory(LAMBDA, TAU))


@pytest.fixture(scope="module")
def model(pulses):
    return ideal_model(pulses)


@pytest.fixture(scope="module")
def device(pulses):
    chain = ScenarioConfig().chain_spec()
    return single_excitation_model(chain, invert_bessel_drive(pulses, chain))


@pytest.fixture(scope="module")
def full_qubit(pulses):
    chain = ScenarioConfig().chain_spec()
    return full_chain_model(chain, invert_bessel_drive(pulses, chain))


# (model fixture, noise, config) per run: the closed ideal run, and the
# single-excitation and full-qubit models closed and noisy, which take the
# psi and rho paths; the full chain needs its default step
RUNS = {
    "ideal": ("model", False, None),
    "single_excitation": ("device", True, COARSE),
    "single_excitation_closed": ("device", False, COARSE),
    "full_qubit": ("full_qubit", True, None),
    "full_qubit_closed": ("full_qubit", False, None),
}


@pytest.fixture(params=sorted(RUNS))
def run(request):
    name, noise, cfg = RUNS[request.param]
    return request.getfixturevalue(name), noise, cfg


def full_rho_history(model, states, noise, cfg):
    """The reference rho(t) of the fidelity reports: the model-space
    states propagated as _evolve propagates them (one state unbatched),
    as a (k, records, d, d) array, with psi psi^H formed for every record
    of a closed run."""
    cfg = cfg or PropagationConfig(step=model.default_step)
    psi = np.column_stack(states)
    d, k = psi.shape
    if noise and model.channels:
        rho0 = psi.T[:, :, None] * psi.T[:, None, :].conj()
        traj = integrate_master(model.hamiltonian, model.channels,
                                rho0[0] if k == 1 else rho0, model.tau, cfg)
        return traj.states.reshape(len(traj.times), k, d, d).swapaxes(0, 1)
    traj = propagate_schrodinger(model.hamiltonian,
                                 PureState(psi[:, 0]) if k == 1 else psi,
                                 model.tau, cfg)
    x = traj.states.reshape(len(traj.times), d, k).transpose(2, 0, 1)
    return x[..., :, None] * x[..., None, :].conj()


def reference_transfer(model, rhos, target):
    """(populations, leakage, fidelity curve) of one (records, d, d)
    history, the target embedded at the model's logical indices."""
    target_vec = np.zeros(model.dim, dtype=complex)
    target_vec[list(model.logical_indices)] = target
    populations = [rhos[:, i, i].real for i in model.logical_indices]
    leakage = np.clip(np.trace(rhos, axis1=1, axis2=2).real - sum(populations),
                      0.0, None)
    return populations, leakage, (rhos @ target_vec @ target_vec.conj()).real


def reference_ensemble_curve(model, rhos):
    """F_m(t) of ensemble_fidelity's formula from the histories of |010>,
    |001> and |+>, read through np.ix_ on the (|100>, |010>) block."""
    i100, i010, _ = model.logical_indices
    block = (slice(None),) + np.ix_([i100, i010], [i100, i010])
    r010, r001, r_plus = (r[block].real for r in rhos)
    x = 2.0 * r_plus - r010 - r001
    return (3.0 * r010[:, 0, 0] + r010[:, 1, 1] + r001[:, 0, 0]
            + 3.0 * r001[:, 1, 1] + x[:, 0, 1] + x[:, 1, 0]) / 8.0


class TestTransferFidelity:
    def test_ideal_forward_transfer(self, model):
        target = logical_state(target_unitary(THETA_CIRC)[:, 0])
        report = transfer_fidelity(model, "100", target, noise=False)
        assert report.fidelity > 0.999

    def test_reversed_direction_is_blocked(self, model):
        # |001> ends on |100>, so its overlap with any |001>-like target
        # must vanish
        target = logical_state([0.0, 0.0, 1.0])
        report = transfer_fidelity(model, "001", target, noise=False)
        assert report.fidelity < 1e-3

    def test_global_phase_of_target_is_irrelevant(self, model):
        base = target_unitary(THETA_CIRC)[:, 0]
        r1 = transfer_fidelity(model, "100", logical_state(base), noise=False)
        r2 = transfer_fidelity(
            model, "100", logical_state(np.exp(0.4j) * base), noise=False
        )
        assert r1.fidelity == pytest.approx(r2.fidelity, abs=1e-12)

    def test_population_curves_are_stochastic(self, model):
        target = logical_state(target_unitary(THETA_CIRC)[:, 0])
        report = transfer_fidelity(model, "100", target, noise=False)
        total = sum(report.populations.values())
        assert np.allclose(total, 1.0, atol=1e-9)
        assert report.populations["100"][0] == pytest.approx(1.0, abs=1e-12)
        assert report.leakage is None

    def test_target_outside_logical_space_rejected(self, device):
        target = PureState(np.eye(device.dim)[device.logical_index("010")])
        with pytest.raises(ValueError, match="logical space"):
            transfer_fidelity(device, "100", target, noise=False)

    def test_matches_full_density_formulas(self, run):
        # the report reads the logical block and the trace; the reference
        # reads the full rho(t): bit for bit the same for the designed
        # targets, which have at most two nonzero amplitudes.  A third
        # one makes <t|rho|t> sum in logical order, not in model-index
        # order, which moves the curve by rounding only.
        model, noise, cfg = run
        designed = target_unitary(THETA_CIRC).T
        generic = np.array([0.6, -0.48j, 0.64 * np.exp(0.3j)])
        for initial, targets in (("100", [designed[0]]),
                                 ("010", [designed[1], generic]),
                                 ("001", [designed[2]])):
            (rhos,) = full_rho_history(
                model, [np.eye(model.dim)[model.logical_index(initial)]],
                noise, cfg)
            for target in targets:
                report = transfer_fidelity(model, initial, PureState(target),
                                           noise=noise, cfg=cfg)
                populations, leakage, curve = reference_transfer(model, rhos,
                                                                 target)
                assert report.noise == (noise and bool(model.channels))
                for ours, ref in zip(report.populations.values(), populations):
                    assert np.array_equal(ours, ref)
                if model.dim > 3:
                    assert np.array_equal(report.leakage, leakage)
                if target is generic:
                    assert np.max(np.abs(report.fidelity_curve - curve)) <= 4e-16
                else:
                    assert np.array_equal(report.fidelity_curve, curve)

    def test_csv_round_trip(self, model, tmp_path):
        target = logical_state(target_unitary(THETA_CIRC)[:, 0])
        report = transfer_fidelity(model, "100", target, noise=False)
        path = tmp_path / "transfer.csv"
        report.write_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape[1] == 5
        assert rows[-1, -1] == pytest.approx(report.fidelity, abs=1e-12)


class TestEnsembleFidelity:
    def test_initial_average_overlap(self, model):
        # at t = 0 the average of |<target|initial>|^2 over the circle
        # is exactly 1/8
        report = ensemble_fidelity(model, noise=False)
        assert report.initial_fidelity == pytest.approx(0.125, abs=1e-9)

    def test_ideal_protocol_is_nearly_perfect(self, model):
        report = ensemble_fidelity(model, noise=False)
        assert report.f_m > 0.999

    def test_matches_explicit_inputs(self, run):
        # brute force: propagate each input cos(v)|010> + sin(v)|001>
        # and take the trapezoid average of its fidelity to
        # i cos(v)|100> + i sin(v)|010> at every record; 9 points
        # (8 intervals) integrate the quartic fidelity exactly.  The
        # report also equals its formula on the full rho(t) bit for bit.
        model, noise, cfg = run
        i100, i010, i001 = model.logical_indices
        thetas = np.linspace(0.0, 2.0 * np.pi, 9)
        inputs = np.zeros((9, model.dim), dtype=complex)
        inputs[:, i010], inputs[:, i001] = np.cos(thetas), np.sin(thetas)
        targets = np.zeros((9, model.dim), dtype=complex)
        targets[:, i100], targets[:, i010] = 1j * np.cos(thetas), 1j * np.sin(thetas)
        rhos = full_rho_history(model, list(inputs), noise, cfg)
        curves = np.einsum("vi,vrij,vj->vr", targets.conj(), rhos, targets).real
        expected = np.trapezoid(curves, thetas, axis=0) / (2.0 * np.pi)
        report = ensemble_fidelity(model, noise=noise, cfg=cfg)
        assert report.f_m == pytest.approx(expected[-1], abs=1e-12)
        assert np.max(np.abs(report.fidelity_curve - expected)) <= 1e-12
        e010, e001 = np.eye(model.dim)[[i010, i001]]
        rhos = full_rho_history(
            model, [e010, e001, (e010 + e001) / np.sqrt(2.0)], noise, cfg)
        assert np.array_equal(report.fidelity_curve,
                              reference_ensemble_curve(model, rhos))

    def test_closed_d27_memory_peak(self, pulses):
        # the closed run forms only the 3x3 logical block of each record,
        # not a (3, records, 27, 27) history of psi psi^H (25 MB)
        chain = replace(ScenarioConfig().chain_spec(), d=3)
        model = full_chain_model(chain, invert_bessel_drive(pulses, chain))
        tracemalloc.start()
        try:
            ensemble_fidelity(model, noise=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6


class TestTransmissionMatrix:
    def test_circulator_entries(self):
        t = transmission_matrix(target_unitary(THETA_CIRC))
        expected = np.array(
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float
        )
        assert np.allclose(t, expected, atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(a)
        t = transmission_matrix(q)
        assert np.allclose(t.sum(axis=0), 1.0, atol=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            transmission_matrix(np.ones((3, 3)))


class TestIsolation:
    def test_perfect_circulator_hits_floor(self):
        # forward A->B is unity while backward B->A is exactly zero
        db = isolation(target_unitary(THETA_CIRC), source=0, destination=2)
        assert db == ISOLATION_FLOOR_DB

    @pytest.mark.parametrize("transpose", [False, True], ids=["ceiling", "floor"])
    def test_near_zero_transmission_is_clamped(self, transpose):
        # the cyclic shift |A> -> |M> -> |B> -> |A>, then a rotation by
        # 1e-16 rad between |M> and |B>: |<B|U|A>|^2 = 1e-32 while
        # |<A|U|B>|^2 = 1, which reads +320 dB unclamped; U^T swaps the two
        shift = np.roll(np.eye(3), 1, axis=0)
        c, s = np.cos(1e-16), np.sin(1e-16)
        u = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]) @ shift
        assert 0.0 < abs(u[2, 0]) ** 2 < 1e-30
        db = isolation(u.T if transpose else u, source=0, destination=2)
        assert db == (ISOLATION_FLOOR_DB if transpose else -ISOLATION_FLOOR_DB)

    def test_zero_forward_transmission_hits_ceiling(self):
        shift = np.roll(np.eye(3), 1, axis=0)
        assert isolation(shift, source=0, destination=2) == -ISOLATION_FLOOR_DB

    def test_reciprocal_swap_is_zero_db(self):
        db = isolation(target_unitary(np.pi), source=0, destination=2)
        assert db == pytest.approx(0.0, abs=1e-12)

    def test_simulated_circulator_is_strongly_isolating(self, model):
        u = evolution_operator_oracle(
            model.hamiltonian, TAU, PropagationConfig(step=0.01)
        )
        assert isolation(u, source=0, destination=2) < -30.0


class TestInvariantChecks:
    def test_check_density_flags_each_invariant(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        check_density(rho)
        with pytest.raises(IntegratorError, match="trace"):
            check_density(1.1 * rho)
        skew = rho.copy()
        skew[0, 1] = 1e-6
        with pytest.raises(IntegratorError, match="Hermiticity"):
            check_density(skew)
        with pytest.raises(IntegratorError, match="positivity"):
            check_density(np.diag([1.2, -0.2, 0.0]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_density_refuses_non_finite_member(self, bad):
        # every comparison with NaN is false, so no tolerance check sees it
        block = np.stack([np.diag([0.5, 0.5, 0.0]).astype(complex)] * 3)
        check_density(block)
        block[1, 0, 2] = block[1, 2, 0] = bad
        with pytest.raises(IntegratorError, match="not finite"):
            check_density(block)

    def test_transfer_fidelity_checks_final_state(self, run, break_hermiticity):
        model, noise, cfg = run
        target = logical_state(target_unitary(THETA_CIRC)[:, 0])
        with pytest.raises(IntegratorError, match="Hermiticity"):
            transfer_fidelity(break_hermiticity(model), "100", target,
                              noise=noise, cfg=cfg)

    def test_noisy_transfer_rejects_a_non_hermitian_control_form(self, device):
        # -1e-9 i on |100> drains at most 2.9e-7 of trace over the run,
        # under the 2e-6 bound on the raw step maps' trace loss: without
        # the Hermiticity check the projected maps would absorb it and the
        # run would pass
        h = device.hamiltonian
        drift = h.h0.copy()
        drift[device.logical_index("100"), device.logical_index("100")] -= 1e-9j
        broken = replace(device, hamiltonian=replace(h, h0=drift))
        target = logical_state(target_unitary(THETA_CIRC)[:, 0])
        with pytest.raises(IntegratorError, match="Hamiltonian lost Hermiticity"):
            transfer_fidelity(broken, "100", target, cfg=COARSE)

    def test_ensemble_fidelity_checks_diagonal_blocks(self, run,
                                                      break_hermiticity):
        model, noise, cfg = run
        with pytest.raises(IntegratorError, match="Hermiticity"):
            ensemble_fidelity(break_hermiticity(model), noise=noise, cfg=cfg)
