import numpy as np
import pytest

from nonrecip.devices import ideal_model
from nonrecip.invariant import (
    AuxiliaryTrajectory,
    synthesize_pulses,
    target_unitary,
)
from nonrecip.metrics import (
    ISOLATION_FLOOR_DB,
    ensemble_fidelity,
    isolation,
    transfer_fidelity,
    transmission_matrix,
)
from nonrecip.propagation import IntegratorError, PropagationConfig, check_density
from nonrecip.statespace import PureState, make_basis

TAU = 145.0
LAMBDA = 0.4974
THETA_CIRC = 1.5 * np.pi

B3 = make_basis(["100", "010", "001"])


def logical_state(amps):
    return PureState(np.asarray(amps, dtype=complex), B3)


@pytest.fixture(scope="module")
def model():
    return ideal_model(synthesize_pulses(AuxiliaryTrajectory(LAMBDA, TAU)))


class TestTransferFidelity:
    def test_ideal_forward_transfer(self, model):
        target = logical_state(target_unitary(THETA_CIRC).matrix[:, 0])
        report = transfer_fidelity(model, "100", target, noise=False)
        assert report.fidelity > 0.999

    def test_reversed_direction_is_blocked(self, model):
        # |001> ends on |100>, so its overlap with any |001>-like target
        # must vanish
        target = logical_state([0.0, 0.0, 1.0])
        report = transfer_fidelity(model, "001", target, noise=False)
        assert report.fidelity < 1e-3

    def test_global_phase_of_target_is_irrelevant(self, model):
        base = target_unitary(THETA_CIRC).matrix[:, 0]
        r1 = transfer_fidelity(model, "100", logical_state(base), noise=False)
        r2 = transfer_fidelity(
            model, "100", logical_state(np.exp(0.4j) * base), noise=False
        )
        assert r1.fidelity == pytest.approx(r2.fidelity, abs=1e-12)

    def test_population_curves_are_stochastic(self, model):
        target = logical_state(target_unitary(THETA_CIRC).matrix[:, 0])
        report = transfer_fidelity(model, "100", target, noise=False)
        total = sum(report.populations.values())
        assert np.allclose(total, 1.0, atol=1e-9)
        assert report.populations["100"][0] == pytest.approx(1.0, abs=1e-12)
        assert report.leakage is None

    def test_csv_round_trip(self, model, tmp_path):
        target = logical_state(target_unitary(THETA_CIRC).matrix[:, 0])
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
        report = ensemble_fidelity(model, count=401, noise=False)
        assert report.initial_fidelity == pytest.approx(0.125, abs=1e-9)

    def test_ideal_protocol_is_nearly_perfect(self, model):
        report = ensemble_fidelity(model, count=401, noise=False)
        assert report.f_m > 0.999

    def test_count_validation(self, model):
        with pytest.raises(ValueError):
            ensemble_fidelity(model, count=1)


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

    def test_reciprocal_swap_is_zero_db(self):
        db = isolation(target_unitary(np.pi), source=0, destination=2)
        assert db == pytest.approx(0.0, abs=1e-12)

    def test_simulated_circulator_is_strongly_isolating(self, model):
        from nonrecip.propagation import evolution_operator_oracle

        u = evolution_operator_oracle(
            model.h_of_t, TAU, PropagationConfig(step=0.01)
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

    def test_transfer_fidelity_checks_final_state(self, model, break_hermiticity):
        target = logical_state(target_unitary(THETA_CIRC).matrix[:, 0])
        with pytest.raises(IntegratorError, match="Hermiticity"):
            transfer_fidelity(break_hermiticity(model), "100", target, noise=True)

    def test_ensemble_fidelity_checks_diagonal_blocks(self, model,
                                                      break_hermiticity):
        with pytest.raises(IntegratorError, match="Hermiticity"):
            ensemble_fidelity(break_hermiticity(model), count=11)
