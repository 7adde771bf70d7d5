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
    theta_plus_magnitudes,
)
from nonrecip.metrics import fidelity_reports
from nonrecip.reporting import write_csv
from nonrecip.propagation import (
    IntegratorError,
    check_density,
    integrate_master,
    propagate_schrodinger,
)
from lr_reference import ISOLATION_FLOOR_DB, isolation, transmission_matrix
from oracle_reference import evolution_operator_oracle

TAU = 145.0
LAMBDA = 0.4974
THETA_CIRC = 1.5 * np.pi
# the single-excitation model is run at 0.05 ns, within 2e-8 of its
# step-0.005 fidelities
COARSE = 0.05


U_CIRC = target_unitary(THETA_CIRC)


def report_of(model, unitary, initial, noise=True, step=None):
    """The (summary, columns) of one initial against the 3x3 logical
    target matrix."""
    return fidelity_reports(model, unitary, [initial], noise=noise, step=step)[initial]


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


# (model fixture, noise, step) per run: the closed ideal run, and the
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
    name, noise, step = RUNS[request.param]
    return request.getfixturevalue(name), noise, step


def full_rho_history(model, states, noise, step):
    """The reference rho(t) of the fidelity reports: the model-space
    states propagated as _evolve propagates them, as one block, as a (k,
    records, d, d) array, with psi psi^H formed for every record of a
    closed run."""
    step = model.default_step if step is None else step
    psi = np.stack(states)
    if noise and model.channels:
        rho0 = psi[:, :, None] * psi[:, None, :].conj()
        traj = integrate_master(model.hamiltonian, model.channels, rho0, model.tau, step)
        return traj.states.swapaxes(0, 1)
    x = propagate_schrodinger(model.hamiltonian, psi, model.tau, step).states.swapaxes(0, 1)
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


def reference_ensemble_curve(model, rhos, unitary):
    """F_m(t) of the ensemble formula from the histories of |010>, |001>
    and |+>, read through np.ix_ on the logical block, with u1 and u2
    the targets of |010> and |001>."""
    block = (slice(None),) + np.ix_(model.logical_indices, model.logical_indices)
    r010, r001, r_plus = (r[block] for r in rhos)
    x = 2.0 * r_plus - r010 - r001
    u1, u2 = np.ascontiguousarray(unitary.T)[1:]

    def expect(rho, u, w):
        return rho @ w @ u.conj()

    return (3.0 * expect(r010, u1, u1) + expect(r010, u2, u2)
            + expect(r001, u1, u1) + 3.0 * expect(r001, u2, u2)
            + 2.0 * expect(x, u1, u2)).real / 8.0


class TestTransferFidelity:
    def test_ideal_forward_transfer(self, model):
        summary, _ = report_of(model, U_CIRC, "100", noise=False)
        assert summary["fidelity"] > 0.999

    def test_reversed_direction_is_blocked(self, model):
        # |001> ends on |100>, so its overlap with any |001>-like target
        # must vanish
        summary, _ = report_of(model, np.eye(3), "001", noise=False)
        assert summary["fidelity"] < 1e-3

    def test_global_phase_of_target_is_irrelevant(self, model):
        s1, _ = report_of(model, U_CIRC, "100", noise=False)
        s2, _ = report_of(model, np.exp(0.4j) * U_CIRC, "100", noise=False)
        assert s1["fidelity"] == pytest.approx(s2["fidelity"], abs=1e-12)

    def test_population_curves_are_stochastic(self, model):
        _, columns = report_of(model, U_CIRC, "100", noise=False)
        total = columns["pop_100"] + columns["pop_010"] + columns["pop_001"]
        assert np.allclose(total, 1.0, atol=1e-9)
        assert columns["pop_100"][0] == pytest.approx(1.0, abs=1e-12)
        assert "leakage" not in columns

    @pytest.mark.parametrize("shape", [(8, 8), (3,), (3, 2)])
    def test_target_outside_logical_space_rejected(self, device, shape):
        with pytest.raises(ValueError, match="logical space"):
            report_of(device, np.ones(shape), "100", noise=False)

    def test_unknown_initial_rejected(self, model):
        with pytest.raises(ValueError, match="unknown logical label"):
            report_of(model, U_CIRC, "+", noise=False)

    def test_matches_full_density_formulas(self, run):
        # the report reads the logical block and the trace; the reference
        # reads the full rho(t): bit for bit the same for the designed
        # targets, which have at most two nonzero amplitudes.  A third
        # one makes <t|rho|t> sum in logical order, not in model-index
        # order, which moves the curve by rounding only.
        # The three designed transfers come from one call and one
        # reference block, the generic target's from a second call.
        model, noise, step = run
        initials = ("100", "010", "001")
        generic = np.array([0.6, -0.48j, 0.64 * np.exp(0.3j)])
        mixed = U_CIRC.copy()
        mixed[:, 1] = generic
        designed = fidelity_reports(model, U_CIRC, initials, noise=noise, step=step)
        history = dict(zip(initials, full_rho_history(
            model, np.eye(model.dim)[[model.logical_index(i) for i in initials]],
            noise, step)))
        cases = [(i, U_CIRC[:, j], designed[i]) for j, i in enumerate(initials)]
        cases.append(("010", generic, report_of(model, mixed, "010", noise, step)))
        for initial, target, (summary, columns) in cases:
            populations, leakage, curve = reference_transfer(
                model, history[initial], target)
            assert summary["noise"] == (noise and bool(model.channels))
            for label, ref in zip(("100", "010", "001"), populations):
                assert np.array_equal(columns[f"pop_{label}"], ref)
            if model.dim > 3:
                assert np.array_equal(columns["leakage"], leakage)
            if target is generic:
                assert np.max(np.abs(columns["fidelity"] - curve)) <= 4e-16
            else:
                assert np.array_equal(columns["fidelity"], curve)

    def test_csv_round_trip(self, model, tmp_path):
        summary, columns = report_of(model, U_CIRC, "100", noise=False)
        path = tmp_path / "transfer.csv"
        write_csv(path, columns)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape[1] == 5
        assert rows[-1, -1] == pytest.approx(summary["fidelity"], abs=1e-12)


def explicit_ensemble_curve(model, unitary, noise, step):
    """Brute force: propagate each input cos(v)|010> + sin(v)|001> and
    take the trapezoid average of its fidelity to cos(v) u1 + sin(v) u2
    (u1, u2 the targets of |010> and |001>) at every record; 9 points (8
    intervals) integrate the quartic fidelity exactly."""
    _, i010, i001 = model.logical_indices
    thetas = np.linspace(0.0, 2.0 * np.pi, 9)
    inputs = np.zeros((9, model.dim), dtype=complex)
    inputs[:, i010], inputs[:, i001] = np.cos(thetas), np.sin(thetas)
    targets = np.zeros((9, model.dim), dtype=complex)
    targets[:, list(model.logical_indices)] = (np.cos(thetas)[:, None] * unitary[:, 1]
                                               + np.sin(thetas)[:, None] * unitary[:, 2])
    rhos = full_rho_history(model, list(inputs), noise, step)
    curves = np.einsum("vi,vrij,vj->vr", targets.conj(), rhos, targets).real
    return np.trapezoid(curves, thetas, axis=0) / (2.0 * np.pi)


class TestEnsembleFidelity:
    def test_initial_average_overlap(self, model):
        # at t = 0 the average of |<target|initial>|^2 over the circle
        # is exactly 1/8
        summary, _ = report_of(model, U_CIRC, "ensemble", noise=False)
        assert summary["initial_fidelity"] == pytest.approx(0.125, abs=1e-9)

    def test_ideal_protocol_is_nearly_perfect(self, model):
        summary, _ = report_of(model, U_CIRC, "ensemble", noise=False)
        assert summary["f_m"] > 0.999

    def test_matches_explicit_inputs(self, run):
        # the circulator's targets are i cos(v)|100> + i sin(v)|010>.  The
        # report also equals its formula on the full rho(t) bit for bit.
        model, noise, step = run
        expected = explicit_ensemble_curve(model, U_CIRC, noise, step)
        summary, columns = report_of(model, U_CIRC, "ensemble", noise=noise, step=step)
        assert summary["f_m"] == pytest.approx(expected[-1], abs=1e-12)
        assert np.max(np.abs(columns["fidelity"] - expected)) <= 1e-12
        _, i010, i001 = model.logical_indices
        e010, e001 = np.eye(model.dim)[[i010, i001]]
        rhos = full_rho_history(
            model, [e010, e001, (e010 + e001) / np.sqrt(2.0)], noise, step)
        assert np.array_equal(columns["fidelity"],
                              reference_ensemble_curve(model, rhos, U_CIRC))

    def test_scores_the_designed_unitary(self):
        # away from the circulator phase the inputs' targets are still
        # the designed unitary's columns, as the transfers' are: the ideal
        # model realises U(theta_plus), so every report reads 1, where the
        # fixed targets i cos(v)|100> + i sin(v)|010> read F_m 0.761
        traj = AuxiliaryTrajectory(0.6, TAU)
        model = ideal_model(synthesize_pulses(traj))
        unitary = target_unitary(theta_plus_magnitudes(traj.lambda_)[0][0])
        reports = fidelity_reports(model, unitary, ("ensemble", "100", "010", "001"),
                                   noise=False)
        assert min(c["fidelity"][-1] for _, c in reports.values()) >= 1.0 - 1e-9
        expected = explicit_ensemble_curve(model, unitary, False, None)
        assert np.max(np.abs(reports["ensemble"][1]["fidelity"] - expected)) <= 1e-12

    def test_closed_d27_memory_peak(self, pulses):
        # the closed run forms only the 3x3 logical block of each record,
        # not a (3, records, 27, 27) history of psi psi^H (25 MB)
        chain = replace(ScenarioConfig().chain_spec(), d=3)
        model = full_chain_model(chain, invert_bessel_drive(pulses, chain))
        tracemalloc.start()
        try:
            report_of(model, U_CIRC, "ensemble", noise=False)
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
        u = evolution_operator_oracle(model.hamiltonian, TAU, 0.01)
        assert isolation(u, source=0, destination=2) < -30.0


class TestInvariantChecks:
    def test_check_density_flags_each_invariant(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        check_density(rho[None])
        with pytest.raises(IntegratorError, match="trace"):
            check_density(1.1 * rho[None])
        skew = rho.copy()
        skew[0, 1] = 1e-6
        with pytest.raises(IntegratorError, match="Hermiticity"):
            check_density(skew[None])
        with pytest.raises(IntegratorError, match="positivity"):
            check_density(np.diag([1.2, -0.2, 0.0]).astype(complex)[None])

    @pytest.mark.parametrize("d", [8, 27])
    def test_check_density_positivity_boundary(self, d):
        # lowest eigenvalue -0.5e-6 passes, -2e-6 is refused, each in a
        # random eigenbasis, alone and as the second member of a block
        rng = np.random.default_rng(d)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

        def member(lowest):
            w = np.full(d, (1.0 - lowest) / (d - 1))
            w[0] = lowest
            rho = (q * w) @ q.conj().T
            return 0.5 * (rho + rho.conj().T)

        good, bad = member(-0.5e-6), member(-2e-6)
        check_density(good[None])
        check_density(np.stack([good, good]))
        for block in (bad[None], np.stack([good, bad])):
            with pytest.raises(IntegratorError, match="positivity"):
                check_density(block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_check_density_refuses_non_finite_member(self, bad):
        # every comparison with NaN is false, so no tolerance check sees it
        block = np.stack([np.diag([0.5, 0.5, 0.0]).astype(complex)] * 3)
        check_density(block)
        block[1, 0, 2] = block[1, 2, 0] = bad
        with pytest.raises(IntegratorError, match="not finite"):
            check_density(block)

    def test_transfer_fidelity_checks_final_state(self, run, break_hermiticity):
        model, noise, step = run
        with pytest.raises(IntegratorError, match="Hermiticity"):
            report_of(break_hermiticity(model), U_CIRC, "100", noise=noise, step=step)

    def test_noisy_transfer_rejects_a_non_hermitian_control_form(self, device):
        # -1e-9 i on |100> drains at most 2.9e-7 of trace over the run,
        # under the 2e-6 bound on the raw step maps' trace loss: without
        # the Hermiticity check the projected maps would absorb it and the
        # run would pass
        h = device.hamiltonian
        drift = h.h0.copy()
        drift[device.logical_index("100"), device.logical_index("100")] -= 1e-9j
        broken = replace(device, hamiltonian=replace(h, h0=drift))
        with pytest.raises(IntegratorError, match="Hamiltonian lost Hermiticity"):
            report_of(broken, U_CIRC, "100", step=COARSE)

    def test_ensemble_fidelity_checks_diagonal_blocks(self, run,
                                                      break_hermiticity):
        model, noise, step = run
        with pytest.raises(IntegratorError, match="Hermiticity"):
            report_of(break_hermiticity(model), U_CIRC, "ensemble", noise=noise,
                      step=step)
