import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from nonrecip.devices import (
    LindbladChannel,
    chain_labels,
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
from nonrecip import propagation
from nonrecip.config import ScenarioConfig
from nonrecip.propagation import (
    IntegratorError,
    StepTooLargeError,
    integrate_master,
    propagate_schrodinger,
)
from nonrecip.statespace import ControlHamiltonian
from nonrecip.units import khz
from oracle_reference import evolution_operator_oracle, global_phase_distance
from rk4_reference import dissipator, master_rk4, rk4

TAU = 145.0
LAMBDA = 0.4974

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# the one StepTooLargeError message, shared by both kernels
LOSS_MESSAGE = "the raw step maps changed the trace by .*, over 2e-6; reduce the step"


def ket(dim, idx):
    """Basis ket idx as a one-member (1, dim) block."""
    return np.eye(dim, dtype=complex)[idx][None]


def modulated(h, f=np.ones_like):
    """H(t) = f(t) h in control form: no drift, one operator."""
    h = np.asarray(h, dtype=complex)
    return ControlHamiltonian(np.zeros_like(h), h[None], lambda t: f(t)[:, None])


def projector(psi):
    """The (k, d, d) block of |psi><psi| of each ket of a (k, d) block."""
    return psi[:, :, None] * psi[:, None, :].conj()


@pytest.fixture(scope="module")
def pulses():
    return synthesize_pulses(AuxiliaryTrajectory(LAMBDA, TAU))


class TestSchrodinger:
    def test_zero_hamiltonian_is_identity(self):
        psi0 = np.array([[0.6, 0.8j]])
        traj = propagate_schrodinger(
            modulated(np.zeros((2, 2))), psi0, 10.0, 0.1
        )
        assert np.allclose(traj.states[-1], psi0, atol=1e-12)

    def test_rabi_oscillation_period(self):
        # H = (Omega/2) sigma_x flips |0> -> |1> at t = pi/Omega
        omega = 1.0
        h = 0.5 * omega * SIGMA_X
        traj = propagate_schrodinger(
            modulated(h), ket(2, 0), np.pi / omega,
            0.001,
        )
        assert abs(traj.states[-1][0, 0]) < 1e-9
        assert abs(traj.states[-1][0, 1]) == pytest.approx(1.0, abs=1e-9)

    def test_expm_method_matches_rk4(self):
        # RK4 against the oracle's product of midpoint exponentials
        h_t = modulated(0.5 * SIGMA_X, lambda t: np.cos(0.3 * t))
        psi0 = ket(2, 0)
        a = propagate_schrodinger(h_t, psi0, 5.0, 0.002)
        b = evolution_operator_oracle(h_t, 5.0, 0.002) @ psi0[0]
        assert np.allclose(a.states[-1][0], b, atol=1e-9)

    def test_ideal_circulator_sends_a_to_minus_b(self, pulses):
        model = ideal_model(pulses)
        psi0 = ket(3, 0)
        traj = propagate_schrodinger(
            model.hamiltonian, psi0, TAU, model.default_step
        )
        target = target_unitary(1.5 * np.pi)[:, 0]  # -|B>
        assert np.linalg.norm(traj.states[-1][0] - target) < 1e-3

    def test_norm_drift_raises(self):
        h = 50.0 * SIGMA_X
        with pytest.raises(StepTooLargeError, match=LOSS_MESSAGE):
            propagate_schrodinger(
                modulated(h), ket(2, 0), 10.0, 0.5
            )

    @pytest.mark.parametrize("step", [0.1, 0.3, 1.0, 2.0])
    def test_overflowing_run_raises(self, step):
        # the states overflow within the first chunk of maps; inf and NaN
        # must be refused, and no RuntimeWarning may escape
        with pytest.raises(StepTooLargeError, match=LOSS_MESSAGE):
            propagate_schrodinger(modulated(50.0 * SIGMA_X), ket(2, 0), 100.0,
                                  step)

    def test_recording_stride(self):
        # every RECORD_STRIDE = 50 steps and after the last: 0, 50, 100, 123
        traj = propagate_schrodinger(
            modulated(np.zeros((2, 2))), ket(2, 0), 1.23, 0.01)
        assert len(traj.times) == len(traj.states) == 4
        assert traj.times[0] == 0.0
        assert traj.times[1:] == pytest.approx([0.5, 1.0, 1.23])


@pytest.mark.parametrize("step", [0.0, -0.05, np.nan, np.inf])
@pytest.mark.parametrize("kernel", ["master", "schrodinger"])
def test_kernels_refuse_a_step_that_is_not_finite_and_positive(kernel, step):
    gen, psi0 = modulated(0.5 * SIGMA_X), ket(2, 0)
    with pytest.raises(ValueError, match="step must be finite and > 0"):
        if kernel == "master":
            integrate_master(gen, [], projector(psi0), 1.0, step)
        else:
            propagate_schrodinger(gen, psi0, 1.0, step)


@pytest.mark.parametrize("tau", [0.0, -0.01, np.nan, np.inf])
@pytest.mark.parametrize("kernel", ["master", "schrodinger"])
def test_kernels_refuse_a_tau_that_is_not_finite_and_positive(kernel, tau):
    # unchecked, -0.01 ran one step of -0.01 ns, a negative tau was refused
    # as a step too large, inf overflowed and NaN failed to convert to int
    gen, psi0 = modulated(0.5 * SIGMA_X), ket(2, 0)
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        if kernel == "master":
            integrate_master(gen, [], projector(psi0), tau, 0.05)
        else:
            propagate_schrodinger(gen, psi0, tau, 0.05)


def random_control_form(d, seed):
    """A seeded Hermitian control form: random Hermitian H0 and A_1 under
    cos(0.9 t), and a random non-Hermitian N with its adjoint under
    0.7 exp(+-1.3 i t)."""
    rng = np.random.default_rng(seed)

    def gaussian():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    h0, a1, n = gaussian(), gaussian(), gaussian() / d
    h0, a1 = 0.5 * (h0 + h0.conj().T) / d, 0.5 * (a1 + a1.conj().T) / d
    phase = lambda t: 0.7 * np.exp(1.3j * t)
    return ControlHamiltonian(h0, np.stack([a1, n, n.conj().T]), lambda t: np.stack(
        [np.cos(0.9 * t), phase(t), np.conj(phase(t))], axis=-1))


def random_block(d, seed):
    """Three orthonormal kets, as a (3, d) block."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3)))
    return q.T


class TestStepMaps:
    STEP = 0.01

    @pytest.mark.parametrize("d", [3, 8])
    def test_matches_stage_by_stage_rk4(self, d):
        gen = random_control_form(d, seed=d)
        stack = -1j * np.concatenate([gen.h0[None], gen.ops]).reshape(-1, d)
        block = random_block(d, seed=10 + d)
        maps = propagate_schrodinger(gen, block, 5.0, self.STEP)
        for j in range(3):
            ref = rk4(stack, gen, block[j], 5.0, self.STEP)
            assert np.array_equal(maps.times, ref.times)
            assert (maps.steps, maps.step) == (ref.steps, ref.step) == (500, 0.01)
            for got, want in zip(maps.states, ref.states):
                assert np.max(np.abs(got[j] - want)) < 1e-12

    @pytest.mark.parametrize("d", [3, 8])
    def test_block_equals_per_state(self, d):
        gen = random_control_form(d, seed=d)
        block = random_block(d, seed=10 + d)
        together = propagate_schrodinger(gen, block, 5.0, self.STEP)
        assert together.states[-1].shape == (3, d)
        for j in range(3):
            alone = propagate_schrodinger(gen, block[j:j + 1], 5.0, self.STEP)
            assert alone.states[-1].shape == (1, d)
            assert np.array_equal(together.states[:, j:j + 1], alone.states)

    def test_norm_drift_of_one_column_raises(self):
        # the anti-Hermitian term -0.2i|2><2| drains only basis state 2
        h = 0.5 * np.diag([0.0, 0.0, -0.4j])
        h[0, 1] = h[1, 0] = 0.3
        block = np.eye(3, dtype=complex)
        propagate_schrodinger(modulated(h), block[:2], 10.0, 0.05)
        with pytest.raises(StepTooLargeError, match=LOSS_MESSAGE):
            propagate_schrodinger(modulated(h), block, 10.0, 0.05)


@pytest.fixture(scope="module")
def device(pulses):
    chain = ScenarioConfig().chain_spec()
    return single_excitation_model(chain, invert_bessel_drive(pulses, chain))


@pytest.fixture(scope="module")
def three_level(pulses):
    chain = replace(ScenarioConfig().chain_spec(), d=3)
    return full_chain_model(chain, invert_bessel_drive(pulses, chain))


@pytest.fixture(params=["device", "three_level"])
def noisy_model(request):
    """The d = 8 model, whose dissipator propagator is one factor, and
    the d = 27 one, one factor per site."""
    return request.getfixturevalue(request.param)


class TestLindblad:
    def test_no_channels_matches_schrodinger(self, pulses):
        model = ideal_model(pulses)
        psi0 = ket(3, 0)
        step = model.default_step
        pure = propagate_schrodinger(model.hamiltonian, psi0, TAU, step)
        mixed = integrate_master(model.hamiltonian, [], projector(psi0), TAU, step)
        expected = projector(pure.states[-1])
        assert np.max(np.abs(mixed.states[-1] - expected)) < 1e-8

    def test_single_qubit_decay(self):
        # O = |0><1| + |0><0| - |1><1| drains the excited population
        op = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
        chan = LindbladChannel(operator=op, rate=khz(50.0))
        traj = integrate_master(
            modulated(np.zeros((2, 2))), [chan], projector(ket(2, 1)), 500.0,
            0.05,
        )
        p1 = traj.states[:, 0, 1, 1].real
        assert np.all(np.diff(p1) < 0)
        assert p1[-1] < 0.9
        for s in traj.states[:, 0]:
            assert np.trace(s).real == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(s - s.conj().T)) < 1e-9
            assert np.linalg.eigvalsh(s).min() > -1e-9

    def test_vanishing_rates_recover_closed_system(self, device):
        weak = [replace(c, rate=1e-12) for c in device.channels]
        psi0 = ket(device.dim, device.logical_index("100"))
        step = device.default_step
        closed = propagate_schrodinger(device.hamiltonian, psi0, TAU, step)
        damped = integrate_master(device.hamiltonian, weak, projector(psi0), TAU, step)
        expected = projector(closed.states[-1])
        assert np.max(np.abs(damped.states[-1] - expected)) < 1e-8

    def test_device_run_preserves_invariants(self, device):
        psi0 = ket(device.dim, device.logical_index("100"))
        traj = integrate_master(
            device.hamiltonian, device.channels, projector(psi0), 10.0,
            device.default_step,
        )
        for s in traj.states[:, 0]:
            assert np.trace(s).real == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh(0.5 * (s + s.conj().T)).min() > -1e-8

    @pytest.mark.parametrize("kernel", ["master", "schrodinger"])
    @pytest.mark.parametrize("model, step, tau", [
        ("device", 0.05, 10.0), ("three_level", 0.005, 1.0)])
    def test_block_equals_single_calls(self, request, kernel, model, step, tau):
        # one dissipator factor at d = 8, three at d = 27; a closed block
        # steps each ket by its own mat-vec, as a one-member block does
        model = request.getfixturevalue(model)
        d = model.dim
        i100, i010, i001 = model.logical_indices
        block = np.zeros((3, d), dtype=complex)
        block[0, i100] = block[1, i010] = 1.0
        block[2, [i010, i001]] = 1.0 / np.sqrt(2.0)
        if kernel == "master":
            block = projector(block)
            run = lambda x: integrate_master(model.hamiltonian, model.channels, x, tau, step)
        else:
            run = lambda x: propagate_schrodinger(model.hamiltonian, x, tau, step)
        together = run(block)
        assert together.states.shape == (5,) + block.shape
        for j in range(3):
            alone = run(block[j:j + 1])
            assert np.array_equal(together.times, alone.times)
            assert np.array_equal(together.states[:, j:j + 1], alone.states)

    def test_broken_member_of_block_raises(self, device):
        # the trace is conserved to rounding, so a member that starts with
        # trace 2 still has it at the end
        good = projector(ket(device.dim, device.logical_index("100")))
        integrate_master(device.hamiltonian, device.channels, good, 2.0, 0.05)
        with pytest.raises(IntegratorError, match="trace"):
            integrate_master(device.hamiltonian, device.channels,
                             np.concatenate([good, 2.0 * good]), 2.0, 0.05)

    @pytest.mark.parametrize("broken", ["Hermiticity", "positivity"])
    def test_final_member_must_be_a_density_matrix(self, device, broken):
        # both defects survive the run: the maps preserve Hermiticity and
        # the spectrum, and the noise is too weak to undo them in 2 ns
        i100, i010 = device.logical_indices[:2]
        good = projector(ket(device.dim, i100))
        bad = good.copy()
        if broken == "Hermiticity":
            bad[0, i100, i010] += 1e-3
        else:
            bad[0, i100, i100], bad[0, i010, i010] = 1.05, -0.05
        with pytest.raises(IntegratorError, match=f"final state lost {broken}"):
            integrate_master(device.hamiltonian, device.channels,
                             np.concatenate([good, bad]), 2.0, 0.05)

    def test_open_run_memory_peak(self, device):
        # the (m + 1, k, d, d) chunk buffer holds the states that the maps
        # act on, and the maps are formed and projected on the 3 x 3
        # support block; 0.701 MB before both, 0.55 MB after
        rho0 = projector(ket(device.dim, device.logical_index("100")))
        tracemalloc.start()
        try:
            integrate_master(device.hamiltonian, device.channels, rho0, TAU, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.70e6


def applied(e, r):
    """The factored propagator e applied to each member of the (k, d, d)
    block r, by one bound call."""
    out = np.empty_like(r)
    e.bind(r, [out])[0]()
    return out


def assembled(e, d):
    """The (d^2, d^2) matrix of the factored propagator e on row-major vec
    rho: its column m is e's image of the m-th unit matrix."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return applied(e, units).reshape(d * d, d * d).T


def random_open_system(d, seed):
    """random_control_form with two seeded random channels at rates 0.3
    and 0.2, and a random pure rho."""
    rng = np.random.default_rng(100 + seed)
    ops = (rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))) / d
    psi = rng.normal(size=(1, d)) + 1j * rng.normal(size=(1, d))
    psi /= np.linalg.norm(psi)
    return (random_control_form(d, seed),
            [LindbladChannel(o, r) for o, r in zip(ops, (0.3, 0.2))],
            projector(psi))


def stepped_one_call_at_a_time(gen, channels, rho0, tau, step):
    """integrate_master's (times, states, trace_loss), by a plain loop:
    rho <- E(M rho M^H) one step and one call at a time from E_half rho0,
    with the kernel's own maps (each written into a d x d identity table
    when the support is smaller than d) and propagators, E_half of
    M rho M^H recorded after every RECORD_STRIDE steps and after the last,
    and tr(K rho) summed over the support a chunk at a time, as the kernel
    sums it."""
    n, dt = propagation._grid(tau, step)
    d, whole = gen.dim, len(gen.support) == gen.dim
    # the kernel's reads of the support block: a fancy-indexed copy of the
    # whole space has another memory order, which moves the loss's sum
    on_support = (slice(None),) * 2 if whole else np.ix_(gen.support, gen.support)
    half, full = propagation._dissipator_propagators(channels, d, dt)
    rho = applied(half, rho0)
    done, states, lost = [0], [rho0], np.zeros(len(rho0))
    for first, maps in propagation._raw_maps(gen, n, dt):
        maps, defects = propagation._unitary_maps(maps)
        acted_on = []
        for s, table in enumerate(maps, start=first):
            if not whole:
                table, support_map = np.eye(d, dtype=complex), table
                table[on_support] = support_map
            acted_on.append(rho)
            b = table @ rho @ table.conj().T
            if (s + 1) % propagation.RECORD_STRIDE == 0 or s == n - 1:
                done.append(s + 1)
                states.append(applied(half, b))
            rho = applied(full, b)
        part = np.stack(acted_on)[(..., *on_support)].reshape(len(maps), len(rho0), -1)
        lost += (part.conj() @ defects.reshape(len(maps), -1, 1)).real.sum(axis=(0, 2))
    return np.array(done) * dt, np.stack(states), float(np.max(np.abs(lost)))


class TestStrangSplit:
    @pytest.mark.parametrize("model, tau, step, members, noisy", [
        ("device", 10.3, 0.05, 1, True),  # E one 64 x 64 factor, 3 x 3 support
        ("device", 10.3, 0.05, 2, True),
        ("device", 10.3, 0.05, 2, False),  # no channels: E copies
        ("three_level", 0.3, 0.005, 2, True),  # E three factors, whole space
    ])
    def test_loop_equals_one_call_at_a_time(self, request, model, tau, step, members,
                                            noisy):
        # 206 steps in chunks of 96 at d = 8, 60 in chunks of 8 at d = 27,
        # so that records fall inside chunks and on the last step
        model = request.getfixturevalue(model)
        i100, i010, i001 = model.logical_indices
        block = np.zeros((2, model.dim), dtype=complex)
        block[0, i100] = 1.0
        block[1, [i010, i001]] = 1.0 / np.sqrt(2.0)
        rho0 = projector(block[:members])
        channels = model.channels if noisy else []
        run = integrate_master(model.hamiltonian, channels, rho0, tau, step)
        times, states, loss = stepped_one_call_at_a_time(
            model.hamiltonian, channels, rho0, tau, step)
        assert np.array_equal(run.times, times)
        assert np.array_equal(run.states, states)
        assert run.trace_loss == loss > 0.0

    @pytest.mark.parametrize("tau, writes", [(5.0, 2), (10.3, 5)])
    def test_propagators_are_bound_three_times_a_run(self, device, monkeypatch, tau,
                                                     writes):
        # E_half to rho0, E to the slots and E_half to the records, once a
        # run however many records it writes; the build binds what it binds
        calls = []
        bind = propagation._Factored.bind
        monkeypatch.setattr(propagation._Factored, "bind",
                            lambda e, r, outs: calls.append(e) or bind(e, r, outs))
        propagation._dissipator_propagators(device.channels, device.dim, 0.05)
        built = len(calls)
        calls.clear()
        rho0 = projector(ket(device.dim, device.logical_index("100")))
        run = integrate_master(device.hamiltonian, device.channels, rho0, tau, 0.05)
        assert len(run.times) - 1 == writes
        assert len(calls) - built == 3

    @pytest.mark.parametrize("seed", [1, 2])
    def test_second_order_against_stage_by_stage_rk4(self, seed):
        # Strang splitting is second order in the dissipator; the reference
        # is vec-rho RK4 at a 10x finer step than the finest split run
        gen, channels, rho0 = random_open_system(3, seed)
        steps = (0.04, 0.02, 0.01)
        ref = master_rk4(gen, channels, rho0[0], 3.0, steps[-1] / 10).states[-1]
        errs = [np.max(np.abs(integrate_master(gen, channels, rho0, 3.0, h).states[-1][0] - ref))
                for h in steps]
        assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5

    @pytest.mark.parametrize("dt", [0.05, 0.005])
    def test_device_propagators_match_expm(self, noisy_model, dt):
        d = noisy_model.dim
        generator = dissipator(noisy_model.channels, d)
        for e, t in zip(propagation._dissipator_propagators(
                noisy_model.channels, d, dt), (0.5 * dt, dt)):
            assert np.max(np.abs(assembled(e, d) - expm(generator * t))) <= 2.3e-16

    def test_factors_follow_the_sites(self, device, three_level):
        # one factor for all sites up to 64^2 entries, else one per site
        for model, dims in ((device, (8,)), (three_level, (3, 3, 3))):
            for e in propagation._dissipator_propagators(model.channels,
                                                         model.dim, 0.005):
                assert e.dims == dims
                assert [f.shape for f in e.factors] == [(g * g, g * g) for g in dims]
        for e in propagation._dissipator_propagators([], 8, 0.005):
            assert e.factors == ()
            block, out = projector(ket(8, 3)), np.empty((1, 8, 8), dtype=complex)
            e.bind(block, [out])[0]()
            assert np.array_equal(out, block)

    def test_factored_propagator_writes_into_out(self, noisy_model):
        # one factor at d = 8, three at d = 27
        d = noisy_model.dim
        rng = np.random.default_rng(d)
        r = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        for e in propagation._dissipator_propagators(noisy_model.channels, d, 0.005):
            out = np.empty_like(r)
            e.bind(r, [out])[0]()
            vecs = r.reshape(len(r), -1, 1)
            want = (assembled(e, d) @ vecs).reshape(r.shape)
            assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
        none, _ = propagation._dissipator_propagators([], d, 0.005)
        none.bind(r, [out])[0]()
        assert np.array_equal(out, r)

    def test_sites_that_do_not_factor_d_are_refused(self, device):
        with pytest.raises(ValueError, match="do not multiply to d = 27"):
            propagation._dissipator_propagators(device.channels, 27, 0.005)
        with pytest.raises(ValueError, match=r"\[2, 0, 2\]"):
            propagation._dissipator_propagators(
                [c for c in device.channels if c.site != 1], 4, 0.005)
        mixed = [device.channels[0], replace(device.channels[1], site=0,
                                              operator=np.eye(3))]
        with pytest.raises(ValueError, match="site 0 act on different dims"):
            propagation._dissipator_propagators(mixed, 2, 0.005)

    def test_scaled_and_squared_propagators_match_expm(self):
        # 1-norms of 7.5 and 15 take four and five squarings
        gen, channels, _ = random_open_system(3, seed=4)
        channels = [LindbladChannel(c.operator, 30.0 * c.rate) for c in channels]
        generator = dissipator(channels, 3)
        for e, t in zip(propagation._dissipator_propagators(channels, 3, 0.5),
                        (0.25, 0.5)):
            want = expm(generator * t)
            assert np.max(np.abs(assembled(e, 3) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_projection_holds_the_trace_at_a_coarse_step(self, device):
        # without the projection the trace drifts by 6.0e-8 over this run,
        # above check_density's 1e-8
        psi0 = ket(device.dim, device.logical_index("010"))
        traj = integrate_master(device.hamiltonian, device.channels,
                                projector(psi0), TAU, 0.05)
        trace = np.trace(traj.states, axis1=2, axis2=3)
        assert np.max(np.abs(trace - 1.0)) < 1e-13

    def test_trajectory_carries_the_bounded_trace_loss(self, device):
        # a closed run's loss is the telescoped change of the squared norm
        psi0 = ket(device.dim, device.logical_index("100"))
        closed = propagate_schrodinger(device.hamiltonian, psi0, 20.0, 0.05)
        assert closed.trace_loss == abs(1.0 - np.sum(np.abs(closed.states[-1]) ** 2))
        assert 0.0 < closed.trace_loss <= 2e-6
        # the projected maps keep the trace, the raw maps' loss is reported
        open_ = integrate_master(device.hamiltonian, device.channels,
                                 projector(psi0), 20.0, 0.05)
        assert abs(np.trace(open_.states[-1][0]) - 1.0) < 1e-13
        assert 0.0 < open_.trace_loss <= 2e-6

    def test_too_large_a_step_raises(self):
        # projecting the maps would keep the trace; the raw maps' trace
        # loss still refuses a step that cannot resolve H
        op = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
        chan = LindbladChannel(operator=op, rate=khz(50.0))
        rho0 = projector(ket(2, 0))
        integrate_master(modulated(0.5 * SIGMA_X), [chan], rho0, 10.0,
                         0.05)
        with pytest.raises(StepTooLargeError, match=LOSS_MESSAGE):
            integrate_master(modulated(50.0 * SIGMA_X), [chan], rho0, 10.0,
                             0.05)

    @pytest.mark.parametrize("step", [0.2, 0.5])
    def test_overflowing_run_raises(self, step):
        op = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
        chan = LindbladChannel(operator=op, rate=khz(50.0))
        with pytest.raises(StepTooLargeError, match=LOSS_MESSAGE):
            integrate_master(modulated(50.0 * SIGMA_X), [chan], projector(ket(2, 0)),
                             10.0, step)

    def test_unresolved_level_that_is_never_occupied_passes(self):
        # step 0.05 cannot resolve level 2 at energy 10 (each raw map takes
        # 2.1e-4 of its weight), but the drive and the decay act on levels
        # 0 and 1 only, so no state reaches it and the run is not refused
        gen = ControlHamiltonian(np.diag([0.0, 0.0, 10.0]).astype(complex),
                                 np.pad(0.5 * SIGMA_X, (0, 1))[None],
                                 lambda t: np.ones((len(t), 1)))
        op = np.zeros((3, 3), dtype=complex)
        op[0, 1] = 1.0
        rho0 = projector(ket(3, 0))
        traj = integrate_master(gen, [LindbladChannel(op, khz(50.0))], rho0, 10.0,
                                0.05)
        assert np.trace(traj.states[-1][0]).real == pytest.approx(1.0, abs=1e-13)
        with pytest.raises(StepTooLargeError, match=LOSS_MESSAGE):
            integrate_master(gen, [LindbladChannel(op, khz(50.0))],
                             projector(ket(3, 2)), 10.0, 0.05)


@pytest.fixture(scope="module")
def full_qubit(pulses):
    chain = ScenarioConfig().chain_spec()
    return full_chain_model(chain, invert_bessel_drive(pulses, chain))


def full_maps(gen, first, last, dt):
    """_step_maps of steps first..last - 1 formed over the whole space."""
    return propagation._step_maps(gen, -1j * gen.h0, -1j * gen.ops.reshape(
        len(gen.ops), -1), first, last, dt)


def restricted(gen):
    """gen's control form on its support only."""
    rows, cols = np.ix_(gen.support, gen.support)
    return ControlHamiltonian(gen.h0[rows, cols], gen.ops[:, rows, cols], gen.coeffs)


def index(label):
    """The index of a product state of two-level sites, such as '110'."""
    return chain_labels(2).index(label)


class TestSupport:
    def test_supports_of_the_models(self, pulses, device, full_qubit, three_level):
        # single_excitation: the three one-excitation states only; the full
        # chain's counter-rotating terms reach every state
        supports = [ideal_model(pulses).hamiltonian.support, device.hamiltonian.support,
                    full_qubit.hamiltonian.support, three_level.hamiltonian.support,
                    modulated(np.zeros((2, 2))).support]
        for support, want in zip(supports, [[0, 1, 2], [1, 2, 4], np.arange(8),
                                            np.arange(27), []]):
            assert np.array_equal(support, want) and not support.flags.writeable
        assert [index(label) for label in ("001", "010", "100")] == [1, 2, 4]

    def test_support_maps_equal_restricted_formation(self, device):
        gen, dt = device.hamiltonian, device.default_step
        rows, cols = np.ix_(gen.support, gen.support)
        n = 3 * propagation._chunk(device.dim) // 2  # a full chunk and a short one
        chunks = list(propagation._raw_maps(gen, n, dt))
        assert [len(maps) for _, maps in chunks] == [96, 48]
        for first, maps in chunks:
            assert maps.shape[1:] == (3, 3)
            assert np.array_equal(maps, full_maps(restricted(gen), first,
                                                  first + len(maps), dt))
            # 3 x 3 products sum in another order than 8 x 8 ones
            whole = full_maps(gen, first, first + len(maps), dt)
            assert np.max(np.abs(maps - whole[:, rows, cols])) <= 1e-15
            for got, want in zip(propagation._unitary_maps(maps.copy()),
                                 propagation._unitary_maps(whole.copy())):
                assert np.max(np.abs(got - want[:, rows, cols])) <= 1e-15

    def test_maps_off_the_support_are_identity(self, device):
        gen, d = device.hamiltonian, device.dim
        outside = np.ones((d, d), dtype=bool)
        outside[np.ix_(gen.support, gen.support)] = False
        raw = full_maps(gen, 0, 96, device.default_step)
        projected, defects = propagation._unitary_maps(raw.copy())
        for maps in (raw, projected):
            assert np.all(maps[:, outside] == np.eye(d)[outside])
        assert np.all(defects[:, outside] == 0.0)
        assert np.any(defects[:, ~outside] != 0.0)

    def test_zero_hamiltonian_leaves_every_state_as_it_is(self):
        gen = modulated(np.zeros((2, 2)))
        (first, maps), = propagation._raw_maps(gen, 5, 0.1)
        assert first == 0 and maps.shape == (5, 0, 0)
        psi0 = np.array([[0.6, 0.8j], [1.0, 0.0]])
        rho0 = projector(psi0)
        pure = propagate_schrodinger(gen, psi0, 0.5, 0.1)
        mixed = integrate_master(gen, [], rho0, 0.5, 0.1)
        for traj, x in ((pure, psi0), (mixed, rho0)):
            assert np.array_equal(traj.states, np.broadcast_to(x, (2,) + x.shape))

    def test_block_across_parity_sectors_equals_single_calls(self, full_qubit):
        # |100> and |110> lie in different parity sectors of the full chain;
        # stepping each ket on the one support keeps them bit-identical to
        # their one-member runs
        block = np.eye(full_qubit.dim, dtype=complex)[[index("100"), index("110")]]
        run = lambda x: propagate_schrodinger(full_qubit.hamiltonian, x, 1.0, 0.005)
        together = run(block)
        for j in range(2):
            alone = run(block[j:j + 1])
            assert np.array_equal(together.states[:, j:j + 1], alone.states)

    def test_amplitudes_off_the_support_are_written_through(self, device):
        block = np.zeros((2, device.dim), dtype=complex)
        block[0, index("000")] = 1.0
        block[1, [index("011"), index("100")]] = 1.0 / np.sqrt(2.0)
        traj = propagate_schrodinger(device.hamiltonian, block, 10.0,
                                     device.default_step)
        off = np.setdiff1d(np.arange(device.dim), device.hamiltonian.support)
        assert np.array_equal(off, [0, 3, 5, 6, 7])
        assert len(traj.states) > 2
        assert np.array_equal(traj.states[:, :, off],
                              np.broadcast_to(block[:, off], (len(traj.states), 2, 5)))
        # the |100> half moves
        assert not np.array_equal(traj.states[-1, 1], block[1])


class TestBenchmarkInterface:
    def test_traced_worker_reads_these_parameters(self):
        # perfbench/worker.py rebinds both functions by name; its step
        # counter is to read these arguments of each call
        for name, params in (("integrate_master", {"rho0", "channels", "tau", "step"}),
                             ("propagate_schrodinger", {"psi0", "tau", "step"})):
            fn = getattr(propagation, name)
            assert params <= set(inspect.signature(fn).parameters)


class TestOracle:
    def test_zero_hamiltonian_gives_identity(self):
        u = evolution_operator_oracle(
            modulated(np.zeros((3, 3))), 1.0, 0.01
        )
        assert np.allclose(u, np.eye(3), atol=1e-12)

    def test_constant_hamiltonian_matches_expm(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (a + a.conj().T)
        u = evolution_operator_oracle(
            modulated(h), 2.0, 0.001
        )
        assert np.allclose(u, expm(-2.0j * h), atol=1e-9)

    # one step of a constant H is the exact exponential exp(-i H dt)

    def test_zero_hamiltonian_single_step(self):
        u = evolution_operator_oracle(
            modulated(np.zeros((2, 2))), 3.7, 3.7)
        assert np.allclose(u, np.eye(2), atol=1e-14)

    def test_diagonal_case(self):
        omega = 0.35
        u = evolution_operator_oracle(
            modulated(np.diag([0.0, omega])), 2.0, 2.0)
        assert np.allclose(
            u, np.diag([1.0, np.exp(-1j * omega * 2.0)]), atol=1e-14
        )

    def test_rabi_half_period(self):
        omega = 0.21
        dt = np.pi / omega
        u = evolution_operator_oracle(
            modulated(0.5 * omega * SIGMA_X), dt, dt)
        assert np.max(np.abs(u - (-1j) * SIGMA_X)) < 1e-10

    def test_random_single_steps_are_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            dt = rng.uniform(0.1, 10.0)
            u = evolution_operator_oracle(
                modulated(m + m.conj().T), dt, dt)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10

    def test_columns_match_state_propagation(self, pulses):
        model = ideal_model(pulses)
        u = evolution_operator_oracle(
            model.hamiltonian, TAU, 0.01)
        for col in range(3):
            traj = propagate_schrodinger(
                model.hamiltonian, ket(3, col), TAU,
                0.01,
            )
            assert np.linalg.norm(u[:, col] - traj.states[-1][0]) < 1e-7

    def test_unitarity(self, pulses):
        model = ideal_model(pulses)
        u = evolution_operator_oracle(
            model.hamiltonian, TAU, 0.01
        )
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10


class TestConvergence:
    def test_rk4_step_halving_is_fourth_order(self):
        h_t = modulated(0.5 * SIGMA_X, lambda t: np.cos(0.7 * t))
        psi0 = ket(2, 0)
        ref = propagate_schrodinger(h_t, psi0, 4.0, 0.0005).states[-1][0]
        errs = []
        for step in (0.08, 0.04):
            out = propagate_schrodinger(h_t, psi0, 4.0, step).states[-1][0]
            errs.append(np.linalg.norm(out - ref))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0


class TestGlobalPhaseDistance:
    def test_phase_rotation_is_ignored(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(a)
        dist, phi = global_phase_distance(q, np.exp(-0.7j) * q)
        assert dist < 1e-12
        assert phi == pytest.approx(0.7, abs=1e-12)

    def test_distinct_unitaries_have_positive_distance(self):
        u1 = np.eye(2, dtype=complex)
        u2 = SIGMA_X.astype(complex)
        dist, _ = global_phase_distance(u1, u2)
        assert dist > 1.0
