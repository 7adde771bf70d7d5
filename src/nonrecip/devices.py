"""Concrete Hamiltonians of the transmon-chain circulator.

Three models share the same designed pulses:

* the ideal three-level model, driven directly by the effective
  couplings;
* the single-excitation model, where static couplings are modulated by
  frequency-drive phase factors and the effective couplings emerge from
  the first Jacobi-Anger harmonic;
* the full coupled-chain model, including counter-rotating terms and,
  optionally, the second excited level of each transmon.

Drive envelopes are obtained by inverting g'(t) = 2 g J1(eta(t)) on the
principal branch of the Bessel function J1, evaluated by its ascending
power series, and its odd reflection J1(-eta) = -J1(eta) for g' < 0.

Every model's default step comes from one rule (_model), on the pulse-
sample grid, from a bound on the rate of its fastest coefficient phase
that its control builder takes from the carriers and drives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .invariant import PulsePair
from .reporting import write_csv
from .statespace import ControlHamiltonian, _freeze

# location and value of the first maximum of J1
J1_PEAK_X = 1.8411837813406593
J1_PEAK = 0.5818652242815964

# relative slack above J1_PEAK tolerated before a drive is declared
# unattainable; requested ratios inside the slack clamp to the peak
BESSEL_CLAMP_RTOL = 5e-4

# (-1)^k / (k! (k+1)!) for k = 0..14: the ascending series of J1 in
# q = (x/2)^2.  The first term left out is below 3e-27 on [0, J1_PEAK_X].
_J1_SERIES = tuple((-1) ** k / (math.factorial(k) * math.factorial(k + 1))
                   for k in range(15))
# (-1)^k / (k!)^2 for k = 0..15: the ascending series of J0 in q (DLMF
# 10.2.2); the first term left out is below 2e-27 on [0, J1_PEAK_X]
_J0_SERIES = tuple((-1) ** k / math.factorial(k) ** 2 for k in range(16))

# the fewest steps per period of the fastest coefficient phase that a
# model's default step gives
STEPS_PER_PERIOD = 20


class UnattainableDriveError(ValueError):
    """Requested effective coupling exceeds the J1 maximum."""

    def __init__(self, message: str, worst_time: float, worst_ratio: float):
        super().__init__(message)
        self.worst_time = worst_time
        self.worst_ratio = worst_ratio


@dataclass(frozen=True)
class ChainSpec:
    """Three coupled transmons A-M-B in rad/ns: the frequencies omega,
    anharmonicities alpha and decoherence rates gamma as (A, M, B)
    triples, the static couplings g_a (A-M) and g_b (M-B), the frequency
    nu of both drives, and the level truncation d."""

    omega: tuple[float, float, float]
    alpha: tuple[float, float, float]
    gamma: tuple[float, float, float]
    g_a: float
    g_b: float
    nu: float
    d: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("level truncation d must be 2 or 3")
        for name in ("omega", "alpha", "gamma", "nu"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("g_a", "g_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if min(self.alpha) <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if min(self.gamma) < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def _series(coefficients, q):
    """sum_k coefficients[k] q^k by Horner's rule, elementwise."""
    acc = np.full(q.shape, coefficients[-1])
    for c in coefficients[-2::-1]:
        acc *= q
        acc += c
    return acc


def bessel_j1(x):
    """Bessel function of the first kind, order one, elementwise (a numpy
    scalar for a scalar), by its ascending series J1(x) = h sum_k (-1)^k
    q^k / (k! (k+1)!) with h = x/2 and q = h^2 (DLMF 10.2.2), summed by
    Horner's rule over k = 0..14.  Within 6.2e-16 relative of
    scipy.special.j1 on the principal branch [0, J1_PEAK_X] and 5e-16
    absolute on [0, 3.5]; beyond, cancellation and truncation grow (the
    error is 1.6e-4 at x = 10)."""
    h = 0.5 * np.asarray(x, dtype=float)
    return h * _series(_J1_SERIES, h * h)


# 129 equally spaced points of J1's principal branch, against
# s = sqrt(J1_PEAK - J1), increasing: the inverse is smooth in s up to the
# peak, where it is J1_PEAK_X - s / sqrt(-J1''(J1_PEAK_X) / 2) + O(s^2)
_J1_TABLE_X = np.linspace(J1_PEAK_X, 0.0, 129)
_J1_TABLE_S = np.sqrt(np.maximum(J1_PEAK - bessel_j1(_J1_TABLE_X), 0.0))


@np.errstate(divide="ignore", invalid="ignore")  # J1' = 0 only at y = J1_PEAK
def invert_bessel_j1(y):
    """Principal-branch inverse of J1 on [0, J1_PEAK_X], elementwise: six
    Newton steps x <- x - (J1(x) - y) / J1'(x), with J1' = J0 - J1/x
    (DLMF 10.6.2) and J1/x = J1's series over 2, from linear interpolation
    in a 129-point table of the inverse against sqrt(J1_PEAK - y).  Three
    steps reach a relative residual below 1e-15 for every y, up to one
    rounding unit below the peak; the count is fixed because J1' vanishes
    at the peak, where a step-size stop test is never met.  0 and J1_PEAK
    map to 0 and J1_PEAK_X exactly."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or np.any(y > J1_PEAK):
        raise ValueError(f"J1 values lie in [{y.min()}, {y.max()}], outside the "
                         f"principal range [0, {J1_PEAK}]")
    x = np.interp(np.sqrt(J1_PEAK - y), _J1_TABLE_S, _J1_TABLE_X)
    for _ in range(6):
        h = 0.5 * x
        q = h * h
        j1_over_h = _series(_J1_SERIES, q)
        x = x - (h * j1_over_h - y) / (_series(_J0_SERIES, q) - 0.5 * j1_over_h)
    return np.where(y == J1_PEAK, J1_PEAK_X, x)


@dataclass(frozen=True, eq=False)
class DriveWaveform:
    """Dimensionless frequency-drive envelopes eta_j(t) on a time grid,
    signed as the effective couplings they drive, with |eta_j| at most
    J1_PEAK_X.

    The instantaneous drive phase is F_j(t) = eta_j(t) * sin(nu * t).
    """

    times: np.ndarray
    eta_a: np.ndarray
    eta_b: np.ndarray
    nu: float

    def __post_init__(self):
        for name in ("times", "eta_a", "eta_b"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for arr in (self.eta_a, self.eta_b):
            if not np.max(np.abs(arr)) <= J1_PEAK_X + 1e-12:  # NaN fails
                raise ValueError("envelopes must be finite and stay in "
                                 "[-1.8412, 1.8412]")
            if abs(arr[0]) > 1e-12 or abs(arr[-1]) > 1e-12:
                raise ValueError("envelopes must vanish at t = 0 and t = tau")

    def f_a(self, t):
        return np.interp(t, self.times, self.eta_a) * np.sin(self.nu * t)

    def f_b(self, t):
        return np.interp(t, self.times, self.eta_b) * np.sin(self.nu * t)

    def phase_rates(self) -> tuple[float, float]:
        """Bounds on |dF_a/dt| and |dF_b/dt|: nu max |eta_j| plus the
        steepest slope of the interpolated eta_j."""
        dt = np.diff(self.times)
        return tuple(self.nu * float(np.abs(eta).max())
                     + float(np.max(np.abs(np.diff(eta)) / dt))
                     for eta in (self.eta_a, self.eta_b))

    def write_csv(self, path):
        write_csv(path, {"t_ns": self.times, "eta_a": self.eta_a, "eta_b": self.eta_b})


def invert_bessel_drive(pulses: PulsePair, chain: ChainSpec) -> DriveWaveform:
    """Solve 2 g_j J1(eta_j(t)) = g'_j(t) for every sample of both tracks
    at once: one invert_bessel_j1 call on the stacked (2, n) ratios
    |g'_j| / 2 g_j, and eta_j negated where g'_j < 0, as J1(-eta) =
    -J1(eta).

    Ratios above the J1 maximum by more than BESSEL_CLAMP_RTOL raise
    UnattainableDriveError naming the worst time point, track A checked
    first; ratios inside the slack clamp to the peak argument.
    """
    signed = np.stack([pulses.g_a, pulses.g_b])
    ratios = np.abs(signed) / (2.0 * np.array([[chain.g_a], [chain.g_b]]))
    for name, track in zip("AB", ratios):
        worst = int(np.argmax(track))
        if track[worst] > J1_PEAK * (1.0 + BESSEL_CLAMP_RTOL):
            raise UnattainableDriveError(
                f"effective coupling g'_{name} requires J1 = {track[worst]:.6f} "
                f"> {J1_PEAK:.6f} at t = {pulses.times[worst]:.4f} ns",
                worst_time=float(pulses.times[worst]),
                worst_ratio=float(track[worst]),
            )
    eta = invert_bessel_j1(np.minimum(ratios, J1_PEAK))
    eta = np.where(signed < 0, -eta, eta)
    eta[:, [0, -1]] = 0.0
    return DriveWaveform(pulses.times, eta[0], eta[1], chain.nu)


SINGLE_EXCITATION_LABELS = ("100", "010", "001")


def _single_excitation_control(chain: ChainSpec, drives: DriveWaveform):
    """Phase-modulated static couplings g_j exp(i(delta_j t - F_j(t)))
    of |100> and |001> to |010>, with their conjugates, acting on the
    qubit product space, and a bound on the rate of their phases.  The
    drives must be resonant, delta_j = nu to 1e-9 plus delta_j's rounding."""
    omega_a, omega_m, omega_b = chain.omega
    delta_a, delta_b = omega_a - omega_m, omega_b - omega_m
    tol = 1e-9 + 2.0 * float(np.spacing(max(map(abs, chain.omega))))
    if abs(delta_a - chain.nu) > tol or abs(delta_b - chain.nu) > tol:
        raise ValueError("resonance condition delta_j = nu_j not satisfied by this chain")
    i100, i010, i001 = single_excitation_indices(2)

    def coeffs(t):
        c_a = chain.g_a * np.exp(1j * (delta_a * t - drives.f_a(t)))
        c_b = chain.g_b * np.exp(1j * (delta_b * t - drives.f_b(t)))
        return np.stack([c_a, c_a.conj(), c_b, c_b.conj()], axis=-1)

    ops = np.zeros((4, 8, 8))
    for j, (r, c) in enumerate([(i100, i010), (i010, i100), (i001, i010), (i010, i001)]):
        ops[j, r, c] = 1.0
    rate = max(abs(delta) + f for delta, f in zip((delta_a, delta_b),
                                                  drives.phase_rates()))
    return ControlHamiltonian(np.zeros((8, 8)), ops, coeffs), rate


def chain_labels(d: int) -> list[str]:
    """Occupation digits (A, M, B) of each product state, a-major."""
    return [f"{a}{m}{b}" for a in range(d) for m in range(d) for b in range(d)]


def single_excitation_indices(d: int) -> tuple[int, int, int]:
    """Indices of |100>, |010>, |001> in the a-major product ordering."""
    return (d * d, d, 1)


def _lowering(d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = math.sqrt(n)
    return a


def _kron3(a, m, b) -> np.ndarray:
    return np.kron(np.kron(a, m), b)


def _full_chain_control(chain: ChainSpec, drives: DriveWaveform):
    """g_a x_a(t) (x) x_m(t) (x) 1 + g_b 1 (x) x_m(t) (x) x_b(t) with
    x_k = a exp(i phi_k) + h.c., phi_a = -omega_a t + F_a(t),
    phi_m = -omega_m t, phi_b = -omega_b t + F_b(t): each product
    expands into four carrier-phase terms.  For d = 3 the anharmonic
    shift -alpha_k on level 2 of each transmon is the drift.  Also
    returns a bound on the rate of the terms' phases."""
    d = chain.d
    omega_a, omega_m, omega_b = chain.omega
    eye = np.eye(d)
    ladder = (_lowering(d), _lowering(d).T)
    pairs = [(s, r) for s in (0, 1) for r in (0, 1)]
    ops = [_kron3(ladder[s], ladder[r], eye) for s, r in pairs]
    ops += [_kron3(eye, ladder[r], ladder[s]) for s, r in pairs]
    h0 = -np.diag([sum(a for a, n in zip(chain.alpha, label) if n == "2")
                   for label in chain_labels(d)])

    def coeffs(t):
        e_a = np.exp(1j * (-omega_a * t + drives.f_a(t)))
        e_b = np.exp(1j * (-omega_b * t + drives.f_b(t)))
        e_m = np.exp(-1j * omega_m * t)
        a, m, b = (e_a, e_a.conj()), (e_m, e_m.conj()), (e_b, e_b.conj())
        cols = [chain.g_a * a[s] * m[r] for s, r in pairs]
        cols += [chain.g_b * b[s] * m[r] for s, r in pairs]
        return np.stack(cols, axis=-1)

    rate = max(abs(omega) + abs(omega_m) + f
               for omega, f in zip((omega_a, omega_b), drives.phase_rates()))
    return ControlHamiltonian(h0, np.array(ops), coeffs), rate


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """A collapse operator O on one site of a product space, stored as a
    read-only complex (d_s, d_s) array, its rate and the index of its
    site (0 for a space that is one site).  Sites are ordered as their
    factors in the product, the first the most significant."""

    operator: np.ndarray
    rate: float
    site: int = 0

    def __post_init__(self):
        object.__setattr__(self, "operator", _freeze(self.operator))


def _single_site_collapse(d: int) -> np.ndarray:
    """|0><1| + |0><0| - |1><1| on the {|0>, |1>} sub-block; for d = 3 the
    operator annihilates |2> components."""
    o = np.zeros((d, d), dtype=complex)
    o[0, 1] = 1.0
    o[0, 0] = 1.0
    o[1, 1] = -1.0
    return o


def lindblad_channels(chain: ChainSpec, d: int) -> list[LindbladChannel]:
    """One combined decay-plus-dephasing channel per transmon, on the d
    levels of its own site (A, M, B are sites 0, 1, 2), with the
    transmon's rate."""
    return [LindbladChannel(_single_site_collapse(d), gamma, k)
            for k, gamma in enumerate(chain.gamma)]


@dataclass(frozen=True, eq=False)
class SimulationModel:
    """A propagatable model: control-form Hamiltonian, collapse channels,
    the location of the logical circulator states in its basis, its
    default step (ns, see _model) and phase_rate, the bound (rad/ns) on
    the rate of its fastest coefficient phase that set it."""

    name: str
    hamiltonian: ControlHamiltonian
    channels: tuple[LindbladChannel, ...]
    logical_indices: tuple[int, int, int]
    default_step: float
    tau: float
    phase_rate: float

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def is_open(self, noise: bool) -> bool:
        """Whether a run with noise requested propagates rho under the
        model's channels: only when the model has some."""
        return noise and bool(self.channels)

    def logical_index(self, label: str) -> int:
        try:
            return self.logical_indices[SINGLE_EXCITATION_LABELS.index(label)]
        except ValueError:
            raise ValueError(
                f"unknown logical label {label!r}; "
                f"expected one of {SINGLE_EXCITATION_LABELS}"
            ) from None


def _model(name: str, control: tuple[ControlHamiltonian, float], channels,
           logical_indices, times: np.ndarray) -> SimulationModel:
    """The model of a control builder's (Hamiltonian, phase rate) whose
    coefficients are sampled at times.  Its default step divides each
    sample interval into the fewest m parts that keep the rate times the
    step at most 2 pi / STEPS_PER_PERIOD, so that every m-th step ends on
    a sample, at a kink of the interpolated coefficients (m = 1 for the
    ideal model, whose real couplings have rate 0); a rate that m
    cannot count raises ValueError."""
    hamiltonian, rate = control
    tau, intervals = float(times[-1]), len(times) - 1
    parts = rate * tau * STEPS_PER_PERIOD / (2.0 * math.pi * intervals)
    if not math.isfinite(parts):
        raise ValueError(f"phase rate {rate} rad/ns needs {parts} steps per sample")
    m = max(1, math.ceil(parts))
    return SimulationModel(name, hamiltonian, tuple(channels), logical_indices,
                           default_step=tau / (intervals * m), tau=tau,
                           phase_rate=rate)


def ideal_model(pulses: PulsePair) -> SimulationModel:
    """Closed-system ideal three-level model driven by the pulse pair."""
    return _model("ideal", (pulses.hamiltonian(), 0.0), (), (0, 1, 2), pulses.times)


def _chain_model(name: str, chain: ChainSpec, drives: DriveWaveform,
                 control: tuple[ControlHamiltonian, float], d: int) -> SimulationModel:
    return _model(name, control, lindblad_channels(chain, d),
                  single_excitation_indices(d), drives.times)


def single_excitation_model(
    chain: ChainSpec, drives: DriveWaveform
) -> SimulationModel:
    """Single-excitation chain Hamiltonian on the qubit product space,
    so that the per-transmon collapse channels act exactly."""
    return _chain_model("single_excitation", chain, drives,
                        _single_excitation_control(chain, drives), 2)


def full_chain_model(chain: ChainSpec, drives: DriveWaveform) -> SimulationModel:
    """Full coupled-chain model, counter-rotating terms included, at the
    chain's level truncation."""
    name = "full_qubit" if chain.d == 2 else "full_three_level"
    return _chain_model(name, chain, drives,
                        _full_chain_control(chain, drives), chain.d)
