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
principal branch of the Bessel function J1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .invariant import PulsePair, bisect_increasing
from .reporting import write_csv
from .statespace import ControlHamiltonian, _freeze

# location and value of the first maximum of J1
J1_PEAK_X = 1.8411837813406593
J1_PEAK = 0.5818652242815964

# relative slack above J1_PEAK tolerated before a drive is declared
# unattainable; requested ratios inside the slack clamp to the peak
BESSEL_CLAMP_RTOL = 5e-4


class UnattainableDriveError(ValueError):
    """Requested effective coupling exceeds the J1 maximum."""

    def __init__(self, message: str, worst_time: float, worst_ratio: float):
        super().__init__(message)
        self.worst_time = worst_time
        self.worst_ratio = worst_ratio


@dataclass(frozen=True)
class TransmonSpec:
    """Single-transmon parameters, angular frequencies in rad/ns."""

    omega: float
    alpha: float
    gamma_decoherence: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("anharmonicity must be > 0")
        if self.gamma_decoherence < 0:
            raise ValueError("decoherence rate must be >= 0")


@dataclass(frozen=True)
class ChainSpec:
    """Three coupled transmons, ordered (A, M, B), with drive frequencies
    and level truncation."""

    transmons: tuple[TransmonSpec, TransmonSpec, TransmonSpec]
    g_a: float
    g_b: float
    nu_a: float
    nu_b: float
    d: int = 2

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("level truncation d must be 2 or 3")
        for name in ("g_a", "g_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def omega_a(self) -> float:
        return self.transmons[0].omega

    @property
    def omega_m(self) -> float:
        return self.transmons[1].omega

    @property
    def omega_b(self) -> float:
        return self.transmons[2].omega

    @property
    def delta_a(self) -> float:
        return self.omega_a - self.omega_m

    @property
    def delta_b(self) -> float:
        return self.omega_b - self.omega_m

    def require_resonant(self):
        if abs(self.delta_a - self.nu_a) > 1e-9 or abs(self.delta_b - self.nu_b) > 1e-9:
            raise ValueError(
                "resonance condition delta_j = nu_j not satisfied by this chain"
            )


def bessel_j1(x):
    """Bessel function of the first kind, order one."""
    return special.j1(x)


def invert_bessel_j1(y):
    """Principal-branch inverse of J1 on [0, J1_PEAK_X], elementwise for
    an array (a float for a scalar): bisection, on which 0 and J1_PEAK
    map to 0 and J1_PEAK_X exactly."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or np.any(y > J1_PEAK):
        raise ValueError(f"J1 values span [{y.min()}, {y.max()}], outside the "
                         f"principal range [0, {J1_PEAK}]")
    eta = np.where(y == J1_PEAK, J1_PEAK_X,
                   bisect_increasing(bessel_j1, y, 0.0, J1_PEAK_X))
    return float(eta) if eta.ndim == 0 else eta


@dataclass(frozen=True)
class DriveWaveform:
    """Dimensionless frequency-drive envelopes eta_j(t) on a time grid.

    The instantaneous drive phase is F_j(t) = eta_j(t) * sin(nu_j * t).
    """

    times: np.ndarray
    eta_a: np.ndarray
    eta_b: np.ndarray
    nu_a: float
    nu_b: float

    def __post_init__(self):
        for name in ("times", "eta_a", "eta_b"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for arr in (self.eta_a, self.eta_b):
            if arr.min() < 0 or arr.max() > J1_PEAK_X + 1e-12:
                raise ValueError("envelopes must stay in [0, 1.8412]")
            if abs(arr[0]) > 1e-12 or abs(arr[-1]) > 1e-12:
                raise ValueError("envelopes must vanish at t = 0 and t = tau")

    def f_a(self, t):
        return np.interp(t, self.times, self.eta_a) * np.sin(self.nu_a * t)

    def f_b(self, t):
        return np.interp(t, self.times, self.eta_b) * np.sin(self.nu_b * t)

    @staticmethod
    def zero(tau: float, nu_a: float, nu_b: float) -> "DriveWaveform":
        times = np.array([0.0, tau])
        z = np.zeros(2)
        return DriveWaveform(times, z, z, nu_a, nu_b)

    def write_csv(self, path):
        write_csv(
            path,
            ["t_ns", "eta_a", "eta_b"],
            zip(self.times, self.eta_a, self.eta_b),
        )


def invert_bessel_drive(pulses: PulsePair, chain: ChainSpec) -> DriveWaveform:
    """Solve 2 g_j J1(eta_j(t)) = g'_j(t) for every sample at once: one
    invert_bessel_j1 bisection per track.

    Ratios above the J1 maximum by more than BESSEL_CLAMP_RTOL raise
    UnattainableDriveError naming the worst time point; ratios inside
    the slack clamp to the peak argument.
    """

    def invert_track(samples: np.ndarray, g: float, name: str) -> np.ndarray:
        ratios = np.abs(samples) / (2.0 * g)
        worst = int(np.argmax(ratios))
        if ratios[worst] > J1_PEAK * (1.0 + BESSEL_CLAMP_RTOL):
            raise UnattainableDriveError(
                f"effective coupling g'_{name} requires J1 = {ratios[worst]:.6f} "
                f"> {J1_PEAK:.6f} at t = {pulses.times[worst]:.4f} ns",
                worst_time=float(pulses.times[worst]),
                worst_ratio=float(ratios[worst]),
            )
        eta = invert_bessel_j1(np.minimum(ratios, J1_PEAK))
        eta[[0, -1]] = 0.0
        return eta

    eta_a = invert_track(pulses.g_a, chain.g_a, "A")
    eta_b = invert_track(pulses.g_b, chain.g_b, "B")
    return DriveWaveform(pulses.times, eta_a, eta_b, chain.nu_a, chain.nu_b)


SINGLE_EXCITATION_LABELS = ("100", "010", "001")


def _single_excitation_control(chain: ChainSpec, drives: DriveWaveform):
    """Phase-modulated static couplings g_j exp(i(delta_j t - F_j(t)))
    of |100> and |001> to |010>, with their conjugates, acting on the
    qubit product space."""
    i100, i010, i001 = single_excitation_indices(2)

    def coeffs(t):
        c_a = chain.g_a * np.exp(1j * (chain.delta_a * t - drives.f_a(t)))
        c_b = chain.g_b * np.exp(1j * (chain.delta_b * t - drives.f_b(t)))
        return np.stack([c_a, c_a.conj(), c_b, c_b.conj()], axis=-1)

    ops = np.zeros((4, 8, 8))
    for j, (r, c) in enumerate([(i100, i010), (i010, i100), (i001, i010), (i010, i001)]):
        ops[j, r, c] = 1.0
    return ControlHamiltonian(np.zeros((8, 8)), ops, coeffs)


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
    shift -alpha_k on level 2 of each transmon is the drift."""
    d = chain.d
    eye = np.eye(d)
    ladder = (_lowering(d), _lowering(d).T)
    pairs = [(s, r) for s in (0, 1) for r in (0, 1)]
    ops = [_kron3(ladder[s], ladder[r], eye) for s, r in pairs]
    ops += [_kron3(eye, ladder[r], ladder[s]) for s, r in pairs]
    alphas = [spec.alpha for spec in chain.transmons]
    h0 = -np.diag([sum(a for a, n in zip(alphas, label) if n == "2")
                   for label in chain_labels(d)])

    def coeffs(t):
        e_a = np.exp(1j * (-chain.omega_a * t + drives.f_a(t)))
        e_b = np.exp(1j * (-chain.omega_b * t + drives.f_b(t)))
        e_m = np.exp(-1j * chain.omega_m * t)
        a, m, b = (e_a, e_a.conj()), (e_m, e_m.conj()), (e_b, e_b.conj())
        cols = [chain.g_a * a[s] * m[r] for s, r in pairs]
        cols += [chain.g_b * b[s] * m[r] for s, r in pairs]
        return np.stack(cols, axis=-1)

    return ControlHamiltonian(h0, np.array(ops), coeffs)


@dataclass(frozen=True)
class LindbladChannel:
    """A collapse operator O, stored as a read-only complex (d, d) array,
    and its rate."""

    operator: np.ndarray
    rate: float

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
    """One combined decay-plus-dephasing channel per transmon on d levels
    per site, embedded by identity on the other factors, with the
    transmon's rate."""
    site_op = _single_site_collapse(d)
    eye = np.eye(d, dtype=complex)
    channels = []
    for k, spec in enumerate(chain.transmons):
        mats = [eye, eye, eye]
        mats[k] = site_op
        channels.append(LindbladChannel(_kron3(*mats), spec.gamma_decoherence))
    return channels


@dataclass(frozen=True)
class SimulationModel:
    """A propagatable model: control-form Hamiltonian, collapse channels
    and the location of the logical circulator states in its basis."""

    name: str
    hamiltonian: ControlHamiltonian
    channels: tuple[LindbladChannel, ...]
    logical_indices: tuple[int, int, int]
    default_step: float
    tau: float

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def logical_index(self, label: str) -> int:
        try:
            return self.logical_indices[SINGLE_EXCITATION_LABELS.index(label)]
        except ValueError:
            raise ValueError(
                f"unknown logical label {label!r}; "
                f"expected one of {SINGLE_EXCITATION_LABELS}"
            ) from None


IDEAL_STEP = 0.05
DEVICE_STEP = 0.005


def ideal_model(pulses: PulsePair) -> SimulationModel:
    """Closed-system ideal three-level model driven by the pulse pair."""
    return SimulationModel(
        name="ideal",
        hamiltonian=pulses.hamiltonian(),
        channels=(),
        logical_indices=(0, 1, 2),
        default_step=IDEAL_STEP,
        tau=pulses.tau,
    )


def _chain_model(name: str, chain: ChainSpec, drives: DriveWaveform,
                 hamiltonian: ControlHamiltonian, d: int) -> SimulationModel:
    return SimulationModel(
        name=name,
        hamiltonian=hamiltonian,
        channels=tuple(lindblad_channels(chain, d)),
        logical_indices=single_excitation_indices(d),
        default_step=DEVICE_STEP,
        tau=float(drives.times[-1]),
    )


def single_excitation_model(
    chain: ChainSpec, drives: DriveWaveform
) -> SimulationModel:
    """Single-excitation chain Hamiltonian on the qubit product space,
    so that the per-transmon collapse channels act exactly."""
    chain.require_resonant()
    return _chain_model("single_excitation", chain, drives,
                        _single_excitation_control(chain, drives), 2)


def full_chain_model(chain: ChainSpec, drives: DriveWaveform) -> SimulationModel:
    """Full coupled-chain model, counter-rotating terms included, at the
    chain's level truncation."""
    name = "full_qubit" if chain.d == 2 else "full_three_level"
    return _chain_model(name, chain, drives,
                        _full_chain_control(chain, drives), chain.d)
