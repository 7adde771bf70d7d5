"""Scenario configuration: flat key-value text with one section per
transmon, unit suffixes baked into the key names.  One table maps each
(section, key) of the text to a ScenarioConfig field; a section, key or
value that it cannot read is refused by name."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

from .devices import ChainSpec
from .units import ghz, khz, mhz

MODELS = ("ideal", "single_excitation", "full_qubit", "full_three_level")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation/design scenario; defaults are the reference
    transmon-chain parameter set."""

    model: str = "single_excitation"
    tau_ns: float = 145.0
    lambda_: float | None = 0.4974
    target_phase_rad: float | None = None
    noise: bool = True
    step_ns: float | None = None
    g_a_mhz: float = 10.0
    g_b_mhz: float = 10.0
    delta_mhz: float = 345.0
    nu_mhz: float = 345.0
    omega_m_ghz: float = 5.0
    alpha_a_mhz: float = 220.0
    alpha_m_mhz: float = 210.0
    alpha_b_mhz: float = 230.0
    gamma_a_khz: float = 3.0
    gamma_m_khz: float = 4.0
    gamma_b_khz: float = 5.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if (self.lambda_ is None) == (self.target_phase_rad is None):
            raise ValueError(
                "exactly one of lambda / target_phase_rad must be present"
            )
        if not (math.isfinite(self.tau_ns) and self.tau_ns > 0):
            raise ValueError(f"tau_ns must be finite and > 0, got {self.tau_ns}")
        if self.step_ns is not None and not (math.isfinite(self.step_ns)
                                             and self.step_ns > 0):
            raise ValueError(f"step_ns must be finite and > 0, got {self.step_ns}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("g_a_mhz", "g_b_mhz", "omega_m_ghz",
                     "alpha_a_mhz", "alpha_m_mhz", "alpha_b_mhz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        omega_ab_ghz = self.omega_m_ghz + self.delta_mhz / 1000.0  # transmons A, B
        if omega_ab_ghz <= 0:
            raise ValueError("omega_m_ghz + delta_mhz / 1000 must be > 0, "
                             f"got {omega_ab_ghz}")
        omega_m = ghz(self.omega_m_ghz)
        for name, omega in (("omega_m_ghz", omega_m),
                            ("omega_m_ghz + delta_mhz / 1000", omega_m + mhz(self.delta_mhz))):
            if not math.isfinite(omega):
                raise ValueError(f"{name} must be finite in rad/ns, got {omega}")
        for name in ("gamma_a_khz", "gamma_m_khz", "gamma_b_khz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def chain_spec(self) -> ChainSpec:
        omega_m = ghz(self.omega_m_ghz)
        omega_ab = omega_m + mhz(self.delta_mhz)
        return ChainSpec(
            omega=(omega_ab, omega_m, omega_ab),
            alpha=(mhz(self.alpha_a_mhz), mhz(self.alpha_m_mhz), mhz(self.alpha_b_mhz)),
            gamma=(khz(self.gamma_a_khz), khz(self.gamma_m_khz), khz(self.gamma_b_khz)),
            g_a=mhz(self.g_a_mhz), g_b=mhz(self.g_b_mhz), nu=mhz(self.nu_mhz),
            d=3 if self.model == "full_three_level" else 2)


# (section, key) -> (ScenarioConfig field, SectionProxy getter): the only
# keys a scenario file takes
_KEYS = {
    ("scenario", "model"): ("model", "get"),
    ("scenario", "tau_ns"): ("tau_ns", "getfloat"),
    ("scenario", "lambda"): ("lambda_", "getfloat"),
    ("scenario", "target_phase_rad"): ("target_phase_rad", "getfloat"),
    ("scenario", "noise"): ("noise", "getboolean"),
    ("scenario", "step_ns"): ("step_ns", "getfloat"),
    **{("coupling", key): (key, "getfloat")
       for key in ("g_a_mhz", "g_b_mhz", "delta_mhz", "nu_mhz", "omega_m_ghz")},
    **{(f"transmon_{s}", f"{q}_{unit}"): (f"{q}_{s}_{unit}", "getfloat")
       for s in "amb" for q, unit in (("alpha", "mhz"), ("gamma", "khz"))},
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _KEYS))


def parse_config(text: str, source: str = "<string>") -> ScenarioConfig:
    """The scenario of an INI text: the defaults, overridden by each key
    it sets.  Raises ValueError, naming the section and key, for an
    unknown section or key (one under [DEFAULT] included), a value that
    does not parse, and configparser's own errors (a duplicate key or
    section, a key before any section header)."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from None  # names the source
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"[{section}]: unknown section; the sections are "
                             + ", ".join(f"[{s}]" for s in _SECTIONS))
    given = [("DEFAULT", key) for key in parser.defaults()]
    given += [(section, key) for section in parser.sections() for key in parser[section]]
    kwargs = {}
    for section, key in given:
        if (section, key) not in _KEYS:
            known = [k for s, k in _KEYS if s == section]
            raise ValueError(f"[{section}] {key}: unknown key; [{section}] takes "
                             + (", ".join(known) or "no keys"))
        field, getter = _KEYS[section, key]
        try:
            kwargs[field] = getattr(parser[section], getter)(key)
        except (ValueError, configparser.Error) as exc:
            raise ValueError(f"[{section}] {key}: {exc}") from None
    return with_overrides(ScenarioConfig(), **kwargs)


def load_config(path) -> ScenarioConfig:
    """The scenario of an INI file, UTF-8 with or without a byte-order
    mark.  A file that cannot be opened raises OSError, one that is not
    UTF-8 ValueError; each names the path."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return parse_config(text, str(path))


def with_overrides(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """replace() that keeps the lambda/target_phase exclusivity intact:
    setting one of the two clears the other."""
    if "target_phase_rad" in overrides and overrides["target_phase_rad"] is not None:
        overrides.setdefault("lambda_", None)
    if "lambda_" in overrides and overrides["lambda_"] is not None:
        overrides.setdefault("target_phase_rad", None)
    return replace(cfg, **overrides)


THETA_CIRCULATOR = 1.5 * math.pi
