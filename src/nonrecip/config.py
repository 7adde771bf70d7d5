"""Scenario configuration: flat key-value text with one section per
transmon, unit suffixes baked into the key names."""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields, replace

from .devices import ChainSpec, TransmonSpec
from .reporting import fmt
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
    n_samples: int = 2001
    record_stride: int = 50
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
        for name in ("g_a_mhz", "g_b_mhz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    def chain_spec(self) -> ChainSpec:
        d = 3 if self.model == "full_three_level" else 2
        omega_m = ghz(self.omega_m_ghz)
        delta = mhz(self.delta_mhz)
        transmons = (
            TransmonSpec(omega_m + delta, mhz(self.alpha_a_mhz), khz(self.gamma_a_khz)),
            TransmonSpec(omega_m, mhz(self.alpha_m_mhz), khz(self.gamma_m_khz)),
            TransmonSpec(omega_m + delta, mhz(self.alpha_b_mhz), khz(self.gamma_b_khz)),
        )
        nu = mhz(self.nu_mhz)
        return ChainSpec(transmons, mhz(self.g_a_mhz), mhz(self.g_b_mhz),
                         nu, nu, d)


_SCENARIO_KEYS = (
    ("model", str),
    ("tau_ns", float),
    ("lambda", float),
    ("target_phase_rad", float),
    ("noise", bool),
    ("step_ns", float),
    ("n_samples", int),
    ("record_stride", int),
)


_COUPLING_KEYS = ("g_a_mhz", "g_b_mhz", "delta_mhz", "nu_mhz", "omega_m_ghz")
_TRANSMON_SECTIONS = ("transmon_a", "transmon_m", "transmon_b")


def _field(key: str) -> str:
    """ScenarioConfig field name of a [scenario] key."""
    return "lambda_" if key == "lambda" else key


def parse_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    kwargs: dict = {}
    if parser.has_section("scenario"):
        sec = parser["scenario"]
        getters = {bool: sec.getboolean, float: sec.getfloat, int: sec.getint,
                   str: sec.get}
        for key, typ in _SCENARIO_KEYS:
            if key in sec:
                kwargs[_field(key)] = getters[typ](key)
    if "target_phase_rad" in kwargs and "lambda_" not in kwargs:
        kwargs.setdefault("lambda_", None)
    if parser.has_section("coupling"):
        for key in _COUPLING_KEYS:
            if key in parser["coupling"]:
                kwargs[key] = parser["coupling"].getfloat(key)
    for section, suffix in zip(_TRANSMON_SECTIONS, ("a", "m", "b")):
        if parser.has_section(section):
            sec = parser[section]
            if "alpha_mhz" in sec:
                kwargs[f"alpha_{suffix}_mhz"] = sec.getfloat("alpha_mhz")
            if "gamma_khz" in sec:
                kwargs[f"gamma_{suffix}_khz"] = sec.getfloat("gamma_khz")
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ScenarioConfig) -> str:
    out = io.StringIO()
    out.write("[scenario]\n")
    for key, _ in _SCENARIO_KEYS:
        value = getattr(cfg, _field(key))
        if value is not None:
            out.write(f"{key} = {fmt(value)}\n")
    out.write("\n[coupling]\n")
    for key in _COUPLING_KEYS:
        out.write(f"{key} = {fmt(getattr(cfg, key))}\n")
    for section, suffix in zip(_TRANSMON_SECTIONS, ("a", "m", "b")):
        out.write(f"\n[{section}]\n")
        out.write(f"alpha_mhz = {fmt(getattr(cfg, f'alpha_{suffix}_mhz'))}\n")
        out.write(f"gamma_khz = {fmt(getattr(cfg, f'gamma_{suffix}_khz'))}\n")
    return out.getvalue()


def save_config(cfg: ScenarioConfig, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_config(cfg))


def with_overrides(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """replace() that keeps the lambda/target_phase exclusivity intact."""
    if "target_phase_rad" in overrides and overrides["target_phase_rad"] is not None:
        overrides.setdefault("lambda_", None)
    if "lambda_" in overrides and overrides["lambda_"] is not None:
        overrides.setdefault("target_phase_rad", None)
    return replace(cfg, **overrides)


THETA_CIRCULATOR = 1.5 * math.pi
