"""Scenario files written from a ScenarioConfig, the inverse of
nonrecip.config.parse_config that the tests build their INI inputs with,
and fmt, the per-value text of a number that write_csv is tested against."""

from nonrecip.config import _KEYS, _SECTIONS, ScenarioConfig


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return format(float(x), ".17g")


def serialize_config(cfg: ScenarioConfig) -> str:
    """The INI text that parse_config reads back as cfg."""
    blocks = {section: f"[{section}]\n" for section in _SECTIONS}
    for (section, key), (field, _) in _KEYS.items():
        if getattr(cfg, field) is not None:
            blocks[section] += f"{key} = {fmt(getattr(cfg, field))}\n"
    return "\n".join(blocks.values())
