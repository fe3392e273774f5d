"""Flat key = value configuration: file parsing, env and flag overrides.

One key per line, ``#`` comments, later sources win (defaults, then config
file, then WTFC_* environment variables, then command-line flags). The
resolved configuration is re-emitted on a single header line of every
output file, so a result can be reproduced from the file alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .channel import LargeScaleModel, deterministic_power_gain, transmit_power
from .scheme import PhysicalInputs

__all__ = ["ConfigError", "RunConfig", "KEY_TYPES", "ENV_PREFIX",
           "read_config_file", "merge_sources", "build_run_config",
           "parse_value", "format_value"]

ENV_PREFIX = "WTFC_"


class ConfigError(ValueError):
    """Configuration problem, pointing at the offending field."""

    def __init__(self, field: str, message: str, source: str | None = None):
        self.field = field
        where = f"{source}: " if source else ""
        super().__init__(f"{where}{field}: {message}")


def _parse_float(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def _parse_int(text: str) -> int:
    return int(text.strip(), 10)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(part) for part in items)


def _parse_str_list(text: str) -> tuple[str, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return tuple(items)


# Every key the config file, WTFC_* env vars and the CLI understand.
KEY_TYPES = {
    # scheme
    "bandwidth_hz": _parse_float,
    "symbol_time_s": _parse_float,
    "delay_spread_s": _parse_float,
    "doppler_spread_hz": _parse_float,
    "duty_cycle": _parse_float,
    "q_override": _parse_int,
    "guard_time_s": _parse_float,
    # channel
    "distance_m": _parse_float,
    "reference_distance_m": _parse_float,
    "wavelength_m": _parse_float,
    "path_loss_exponent": _parse_float,
    "shadowing_std_db": _parse_float,
    "shadowing_enabled": _parse_bool,
    "shadow_block_len": _parse_int,
    # power and simulation
    "p_r": _parse_float,
    "p_t": _parse_float,
    "n_0": _parse_float,
    "iterations": _parse_int,
    "seed": _parse_int,
    "hold_mean_rx_power": _parse_bool,
    # sweep
    "axis": _parse_str,
    "grid": _parse_float_list,
    "variants": _parse_str_list,
    "include_awgn": _parse_bool,
    "awgn_power": _parse_str,
    "snr_columns": _parse_bool,
    "sigma_db": _parse_float,
    "allow_skips": _parse_bool,
}

_DEFAULTS = {
    "delay_spread_s": 0.0,
    "doppler_spread_hz": 0.0,
    "distance_m": 1.0,
    "reference_distance_m": 1.0,
    "wavelength_m": 4.0 * math.pi,
    "path_loss_exponent": 2.0,
    "shadowing_std_db": 0.0,
    "shadowing_enabled": False,
    "shadow_block_len": 1,
    "n_0": 1.0,
    "iterations": 1_000_000,
    "seed": 0,
    "hold_mean_rx_power": False,
    "variants": ("WTFC",),
    "include_awgn": True,
    "awgn_power": "pr",
    "snr_columns": False,
    "allow_skips": False,
}


def parse_value(key: str, text: str, source: str | None = None):
    """Coerce one raw string to the key's type, or raise ConfigError."""
    if key not in KEY_TYPES:
        raise ConfigError(key, "unknown configuration key", source)
    try:
        return KEY_TYPES[key](text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(key, f"invalid value {text!r} ({exc})", source) from exc


def read_config_file(path: str) -> dict:
    """Parse a key = value file into typed values, with line-precise errors."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    line.split()[0], "expected key = value", f"{path}:{lineno}"
                )
            key, _, text = line.partition("=")
            key = key.strip()
            values[key] = parse_value(key, text, f"{path}:{lineno}")
    return values


def env_overrides(environ: dict | None = None) -> dict:
    """Typed values from WTFC_* environment variables."""
    environ = os.environ if environ is None else environ
    values: dict = {}
    for name, text in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower()
        if key in KEY_TYPES:
            values[key] = parse_value(key, text, f"env {name}")
    return values


def merge_sources(*sources: dict) -> dict:
    """Overlay typed value dicts; later sources win."""
    merged = dict(_DEFAULTS)
    for source in sources:
        for key, value in source.items():
            if value is not None:
                merged[key] = value
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved simulation configuration.

    Exactly one of ``p_r``/``p_t`` is given unless an SNR sweep supplies the
    power per grid point; the missing one is derived through the
    deterministic power gain.
    """

    inputs: PhysicalInputs
    model: LargeScaleModel
    p_r: float | None
    p_t: float | None
    n_0: float
    iterations: int
    seed: int
    hold_mean_rx_power: bool = False

    def __post_init__(self) -> None:
        if self.p_r is not None and self.p_r <= 0:
            raise ConfigError("p_r", "must be positive")
        if self.p_t is not None and self.p_t <= 0:
            raise ConfigError("p_t", "must be positive")
        if self.p_r is not None and self.p_t is not None:
            raise ConfigError("p_r", "give exactly one of p_r and p_t, not both")
        if self.n_0 <= 0:
            raise ConfigError("n_0", "must be positive")
        if self.iterations < 1:
            raise ConfigError("iterations", "must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed", "must be a nonnegative integer")

    def resolved_p_t(self) -> float | None:
        if self.p_t is not None:
            return self.p_t
        if self.p_r is None:
            return None
        return transmit_power(self.p_r, self.model)

    def resolved_p_r(self) -> float | None:
        if self.p_r is not None:
            return self.p_r
        if self.p_t is None:
            return None
        return self.p_t * deterministic_power_gain(self.model)

    def require_power(self) -> None:
        if self.p_r is None and self.p_t is None:
            raise ConfigError("p_r", "one of p_r or p_t is required")


def build_run_config(values: dict) -> RunConfig:
    """Build a validated RunConfig from merged typed values.

    All module-level invariants are revalidated here so a bad field fails
    with its name before any simulation starts.
    """
    for required in ("bandwidth_hz", "symbol_time_s", "duty_cycle"):
        if required not in values:
            raise ConfigError(required, "required key is missing")
    try:
        inputs = PhysicalInputs(
            bandwidth_hz=values["bandwidth_hz"],
            symbol_time_s=values["symbol_time_s"],
            delay_spread_s=values["delay_spread_s"],
            doppler_spread_hz=values["doppler_spread_hz"],
            duty_cycle=values["duty_cycle"],
            q_override=values.get("q_override"),
            guard_time_s=values.get("guard_time_s"),
        )
    except ValueError as exc:
        raise ConfigError(_field_from_message(exc, "inputs"), str(exc)) from exc
    try:
        model = LargeScaleModel(
            distance_m=values["distance_m"],
            reference_distance_m=values["reference_distance_m"],
            wavelength_m=values["wavelength_m"],
            path_loss_exponent=values["path_loss_exponent"],
            shadowing_std_db=values["shadowing_std_db"],
            enabled=values["shadowing_enabled"],
            block_len=values["shadow_block_len"],
        )
    except ValueError as exc:
        raise ConfigError(_field_from_message(exc, "model"), str(exc)) from exc
    return RunConfig(
        inputs=inputs,
        model=model,
        p_r=values.get("p_r"),
        p_t=values.get("p_t"),
        n_0=values["n_0"],
        iterations=values["iterations"],
        seed=values["seed"],
        hold_mean_rx_power=values["hold_mean_rx_power"],
    )


def _field_from_message(exc: ValueError, fallback: str) -> str:
    """Config key named earliest in a validation message.

    Messages name the offending field first ("delay_spread_s must be
    smaller than symbol_time_s"), so the earliest mention wins; at equal
    positions the longer name wins, since it contains the shorter one.
    """
    message = str(exc)
    names = [(key, key) for key in KEY_TYPES]
    # dataclass field names that differ from config keys
    names += [("block_len", "shadow_block_len"), ("enabled", "shadowing_enabled")]
    found = [
        (message.find(name), -len(name), key)
        for name, key in names
        if name in message
    ]
    return min(found)[2] if found else fallback


def format_value(value) -> str:
    """Serialize one config value so parse_value round-trips it exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(format_value(item) for item in value)
    return str(value)


def config_items(config: RunConfig) -> list[tuple[str, str]]:
    """Resolved (key, value) pairs that reproduce this configuration."""
    inputs, model = config.inputs, config.model
    items: list[tuple[str, str]] = [
        ("bandwidth_hz", format_value(inputs.bandwidth_hz)),
        ("symbol_time_s", format_value(inputs.symbol_time_s)),
        ("delay_spread_s", format_value(inputs.delay_spread_s)),
        ("doppler_spread_hz", format_value(inputs.doppler_spread_hz)),
        ("duty_cycle", format_value(inputs.duty_cycle)),
    ]
    if inputs.q_override is not None:
        items.append(("q_override", format_value(inputs.q_override)))
    if inputs.guard_time_s is not None:
        items.append(("guard_time_s", format_value(inputs.guard_time_s)))
    items += [
        ("distance_m", format_value(model.distance_m)),
        ("reference_distance_m", format_value(model.reference_distance_m)),
        ("wavelength_m", format_value(model.wavelength_m)),
        ("path_loss_exponent", format_value(model.path_loss_exponent)),
        ("shadowing_std_db", format_value(model.shadowing_std_db)),
        ("shadowing_enabled", format_value(model.enabled)),
        ("shadow_block_len", format_value(model.block_len)),
    ]
    if config.p_r is not None:
        items.append(("p_r", format_value(config.p_r)))
    if config.p_t is not None:
        items.append(("p_t", format_value(config.p_t)))
    items += [
        ("n_0", format_value(config.n_0)),
        ("iterations", format_value(config.iterations)),
        ("seed", format_value(config.seed)),
        ("hold_mean_rx_power", format_value(config.hold_mean_rx_power)),
    ]
    return items
