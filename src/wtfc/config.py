"""Flat key = value configuration: file parsing, env and flag overrides.

One key per line, ``#`` comments, later sources win (defaults, then config
file, then WTFC_* environment variables, then command-line flags). The
resolved configuration is re-emitted on a single header line of every
output file, so a result can be reproduced from the file alone.
"""

from __future__ import annotations

import math
import os

from .channel import LargeScaleModel, deterministic_power_gain, transmit_power
from .errorlaw import CHUNK_SIZE
from .record import Record
from .scheme import VARIANTS, PhysicalInputs

__all__ = ["ConfigError", "RunConfig", "KEYS", "RUN_KEYS", "ENV_PREFIX",
           "read_config_file", "merge_sources", "build_run_config",
           "parse_value", "format_value", "config_items"]

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
        value = float(num) / float(den)
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_probability(text: str) -> float:
    value = _parse_float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError("must lie in [0, 1]")
    return value


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


def _parse_variant(text: str) -> str:
    variant = text.strip().upper()
    if variant not in VARIANTS:
        raise ValueError("expected " + " or ".join(VARIANTS).lower())
    return variant


REQUIRED = object()

# Every key the config file, WTFC_* env vars and the CLI understand, in the
# order the ``# config:`` header lists them: key -> (parser, default, the
# RunConfig attribute it sets). A None default leaves the key unset;
# REQUIRED keys must be given. Keys without an attribute are read by the
# commands themselves.
KEYS = {
    # scheme
    "bandwidth_hz": (_parse_float, REQUIRED, "inputs.bandwidth_hz"),
    "symbol_time_s": (_parse_float, REQUIRED, "inputs.symbol_time_s"),
    "delay_spread_s": (_parse_float, 0.0, "inputs.delay_spread_s"),
    "doppler_spread_hz": (_parse_float, 0.0, "inputs.doppler_spread_hz"),
    "duty_cycle": (_parse_float, REQUIRED, "inputs.duty_cycle"),
    "q_override": (_parse_int, None, "inputs.q_override"),
    "guard_time_s": (_parse_float, None, "inputs.guard_time_s"),
    # channel
    "distance_m": (_parse_float, 1.0, "model.distance_m"),
    "reference_distance_m": (_parse_float, 1.0, "model.reference_distance_m"),
    "wavelength_m": (_parse_float, 4.0 * math.pi, "model.wavelength_m"),
    "path_loss_exponent": (_parse_float, 2.0, "model.path_loss_exponent"),
    "shadowing_std_db": (_parse_float, 0.0, "model.shadowing_std_db"),
    "shadowing_enabled": (_parse_bool, False, "model.enabled"),
    "shadow_block_len": (_parse_int, 1, "model.block_len"),
    # power and simulation
    "p_r": (_parse_float, None, "p_r"),
    "p_t": (_parse_float, None, "p_t"),
    "n_0": (_parse_float, 1.0, "n_0"),
    "iterations": (_parse_int, 1_000_000, "iterations"),
    "seed": (_parse_int, 0, "seed"),
    "hold_mean_rx_power": (_parse_bool, False, "hold_mean_rx_power"),
    # pe and capacity; only capacity reads p_e
    "p_e": (_parse_probability, None, None),
    "variant": (_parse_variant, "WTFC", None),
    # sweep
    "axis": (_parse_str, None, None),
    "grid": (_parse_float_list, None, None),
    "variants": (_parse_str_list, ("WTFC",), None),
    "include_awgn": (_parse_bool, True, None),
    "awgn_power": (_parse_str, "pr", None),
    "snr_columns": (_parse_bool, False, None),
    "sigma_db": (_parse_float, None, None),
    "allow_skips": (_parse_bool, False, None),
}

# The keys RunConfig reads; each command reads its own keys besides these.
RUN_KEYS = frozenset(key for key, (_, _, target) in KEYS.items() if target)

# Record field -> config key, for naming the key a validator rejected.
_KEY_OF_FIELD = {
    target.rpartition(".")[2]: key for key, (_, _, target) in KEYS.items() if target
}


def parse_value(key: str, text: str, source: str | None = None):
    """Coerce one raw string to the key's type, or raise ConfigError."""
    if key not in KEYS:
        raise ConfigError(key, "unknown configuration key", source)
    try:
        return KEYS[key][0](text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(key, f"invalid value {text!r} ({exc})", source) from exc


def read_config_file(path: str) -> dict:
    """Parse a key = value file into typed values, with line-precise errors."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
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
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"not UTF-8 text ({exc.reason})", path) from exc
    return values


def env_overrides() -> dict:
    """Typed values from WTFC_* environment variables."""
    values: dict = {}
    for name, text in os.environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower()
        if key in KEYS:
            values[key] = parse_value(key, text, f"env {name}")
    return values


def merge_sources(*sources: dict) -> dict:
    """Overlay typed value dicts; later sources win."""
    merged = {
        key: default
        for key, (_, default, _) in KEYS.items()
        if default is not None and default is not REQUIRED
    }
    for source in sources:
        for key, value in source.items():
            if value is not None:
                merged[key] = value
    return merged


class RunConfig(Record):
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
        for key in ("p_r", "p_t", "n_0"):
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:
                reason = "must be positive" if value <= 0 else "must be finite"
                raise ConfigError(key, reason)
        if self.p_r is not None and self.p_t is not None:
            raise ConfigError("p_r", "give exactly one of p_r and p_t, not both")
        # The power derived through the path-loss gain must be a float too.
        for key, derived, name in (("p_r", self.resolved_p_t, "transmit"),
                                   ("p_t", self.resolved_p_r, "receive")):
            if getattr(self, key) is not None and not 0 < derived() < math.inf:
                raise ConfigError(key, f"the {name} power it gives at this path loss "
                                       "lies outside the float range")
        # So must the signal energy P_t T_s / (theta N_0), as
        # errorlaw.signal_energy forms it.
        p_t, inputs = self.resolved_p_t(), self.inputs
        scale = inputs.duty_cycle * self.n_0
        if p_t is not None and not (scale > 0 and p_t * inputs.symbol_time_s / scale < math.inf):
            raise ConfigError("n_0", "the signal energy it gives lies outside the float range")
        # And the AWGN SNR P / (N_0 B) at either power, as capacity.awgn_capacity
        # forms it: a positive float, so that its capacity and its dB are finite.
        band = self.n_0 * inputs.bandwidth_hz
        if p_t is not None and not (band > 0 and all(
                0 < power / band < math.inf for power in (p_t, self.resolved_p_r()))):
            raise ConfigError("n_0", "the AWGN SNR it gives lies outside the float range")
        if self.iterations < 1:
            raise ConfigError("iterations", "must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed", "must be a nonnegative integer")
        if CHUNK_SIZE % self.model.block_len:
            raise ConfigError(
                "shadow_block_len",
                f"{self.model.block_len} does not divide the {CHUNK_SIZE}-iteration "
                "chunk, so shadowing blocks would be cut at chunk boundaries",
            )

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
    with its name before any simulation starts. Every validator message
    starts with the field it rejects, which names the key.
    """
    kwargs: dict = {"inputs": {}, "model": {}, "": {}}
    for key, (_, default, target) in KEYS.items():
        if not target:
            continue
        if default is REQUIRED and key not in values:
            raise ConfigError(key, "required key is missing")
        group, _, field = target.rpartition(".")
        kwargs[group][field] = values.get(key, default)
    try:
        inputs = PhysicalInputs(**kwargs["inputs"])
        model = LargeScaleModel(**kwargs["model"])
    except ValueError as exc:
        field = str(exc).split()[0]
        raise ConfigError(_KEY_OF_FIELD.get(field, field), str(exc)) from exc
    return RunConfig(inputs=inputs, model=model, **kwargs[""])


def format_value(value) -> str:
    """Serialize one config value so parse_value round-trips it exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(format_value(item) for item in value)
    return str(value)


def config_items(values: dict) -> list[tuple[str, str]]:
    """Resolved (key, value) pairs that reproduce a run: every set key, in table order."""
    return [(key, format_value(values[key])) for key in KEYS if values.get(key) is not None]
