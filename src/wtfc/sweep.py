"""Parameter-grid experiment engine.

Each grid point re-derives the scheme, estimates the symbol error
probability and converts it into capacity, optionally alongside the Shannon
baseline. Grid points are seeded from (base seed, axis index), so a sweep is
a pure function of its spec: re-running reproduces every row exactly,
regardless of thread count or execution order.

``run_sweep`` and ``compare_shadowing`` share one per-point loop. It makes
one ``estimate_pe`` call per grid point for all of the point's cells (every
variant, and for a comparison the shadowing-off and -on models), so they
share one pass over the point's draws; each row still equals the estimate
of its cell alone.

This module imports the standard library alone. Its ``estimate_pe`` and
``_point_seed`` import the sampler, ``wtfc.detector``, and with it numpy,
on their first call, so a command that never samples never loads numpy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .capacity import awgn_capacity, dmc_capacity, ifsk_variant
from .channel import LargeScaleModel
from .config import ConfigError, RunConfig
from .scheme import derive_scheme

__all__ = ["AXES", "SweepSpec", "SweepRow", "SweepResult", "run_sweep",
           "compare_shadowing"]

AXES = ("snr_db", "duty_cycle", "symbol_time", "bandwidth", "doppler_spread")

_VARIANTS = ("WTFC", "IFSK")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a base configuration plus the swept axis and grid.

    For the ``snr_db`` axis the grid value is 10 log10(P_r / (N_0 B)) and
    sets the receive power per point; other axes replace the named physical
    input. ``awgn_power`` selects whether the baseline column uses receive
    or transmit power.
    """

    base: RunConfig
    axis: str
    grid: tuple[float, ...]
    variants: tuple[str, ...] = ("WTFC",)
    include_awgn: bool = True
    awgn_power: str = "pr"

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ConfigError("axis", f"must be one of {', '.join(AXES)}")
        grid = tuple(float(v) for v in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise ConfigError("grid", "must not be empty")
        if len(grid) > 1:
            diffs = [b - a for a, b in zip(grid, grid[1:])]
            if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
                raise ConfigError("grid", "must be strictly monotone")
        variants = tuple(v.upper() for v in self.variants)
        object.__setattr__(self, "variants", variants)
        if not variants:
            raise ConfigError("variants", "must not be empty")
        for index, variant in enumerate(variants):
            if variant not in _VARIANTS:
                raise ConfigError(
                    "variants", f"unknown variant {variant!r}; use WTFC or IFSK"
                )
            if variant in variants[:index]:
                raise ConfigError("variants", f"duplicate variant {variant!r}")
        if self.awgn_power not in ("pr", "pt"):
            raise ConfigError("awgn_power", "must be 'pr' or 'pt'")
        if self.axis == "snr_db":
            if self.base.p_r is not None or self.base.p_t is not None:
                raise ConfigError(
                    "p_r", "snr_db sweeps set the power per grid point; "
                    "leave p_r and p_t unset"
                )
        else:
            self.base.require_power()


@dataclass(frozen=True)
class SweepRow:
    axis_name: str
    axis_value: float
    variant: str
    shadowing_enabled: bool
    seed: int
    iterations: int
    p_e: float | None = None
    ci_half_width_95: float | None = None
    capacity_bps: float | None = None
    ceiling_bps: float | None = None
    awgn_bps: float | None = None
    skipped_reason: str | None = None
    capacity_loss_pct: float | None = None
    snr_db_bw: float | None = None
    snr_db_n0: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def estimate_pe(*args, **kwargs):
    """``wtfc.detector.estimate_pe``, with the sampler imported on first use."""
    from . import detector

    return detector.estimate_pe(*args, **kwargs)


def _point_seed(seed: int, axis_index: int) -> int:
    """``wtfc.detector.point_seed``, with the sampler imported on first use."""
    from . import detector

    return detector.point_seed(seed, axis_index)


def _point_config(base: RunConfig, axis: str, value: float) -> RunConfig:
    """Base configuration with one axis value applied."""
    if axis == "snr_db":
        # Grid value is 10 log10(P_r / (N_0 B)); N_0 stays fixed. A power
        # past the float range is an infinite p_r, which RunConfig rejects.
        try:
            p_r = base.n_0 * base.inputs.bandwidth_hz * 10.0 ** (value / 10.0)
        except OverflowError:
            p_r = math.inf
        return dataclasses.replace(base, p_r=p_r, p_t=None)
    field = {
        "duty_cycle": "duty_cycle",
        "symbol_time": "symbol_time_s",
        "bandwidth": "bandwidth_hz",
        "doppler_spread": "doppler_spread_hz",
    }[axis]
    inputs = dataclasses.replace(base.inputs, **{field: value})
    return dataclasses.replace(base, inputs=inputs)


def _point_rows(spec: SweepSpec, models: tuple[LargeScaleModel, ...], threads: int):
    """Every cell's row, in grid, variant, then model order.

    All (model, variant) cells of a point come from one ``estimate_pe``
    call on the point's seed, so they share one pass over the draws. Grid
    points that fail scheme validation become explicit skipped rows rather
    than silently vanishing from the output.
    """
    for index, value in enumerate(spec.grid):
        seed = _point_seed(spec.base.seed, index)
        try:
            point = _point_config(spec.base, spec.axis, value)
            params = derive_scheme(point.inputs)
        except (ValueError, ZeroDivisionError) as exc:
            for variant in spec.variants:
                for model in models:
                    yield SweepRow(spec.axis, value, variant, model.enabled, seed,
                                   spec.base.iterations, skipped_reason=str(exc))
            continue
        variants = tuple(params if v == "WTFC" else ifsk_variant(params)
                         for v in spec.variants)
        configs = [dataclasses.replace(point, model=model) for model in models]
        powers = tuple(config.resolved_p_t() for config in configs)
        estimates = estimate_pe(
            variants,
            models,
            powers,
            point.n_0,
            point.iterations,
            seed,
            threads=threads,
            hold_mean_rx_power=point.hold_mean_rx_power,
        )
        for v, (variant, variant_params) in enumerate(zip(spec.variants, variants)):
            for m, (config, p_t) in enumerate(zip(configs, powers)):
                estimate = estimates[m * len(variants) + v]
                p_r = config.resolved_p_r()
                bandwidth = config.inputs.bandwidth_hz
                awgn_bps = None
                if spec.include_awgn:
                    baseline_power = p_r if spec.awgn_power == "pr" else p_t
                    awgn_bps = awgn_capacity(baseline_power, config.n_0, bandwidth)
                yield SweepRow(
                    axis_name=spec.axis,
                    axis_value=value,
                    variant=variant,
                    p_e=estimate.p_e,
                    ci_half_width_95=estimate.half_width_95,
                    capacity_bps=dmc_capacity(
                        estimate.p_e,
                        variant_params.alphabet_size,
                        config.inputs.duty_cycle,
                        config.inputs.symbol_time_s,
                    ),
                    ceiling_bps=variant_params.ceiling_bps(),
                    awgn_bps=awgn_bps,
                    shadowing_enabled=config.model.enabled,
                    seed=seed,
                    iterations=estimate.iterations,
                    snr_db_bw=10.0 * math.log10(p_r / (config.n_0 * bandwidth)),
                    snr_db_n0=10.0 * math.log10(p_r / config.n_0),
                )


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Run every (grid point, variant) cell and return rows in grid order."""
    return SweepResult(rows=tuple(_point_rows(spec, (spec.base.model,), threads)))


def compare_shadowing(
    spec: SweepSpec, sigma_db: float, threads: int = 1
) -> SweepResult:
    """Run the sweep shadowing-off and shadowing-on with identical seeds.

    Rows come in (off, on) pairs per cell; the on-row carries the capacity
    loss percentage relative to its unshadowed partner. Both rows of a pair
    come from one pass over the point's draws, so they differ only through
    the shadowing stream: with sigma_db = 0 the paired simulated values are
    identical draw for draw.
    """
    if sigma_db < 0:
        raise ConfigError("sigma_db", "must be nonnegative")
    model_off = dataclasses.replace(spec.base.model, enabled=False)
    model_on = dataclasses.replace(
        spec.base.model, enabled=True, shadowing_std_db=sigma_db
    )
    rows: list[SweepRow] = []
    cells = _point_rows(spec, (model_off, model_on), threads)
    for off, on in zip(cells, cells):
        loss = None
        if off.capacity_bps is not None and on.capacity_bps is not None:
            if off.capacity_bps > 0:
                loss = 100.0 * (off.capacity_bps - on.capacity_bps) / off.capacity_bps
        rows += (off, dataclasses.replace(on, capacity_loss_pct=loss))
    return SweepResult(rows=tuple(rows))
