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

from .capacity import awgn_capacity, dmc_capacity
from .channel import LargeScaleModel, deterministic_power_gain
from .config import ConfigError, RunConfig
from .errorlaw import PeEstimate
from .scheme import VARIANTS, SchemeParams, derive_scheme

__all__ = ["AXES", "SweepSpec", "SweepRow", "SweepResult", "cell_row", "run_sweep",
           "compare_shadowing"]

AXES = ("snr_db", "duty_cycle", "symbol_time", "bandwidth", "doppler_spread")


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
            if variant not in VARIANTS:
                raise ConfigError(
                    "variants", f"unknown variant {variant!r}; use {' or '.join(VARIANTS)}"
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
    """One cell's result. A skipped row has no result fields; a row for a
    given rather than sampled p_e has no seed or iterations."""

    axis_name: str | None
    axis_value: float | None
    variant: str
    shadowing_enabled: bool
    seed: int | None
    iterations: int | None
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


def cell_row(point: RunConfig, params: SchemeParams, estimate: PeEstimate,
             awgn_power: str | None = "pr", axis_name: str | None = None,
             axis_value: float | None = None) -> SweepRow:
    """The result row of one cell: its p_e as capacity, ceiling, AWGN and SNR.

    ``awgn_power`` picks the baseline's power, receive ("pr") or transmit
    ("pt"); None leaves the baseline column empty.
    """
    inputs, p_r = point.inputs, point.resolved_p_r()
    awgn_bps = None
    if awgn_power is not None:
        baseline_power = p_r if awgn_power == "pr" else point.resolved_p_t()
        awgn_bps = awgn_capacity(baseline_power, point.n_0, inputs.bandwidth_hz)
    return SweepRow(
        axis_name, axis_value, params.variant, point.model.enabled, estimate.seed,
        estimate.iterations, p_e=estimate.p_e, ci_half_width_95=estimate.half_width_95,
        capacity_bps=dmc_capacity(estimate.p_e, params.alphabet_size, inputs.duty_cycle,
                                  inputs.symbol_time_s),
        ceiling_bps=params.ceiling_bps(),
        awgn_bps=awgn_bps,
        snr_db_bw=10.0 * math.log10(p_r / (point.n_0 * inputs.bandwidth_hz)),
        snr_db_n0=10.0 * math.log10(p_r / point.n_0),
    )


def _point_rows(spec: SweepSpec, models: tuple[LargeScaleModel, ...], threads: int):
    """Every cell's row, in grid, variant, then model order.

    All (model, variant) cells of a point come from one ``estimate_pe``
    call on the point's seed, so they share one pass over the draws. Grid
    points that fail scheme validation become explicit skipped rows rather
    than silently vanishing from the output.
    """
    awgn_power = spec.awgn_power if spec.include_awgn else None
    for index, value in enumerate(spec.grid):
        seed = _point_seed(spec.base.seed, index)
        try:
            point = _point_config(spec.base, spec.axis, value)
            variants = tuple(derive_scheme(point.inputs, v) for v in spec.variants)
        except (ValueError, ZeroDivisionError) as exc:
            for variant in spec.variants:
                for model in models:
                    yield SweepRow(spec.axis, value, variant, model.enabled, seed,
                                   spec.base.iterations, skipped_reason=str(exc))
            continue
        configs = [dataclasses.replace(point, model=model) for model in models]
        estimates = estimate_pe(
            variants,
            models,
            tuple(config.resolved_p_t() for config in configs),
            point.n_0,
            point.iterations,
            seed,
            threads=threads,
            hold_mean_rx_power=point.hold_mean_rx_power,
        )
        for v, params in enumerate(variants):
            for m, config in enumerate(configs):
                yield cell_row(config, params, estimates[m * len(variants) + v],
                               awgn_power, spec.axis, value)


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
    identical draw for draw. The off model applies no large-scale loss, so
    a given ``p_t`` is first turned into the receive power after the
    deterministic path loss: both rows then start from the same receive
    power, and the loss percentage charges shadowing alone.
    """
    if sigma_db < 0:
        raise ConfigError("sigma_db", "must be nonnegative")
    model_off = dataclasses.replace(spec.base.model, enabled=False)
    model_on = dataclasses.replace(
        spec.base.model, enabled=True, shadowing_std_db=sigma_db
    )
    if spec.base.p_t is not None:
        p_r = spec.base.p_t * deterministic_power_gain(model_on)
        spec = dataclasses.replace(spec, base=dataclasses.replace(spec.base, p_r=p_r, p_t=None))
    rows: list[SweepRow] = []
    cells = _point_rows(spec, (model_off, model_on), threads)
    for off, on in zip(cells, cells):
        loss = None
        if off.capacity_bps is not None and on.capacity_bps is not None:
            if off.capacity_bps > 0:
                loss = 100.0 * (off.capacity_bps - on.capacity_bps) / off.capacity_bps
        rows += (off, dataclasses.replace(on, capacity_loss_pct=loss))
    return SweepResult(rows=tuple(rows))
