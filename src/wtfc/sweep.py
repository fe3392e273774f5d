"""Parameter-grid experiment engine.

Each grid point re-derives the scheme, estimates the symbol error
probability and converts it into capacity, optionally alongside the Shannon
baseline. A sweep is a pure function of its spec: re-running reproduces
every row exactly, regardless of thread count.

``estimate_cells`` makes the package's only ``estimate_pe`` call, so each
sweep row equals ``wtfc pe`` at its point with the same seed by
construction, and hands each (point, variant) cell its estimates as one
tuple in model order. ``run_sweep`` and ``compare_shadowing`` share one
loop that calls it once, on the run seed, for every cell of every grid
point that is not skipped (every variant, and for a comparison the
shadowing-off and -on models), and yields each cell's rows as one tuple.
So the rows share one set of draws, and the worker scratch is allocated
once per sweep: rows at different points are positively correlated
(common random numbers) and each row's interval stays valid on its own.

``COLUMNS`` names the result columns, which a ``SweepRow`` carries: a new
column is one entry there, one field and its value in ``cell_row``.

This module imports the standard library alone. Its ``estimate_pe``
imports the sampler, ``wtfc.detector``, and with it numpy, on the first
estimate, so a command that never samples, a sweep whose every point is
skipped included, never loads numpy.
"""

from __future__ import annotations

import math

from .capacity import awgn_capacity, dmc_capacity
from .channel import LargeScaleModel
from .config import ConfigError, RunConfig
from .errorlaw import PeEstimate
from .record import Record
from .scheme import VARIANTS, SchemeParams, derive_scheme

__all__ = ["AXES", "COLUMNS", "SweepSpec", "SweepRow", "SweepResult", "cell_row",
           "estimate_cells", "run_sweep", "compare_shadowing"]

# Each axis and the ``PhysicalInputs`` field its grid value replaces; an
# ``snr_db`` value sets the receive power instead.
AXES = {
    "snr_db": None,
    "duty_cycle": "duty_cycle",
    "symbol_time": "symbol_time_s",
    "bandwidth": "bandwidth_hz",
    "doppler_spread": "doppler_spread_hz",
}


class SweepSpec(Record):
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
        if not all(math.isfinite(v) for v in grid):
            raise ConfigError("grid", "must be finite")
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
                    "p_r" if self.base.p_r is not None else "p_t",
                    "snr_db sweeps set the power per grid point; leave p_r and p_t unset",
                )
        else:
            self.base.require_power()


class SweepRow(Record):
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


# Every result column in file order, with the config key that adds it, or
# None for a column every sweep writes.
COLUMNS = {
    "axis_name": None, "axis_value": None, "variant": None, "p_e": None,
    "ci_half_width_95": None, "capacity_bps": None, "ceiling_bps": None, "awgn_bps": None,
    "shadowing_enabled": None, "seed": None, "iterations": None, "skipped_reason": None,
    "capacity_loss_pct": "sigma_db",
    "snr_db_bw": "snr_columns",
    "snr_db_n0": "snr_columns",
}


class SweepResult(Record):
    rows: tuple[SweepRow, ...]


def estimate_pe(*args, **kwargs):
    """``wtfc.detector.estimate_pe``, with the sampler imported on first use."""
    from . import detector

    return detector.estimate_pe(*args, **kwargs)


def estimate_cells(base: RunConfig, cells: list[tuple[RunConfig, SchemeParams]],
                   models: tuple[LargeScaleModel, ...], threads: int = 1
                   ) -> list[tuple[PeEstimate, ...]]:
    """Each cell's estimates, one per model in model order, from one ``estimate_pe`` call.

    A cell is a (point configuration, params) pair at its point's transmit
    power; ``base`` gives the noise density, iterations, seed and power
    hold. No cells sample nothing. Only here is ``estimate_pe``'s
    model-major order read: a cell's estimates are len(cells) apart.
    """
    if not cells:
        return []
    estimates = estimate_pe([params for _, params in cells], models,
                            [point.resolved_p_t() for point, _ in cells], base.n_0,
                            base.iterations, base.seed, threads=threads,
                            hold_mean_rx_power=base.hold_mean_rx_power)
    return [estimates[cell::len(cells)] for cell in range(len(cells))]


def _point_config(base: RunConfig, axis: str, value: float) -> RunConfig:
    """Base configuration with one axis value applied."""
    field = AXES[axis]
    if field is None:
        # Grid value is 10 log10(P_r / (N_0 B)); N_0 stays fixed. A power
        # past the float range is an infinite p_r, which RunConfig rejects.
        try:
            p_r = base.n_0 * base.inputs.bandwidth_hz * 10.0 ** (value / 10.0)
        except OverflowError:
            p_r = math.inf
        return base.replace(p_r=p_r, p_t=None)
    inputs = base.inputs.replace(**{field: value})
    return base.replace(inputs=inputs)


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
        snr_db_n0=_decibels(p_r, point.n_0),
    )


def _decibels(power: float, density: float) -> float:
    """10 log10(power / density) for positive floats, finite wherever the
    quotient lies outside the float range: then from the two logarithms."""
    ratio = power / density
    if 0 < ratio < math.inf:
        return 10.0 * math.log10(ratio)
    return 10.0 * (math.log10(power) - math.log10(density))


def _point_rows(spec: SweepSpec, models: tuple[LargeScaleModel, ...], threads: int):
    """Each (grid point, variant) cell's rows, one per model, as one tuple in grid order.

    All cells of every grid point come from one ``estimate_cells`` call on
    the run seed, so they share one set of draws. Each row takes its path
    loss, powers and ``shadowing_enabled`` from its point, the base
    configuration with the grid value applied. Grid points that fail scheme
    validation become explicit skipped rows rather than silently vanishing
    from the output; a sweep whose every point is skipped samples nothing.
    """
    base = spec.base
    # (grid value, point configuration, its variants' params, skip reason)
    points = []
    for value in spec.grid:
        try:
            point = _point_config(base, spec.axis, value)
            variants = [derive_scheme(point.inputs, v) for v in spec.variants]
        except ValueError as exc:
            points.append((value, None, [], str(exc)))
            continue
        points.append((value, point, variants, None))
    cells = [(point, params) for _, point, variants, _ in points for params in variants]
    estimates = iter(estimate_cells(base, cells, models, threads))
    awgn_power = spec.awgn_power if spec.include_awgn else None
    for value, point, variants, reason in points:
        if reason is not None:
            for variant in spec.variants:
                yield tuple(SweepRow(spec.axis, value, variant, base.model.enabled, base.seed,
                                     base.iterations, skipped_reason=reason) for _ in models)
        for params in variants:
            yield tuple(cell_row(point, params, estimate, awgn_power, spec.axis, value)
                        for estimate in next(estimates))


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Run every (grid point, variant) cell and return rows in grid order."""
    cells = _point_rows(spec, (spec.base.model,), threads)
    return SweepResult(rows=tuple(row for (row,) in cells))


def compare_shadowing(
    spec: SweepSpec, sigma_db: float, threads: int = 1
) -> SweepResult:
    """Run the sweep shadowing-off and shadowing-on with identical seeds.

    Rows come in (off, on) pairs per cell; the on-row carries the capacity
    loss percentage relative to its unshadowed partner. Both rows of a pair
    come from the sweep's one set of draws, so they differ only through the
    shadowing stream: with sigma_db = 0 the paired simulated values are
    identical draw for draw. The sweep loop runs on a spec whose base
    model is the on model, and the off model is the on model with sigma 0,
    so both rows keep the on model's path loss, transmit and receive power,
    and the loss percentage charges shadowing alone; the off rows still
    read ``shadowing_enabled`` false.
    """
    if not sigma_db >= 0:
        raise ConfigError("sigma_db", "must be nonnegative")
    model_on = spec.base.model.replace(enabled=True, shadowing_std_db=sigma_db)
    model_off = model_on.replace(shadowing_std_db=0.0)
    spec_on = spec.replace(base=spec.base.replace(model=model_on))
    rows: list[SweepRow] = []
    for off, on in _point_rows(spec_on, (model_off, model_on), threads):
        loss = None
        if off.capacity_bps is not None and on.capacity_bps is not None:
            if off.capacity_bps > 0:
                loss = 100.0 * (off.capacity_bps - on.capacity_bps) / off.capacity_bps
        rows += (off.replace(shadowing_enabled=False),
                 on.replace(capacity_loss_pct=loss))
    return SweepResult(rows=tuple(rows))
