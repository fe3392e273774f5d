import math

import pytest

from wtfc import (
    ConfigError,
    LargeScaleModel,
    PhysicalInputs,
    RunConfig,
    SweepSpec,
    compare_shadowing,
    derive_scheme,
    deterministic_power_gain,
    analytic_pe_no_shadowing,
    dmc_capacity,
    estimate_pe,
    run_sweep,
    signal_energy,
)
from wtfc.sweep import COLUMNS, SweepRow, _point_config, cell_row

BASE_INPUTS = PhysicalInputs(100e6, 101e-6, 20e-6, 360.0, 1 / 100)


def make_base(**overrides) -> RunConfig:
    settings = dict(
        inputs=BASE_INPUTS,
        model=LargeScaleModel(),
        p_r=10**3.4,
        p_t=None,
        n_0=1.0,
        iterations=50_000,
        seed=123,
    )
    settings.update(overrides)
    return RunConfig(**settings)


def test_single_point_grid_matches_direct_calls():
    base = make_base()
    spec = SweepSpec(base=base, axis="bandwidth", grid=(1e6,), include_awgn=True)
    row = run_sweep(spec).rows[0]

    inputs = BASE_INPUTS.replace(bandwidth_hz=1e6)
    params = derive_scheme(inputs)
    est = estimate_pe(params, base.model, base.p_r, 1.0, 50_000, 123)
    assert row.p_e == est.p_e
    assert row.ci_half_width_95 == est.half_width_95
    assert row.capacity_bps == dmc_capacity(est.p_e, params.alphabet_size, 1 / 100, 101e-6)
    assert row.ceiling_bps == params.ceiling_bps()
    assert row.seed == est.seed
    assert row.skipped_reason is None


def test_rerun_is_identical():
    spec = SweepSpec(base=make_base(), axis="bandwidth", grid=(1e5, 1e6, 1e7))
    assert run_sweep(spec).rows == run_sweep(spec).rows


def test_rows_appear_in_grid_and_variant_order():
    spec = SweepSpec(
        base=make_base(),
        axis="bandwidth",
        grid=(1e5, 1e6),
        variants=("WTFC", "IFSK"),
    )
    rows = run_sweep(spec).rows
    assert [(r.axis_value, r.variant) for r in rows] == [
        (1e5, "WTFC"),
        (1e5, "IFSK"),
        (1e6, "WTFC"),
        (1e6, "IFSK"),
    ]


def _one_cell_estimate(base, axis, row, model):
    """``wtfc pe`` at a row's point: its own estimate_pe call on the run seed."""
    point = _point_config(base, axis, row.axis_value).replace(model=model)
    params = derive_scheme(point.inputs, row.variant)
    estimate = estimate_pe(params, model, point.resolved_p_t(), point.n_0, point.iterations,
                           point.seed, hold_mean_rx_power=point.hold_mean_rx_power)
    return point, params, estimate


def assert_rows_equal_one_cell_calls(spec, rows, sigma_db=None):
    """Every computed row equals the one-cell estimate at its point with the
    run seed; a sweep row equals the row built from it, field for field."""
    base, models = spec.base, (spec.base.model,)
    if sigma_db is not None:
        on = base.model.replace(enabled=True, shadowing_std_db=sigma_db)
        base, models = base.replace(model=on), (on.replace(shadowing_std_db=0.0), on)
    computed = 0
    for index, row in enumerate(rows):
        assert row.seed == spec.base.seed and row.iterations == spec.base.iterations
        if row.skipped_reason is not None:
            continue
        computed += 1
        point, params, estimate = _one_cell_estimate(base, spec.axis, row,
                                                     models[index % len(models)])
        assert (row.p_e, row.ci_half_width_95) == (estimate.p_e, estimate.half_width_95)
        if sigma_db is None:
            awgn_power = spec.awgn_power if spec.include_awgn else None
            assert row == cell_row(point, params, estimate, awgn_power, spec.axis,
                                   row.axis_value)
    assert computed


_SHADOWED_BASE = dict(inputs=PhysicalInputs(100e6, 100e-6, 0.3e-6, 360.0, 1e-3), p_r=1e5,
                      iterations=150_000)
_ROW_EQUALITY_SWEEPS = {
    "duty_cycle": SweepSpec(base=make_base(iterations=150_000), axis="duty_cycle",
                            grid=(1e-2, 1e-3, 1e-4), variants=("WTFC", "IFSK")),
    "bandwidth_skip": SweepSpec(base=make_base(iterations=150_000), axis="bandwidth",
                                grid=(1e4, 1e5, 1e6), variants=("WTFC", "IFSK")),
    "snr_db": SweepSpec(
        base=make_base(p_r=None, inputs=PhysicalInputs(400e6, 100e-6, 0.3e-6, 360.0, 1e-3),
                       iterations=150_000),
        axis="snr_db", grid=(-60.0, -50.0, -40.0)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", list(_ROW_EQUALITY_SWEEPS))
def test_every_sweep_row_equals_pe_at_its_point(case, threads):
    # One set of draws for the whole grid: each row is still the one-cell
    # estimate at its own point on the run seed, skipped points aside.
    spec = _ROW_EQUALITY_SWEEPS[case]
    assert_rows_equal_one_cell_calls(spec, run_sweep(spec, threads=threads).rows)


def test_shared_draws_couple_variants():
    # Same uniforms at every point, and the IFSK max-of-noise is dominated
    # by the WTFC one, so the paired error estimate is ordered
    # deterministically.
    spec = SweepSpec(
        base=make_base(),
        axis="bandwidth",
        grid=(1e5, 1e6, 1e7),
        variants=("WTFC", "IFSK"),
    )
    rows = run_sweep(spec).rows
    for wtfc_row, ifsk_row in zip(rows[0::2], rows[1::2]):
        assert wtfc_row.seed == ifsk_row.seed == 123
        assert ifsk_row.p_e <= wtfc_row.p_e


@pytest.mark.parametrize("threads", [1, 2])
def test_every_compare_shadowing_row_equals_pe_at_its_point(threads):
    model = LargeScaleModel(block_len=1000)
    base = make_base(model=model, hold_mean_rx_power=True, **_SHADOWED_BASE)
    spec = SweepSpec(base=base, axis="duty_cycle", grid=(1e-3, 1e-4), variants=("WTFC", "IFSK"))
    rows = compare_shadowing(spec, 8.0, threads=threads).rows
    assert [row.shadowing_enabled for row in rows] == [False, True] * 4
    assert_rows_equal_one_cell_calls(spec, rows, sigma_db=8.0)


@pytest.mark.parametrize("sigma_db", [None, 8.0])
def test_a_point_reads_the_same_rows_in_any_grid(sigma_db):
    def rows_at_1e_3(grid):
        spec = SweepSpec(base=make_base(**_SHADOWED_BASE), axis="duty_cycle", grid=grid,
                         variants=("WTFC", "IFSK"))
        rows = (run_sweep(spec) if sigma_db is None else compare_shadowing(spec, sigma_db)).rows
        return [row for row in rows if row.axis_value == 1e-3]

    assert rows_at_1e_3((1e-3,)) == rows_at_1e_3((1e-2, 1e-3))


def test_too_small_bandwidth_becomes_skipped_row():
    spec = SweepSpec(base=make_base(), axis="bandwidth", grid=(1e4, 1e5))
    rows = run_sweep(spec).rows
    assert rows[0].skipped_reason is not None
    assert "bandwidth" in rows[0].skipped_reason
    result_fields = ("p_e", "ci_half_width_95", "capacity_bps", "ceiling_bps", "awgn_bps")
    assert [getattr(rows[0], name) for name in result_fields] == [None] * 5
    assert rows[0].seed == 123 and rows[0].iterations == 50_000
    assert rows[0].shadowing_enabled is False
    assert rows[1].skipped_reason is None


def test_sweep_with_every_point_skipped_never_samples(monkeypatch):
    import wtfc.sweep

    def no_sampling(*args, **kwargs):
        raise AssertionError("estimate_pe called")

    monkeypatch.setattr(wtfc.sweep, "estimate_pe", no_sampling)
    spec = SweepSpec(base=make_base(), axis="bandwidth", grid=(1e3, 1e4))
    for result in (run_sweep(spec), compare_shadowing(spec, 8.0)):
        assert all(row.skipped_reason is not None for row in result.rows)
        assert all(row.seed == 123 for row in result.rows)


def test_too_small_bandwidth_skips_every_variant_with_one_reason():
    spec = SweepSpec(base=make_base(), axis="bandwidth", grid=(1e4,),
                     variants=("WTFC", "IFSK"))
    rows = run_sweep(spec).rows
    assert [row.variant for row in rows] == ["WTFC", "IFSK"]
    assert rows[0].skipped_reason is not None
    assert rows[1].skipped_reason == rows[0].skipped_reason


@pytest.mark.parametrize("key", ["p_r", "p_t", "n_0"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_run_config_rejects_non_finite_power(key, value):
    overrides = {"p_r": None, key: value} if key == "p_t" else {key: value}
    with pytest.raises(ConfigError, match=f"^{key}: must be finite$") as info:
        make_base(**overrides)
    assert info.value.field == key


def test_snr_db_past_the_float_range_becomes_skipped_row():
    # 10^(4000/10) overflows; 10^305 N_0 B is an infinite p_r; 10^-400 is 0.
    base = make_base(p_r=None, iterations=1000)
    spec = SweepSpec(base=base, axis="snr_db", grid=(10.0, 3050.0, 4000.0))
    rows = run_sweep(spec).rows
    assert rows[0].skipped_reason is None
    assert [row.skipped_reason for row in rows[1:]] == ["p_r: must be finite"] * 2
    low = run_sweep(SweepSpec(base=base, axis="snr_db", grid=(-4000.0,))).rows
    assert low[0].skipped_reason == "p_r: must be positive"


@pytest.mark.parametrize("key, model, power, text", [
    # Gain 1e-300: p_r = 1e10 needs p_t = 1e310; p_t = 1e-30 gives p_r = 0.
    ("p_r", LargeScaleModel(distance_m=1e150, enabled=True), 1e10, "transmit"),
    ("p_t", LargeScaleModel(distance_m=1e150, enabled=True), 1e-30, "receive"),
    # Gain ~6e297: p_t = 1e20 gives p_r ~6e317.
    ("p_t", LargeScaleModel(wavelength_m=1e150, enabled=True), 1e20, "receive"),
])
def test_run_config_rejects_a_resolved_power_past_the_float_range(key, model, power, text):
    overrides = {"p_r": None, key: power}
    with pytest.raises(ConfigError, match=f"^{key}: the {text} power it gives") as info:
        make_base(model=model, **overrides)
    assert info.value.field == key
    # Disabled, the model attenuates nothing and the power is its own.
    make_base(model=model.replace(enabled=False), **overrides)


def test_snr_db_point_whose_transmit_power_overflows_becomes_skipped_row():
    # At gain 1e-300, -100 dB is p_r = 1e-2 and p_t = 1e298; 10 dB is
    # p_r = 1e9, which needs p_t = 1e309.
    model = LargeScaleModel(distance_m=1e150, enabled=True)
    base = make_base(model=model, p_r=None, iterations=1000)
    rows = run_sweep(SweepSpec(base=base, axis="snr_db", grid=(-100.0, 10.0))).rows
    assert rows[0].skipped_reason is None and rows[0].p_e is not None
    assert rows[1].skipped_reason == ("p_r: the transmit power it gives at this path loss "
                                      "lies outside the float range")


def test_point_whose_signal_energy_overflows_becomes_skipped_row():
    # At n_0 = 1e-305 the base point's energy is finite; a thousandth of
    # its duty cycle puts it past the float range.
    base = make_base(n_0=1e-305, iterations=1000)
    duty = base.inputs.duty_cycle
    rows = run_sweep(SweepSpec(base=base, axis="duty_cycle", grid=(duty, duty / 1000))).rows
    assert rows[0].skipped_reason is None and rows[0].p_e is not None
    assert rows[1].skipped_reason == ("n_0: the signal energy it gives lies outside the "
                                      "float range")


def test_point_whose_awgn_snr_overflows_becomes_skipped_row():
    # Path-loss gain ~6e297 makes p_r ~6e297 from p_t = 1, and the energy
    # stays 1e16; a tenth of the bandwidth puts p_r / (n_0 B) past the
    # float range, where the row read awgn_bps = inf.
    model = LargeScaleModel(wavelength_m=1e150, enabled=True)
    base = make_base(model=model, p_r=None, p_t=1.0, n_0=1e-18, iterations=1000)
    band = base.inputs.bandwidth_hz
    rows = run_sweep(SweepSpec(base=base, axis="bandwidth", grid=(band, band / 10))).rows
    assert rows[0].skipped_reason is None and math.isfinite(rows[0].awgn_bps)
    assert rows[1].skipped_reason == "n_0: the AWGN SNR it gives lies outside the float range"


def test_invalid_duty_cycle_point_is_skipped_with_reason():
    base = make_base()
    spec = SweepSpec(base=base, axis="duty_cycle", grid=(0.4, 0.1, 0.01))
    rows = run_sweep(spec).rows
    assert rows[0].skipped_reason is not None
    assert "duty_cycle" in rows[0].skipped_reason
    assert rows[1].skipped_reason is None


def test_grid_validation():
    base = make_base()
    with pytest.raises(ConfigError, match="grid"):
        SweepSpec(base=base, axis="bandwidth", grid=())
    with pytest.raises(ConfigError, match="monotone"):
        SweepSpec(base=base, axis="bandwidth", grid=(1e5, 1e7, 1e6))
    with pytest.raises(ConfigError, match="axis"):
        SweepSpec(base=base, axis="power", grid=(1.0,))
    with pytest.raises(ConfigError, match="variants"):
        SweepSpec(base=base, axis="bandwidth", grid=(1e6,), variants=("QAM",))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["duty_cycle", "bandwidth", "snr_db"])
def test_non_finite_grid_value_fails_at_grid(axis, value):
    # Not a skipped row naming the input it was put in, nor a crash past it.
    base = make_base(p_r=None) if axis == "snr_db" else make_base()
    with pytest.raises(ConfigError, match="^grid: must be finite$"):
        SweepSpec(base=base, axis=axis, grid=(value,))


def test_duplicate_variants_are_rejected():
    with pytest.raises(ConfigError, match="^variants: duplicate variant 'WTFC'$"):
        SweepSpec(base=make_base(), axis="bandwidth", grid=(1e6,),
                  variants=("wtfc", "WTFC"))


def test_snr_axis_requires_unset_power():
    with pytest.raises(ConfigError, match="snr_db sweeps"):
        SweepSpec(base=make_base(), axis="snr_db", grid=(-40.0, -30.0))


def test_other_axes_require_power():
    base = make_base(p_r=None)
    with pytest.raises(ConfigError, match="p_r"):
        SweepSpec(base=base, axis="bandwidth", grid=(1e6,))


def test_snr_axis_sets_receive_power_per_point():
    base = make_base(p_r=None, inputs=PhysicalInputs(400e6, 100e-6, 0.3e-6, 360.0, 1e-3))
    spec = SweepSpec(base=base, axis="snr_db", grid=(-60.0, -50.0, -40.0))
    rows = run_sweep(spec).rows
    # The axis value is 10 log10(P_r/(N0 B)); the derived column echoes it.
    for row in rows:
        assert row.snr_db_bw == pytest.approx(row.axis_value, abs=1e-9)
    assert all(a.p_e >= b.p_e for a, b in zip(rows, rows[1:]))


def test_wide_snr_grid_saturates_at_ceiling():
    # On the wideband configuration, -20..10 dB of Pr/(N0 B) is already deep
    # in saturation: every point sits at the ceiling, and error rates only
    # move within Monte Carlo noise.
    base = make_base(
        p_r=None,
        inputs=PhysicalInputs(400e6, 100e-6, 0.3e-6, 360.0, 1e-3),
        iterations=100_000,
    )
    grid = tuple(float(v) for v in range(-20, 11, 2))
    rows = run_sweep(SweepSpec(base=base, axis="snr_db", grid=grid)).rows
    for row in rows:
        assert row.capacity_bps >= 0.99 * row.ceiling_bps
    for a, b in zip(rows, rows[1:]):
        tolerance = 3.0 * (a.ci_half_width_95 + b.ci_half_width_95)
        assert b.p_e <= a.p_e + tolerance


def test_awgn_column_conventions():
    model = LargeScaleModel(distance_m=10.0, wavelength_m=4 * 3.141592653589793, enabled=True)
    base = make_base(model=model)
    by_pr = run_sweep(
        SweepSpec(base=base, axis="bandwidth", grid=(1e6,), awgn_power="pr")
    ).rows[0]
    by_pt = run_sweep(
        SweepSpec(base=base, axis="bandwidth", grid=(1e6,), awgn_power="pt")
    ).rows[0]
    assert by_pt.awgn_bps > by_pr.awgn_bps  # P_t exceeds P_r over a lossy link
    no_col = run_sweep(
        SweepSpec(base=base, axis="bandwidth", grid=(1e6,), include_awgn=False)
    ).rows[0]
    assert no_col.awgn_bps is None


def test_compare_shadowing_zero_sigma_pairs_identically():
    base = make_base(iterations=30_000)
    spec = SweepSpec(base=base, axis="bandwidth", grid=(1e5, 1e6))
    result = compare_shadowing(spec, 0.0)
    for off, on in zip(result.rows[0::2], result.rows[1::2]):
        assert off.shadowing_enabled is False
        assert on.shadowing_enabled is True
        assert on.p_e == off.p_e
        assert on.capacity_bps == off.capacity_bps
        assert on.capacity_loss_pct == pytest.approx(0.0, abs=1e-12)


def test_compare_shadowing_orders_and_annotates():
    base = make_base(
        inputs=PhysicalInputs(100e6, 100e-6, 0.3e-6, 360.0, 1e-3),
        p_r=1e5,
        iterations=100_000,
    )
    spec = SweepSpec(base=base, axis="duty_cycle", grid=(1e-3, 1e-4))
    result = compare_shadowing(spec, 8.0)
    assert len(result.rows) == 4
    for off, on in zip(result.rows[0::2], result.rows[1::2]):
        assert off.capacity_loss_pct is None
        assert on.capacity_loss_pct is not None
        assert on.p_e > off.p_e  # shadowing hurts in this low-error regime
    for sigma_db in (-1.0, math.nan):
        with pytest.raises(ConfigError, match="^sigma_db: must be nonnegative$"):
            compare_shadowing(spec, sigma_db)


def test_compare_shadowing_given_p_t_equals_given_p_r_after_path_loss():
    # About 126 dB of deterministic loss: the off row must not get the
    # whole transmit power while the on row gets the lossy link.
    model = LargeScaleModel(distance_m=350.0, reference_distance_m=2.0,
                            wavelength_m=0.05, path_loss_exponent=3.2)
    p_t = 4e17
    p_r = p_t * deterministic_power_gain(model.replace(enabled=True))

    def compare(**power):
        base = make_base(model=model, iterations=20_000, **power)
        return compare_shadowing(SweepSpec(base=base, axis="duty_cycle", grid=(1e-2, 1e-3)),
                                 8.0).rows

    by_pt = compare(p_r=None, p_t=p_t)
    assert by_pt == compare(p_r=p_r)
    for off, on in zip(by_pt[0::2], by_pt[1::2]):
        assert off.awgn_bps == on.awgn_bps


@pytest.mark.parametrize("power", [{"p_r": None, "p_t": 4e17}, {"p_r": 1e5}])
def test_compare_shadowing_transmit_power_baseline_is_shared_by_off_and_on(power):
    # With awgn_power=pt both rows of a pair compare against the Shannon
    # rate at the one transmit power, path loss or not.
    model = LargeScaleModel(distance_m=350.0, reference_distance_m=2.0,
                            wavelength_m=0.05, path_loss_exponent=3.2)
    base = make_base(model=model, iterations=20_000, **power)
    spec = SweepSpec(base=base, axis="duty_cycle", grid=(1e-2, 1e-3), awgn_power="pt")
    rows = compare_shadowing(spec, 8.0).rows
    for off, on in zip(rows[0::2], rows[1::2]):
        assert (off.shadowing_enabled, on.shadowing_enabled) == (False, True)
        assert off.awgn_bps == on.awgn_bps


def test_threads_do_not_change_rows():
    spec = SweepSpec(base=make_base(iterations=250_000), axis="bandwidth", grid=(1e6, 1e7))
    assert run_sweep(spec, threads=1).rows == run_sweep(spec, threads=4).rows


def test_every_column_is_a_row_field():
    assert sorted(COLUMNS) == sorted(SweepRow.__annotations__)


def test_rows_at_a_huge_signal_energy_have_a_half_width():
    # The README point at n_0 = 1e-300: the three rows read p_e +- 0, as
    # the squares of their floor scores underflowed.
    base = make_base(inputs=PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100), p_r=1e4,
                     n_0=1e-300, iterations=1000, seed=0)
    spec = SweepSpec(base=base, axis="duty_cycle", grid=(1e-2, 1e-5, 1e-7))
    rows = run_sweep(spec).rows
    assert len(rows) == 3
    for row in rows:
        point = _point_config(base, "duty_cycle", row.axis_value)
        params = derive_scheme(point.inputs)
        exact = analytic_pe_no_shadowing(
            signal_energy(point.resolved_p_t(), params, point.n_0) + 1.0,
            params.noise_slot_count)
        assert row.ci_half_width_95 > 0.0
        assert abs(row.p_e - exact) <= 3 * row.ci_half_width_95
