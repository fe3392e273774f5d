import dataclasses

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
    dmc_capacity,
    estimate_pe,
    run_sweep,
)
from wtfc.sweep import _point_seed

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

    inputs = dataclasses.replace(BASE_INPUTS, bandwidth_hz=1e6)
    params = derive_scheme(inputs)
    est = estimate_pe(
        params, base.model, base.p_r, 1.0, 50_000, _point_seed(123, 0)
    )
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


def test_shared_point_seed_couples_variants():
    # Same uniforms per point, and the IFSK max-of-noise is dominated by the
    # WTFC one, so the paired error estimate is ordered deterministically.
    spec = SweepSpec(
        base=make_base(),
        axis="bandwidth",
        grid=(1e5, 1e6, 1e7),
        variants=("WTFC", "IFSK"),
    )
    rows = run_sweep(spec).rows
    for wtfc_row, ifsk_row in zip(rows[0::2], rows[1::2]):
        assert wtfc_row.seed == ifsk_row.seed
        assert ifsk_row.p_e <= wtfc_row.p_e


def test_too_small_bandwidth_becomes_skipped_row():
    spec = SweepSpec(base=make_base(), axis="bandwidth", grid=(1e4, 1e5))
    rows = run_sweep(spec).rows
    assert rows[0].skipped_reason is not None
    assert "bandwidth" in rows[0].skipped_reason
    result_fields = ("p_e", "ci_half_width_95", "capacity_bps", "ceiling_bps", "awgn_bps")
    assert [getattr(rows[0], name) for name in result_fields] == [None] * 5
    assert rows[0].seed == _point_seed(123, 0) and rows[0].iterations == 50_000
    assert rows[0].shadowing_enabled is False
    assert rows[1].skipped_reason is None


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
    with pytest.raises(ConfigError, match="sigma_db"):
        compare_shadowing(spec, -1.0)


def test_compare_shadowing_given_p_t_equals_given_p_r_after_path_loss():
    # About 126 dB of deterministic loss: the off row must not get the
    # whole transmit power while the on row gets the lossy link.
    model = LargeScaleModel(distance_m=350.0, reference_distance_m=2.0,
                            wavelength_m=0.05, path_loss_exponent=3.2)
    p_t = 4e17
    p_r = p_t * deterministic_power_gain(dataclasses.replace(model, enabled=True))

    def compare(**power):
        base = make_base(model=model, iterations=20_000, **power)
        return compare_shadowing(SweepSpec(base=base, axis="duty_cycle", grid=(1e-2, 1e-3)),
                                 8.0).rows

    by_pt = compare(p_r=None, p_t=p_t)
    assert by_pt == compare(p_r=p_r)
    for off, on in zip(by_pt[0::2], by_pt[1::2]):
        assert off.awgn_bps == on.awgn_bps


def test_threads_do_not_change_rows():
    spec = SweepSpec(base=make_base(iterations=250_000), axis="bandwidth", grid=(1e6, 1e7))
    assert run_sweep(spec, threads=1).rows == run_sweep(spec, threads=4).rows
