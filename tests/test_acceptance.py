"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The figure-style sweeps run once as module fixtures and are
shared by the baseline-dominance criterion.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

import helpers
from wtfc import (
    LargeScaleModel,
    PhysicalInputs,
    RunConfig,
    SweepSpec,
    analytic_pe_no_shadowing,
    compare_shadowing,
    dmc_capacity,
    estimate_pe,
    run_sweep,
)
from wtfc.cli import main
from wtfc.detector import max_noise_from_uniform

NO_FADING = LargeScaleModel()


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d} FAIL: {description}")
        raise
    print(f"CRITERION {number:2d} PASS: {description}")


def capacity_half_width(p_e, half_width, alphabet, duty_cycle, symbol_time):
    """Propagate a p_e half-width through the capacity formula."""
    worst = 1.0 - 1.0 / alphabet
    lo = min(max(p_e - half_width, 0.0), worst)
    hi = min(max(p_e + half_width, 0.0), worst)
    c_lo = dmc_capacity(hi, alphabet, duty_cycle, symbol_time)
    c_hi = dmc_capacity(lo, alphabet, duty_cycle, symbol_time)
    return (c_hi - c_lo) / 2.0


# ---------------------------------------------------------------------------
# Figure-style sweeps, shared across criteria 5-9.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def snr_sweep():
    # Capacity vs SNR with the wide 400 MHz configuration; the 15-point grid
    # spans the rise to saturation. Axis is 10 log10(Pr/(N0 B)).
    base = RunConfig(
        inputs=PhysicalInputs(400e6, 100e-6, 0.3e-6, 360.0, 1 / 1000),
        model=LargeScaleModel(),
        p_r=None,
        p_t=None,
        n_0=1.0,
        iterations=100_000,
        seed=405,
    )
    grid = tuple(-75.0 + 3.0 * i for i in range(15))
    spec = SweepSpec(base=base, axis="snr_db", grid=grid)
    start = time.perf_counter()
    result = run_sweep(spec, threads=4)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def duty_cycle_sweep():
    # Error probability and capacity vs duty cycle; both capacity regimes
    # around p_e = 1/2 are inside the grid with a 10 us symbol time.
    base = RunConfig(
        inputs=PhysicalInputs(100e6, 10e-6, 0.3e-6, 360.0, 1.0),
        model=LargeScaleModel(),
        p_r=1e5,
        p_t=None,
        n_0=1.0,
        iterations=100_000,
        seed=505,
    )
    spec = SweepSpec(
        base=base, axis="duty_cycle", grid=(1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5)
    )
    return run_sweep(spec, threads=4)


@pytest.fixture(scope="module")
def shadowing_pairs():
    # Shadowing on/off pairs at sigma = 8 dB over the duty-cycle decades.
    # Duty cycles of 1 and 1/10 are left out: there the log-normal mean-power
    # boost under fixed transmit power swamps the fade penalty, flipping the
    # sign or size of the loss (duty cycle 1 *gains* ~6% capacity).
    base = RunConfig(
        inputs=PhysicalInputs(100e6, 100e-6, 0.3e-6, 360.0, 1.0),
        model=LargeScaleModel(),
        p_r=1e5,
        p_t=None,
        n_0=1.0,
        iterations=5_000_000,
        seed=808,
    )
    spec = SweepSpec(base=base, axis="duty_cycle", grid=(1e-2, 1e-3, 1e-4, 1e-5))
    return compare_shadowing(spec, 8.0, threads=4)


@pytest.fixture(scope="module")
def variant_sweeps():
    # WTFC vs I-FSK over bandwidth at equal duty cycle, plus the two I-FSK
    # duty-cycle variants.
    grid = tuple(float(b) for b in np.geomspace(1e5, 1e8, 10))

    def base_with(duty_cycle: float) -> RunConfig:
        return RunConfig(
            inputs=PhysicalInputs(100e6, 101e-6, 20e-6, 360.0, duty_cycle),
            model=LargeScaleModel(),
            p_r=10**3.4,
            p_t=None,
            n_0=1.0,
            iterations=100_000,
            seed=707,
        )

    equal = run_sweep(
        SweepSpec(
            base=base_with(1 / 100),
            axis="bandwidth",
            grid=grid,
            variants=("WTFC", "IFSK"),
        ),
        threads=4,
    )
    ifsk_50 = run_sweep(
        SweepSpec(base=base_with(1 / 50), axis="bandwidth", grid=grid,
                  variants=("IFSK",)),
        threads=4,
    )
    ifsk_200 = run_sweep(
        SweepSpec(base=base_with(1 / 200), axis="bandwidth", grid=grid,
                  variants=("IFSK",)),
        threads=4,
    )
    return {"equal": equal, "ifsk_50": ifsk_50, "ifsk_200": ifsk_200}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    with criterion(1, "Monte Carlo matches the closed form on the (mu, N) grid"):
        start = time.perf_counter()
        cells = 0
        passed = 0
        for mu in (1.0, 2.0, 10.0, 100.0, 1000.0):
            for n in (1, 3, 15, 255):
                params = helpers.scheme_with_alphabet(n + 1)
                estimate = estimate_pe(
                    params,
                    NO_FADING,
                    helpers.power_for_mu(mu),
                    1.0,
                    100_000,
                    seed=1000 + n,
                    threads=2,
                )
                exact = analytic_pe_no_shadowing(mu, n)
                cells += 1
                if abs(estimate.p_e - exact) <= 3 * estimate.half_width_95:
                    passed += 1
        elapsed = time.perf_counter() - start
        assert passed >= math.ceil(0.95 * cells), f"{passed}/{cells} cells passed"
        assert elapsed < 30.0, f"grid took {elapsed:.1f}s"


def test_criterion_2_fast_path_equivalence():
    with criterion(2, "inverse-transform path matches the all-slots reference"):
        for s in (2, 8, 64):
            params = helpers.scheme_with_alphabet(s)
            fast = estimate_pe(params, NO_FADING, 9.0, 1.0, 100_000, seed=20 + s)
            ref_p, ref_hw = helpers.naive_pe(s, 10.0, 100_000, seed=120 + s)
            assert abs(fast.p_e - ref_p) <= helpers.combined_3hw(
                fast.half_width_95, ref_hw
            ), f"S={s}"
            draws = max_noise_from_uniform(
                s - 1, np.random.default_rng(220 + s).random(100_000)
            )
            naive = helpers.naive_max_noise(s - 1, 100_000, seed=320 + s)
            ks = ks_2samp(draws, naive).statistic
            assert ks < 0.005, f"S={s}: KS={ks:.4f}"


def test_criterion_3_closed_form_spot_values():
    with criterion(3, "closed-form spot values and exact-sum agreement"):
        assert analytic_pe_no_shadowing(1.0, 1) == 0.5
        assert abs(analytic_pe_no_shadowing(10.0, 1) - 1.0 / 11.0) < 1e-12
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 50):
            for mu in (1.0, 1.5, 2.0, 10.0, 100.0, 1000.0):
                exact = helpers.exact_pe_alternating_sum(mu, n)
                delta = abs(analytic_pe_no_shadowing(mu, n) - exact)
                assert delta <= 1e-10, f"mu={mu} N={n}: {delta:.2e}"


def test_criterion_4_capacity_edge_cases():
    with criterion(4, "capacity edge cases and strict monotonicity"):
        for s in (2, 64, 4096):
            noiseless = dmc_capacity(0.0, s, 1 / 100, 101e-6)
            assert noiseless == math.log2(s) * (1 / 100) / 101e-6
            assert abs(dmc_capacity(1.0 - 1.0 / s, s, 1.0, 1.0)) <= 1e-12
        grid = np.linspace(0.0, 1.0 - 1.0 / 256, 100)
        values = [dmc_capacity(p, 256, 1.0, 1.0) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_5_snr_trend(snr_sweep):
    with criterion(5, "capacity rises with SNR and saturates at the ceiling"):
        result, elapsed = snr_sweep
        rows = result.rows
        assert all(r.skipped_reason is None for r in rows)
        capacities = [r.capacity_bps for r in rows]
        assert all(
            a <= b for a, b in zip(capacities, capacities[1:])
        ), "capacity not nondecreasing in SNR"
        assert capacities[-1] >= 0.99 * rows[-1].ceiling_bps
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_6_duty_cycle_regimes(duty_cycle_sweep):
    with criterion(6, "duty-cycle regimes split at p_e = 1/2"):
        rows = duty_cycle_sweep.rows
        p_es = [r.p_e for r in rows]
        assert all(a > b for a, b in zip(p_es, p_es[1:])), (
            "p_e must strictly decrease as the duty cycle shrinks"
        )
        capacities = [r.capacity_bps for r in rows]
        for i in range(len(rows) - 1):
            left, right = rows[i], rows[i + 1]
            both_above = (
                left.p_e - 3 * left.ci_half_width_95 > 0.5
                and right.p_e - 3 * right.ci_half_width_95 > 0.5
            )
            if both_above:
                assert capacities[i + 1] > capacities[i], (
                    f"capacity must rise while p_e > 1/2 (pair {i})"
                )
            if left.p_e + 3 * left.ci_half_width_95 < 0.5:
                assert capacities[i + 1] < capacities[i], (
                    f"capacity must fall once p_e < 1/2 (pair {i})"
                )
        # Unimodal: one interior peak at the regime boundary.
        peak = capacities.index(max(capacities))
        assert 0 < peak < len(capacities) - 1
        assert all(a < b for a, b in zip(capacities[:peak + 1], capacities[1:peak + 1]))
        assert all(a > b for a, b in zip(capacities[peak:], capacities[peak + 1:]))


def test_criterion_7_shadowing_impact(shadowing_pairs):
    with criterion(7, "shadowing costs a few percent at the largest p_e and ~nothing at the smallest"):
        pairs = list(zip(shadowing_pairs.rows[0::2], shadowing_pairs.rows[1::2]))
        assert all(off.skipped_reason is None for off, _ in pairs)
        nearest_half = min(pairs, key=lambda pair: abs(pair[0].p_e - 0.5))
        assert 1.0 <= nearest_half[1].capacity_loss_pct <= 6.0, (
            f"loss {nearest_half[1].capacity_loss_pct:.2f}% at "
            f"p_e={nearest_half[0].p_e:.4f}"
        )
        smallest_pe = min(pairs, key=lambda pair: pair[0].p_e)
        assert smallest_pe[1].capacity_loss_pct < 0.5
        deep = next(p for p in pairs if p[0].axis_value == 1e-5)
        inflation = deep[1].p_e / deep[0].p_e
        assert 3.0 <= inflation <= 12.0, f"inflation {inflation:.2f}"


def _variant_alphabet(bandwidth: float, duty_cycle: float, variant: str) -> int:
    from wtfc import derive_scheme

    params = derive_scheme(
        PhysicalInputs(bandwidth, 101e-6, 20e-6, 360.0, duty_cycle)
    )
    return params.tone_count if variant == "IFSK" else params.alphabet_size


def _row_capacity_tolerance(row, duty_cycle: float) -> float:
    alphabet = _variant_alphabet(row.axis_value, duty_cycle, row.variant)
    return capacity_half_width(
        row.p_e, row.ci_half_width_95, alphabet, duty_cycle, 101e-6
    )


def test_criterion_8_variant_ordering(variant_sweeps):
    with criterion(8, "WTFC beats equal-duty I-FSK; larger I-FSK duty cycle wins at p_e < 1/2"):
        equal = variant_sweeps["equal"].rows
        for wtfc_row, ifsk_row in zip(equal[0::2], equal[1::2]):
            tol = 3.0 * math.hypot(
                _row_capacity_tolerance(wtfc_row, 1 / 100),
                _row_capacity_tolerance(ifsk_row, 1 / 100),
            )
            assert wtfc_row.capacity_bps >= ifsk_row.capacity_bps - tol, (
                f"B={wtfc_row.axis_value:g}"
            )
        fifty = variant_sweeps["ifsk_50"].rows
        two_hundred = variant_sweeps["ifsk_200"].rows
        compared = 0
        for row_50, row_200 in zip(fifty, two_hundred):
            below_half = (
                row_50.p_e + 3 * row_50.ci_half_width_95 < 0.5
                and row_200.p_e + 3 * row_200.ci_half_width_95 < 0.5
            )
            if not below_half:
                continue
            compared += 1
            tol = 3.0 * math.hypot(
                _row_capacity_tolerance(row_50, 1 / 50),
                _row_capacity_tolerance(row_200, 1 / 200),
            )
            assert row_50.capacity_bps > row_200.capacity_bps - tol, (
                f"B={row_50.axis_value:g}"
            )
        assert compared >= 5, "too few grid points below p_e = 1/2"


def test_criterion_9_awgn_dominance(snr_sweep, duty_cycle_sweep, shadowing_pairs, variant_sweeps):
    with criterion(9, "simulated capacity never beats the Shannon baseline"):
        every_row = (
            list(snr_sweep[0].rows)
            + list(duty_cycle_sweep.rows)
            + list(shadowing_pairs.rows)
            + list(variant_sweeps["equal"].rows)
            + list(variant_sweeps["ifsk_50"].rows)
            + list(variant_sweeps["ifsk_200"].rows)
        )
        checked = 0
        for row in every_row:
            if row.skipped_reason is not None or row.awgn_bps is None:
                continue
            checked += 1
            # MC tolerance: capacity can only be overestimated by noise in p_e.
            assert row.capacity_bps <= row.awgn_bps * (1.0 + 1e-12) + 1e-9, (
                f"{row.variant} at {row.axis_name}={row.axis_value:g}: "
                f"{row.capacity_bps} > {row.awgn_bps}"
            )
        assert checked > 60


def test_criterion_10_csv_byte_determinism(tmp_path, capsys):
    with criterion(10, "identical CSV bytes for any --threads value"):
        config = tmp_path / "det.cfg"
        config.write_text(
            "bandwidth_hz = 100e6\n"
            "symbol_time_s = 101e-6\n"
            "delay_spread_s = 20e-6\n"
            "doppler_spread_hz = 360\n"
            "duty_cycle = 1/100\n"
            "p_r = 2511.886431509582\n"
            "iterations = 200000\n"
            "seed = 1010\n"
            "axis = bandwidth\n"
            "grid = 1e5,1e6,1e7\n"
            "variants = wtfc,ifsk\n"
        )
        out_one = tmp_path / "one.csv"
        out_four = tmp_path / "four.csv"
        assert main(["sweep", "--config", str(config), "--threads", "1",
                     "--out", str(out_one)]) == 0
        assert main(["sweep", "--config", str(config), "--threads", "4",
                     "--out", str(out_four)]) == 0
        capsys.readouterr()
        assert out_one.read_bytes() == out_four.read_bytes()
        assert out_one.read_bytes()  # nonempty
