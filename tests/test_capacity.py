import logging
import math

import numpy as np
import pytest

from wtfc import (
    PhysicalInputs,
    analytic_pe_no_shadowing,
    awgn_capacity,
    derive_scheme,
    dmc_capacity,
)


class TestDmcCapacity:
    def test_noiseless_hits_ceiling_exactly(self):
        expected = math.log2(1024) * (1 / 100) / 101e-6
        assert dmc_capacity(0.0, 1024, 1 / 100, 101e-6) == expected
        inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100)
        for params in (derive_scheme(inputs), derive_scheme(inputs, "IFSK")):
            inputs = params.inputs
            capacity = dmc_capacity(
                0.0, params.alphabet_size, inputs.duty_cycle, inputs.symbol_time_s
            )
            assert capacity == params.ceiling_bps()

    def test_uniform_guessing_gives_zero(self):
        for s in (2, 64, 1024):
            assert abs(dmc_capacity(1.0 - 1.0 / s, s, 1.0, 1.0)) <= 1e-12

    def test_hand_evaluated_point(self):
        # 2 + 0.9 log2(0.9) + 0.1 log2(0.1/3), worked out by hand.
        assert dmc_capacity(0.1, 4, 1.0, 1.0) == pytest.approx(1.3725081563386, abs=1e-10)

    def test_clamps_overlarge_pe_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="wtfc.capacity"):
            capacity = dmc_capacity(0.75, 2, 1.0, 1.0)
        assert capacity == pytest.approx(0.0, abs=1e-12)
        assert any("clamp" in record.message for record in caplog.records)

    def test_clamp_warning_tells_pe_from_the_zero_capacity_point(self, caplog):
        # S = 2 700 000, the README point at 1 GHz: 1 - 1/S differs from 1
        # in the seventh digit, so the warning needs more than six.
        with caplog.at_level(logging.WARNING, logger="wtfc.capacity"):
            dmc_capacity(1.0, 2_700_000, 1 / 100, 101e-6)
        assert [record.getMessage() for record in caplog.records] == [
            "p_e=1 exceeds 1 - 1/S = 0.99999962962962963; "
            "clamping to the zero-capacity point"
        ]

    @pytest.mark.parametrize("s", [int(2.7e306), 2**1023 + 1])
    def test_pe_over_an_alphabet_near_the_float_range(self, s):
        # p_e / (S - 1) underflows to 0 here, and log2 of it failed with a
        # math domain error; log2(p_e) - log2(S - 1) does not underflow.
        p_e = 1e-300
        assert p_e / (s - 1) == 0.0
        bits = math.log2(s) + (1.0 - p_e) * math.log2(1.0 - p_e)
        bits += p_e * (math.log2(p_e) - math.log2(s - 1))
        assert dmc_capacity(p_e, s, 1.0, 1.0) == bits

    def test_pe_of_one_past_two_to_the_53_symbols(self):
        # 1 - 1/S rounds to 1 there, so p_e = 1 is not clamped; its
        # (1 - p_e) log2(1 - p_e) term is 0 log 0 = 0, where log2(0) failed.
        s = 2**60
        assert 1.0 - 1.0 / s == 1.0
        assert dmc_capacity(1.0, s, 1.0, 1.0) == max(math.log2(s) - math.log2(s - 1), 0.0)

    def test_pe_over_an_ordinary_alphabet_keeps_the_quotient(self):
        # Where the quotient is a normal float its log is taken, as before.
        s, p_e = 2_700_000, 0.1
        bits = math.log2(s) + (1.0 - p_e) * math.log2(1.0 - p_e)
        bits += p_e * math.log2(p_e / (s - 1))
        assert dmc_capacity(p_e, s, 1.0, 1.0) == bits

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dmc_capacity(0.1, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            dmc_capacity(-0.1, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            dmc_capacity(0.1, 4, 0.0, 1.0)

    def test_strictly_decreasing_in_pe(self):
        s = 64
        grid = np.linspace(0.0, 1.0 - 1.0 / s, 100)
        values = [dmc_capacity(p, s, 1.0, 1.0) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_only_ratio_of_duty_cycle_and_symbol_time_matters(self):
        for c in (0.5, 3.0, 100.0):
            a = dmc_capacity(0.07, 128, 1 / 100, 5e-5)
            b = dmc_capacity(0.07, 128, 1 / 100 * c, 5e-5 * c)
            assert a == pytest.approx(b, rel=1e-12)

    def test_bounds_hold_on_random_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = int(rng.integers(2, 5000))
            p = float(rng.random() * (1.0 - 1.0 / s))
            ceiling = (0.01 / 1e-4) * math.log2(s)
            assert 0.0 <= dmc_capacity(p, s, 0.01, 1e-4) <= ceiling


class TestAwgnCapacity:
    def test_unit_snr(self):
        assert awgn_capacity(1e4, 1.0, 1e4) == pytest.approx(1e4)

    def test_wideband_limit(self):
        # B log2(1 + P/(N0 B)) -> P/(N0 ln 2) as B grows.
        p_r = 3.7
        b = 1e6 * p_r
        limit = p_r / math.log(2.0)
        assert awgn_capacity(p_r, 1.0, b) == pytest.approx(limit, rel=1e-4)

    def test_narrowband_point(self):
        assert awgn_capacity(40.0, 1.0, 1e4) == pytest.approx(57.5927, abs=1e-3)

    def test_increasing_and_concave_in_bandwidth(self):
        grid = [1e4, 3e4, 1e5, 3e5, 1e6, 3e6]
        values = [awgn_capacity(40.0, 1.0, b) for b in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        # Concavity along a geometric grid: ratios of successive gains shrink.
        gains = [b - a for a, b in zip(values, values[1:])]
        assert all(g2 / g1 < 3.0 for g1, g2 in zip(gains, gains[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            awgn_capacity(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("args", [(1e300, 1e-100, 1.0), (1.0, 1e-200, 1e-200)],
                             ids=["snr-overflows", "n0-b-underflows"])
    def test_rejects_an_snr_past_the_float_range(self, args):
        # It returned inf, or divided by an N_0 B that underflows to 0.
        with pytest.raises(ValueError, match="SNR"):
            awgn_capacity(*args)


class TestIfskVariant:
    def test_alphabet_shrinks_to_tone_count(self):
        inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100)
        base, ifsk = derive_scheme(inputs), derive_scheme(inputs, "IFSK")
        assert base.alphabet_size == 270_000
        assert ifsk.alphabet_size == 2700
        assert ifsk.variant == "IFSK"
        assert ifsk.noise_slot_count == 2699
        assert ifsk.bits_per_symbol == pytest.approx(math.log2(2700))
        # Identical physical parameters, so identical amplitude bookkeeping.
        assert ifsk.inputs == base.inputs
        assert ifsk.q == base.q and ifsk.delta_f_hz == base.delta_f_hz

    def test_unknown_variant_is_rejected(self):
        inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100)
        with pytest.raises(ValueError, match="'FSK'"):
            derive_scheme(inputs, "FSK")

    def test_full_duty_cycle_collapses_variants(self):
        inputs = PhysicalInputs(100.0, 1.0, 0.0, 0.0, 1.0)
        base, ifsk = derive_scheme(inputs), derive_scheme(inputs, "IFSK")
        assert ifsk.alphabet_size == base.alphabet_size == base.tone_count
        assert ifsk.ceiling_bps() == base.ceiling_bps()

    def test_fewer_competitors_but_lower_ceiling(self):
        inputs = PhysicalInputs(1e6, 101e-6, 20e-6, 360.0, 1 / 100)
        base, ifsk = derive_scheme(inputs), derive_scheme(inputs, "IFSK")
        mu = 25.0
        pe_wtfc = analytic_pe_no_shadowing(mu, base.noise_slot_count)
        pe_ifsk = analytic_pe_no_shadowing(mu, ifsk.noise_slot_count)
        assert pe_ifsk < pe_wtfc
        assert ifsk.ceiling_bps() < base.ceiling_bps()


def test_simulated_capacity_respects_awgn_bound():
    from wtfc import LargeScaleModel, estimate_pe

    inputs = PhysicalInputs(100e6, 100e-6, 0.3e-6, 360.0, 1 / 100)
    params = derive_scheme(inputs)
    p_r = 1e5
    est = estimate_pe(params, LargeScaleModel(), p_r, 1.0, 200_000, seed=77)
    capacity = dmc_capacity(
        est.p_e, params.alphabet_size, inputs.duty_cycle, inputs.symbol_time_s
    )
    assert capacity <= awgn_capacity(p_r, 1.0, inputs.bandwidth_hz)
