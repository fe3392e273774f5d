import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import helpers
from wtfc import (
    LargeScaleModel,
    PhysicalInputs,
    analytic_pe_no_shadowing,
    derive_scheme,
    estimate_pe,
    max_noise_from_uniform,
    signal_energy,
    signal_power_from_uniform,
)
from wtfc.detector import (
    CHUNK_SIZE,
    _chunk_error_count,
    _max_noise_from_log,
    _unit_exponential,
)

NO_FADING = LargeScaleModel()


def signal_slot_mean(transmit_power, params, noise_density, m=1.0):
    """mu = m^2 E + 1, associated as the estimator's chunk computes it."""
    return m * m * signal_energy(transmit_power, params, noise_density) + 1.0


class TestSignalSlotMean:
    def test_zero_power_is_pure_noise(self):
        params = helpers.scheme_with_alphabet(4)
        assert signal_slot_mean(0.0, params, 1.0) == 1.0

    def test_direct_substitution(self):
        params = helpers.scheme_with_alphabet(4)
        assert signal_slot_mean(9.0, params, 1.0) == pytest.approx(10.0)

    def test_large_scale_squares_into_energy(self):
        params = helpers.scheme_with_alphabet(4)
        assert signal_slot_mean(100.0, params, 1.0, m=0.1) == pytest.approx(2.0)

    def test_duty_cycle_boost(self):
        params = derive_scheme(PhysicalInputs(100.0, 1.0, 0.0, 0.0, 1 / 10))
        assert signal_slot_mean(1.0, params, 1.0) == pytest.approx(11.0)

    def test_rejects_bad_arguments(self):
        params = helpers.scheme_with_alphabet(4)
        with pytest.raises(ValueError, match="transmit_power"):
            signal_energy(-1.0, params, 1.0)
        with pytest.raises(ValueError, match="noise_density"):
            signal_energy(1.0, params, 0.0)


class TestInverseTransforms:
    def test_zero_uniform_maps_to_zero(self):
        assert signal_power_from_uniform(3.0, 0.0) == 0.0
        for n in (1, 5, 10**9):
            assert max_noise_from_uniform(n, 0.0) == 0.0

    def test_signal_inversion_by_hand(self):
        u = 1.0 - math.exp(-1.0)
        assert signal_power_from_uniform(1.0, u) == pytest.approx(1.0, rel=1e-12)

    def test_max_noise_reduces_to_exponential_at_n1(self):
        u = 1.0 - math.exp(-1.0)
        assert max_noise_from_uniform(1, u) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError, match="n_noise"):
            max_noise_from_uniform(0, 0.5)
        with pytest.raises(ValueError, match="n_noise"):
            max_noise_from_uniform(0, np.random.default_rng(0).random(3))

    def test_signal_sampler_mean(self):
        rng = np.random.default_rng(42)
        draws = signal_power_from_uniform(10.0, rng.random(1_000_000))
        assert float(np.mean(draws)) == pytest.approx(10.0, abs=0.05)

    def test_max_noise_matches_naive_sampling(self):
        # Inverse-transform max of 3 versus drawing all 3 exponentials.
        rng = np.random.default_rng(7)
        fast = max_noise_from_uniform(3, rng.random(1_000_000))
        slow = helpers.naive_max_noise(3, 1_000_000, seed=8)
        assert ks_2samp(fast, slow).statistic < 0.002

    def test_exponential_equals_max_of_one(self):
        rng = np.random.default_rng(21)
        a = signal_power_from_uniform(1.0, rng.random(1_000_000))
        b = max_noise_from_uniform(1, np.random.default_rng(22).random(1_000_000))
        assert ks_2samp(a, b).statistic < 0.002

    def test_huge_slot_counts_stay_resolved(self):
        # At N = 1e9 the naive 1 - u^(1/N) would collapse to a constant.
        rng = np.random.default_rng(3)
        draws = max_noise_from_uniform(10**9, rng.random(1_000_000))
        assert np.all(np.isfinite(draws))
        assert np.unique(draws).size > 900_000
        # Mean of the max of N exponentials is the N-th harmonic number.
        expected = math.log(1e9) + 0.5772156649
        assert float(np.mean(draws)) == pytest.approx(expected, abs=0.01)


def _uniforms():
    u = np.random.default_rng(19).random(10_001)
    u[0] = 0.0
    u[-1] = np.nextafter(1.0, 0.0)
    return u


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestInPlaceTransforms:
    # The kernel's in-place stages against the wrappers, on the same
    # inputs; the wrappers against the plain out-of-place formulas.
    @pytest.mark.parametrize("mu", ["scalar", "array"])
    def test_signal_same_bits_with_out(self, mu):
        u = _uniforms()
        mu = 26.4 if mu == "scalar" else 1.0 + 1e6 * np.random.default_rng(4).random(u.size)
        want = signal_power_from_uniform(mu, u)
        assert _same_bits(want, mu * -np.log1p(-u))
        out = np.full_like(u, np.nan)
        assert _unit_exponential(u, out) is out
        assert np.multiply(mu, out, out=out) is out
        assert _same_bits(out, want)
        assert _unit_exponential(u, u) is u
        assert _same_bits(np.multiply(mu, u, out=u), want)

    @pytest.mark.parametrize("n_noise", [1, 15, 269_999, 10**9])
    def test_max_noise_same_bits_with_out(self, n_noise):
        u = _uniforms()
        want = max_noise_from_uniform(n_noise, u)
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        assert _same_bits(want, -np.log(-np.expm1(log_u / n_noise)))
        out = np.full_like(u, np.nan)
        assert _max_noise_from_log(n_noise, log_u, out) is out
        assert _same_bits(out, want)
        assert _max_noise_from_log(n_noise, log_u, log_u) is log_u
        assert _same_bits(log_u, want)
        assert log_u[0] == 0.0

    def test_scalars_stay_scalars_without_out(self):
        assert np.ndim(signal_power_from_uniform(3.0, 0.5)) == 0
        assert np.ndim(max_noise_from_uniform(10**9, 0.5)) == 0


class TestAnalyticOracle:
    def test_spot_values(self):
        assert analytic_pe_no_shadowing(1.0, 1) == 0.5
        assert analytic_pe_no_shadowing(10.0, 1) == pytest.approx(1 / 11, abs=1e-12)

    def test_matches_exact_alternating_sum(self):
        for mu in (1.0, 2.0, 10.0, 1000.0):
            for n in (1, 7, 23, 50):
                exact = helpers.exact_pe_alternating_sum(mu, n)
                assert abs(analytic_pe_no_shadowing(mu, n) - exact) < 1e-10

    @pytest.mark.parametrize("mu", [1.0, 1.5, 10.0, 1e4, 1e7, 1e12])
    def test_matches_mpmath_gamma_ratio(self, mu):
        a = 1 / mpmath.mpf(mu)
        for n in (1, 15, 16, 17, 50, 51, 269_999, 10**6, 270_000_000, 10**9):
            with mpmath.workdps(50):
                log_correct = (
                    mpmath.loggamma(n + 1) + mpmath.loggamma(1 + a)
                    - mpmath.loggamma(n + 1 + a)
                )
                exact = float(-mpmath.expm1(log_correct))
            assert analytic_pe_no_shadowing(mu, n) == pytest.approx(
                exact, rel=1e-12
            ), f"mu={mu} N={n}"

    def test_large_mu_past_the_small_n_branch(self):
        # mu = 1e5, N = 51 once read 3.73e-5 (18 % low) from quadrature.
        assert analytic_pe_no_shadowing(1e5, 51) == pytest.approx(
            4.5187029574630120e-5, rel=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.floats(1.0, 1e12),
        ratio=st.floats(1.001, 1e3),
        n=st.integers(1, 10**9),
    )
    def test_decreases_in_mu(self, mu, ratio, n):
        assert analytic_pe_no_shadowing(mu * ratio, n) <= analytic_pe_no_shadowing(mu, n)

    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.floats(1.0, 1e12),
        n=st.integers(1, 10**7),
        factor=st.integers(2, 100),
    )
    def test_increases_in_n(self, mu, n, factor):
        assert analytic_pe_no_shadowing(mu, n * factor) >= analytic_pe_no_shadowing(mu, n)

    @settings(max_examples=300, deadline=None)
    @given(mu=st.floats(1.0, 1e15), n=st.integers(1, 10**9))
    def test_between_zero_and_uniform_guessing(self, mu, n):
        assert 0.0 <= analytic_pe_no_shadowing(mu, n) <= 1.0 - 1.0 / (n + 1)

    def test_zero_energy_limit(self):
        for n in (1, 3, 255):
            assert analytic_pe_no_shadowing(1.0, n) == pytest.approx(
                1.0 - 1.0 / (n + 1), abs=1e-12
            )

    def test_monotone_in_mu_and_n(self):
        grid = [1.0, 2.0, 10.0, 100.0, 1000.0]
        for n in (1, 3, 15, 255):
            values = [analytic_pe_no_shadowing(mu, n) for mu in grid]
            assert all(a > b for a, b in zip(values, values[1:]))
        for mu in (2.0, 10.0, 100.0):
            values = [analytic_pe_no_shadowing(mu, n) for n in (1, 3, 15, 255, 4095)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_beta_closed_form(self):
        # Independent closed form: P(correct) = B(1/mu, N+1) / mu.
        from scipy.special import betaln

        for mu, n in [(2.0, 3), (10.0, 50), (26.4, 255), (1000.0, 100_000)]:
            expected = 1.0 - math.exp(betaln(1.0 / mu, n + 1)) / mu
            assert analytic_pe_no_shadowing(mu, n) == pytest.approx(expected, abs=5e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            analytic_pe_no_shadowing(0.5, 3)
        with pytest.raises(ValueError):
            analytic_pe_no_shadowing(2.0, 0)


class TestEstimatePe:
    def test_zero_power_limit(self):
        params = helpers.scheme_with_alphabet(8)
        est = estimate_pe(params, NO_FADING, 0.0, 1.0, 200_000, seed=5)
        expected = 1.0 - 1.0 / 8.0
        assert est.p_e == pytest.approx(expected, abs=4 * est.half_width_95)

    def test_binary_alphabet_against_closed_form(self):
        params = helpers.scheme_with_alphabet(2)
        est = estimate_pe(params, NO_FADING, 9.0, 1.0, 1_000_000, seed=11)
        assert abs(est.p_e - 1 / 11) <= 3 * est.half_width_95

    def test_half_width_formula(self):
        params = helpers.scheme_with_alphabet(4)
        est = estimate_pe(params, NO_FADING, 3.0, 1.0, 50_000, seed=2)
        expected = 1.96 * math.sqrt(est.p_e * (1 - est.p_e) / est.iterations)
        assert est.half_width_95 == pytest.approx(expected, rel=1e-12)
        assert est.seed == 2

    def test_deterministic_and_thread_invariant(self):
        params = helpers.scheme_with_alphabet(16)
        a = estimate_pe(params, NO_FADING, 5.0, 1.0, 350_000, seed=9)
        b = estimate_pe(params, NO_FADING, 5.0, 1.0, 350_000, seed=9)
        c = estimate_pe(params, NO_FADING, 5.0, 1.0, 350_000, seed=9, threads=4)
        assert a.p_e == b.p_e == c.p_e

    def test_error_rate_never_exceeds_uniform_guessing(self):
        for s, p_t in [(2, 0.0), (8, 0.5), (64, 0.0), (16, 2.0)]:
            params = helpers.scheme_with_alphabet(s)
            est = estimate_pe(params, NO_FADING, p_t, 1.0, 100_000, seed=s)
            assert est.p_e <= 1.0 - 1.0 / s + 4 * est.half_width_95

    def test_fast_path_matches_all_slots_reference(self):
        params = helpers.scheme_with_alphabet(8)
        est = estimate_pe(params, NO_FADING, 9.0, 1.0, 100_000, seed=31)
        ref_p, ref_hw = helpers.naive_pe(8, 10.0, 100_000, seed=32)
        assert abs(est.p_e - ref_p) <= helpers.combined_3hw(est.half_width_95, ref_hw)

    def test_shadowing_increases_error_rate_in_low_pe_regime(self):
        params = derive_scheme(PhysicalInputs(100e6, 100e-6, 0.3e-6, 360.0, 1e-4))
        shadowed = LargeScaleModel(enabled=True, shadowing_std_db=8.0)
        base = estimate_pe(params, NO_FADING, 1e5, 1.0, 300_000, seed=3)
        shade = estimate_pe(params, shadowed, 1e5, 1.0, 300_000, seed=3)
        assert shade.p_e > 2.0 * base.p_e

    def test_hold_mean_rx_power_rescales(self):
        params = derive_scheme(PhysicalInputs(100e6, 100e-6, 0.3e-6, 360.0, 1e-4))
        shadowed = LargeScaleModel(enabled=True, shadowing_std_db=8.0)
        fixed_pt = estimate_pe(params, shadowed, 1e5, 1.0, 300_000, seed=3)
        fixed_pr = estimate_pe(
            params, shadowed, 1e5, 1.0, 300_000, seed=3, hold_mean_rx_power=True
        )
        # Holding mean received power removes the free mean-power boost, so
        # deep fades dominate and the error rate rises.
        assert fixed_pr.p_e > fixed_pt.p_e
        unshadowed = estimate_pe(
            params, NO_FADING, 1e5, 1.0, 100_000, seed=4, hold_mean_rx_power=True
        )
        plain = estimate_pe(params, NO_FADING, 1e5, 1.0, 100_000, seed=4)
        assert unshadowed.p_e == plain.p_e

    def test_validation(self):
        params = helpers.scheme_with_alphabet(4)
        with pytest.raises(ValueError):
            estimate_pe(params, NO_FADING, 1.0, 1.0, 0, seed=0)
        with pytest.raises(ValueError):
            estimate_pe(params, NO_FADING, 1.0, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_pe(params, NO_FADING, -1.0, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_pe(params, NO_FADING, 1.0, 1.0, 10, seed=-1)

    def test_rejects_blocks_cut_at_chunk_boundaries(self):
        params = helpers.scheme_with_alphabet(4)
        shadowed = LargeScaleModel(enabled=True, shadowing_std_db=6.0)
        for block_len in (3, 30_000, 200_000):
            model = dataclasses.replace(shadowed, block_len=block_len)
            with pytest.raises(ValueError, match=r"^shadow_block_len"):
                estimate_pe(params, model, 1.0, 1.0, 250_000, seed=0)
        for block_len in (1, 4, 25_000, 100_000):
            model = dataclasses.replace(shadowed, block_len=block_len)
            est = estimate_pe(params, model, 1.0, 1.0, 250_000, seed=0)
            assert est.iterations == 250_000


_PIN_GEOMETRY = LargeScaleModel(enabled=True, distance_m=3.0)
_PIN_SHADOWED = dataclasses.replace(_PIN_GEOMETRY, shadowing_std_db=8.0)

# Errors of estimate_pe(alphabet 16, P_t = 100, N_0 = 1, seed 2024) as the
# out-of-place chunk kernel counted them, at 250 000 iterations (two full
# chunks and a half one) and at 37: (model, hold_mean_rx_power, errors).
PINNED_ERRORS = {
    "disabled": (NO_FADING, False, {250_000: 8096, 37: 3}),
    "zero_sigma": (_PIN_GEOMETRY, False, {250_000: 59142, 37: 11}),
    "sigma_8db": (_PIN_SHADOWED, False, {250_000: 79938, 37: 14}),
    "sigma_8db_blocks": (
        dataclasses.replace(_PIN_SHADOWED, block_len=1000), False, {250_000: 68496, 37: 10}
    ),
    "hold_mean_rx_power": (_PIN_SHADOWED, True, {250_000: 144054, 37: 23}),
}


@pytest.mark.parametrize("case", list(PINNED_ERRORS))
def test_error_counts_are_pinned_for_any_thread_count(case):
    model, hold, pinned = PINNED_ERRORS[case]
    params = helpers.scheme_with_alphabet(16)
    for iterations, errors in pinned.items():
        for threads in (1, 2, 3):
            est = estimate_pe(
                params, model, 100.0, 1.0, iterations, seed=2024,
                threads=threads, hold_mean_rx_power=hold,
            )
            assert est.p_e == errors / iterations, (iterations, threads)


# Chunk arguments: the signal-slot means and noise-slot counts of a point.
# A constant mean is one float; a shadowed one is (model, signal energy).
_CHUNK_CELLS = {
    "off": ([101.0], [15]),
    "shadowed": ([(_PIN_SHADOWED, 100.0)], [15]),
    "blocks": ([(dataclasses.replace(_PIN_SHADOWED, block_len=1000), 100.0)], [15]),
    "shared_pass": ([101.0, (_PIN_SHADOWED, 100.0)], [15, 3]),
}


@pytest.mark.parametrize("case", list(_CHUNK_CELLS))
def test_warm_chunk_allocates_less_than_one_chunk_array(case):
    # Per-op temporaries would each cost a CHUNK_SIZE float array; the
    # kernel writes into the scratch rows instead.
    signals, noise_counts = _CHUNK_CELLS[case]
    scratch = np.empty((len(noise_counts) + 2, CHUNK_SIZE))
    args = (0, CHUNK_SIZE, 1, signals, noise_counts, scratch)
    _chunk_error_count(*args)
    tracemalloc.start()
    try:
        _chunk_error_count(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < CHUNK_SIZE * 8


@pytest.mark.parametrize("iterations", [250_000, 37])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_every_cell_of_a_shared_pass_equals_its_one_cell_call(iterations, threads):
    # All PINNED_ERRORS models, both hold_mean_rx_power settings and three
    # alphabets: each cell of one multi-cell call is the one-cell estimate.
    variants = tuple(helpers.scheme_with_alphabet(s) for s in (16, 4, 2))
    models = tuple(model for model, _, _ in PINNED_ERRORS.values())
    for hold in (False, True):
        shared = estimate_pe(
            variants, models, 100.0, 1.0, iterations, seed=2024,
            threads=threads, hold_mean_rx_power=hold,
        )
        single = [
            estimate_pe(params, model, 100.0, 1.0, iterations, seed=2024,
                        threads=threads, hold_mean_rx_power=hold)
            for model in models
            for params in variants
        ]
        assert shared == tuple(single), (hold, iterations, threads)
    for model, hold, pinned in PINNED_ERRORS.values():
        (est,) = estimate_pe(
            variants[:1], (model,), 100.0, 1.0, iterations, seed=2024,
            threads=threads, hold_mean_rx_power=hold,
        )
        assert est.p_e == pinned[iterations] / iterations
        # One signal beside several noise counts.
        one_model = estimate_pe(
            variants, (model,), 100.0, 1.0, iterations, seed=2024,
            threads=threads, hold_mean_rx_power=hold,
        )
        assert one_model == tuple(
            estimate_pe(params, model, 100.0, 1.0, iterations, seed=2024,
                        threads=threads, hold_mean_rx_power=hold)
            for params in variants
        ), (hold, iterations, threads)


def test_per_model_transmit_power_matches_one_cell_calls():
    params = helpers.scheme_with_alphabet(16)
    models = (NO_FADING, _PIN_SHADOWED)
    shared = estimate_pe(params, models, (100.0, 40.0), 1.0, 150_000, seed=8)
    assert shared == (
        estimate_pe(params, NO_FADING, 100.0, 1.0, 150_000, seed=8),
        estimate_pe(params, _PIN_SHADOWED, 40.0, 1.0, 150_000, seed=8),
    )
    with pytest.raises(ValueError, match="transmit_power"):
        estimate_pe(params, models, (100.0,), 1.0, 10, seed=0)


@pytest.mark.parametrize("threads", [0, -3])
def test_rejects_threads_below_one(threads):
    params = helpers.scheme_with_alphabet(4)
    with pytest.raises(ValueError, match="^threads must be at least 1$"):
        estimate_pe(params, NO_FADING, 1.0, 1.0, 10, seed=0, threads=threads)


def test_oracle_agreement_smoke():
    # Two cells of the acceptance grid, checked at lighter weight.
    for mu, n in [(10.0, 3), (100.0, 15)]:
        params = helpers.scheme_with_alphabet(n + 1)
        est = estimate_pe(
            params, NO_FADING, helpers.power_for_mu(mu), 1.0, 100_000, seed=17
        )
        assert abs(est.p_e - analytic_pe_no_shadowing(mu, n)) <= 3 * est.half_width_95
