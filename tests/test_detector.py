import math
import statistics
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
    signal_energy,
)
from wtfc import channel, detector, scheme
from wtfc.capacity import awgn_capacity, dmc_capacity
from wtfc.detector import (
    CHUNK_SIZE,
    _chunk_error_count,
    _log_survival,
    _negative_max_noise_from_log,
    _noise_bound,
    _scratch_rows,
    _span,
    draw_m_batch,
    max_noise_from_uniform,
    signal_power_from_uniform,
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


def _ulps_around(x, k):
    """x and the k floats on each side of it."""
    floats, below, above = [x], x, x
    for _ in range(k):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
        floats += [below, above]
    return floats


# Both tails down to 5e-324 and up to 1 - 2^-53, and 64 floats on each
# side of the branch switches: |p - 1/2| = 0.425 and r = sqrt(-ln p) = 5.
_QUANTILE_GRID = np.array([
    *np.geomspace(5e-324, 0.5, 4001), *(1.0 - np.geomspace(2.0**-53, 0.5, 4001)),
    *_ulps_around(0.075, 64), *_ulps_around(0.925, 64),
    *_ulps_around(math.exp(-25.0), 64), *_ulps_around(1.0 - math.exp(-25.0), 64),
    5e-324, 1.0 - 2.0**-53, 0.5, np.nextafter(0.5, 0.0),
])


class TestNormalQuantile:
    def test_equals_the_standard_library_on_the_grid(self):
        want = np.array([statistics.NormalDist().inv_cdf(p) for p in _QUANTILE_GRID.tolist()])
        got = detector._normal_quantile(_QUANTILE_GRID.copy(), np.empty((2, _QUANTILE_GRID.size)))
        assert _same_bits(got, want)
        assert got[0] == want[0] < -38.0 and got[4001] == want[4001] > 8.0

    def test_zero_and_one_give_the_infinities(self):
        # (h + U) / H is 0 at U = 0 in the first stratum and rounds to 1 in
        # the last; the standard library refuses both.
        got = detector._normal_quantile(np.array([0.0, 1.0, 0.5]), np.empty((2, 3)))
        assert got.tolist() == [-math.inf, math.inf, 0.0]

    def test_equals_the_scalar_form_and_the_standard_library_where_the_logs_agree(self):
        # The tails take numpy's log. With AVX-512 it differs from the C
        # library's by one ulp at about 2e-4 of arguments, and there the
        # quantile may differ from the standard library's by a few ulp;
        # everywhere else the two agree bit for bit. The scalar form in
        # tests/helpers.py shares numpy's log and agrees everywhere.
        p = np.random.default_rng(8).random(100_000)
        got = detector._normal_quantile(p.copy(), np.empty((2, p.size)))
        assert _same_bits(got, [helpers.normal_quantile(x) for x in p.tolist()])
        want = np.array([statistics.NormalDist().inv_cdf(x) for x in p.tolist()])
        r = np.minimum(p, 1.0 - p)
        logs_agree = np.log(r) == [math.log(x) for x in r.tolist()]
        assert _same_bits(got[logs_agree], want[logs_agree])
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


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
        assert _log_survival(u, out) is out
        assert np.multiply(mu, out, out=out) is out
        assert _same_bits(-out, want)
        assert _log_survival(u, u) is u
        assert _same_bits(-np.multiply(mu, u, out=u), want)

    @pytest.mark.parametrize("n_noise", [1, 15, 269_999, 10**9])
    def test_max_noise_same_bits_with_out(self, n_noise):
        u = _uniforms()
        want = max_noise_from_uniform(n_noise, u)
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        assert _same_bits(want, -np.log(-np.expm1(log_u / n_noise)))
        out = np.full_like(u, np.nan)
        assert _negative_max_noise_from_log(n_noise, log_u, out) is out
        assert _same_bits(-out, want)
        assert _negative_max_noise_from_log(n_noise, log_u, log_u) is log_u
        assert _same_bits(-log_u, want)
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


def _stratified_reach(n):
    """P(f >= 1) for one chunk of n iterations whose u are stratified in
    H = n // 2 pairs: each u of the first pair lies in the floor set with
    probability min(1, H P_f), and an unpaired last u with P_f."""
    p_f = detector.P_FLOOR
    return 1.0 - (1.0 - min(1.0, n // 2 * p_f)) ** 2 * (1.0 - p_f) ** (n % 2)


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

    @staticmethod
    def _floor_estimate(mu, n_noise, n, seed):
        """p_e, half-width and f from the reference scores of one chunk:
        p_e = B / n + (G / f) / pi_n and half-width
        1.96 sqrt((D + n mod 2 / 4) / n^2 + (Q / f - (G / f)^2) / (f pi_n^2)),
        for B errors outside the floor set, D its pairs that hold exactly
        one, f its size, G and Q the sums of its scores and of their
        squares, and pi_n = P(f >= 1) with u stratified in n // 2 pairs."""
        counts, discordant, sums, squares, f = helpers.reference_chunk_error_count(
            0, n, seed, [mu], [n_noise], np.empty((3, n)))
        p_b, mean = int(counts[0, 0]) / n, sums[0, 0] / f
        reach = _stratified_reach(n)
        variance = ((int(discordant[0, 0]) + n % 2 / 4) / n**2
                    + (squares[0, 0] / f - mean * mean) / (f * reach**2))
        return p_b + mean / reach, 1.96 * math.sqrt(variance), f

    def test_half_width_formula(self):
        # Mean 4 against 3 noise slots: every iteration of the floor set
        # has t >= c_f and scores P_f, so the half-width is the binomial
        # one of the errors outside it.
        params = helpers.scheme_with_alphabet(4)
        est = estimate_pe(params, NO_FADING, 3.0, 1.0, 50_000, seed=2)
        p_e, half_width, f = self._floor_estimate(4.0, 3, 50_000, 2)
        assert 0 < f < 50_000
        assert est.p_e == pytest.approx(p_e, rel=1e-12)
        assert est.half_width_95 == pytest.approx(half_width, rel=1e-12)
        assert est.seed == 2

    def test_half_width_formula_below_the_floor(self):
        # One chunk at mean 101 against 15 noise slots, where about half of
        # p_e lies in the floor set: the formula's half-width, narrower than
        # the binomial one of p_e.
        params = helpers.scheme_with_alphabet(16)
        n = 50_000
        est = estimate_pe(params, NO_FADING, 100.0, 1.0, n, seed=2)
        p_e, half_width, _ = self._floor_estimate(101.0, 15, n, 2)
        assert est.p_e == pytest.approx(p_e, rel=1e-12)
        assert est.half_width_95 == pytest.approx(half_width, rel=1e-12)
        assert est.half_width_95 < 1.96 * math.sqrt(est.p_e * (1 - est.p_e) / n)

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
            model = shadowed.replace(block_len=block_len)
            with pytest.raises(ValueError, match=r"^shadow_block_len"):
                estimate_pe(params, model, 1.0, 1.0, 250_000, seed=0)
        for block_len in (1, 4, 25_000, 100_000):
            model = shadowed.replace(block_len=block_len)
            est = estimate_pe(params, model, 1.0, 1.0, 250_000, seed=0)
            assert est.iterations == 250_000


_PIN_GEOMETRY = LargeScaleModel(enabled=True, distance_m=3.0)
_PIN_SHADOWED = _PIN_GEOMETRY.replace(shadowing_std_db=8.0)

# Score totals, p_e times iterations, of estimate_pe(alphabet 16, P_t = 100,
# N_0 = 1, seed 2024) at 250 000 iterations (two full chunks and a half
# one) and at 37: (model, hold_mean_rx_power, total), each a float whose
# quotient by the iterations is p_e's bits. The constant-mean totals hold
# floor-set scores, their signal uniforms drawn by stratified sampling; at
# 37 iterations the floor set's scores are P_f, over pi_37 = 0.491. The
# shadowed totals are sums of every iteration's
# conditional error probability, its amplitude drawn by stratified
# sampling. test_pins_lie_near_the_exact_value checks the 250 000-iteration
# ones.
PINNED_ERRORS = {
    "disabled": (NO_FADING, False, {250_000: 8051.3592543213135, 37: 1.1763171784283892}),
    "zero_sigma": (_PIN_GEOMETRY, False, {250_000: 58901.25, 37: 11.176317178428391}),
    "sigma_8db": (_PIN_SHADOWED, False, {250_000: 80039.0833311208, 37: 11.152255322691984}),
    "sigma_8db_blocks": (
        _PIN_SHADOWED.replace(block_len=1000), False,
        {250_000: 80032.00345655333, 37: 14.18244962247422},
    ),
    "hold_mean_rx_power": (
        _PIN_SHADOWED, True, {250_000: 144007.26079101677, 37: 20.572346040498964}
    ),
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


@pytest.mark.parametrize("case", list(PINNED_ERRORS))
def test_pins_lie_near_the_exact_value(case):
    # Exact: the closed form, or its Gauss-Hermite average under 8 dB
    # shadowing. Blocks of 1000 symbols share one amplitude; the half-width
    # from pairs of blocks holds their spread, so that pin is checked too.
    model, hold, pinned = PINNED_ERRORS[case]
    params = helpers.scheme_with_alphabet(16)
    p_t = 100.0 / channel.shadowing_mean_power_gain(model) if hold else 100.0
    exact = helpers.exact_pe(model, signal_energy(p_t, params, 1.0), 15)
    est = estimate_pe(params, model, 100.0, 1.0, 250_000, seed=2024, hold_mean_rx_power=hold)
    assert est.p_e == pinned[250_000] / 250_000
    assert abs(est.p_e - exact) <= 3 * est.half_width_95


def _chunk_args(point_cells):
    """(signals, noise counts, cells) from (signal, noise count) cells: the
    distinct signals and noise counts in first-seen order, as the reference
    takes them, and every cell, as ``estimate_pe`` hands them to the kernel."""
    signals = list(dict.fromkeys(signal for signal, _ in point_cells))
    noise_counts = list(dict.fromkeys(n_noise for _, n_noise in point_cells))
    return signals, noise_counts, list(point_cells)


def _every_cell(signals, noise_counts):
    """Every (signal, noise count) pair, signal-major, as the reference counts them."""
    return [(signal, n_noise) for signal in signals for n_noise in noise_counts]


# Chunk arguments: the signal-slot means and noise-slot counts of a point.
# A constant mean is one float; a shadowed one is (model, signal energy).
_CHUNK_CELLS = {
    "off": ([101.0], [15]),
    "shadowed": ([(_PIN_SHADOWED, 100.0)], [15]),
    "blocks": ([(_PIN_SHADOWED.replace(block_len=1000), 100.0)], [15]),
    "shared_pass": ([101.0, (_PIN_SHADOWED, 100.0)], [15, 3]),
}
_CHUNK_CELLS = {case: (signals, noise_counts, _every_cell(signals, noise_counts))
                for case, (signals, noise_counts) in _CHUNK_CELLS.items()}

_README_DUTIES = (1e-2, 1e-3, 1e-4, 1e-5)


def _readme_inputs(duty_cycle):
    return PhysicalInputs(bandwidth_hz=100e6, symbol_time_s=101e-6, delay_spread_s=20e-6,
                          doppler_spread_hz=25e3, duty_cycle=duty_cycle)


def _readme_point_cells(duty_cycles, shadowing, block_len=1):
    """Chunk arguments at the README point (p_r = 10e3, N_0 = 1) over a
    duty-cycle grid: mc-sweep's WTFC and I-FSK cells, which share one
    signal mean per point, or shadow-pair's off and on cells at 8 dB, WTFC
    alone, with ``block_len`` symbols per shadowing realization."""
    point_cells = []
    for duty_cycle in duty_cycles:
        inputs = _readme_inputs(duty_cycle)
        wtfc, ifsk = derive_scheme(inputs), derive_scheme(inputs, "IFSK")
        energy = signal_energy(10e3, wtfc, 1.0)
        if shadowing:
            on = LargeScaleModel(enabled=True, shadowing_std_db=8.0, block_len=block_len)
            point_cells += [(energy + 1.0, wtfc.noise_slot_count),
                            ((on, energy), wtfc.noise_slot_count)]
        else:
            point_cells += [(energy + 1.0, wtfc.noise_slot_count),
                            (energy + 1.0, ifsk.noise_slot_count)]
    return _chunk_args(point_cells)


for _duty in _README_DUTIES:
    _CHUNK_CELLS[f"mc_sweep_{_duty:g}"] = _readme_point_cells([_duty], False)
    _CHUNK_CELLS[f"shadow_pair_{_duty:g}"] = _readme_point_cells([_duty], True)
# Every duty point of the workload in one chunk, as a sweep runs it.
_CHUNK_CELLS["mc_sweep_grid"] = _readme_point_cells(_README_DUTIES, False)
_CHUNK_CELLS["shadow_pair_grid"] = _readme_point_cells(_README_DUTIES, True)
_CHUNK_CELLS["shadow_blocks_grid"] = _readme_point_cells(_README_DUTIES, True, block_len=1000)


@pytest.mark.parametrize("case", list(_CHUNK_CELLS))
def test_warm_chunk_allocates_less_than_one_chunk_array(case):
    # Per-op temporaries would each cost a span-long float array; the
    # kernel writes into the scratch rows, one span long, instead.
    signals, noise_counts, cells = _CHUNK_CELLS[case]
    scratch = np.empty((_scratch_rows(signals), _span(signals)))
    args = (0, CHUNK_SIZE, 1, cells, scratch)
    _chunk_error_count(*args)
    tracemalloc.start()
    try:
        _chunk_error_count(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _span(signals) * 8


@pytest.mark.parametrize("shadowing", [False, True], ids=["mc_sweep", "shadow_pair"])
def test_scratch_rows_do_not_grow_with_the_grid(shadowing):
    # The rule counts rows of one span per worker: at most five rows of a
    # third of a chunk, 1.33 MB. The whole estimate stays within them plus
    # the warm chunk's less than one span array.
    four = _readme_point_cells(_README_DUTIES, shadowing)[0]
    twelve_duties = [1 / slots for slots in (100, 150, 200, 300, 500, 700, 1000, 2000,
                                             5000, 10_000, 50_000, 100_000)]
    twelve = _readme_point_cells(twelve_duties, shadowing)[0]
    scratch_bytes = _scratch_rows(twelve) * _span(twelve) * 8
    assert scratch_bytes == _scratch_rows(four) * _span(four) * 8 <= 5 * 34_000 * 8
    inputs = [PhysicalInputs(bandwidth_hz=100e6, symbol_time_s=101e-6, delay_spread_s=20e-6,
                             doppler_spread_hz=25e3, duty_cycle=duty)
              for duty in twelve_duties]
    variants = [derive_scheme(i, v) for i in inputs for v in ("WTFC", "IFSK")]
    on = LargeScaleModel(enabled=True, shadowing_std_db=8.0)
    models = (on.replace(shadowing_std_db=0.0), on) if shadowing else (NO_FADING,)
    tracemalloc.start()
    try:
        estimate_pe(variants, models, [10e3] * len(variants), 1.0, CHUNK_SIZE, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < scratch_bytes + _span(twelve) * 8


@pytest.mark.parametrize("shadowing", [False, True], ids=["mc_sweep", "shadow_pair"])
def test_two_workers_hold_two_scratches_and_their_chunks(shadowing):
    # Each worker holds its own scratch, rows of one span, and its chunk's
    # temporaries, less than one span array (the warm-chunk test above).
    # Both may hold their temporaries at once.
    variants = [derive_scheme(_readme_inputs(duty), v)
                for duty in _README_DUTIES for v in ("WTFC", "IFSK")]
    on = LargeScaleModel(enabled=True, shadowing_std_db=8.0)
    models = (on.replace(shadowing_std_db=0.0), on) if shadowing else (NO_FADING,)
    signals = _readme_point_cells(_README_DUTIES, shadowing)[0]
    workers, span = 2, _span(signals)
    tracemalloc.start()
    try:
        estimate_pe(variants, models, [10e3] * len(variants), 1.0, 4 * CHUNK_SIZE, seed=1,
                    threads=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < workers * (_scratch_rows(signals) + 1) * span * 8


# Signal-slot means from certain errors (1) to far above every noise
# maximum of a chunk (1e6), against noise counts from 1 to 1e9.
_KERNEL_MUS = (1.0, 101.0, 1.01e5, 1e6)
_KERNEL_NOISE = [1, 2, 2699, 269_999, 10**9]
_BLOCKS = _PIN_SHADOWED.replace(block_len=1000)


def _kernel_signals(cells, mu):
    return {
        "constant": [mu, 3.0 * mu],
        "shadowed": [(_PIN_SHADOWED, mu)],
        "blocks": [(_BLOCKS, mu)],
        "mixed": [mu, (_PIN_SHADOWED, mu), 3.0 * mu, (_BLOCKS, mu)],
    }[cells]


def _assert_kernel_matches_reference(signals, noise_counts, n, chunks, seed=11):
    scratch = np.empty((_scratch_rows(signals), n))
    # The reference kernel's own rule: a row per noise count, plus two.
    reference = np.empty((len(noise_counts) + 2, n))
    cells = _every_cell(signals, noise_counts)
    for chunk in chunks:
        got = _chunk_error_count(chunk, n, seed, cells, scratch)
        want = helpers.reference_chunk_error_count(chunk, n, seed, signals, noise_counts,
                                                   reference)
        _assert_chunk_equal(got, want, signals, noise_counts, cells, chunk)


def _assert_chunk_equal(got, want, signals, noise_counts, cells, chunk):
    """The kernel's counts, discordant pairs, sums and floor size for
    ``cells`` equal the reference's, shaped (signals, noise counts), bit
    for bit."""
    want = [[part[signals.index(signal), noise_counts.index(n_noise)]
             for signal, n_noise in cells] for part in want[:4]] + [want[4]]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), chunk
    assert _same_bits(got[2], want[2]) and _same_bits(got[3], want[3]), chunk
    assert got[4] == want[4], chunk


@pytest.mark.parametrize("n", [CHUNK_SIZE, 37])
@pytest.mark.parametrize("mu", _KERNEL_MUS)
@pytest.mark.parametrize("cells", ["constant", "shadowed", "blocks", "mixed"])
def test_chunk_counts_equal_the_all_iterations_kernel(cells, mu, n):
    chunks = range(20 if n < CHUNK_SIZE else 5)
    _assert_kernel_matches_reference(_kernel_signals(cells, mu), _KERNEL_NOISE, n, chunks)


# Block lengths that divide a chunk but not a third of it, and the spans
# they give: whole pairs of blocks, at most a chunk, where a block length
# of 1 gives 34 000.
_LONG_BLOCKS = {20_000: 40_000, 50_000: 100_000, 100_000: 100_000}


@pytest.mark.parametrize("n", [CHUNK_SIZE, 70_001])
@pytest.mark.parametrize("block_len", [*_LONG_BLOCKS, "20000+50000"])
def test_long_shadowing_blocks_equal_the_all_iterations_kernel(block_len, n):
    # 70 001 iterations, as in a short last chunk, end in a partial block.
    # Beside a model of single-symbol blocks the span is the long model's;
    # two long models share the span of both their blocks.
    if block_len == "20000+50000":
        long_models = [_PIN_SHADOWED.replace(block_len=b) for b in (20_000, 50_000)]
        span = CHUNK_SIZE
    else:
        long_models, span = [_PIN_SHADOWED.replace(block_len=block_len)], _LONG_BLOCKS[block_len]
    signals = [101.0, (_PIN_SHADOWED, 100.0), *((model, 100.0) for model in long_models)]
    assert _span(signals) == span
    _assert_kernel_matches_reference(signals, [2699, 15], n, range(3))


@pytest.mark.parametrize("n", [CHUNK_SIZE, 70_001])
@pytest.mark.parametrize("block_len", [1, 1000, *_LONG_BLOCKS])
def test_span_draws_equal_slices_of_one_whole_chunk_draw(block_len, n):
    # The kernel draws a span at a time from generators that carry on from
    # span to span; each span's values must be the matching slice of one
    # draw over the whole chunk, the amplitudes' blocks and strata included.
    model = _PIN_SHADOWED.replace(block_len=block_len)
    span = _span([(model, 100.0)])
    draws = {
        "random": lambda rng, k, start: rng.random(k, out=np.empty(k)),
        "amplitudes": lambda rng, k, start: draw_m_batch(model, rng, k, np.empty(k),
                                                         np.empty((2, k)), start, n),
    }
    for stream, (name, draw) in zip(np.random.SeedSequence([11, 3]).spawn(3), draws.items()):
        whole = draw(np.random.default_rng(stream), n, 0)
        rng = np.random.default_rng(stream)
        for start in range(0, n, span):
            length = min(span, n - start)
            assert _same_bits(draw(rng, length, start), whole[start : start + length]), (
                name, start)


def test_random_chunks_equal_the_all_iterations_kernel():
    # 24 chunks of 1 to 100 000 iterations, odd and even, each with one to
    # three constant means from 1 to 1e6, sometimes beside a shadowed
    # signal, against one to three noise counts from 1 to 1e9.
    rng = np.random.default_rng(37)
    lengths = [1, 2, 3, 127, 128, 129, 70_001, 99_999]
    lengths += rng.integers(1, CHUNK_SIZE + 1, size=24 - len(lengths)).tolist()
    for chunk, n in enumerate(lengths):
        signals = (10.0 ** rng.uniform(0.0, 6.0, size=rng.integers(1, 4))).tolist()
        if chunk % 3 == 0:
            signals.append((_PIN_SHADOWED, signals[0]))
        noise_counts = rng.choice(_KERNEL_NOISE, size=rng.integers(1, 4), replace=False)
        _assert_kernel_matches_reference(signals, [int(k) for k in noise_counts], n, [chunk])


@pytest.mark.parametrize("iterations", [1, 2, 3])
@pytest.mark.parametrize("cells", ["constant", "shadowed", "mixed"])
def test_tiny_iteration_counts_equal_the_all_iterations_kernel(cells, iterations):
    # A chunk of one to three iterations, in scratch as wide as the
    # iterations: each cell, formed as estimate_pe forms it, equals the
    # reference's estimate, and some cell scores more than 0.
    models = {"constant": (NO_FADING, _PIN_GEOMETRY), "shadowed": (_PIN_SHADOWED, _BLOCKS),
              "mixed": (NO_FADING, _PIN_SHADOWED)}[cells]
    variants = tuple(helpers.scheme_with_alphabet(s) for s in (16, 4, 2))
    powers = (3.0, 10.0, 1.0)
    signals = []
    for model in models:
        amplitude = channel.constant_amplitude(model)
        for params, p_t in zip(variants, powers):
            energy = signal_energy(p_t, params, 1.0)
            signals.append((model, energy) if amplitude is None
                           else amplitude * amplitude * energy + 1.0)
    noise_counts = [params.noise_slot_count for params in variants]
    reference = np.empty((len(noise_counts) + 2, iterations))
    scored = 0.0
    for seed in range(20):
        got = estimate_pe(variants, models, powers, 1.0, iterations, seed=seed)
        counts, discordant, sums, squares, f = helpers.reference_chunk_error_count(
            0, iterations, seed, signals, noise_counts, reference)
        cells = [(j, j % len(variants)) for j in range(len(signals))]
        assert list(got) == [
            detector._estimate(int(counts[cell]), int(discordant[cell]), f, sums[cell],
                               squares[cell], iterations, seed,
                               block_len=0 if isinstance(signals[cell[0]], float)
                               else signals[cell[0]][0].block_len)
            for cell in cells
        ], seed
        scored += counts.sum() + sums.sum()
    assert scored > 0


# Means at which a count's prefix of candidate pairs holds 10-25 % of a
# chunk, at the
# noise counts of shadow-pair ([2699]) and mc-sweep ([269_999, 2699]):
# (cells, noise counts, mu). Only constant means set a prefix; the mixed
# cells score their drawn signals over every iteration beside it.
_UNION_CASES = [
    ("constant", [2699], 150.0),
    ("constant", [269_999, 2699], 90.0),
    ("mixed", [2699], 150.0),
    ("mixed", [269_999, 2699], 90.0),
]


@pytest.mark.parametrize("cells, noise_counts, mu", _UNION_CASES,
                         ids=[f"{cells}-{len(counts)}" for cells, counts, _ in _UNION_CASES])
def test_chunk_counts_equal_the_reference_where_the_union_is_wide(cells, noise_counts, mu):
    # Every noise count inverts and counts over its prefix, whole pairs
    # that hold each of its cells' candidates, over 20 chunks.
    _assert_kernel_matches_reference(_kernel_signals(cells, mu), noise_counts, CHUNK_SIZE,
                                     range(20), seed=7)


@pytest.mark.parametrize("case", ["mc_sweep_grid", "shadow_pair_grid", "shadow_blocks_grid"])
def test_sweep_grid_counts_equal_the_reference(case):
    # A sweep's grid: the 1e-2 point sets the span's prefix, and each
    # count of a lower duty cycle scans its own, shorter one.
    signals, noise_counts, cells = _CHUNK_CELLS[case]
    scratch = np.empty((_scratch_rows(signals), _span(signals)))
    reference = np.empty((len(noise_counts) + 2, CHUNK_SIZE))
    for chunk in range(20):
        got = _chunk_error_count(chunk, CHUNK_SIZE, 7, cells, scratch)
        want = helpers.reference_chunk_error_count(chunk, CHUNK_SIZE, 7, signals,
                                                   noise_counts, reference)
        _assert_chunk_equal(got, want, signals, noise_counts, cells, chunk)


def _inversion_spy(monkeypatch):
    """(noise count, size) of every noise inversion the kernel makes."""
    calls = []
    invert = detector._negative_max_noise_from_log

    def spy(n_noise, log_u, out):
        calls.append((n_noise, log_u.size))
        return invert(n_noise, log_u, out)

    monkeypatch.setattr(detector, "_negative_max_noise_from_log", spy)
    return calls


@pytest.mark.parametrize("p_r", [1e4, 100.0], ids=["pe", "pe_low_snr"])
def test_each_span_inverts_a_prefix_of_its_pairs(monkeypatch, p_r):
    # One-count chunks of the README point. Stratified u rises with the
    # iteration, so the candidates lie in a prefix of the chunk: at
    # p_r = 1e4 about a fifth of it, in the first span alone, and at
    # p_r = 100 all of it, every span whole. The floor pass inverts F's f
    # last.
    calls = _inversion_spy(monkeypatch)
    wtfc = derive_scheme(_readme_inputs(1e-2))
    signals = [signal_energy(p_r, wtfc, 1.0) + 1.0]
    span = _span(signals)
    lengths = [min(span, CHUNK_SIZE - start) for start in range(0, CHUNK_SIZE, span)]
    for chunk in range(5):
        calls.clear()
        got = _chunk_error_count(chunk, CHUNK_SIZE, 7, _every_cell(signals, [wtfc.noise_slot_count]),
                                 np.empty((_scratch_rows(signals), span)))
        want = helpers.reference_chunk_error_count(
            chunk, CHUNK_SIZE, 7, signals, [wtfc.noise_slot_count], np.empty((3, CHUNK_SIZE)))
        _assert_chunk_equal(got, want, signals, [wtfc.noise_slot_count],
                            [(signals[0], wtfc.noise_slot_count)], chunk)
        *scans, floor = [size for _, size in calls]
        assert floor == got[4], chunk
        if p_r == 100.0:
            assert scans == lengths, chunk
        else:
            assert 0.1 * CHUNK_SIZE < scans[0] < span and scans[1:] == [], chunk


def test_each_count_inverts_its_own_prefix(monkeypatch):
    # mc-sweep's grid in one chunk: each noise count inverts its maximum
    # over the prefix its own cells' cuts give: the duty 1e-5 WTFC count
    # over a few dozen iterations, fewer than F holds, where the 1e-2 one
    # takes about a fifth of the chunk. Every count equals the
    # all-iterations pass.
    calls = _inversion_spy(monkeypatch)
    signals, noise_counts, cells = _CHUNK_CELLS["mc_sweep_grid"]
    scratch = np.empty((_scratch_rows(signals), _span(signals)))
    reference = np.empty((len(noise_counts) + 2, CHUNK_SIZE))
    for chunk in range(5):
        calls.clear()
        got = _chunk_error_count(chunk, CHUNK_SIZE, 7, cells, scratch)
        want = helpers.reference_chunk_error_count(chunk, CHUNK_SIZE, 7, signals,
                                                   noise_counts, reference)
        _assert_chunk_equal(got, want, signals, noise_counts, cells, chunk)
        # The first span's inversions, one per count, in the cells' order.
        first = dict(calls[: len(noise_counts)])
        widest, narrowest = first[noise_counts[0]], first[noise_counts[-1]]
        assert narrowest < 100 < got[4] < 0.1 * CHUNK_SIZE < widest < _span(signals), chunk


def test_a_later_span_draws_u_past_an_earlier_short_prefix(monkeypatch):
    # The first span's bound is the true one, so it scans F's prefix and
    # its few candidates; every later bound is as large as a float, so
    # those spans scan every pair. Their u must skip what the first span
    # did not draw, and equal the whole-chunk draw.
    bound = detector._noise_bound
    calls = []

    def later_spans_take_every_pair(top, n_noise):
        calls.append(top)
        return bound(top, n_noise) if len(calls) == 1 else 1e300

    monkeypatch.setattr(detector, "_noise_bound", later_spans_take_every_pair)
    advances = []
    default_rng = np.random.default_rng

    def recording_rng(seq):
        rng = default_rng(seq)
        if seq.spawn_key[-1] != 1:
            return rng
        fixed = _FixedUniforms(rng, default_rng(seq).random(CHUNK_SIZE))
        fixed.advance = lambda delta: (advances.append(delta), _FixedUniforms.advance(fixed, delta))
        return fixed

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    signals = [1e6]
    _assert_kernel_matches_reference(signals, [15], CHUNK_SIZE, [0])
    span, floor = _span(signals), detector._prefix(detector._FLOOR_CUT, CHUNK_SIZE // 2)
    # The first span stops at F's prefix; the second skips to its start.
    assert [delta for delta in advances if delta] == [span - floor]


def test_an_odd_chunk_scans_its_unpaired_last_iteration(monkeypatch):
    # 70 001 iterations: 35 000 pairs and a last iteration whose u is a
    # plain uniform, here 0.05, beyond every pair's prefix. At mean 101
    # against 2699 noise slots it errs outside F, and the count holds it.
    n, mean, n_noise = 70_001, 101.0, 2699
    default_rng = np.random.default_rng
    uniforms = {}

    def last_uniform(seq):
        rng = default_rng(seq)
        uniforms[seq.spawn_key[-1]] = default_rng(seq).random(n)
        if seq.spawn_key[-1] != 1:
            return rng
        uniforms[1][-1] = 0.05
        return _FixedUniforms(rng, uniforms[1])

    monkeypatch.setattr(np.random, "default_rng", last_uniform)
    _assert_kernel_matches_reference([mean], [n_noise], n, [0])
    e = -math.log1p(-0.05)
    assert detector._FLOOR_CUT < e
    assert mean * e <= max_noise_from_uniform(n_noise, uniforms[2][-1])


@pytest.mark.parametrize("cells", ["constant", "shadowed", "mixed"])
def test_scratch_one_row_short_is_rejected(cells):
    # Mixed cells have two shadowing models, so five rows are one short. A
    # chunk needs min(n, span) columns: one span, not a chunk, when full.
    signals, noise_counts = _kernel_signals(cells, 150.0), [269_999, 2699]
    rows, span = _scratch_rows(signals), _span(signals)
    assert rows == 4 + {"constant": 0, "shadowed": 1, "mixed": 2}[cells]
    cell_list = _every_cell(signals, noise_counts)
    for n, columns in [(37, 37), (CHUNK_SIZE, span)]:
        args = (0, n, 11, cell_list)
        for shape in [(rows - 1, columns), (rows, columns - 1)]:
            with pytest.raises(ValueError, match="^scratch has"):
                _chunk_error_count(*args, np.empty(shape))
        _chunk_error_count(*args, np.empty((rows, columns)))


class _FixedUniforms:
    """A generator whose ``random`` returns given uniforms, carrying on from
    call to call as a generator does, and whose ``bit_generator.advance``
    skips as many; normals stay drawn."""

    def __init__(self, rng, uniforms):
        self._rng, self._uniforms, self._at = rng, uniforms, 0
        self.bit_generator = self if uniforms is not None else rng.bit_generator

    def random(self, n, out):
        if self._uniforms is None:
            return self._rng.random(n, out=out)
        out[:] = self._uniforms[self._at : self._at + n]
        self._at += n
        return out

    def advance(self, delta):
        self._at += delta

    def standard_normal(self, n, out):
        return self._rng.standard_normal(n, out=out)


@pytest.mark.parametrize("noise", ["edges", "zero"])
def test_edge_uniforms_count_as_in_the_all_iterations_kernel(monkeypatch, noise):
    # U = 0 puts u at the foot of its stratum, h / H: in the first pair
    # u = 0 and x = 0, a tie with every noise maximum, in the floor set,
    # whose errors do not count. v = 0 gives the maximum 0;
    # v = nextafter(1, 0) the largest one.
    n = 1000
    rng = np.random.default_rng(5)
    u, v = rng.random(n), rng.random(n)
    u[::10] = 0.0
    if noise == "zero":
        v[:] = 0.0
    else:
        v[1], v[2] = 0.0, np.nextafter(1.0, 0.0)
    default_rng = np.random.default_rng
    # The chunk's three streams are its seed's spawns 0 (shadowing), 1 (u), 2 (v).
    monkeypatch.setattr(np.random, "default_rng", lambda seq: _FixedUniforms(
        default_rng(seq), {1: u, 2: v}.get(seq.spawn_key[-1])))
    signals, noise_counts = [1e6, (_PIN_SHADOWED, 1e6)], [1, 10**9]
    _assert_kernel_matches_reference(signals, noise_counts, n, [0])
    scratch = np.empty((_scratch_rows(signals), n))
    counts, _, sums, _, _ = _chunk_error_count(0, n, 11, _every_cell(signals, noise_counts),
                                               scratch)
    if noise == "zero":
        # Every maximum is 0, so t = 0: every iteration with E <= c_f, each
        # u = 0 tie among them, scores -expm1(-0) = 0, and x > 0 elsewhere.
        assert (counts == 0).all() and (sums == 0).all()
    else:
        # At mean 1e6 even the largest maximum gives t < c_f, and an error
        # needs E below it: each error, the u = 0 tie too, scores its
        # conditional probability, not 1.
        assert (counts[:2] == 0).all() and (sums[:2] > 0).all()


def test_largest_floor_set_is_scored_in_span_rows(monkeypatch):
    # Every U = 0 puts each u at the foot of its stratum, h / H, so the
    # floor set takes every pair with h / H <= P_f: 2 (floor(H P_f) + 1)
    # = 1564 iterations of a full chunk, the most it can hold, well within
    # the span-long rows estimate_pe hands the kernel.
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seq: _FixedUniforms(
        default_rng(seq), {1: np.zeros(CHUNK_SIZE)}.get(seq.spawn_key[-1])))
    signals, noise_counts = [101.0, 1e6, (_PIN_SHADOWED, 1e6)], [15, 2699]
    scratch = np.empty((_scratch_rows(signals), _span(signals)))
    cells = _every_cell(signals, noise_counts)
    got = _chunk_error_count(0, CHUNK_SIZE, 11, cells, scratch)
    want = helpers.reference_chunk_error_count(0, CHUNK_SIZE, 11, signals, noise_counts,
                                               np.empty((4, CHUNK_SIZE)))
    _assert_chunk_equal(got, want, signals, noise_counts, cells, 0)
    assert got[4] == 2 * (int(CHUNK_SIZE // 2 * detector.P_FLOOR) + 1) == 1564


def _noise_uniforms(case):
    v = np.random.default_rng(13).random(1000)
    if case == "zeros":
        v[:] = 0.0
    elif case == "near one":
        v[3] = np.nextafter(1.0, 0.0)
    elif case == "subnormal":
        v[:] = 0.0
        v[::7] = 5e-324
    return v


@pytest.mark.parametrize("uniforms", ["zeros", "random", "near one", "subnormal"])
@pytest.mark.parametrize("noise_counts", [[1], [2699, 269_999], [1, 10**9]])
def test_noise_bound_at_the_largest_count_covers_every_count(noise_counts, uniforms):
    # The kernel computes one bound per noise count from the chunk's largest
    # uniform; no noise maximum of that count, or of a smaller one, may
    # exceed it.
    v = _noise_uniforms(uniforms)
    for n_noise in noise_counts:
        top = max_noise_from_uniform(n_noise, v).max()
        assert _noise_bound(v.max(), n_noise) >= top, n_noise
        assert _noise_bound(v.max(), max(noise_counts)) >= top, n_noise


@pytest.mark.parametrize("n_noise", [1, 2, 2699, 10**9])
@pytest.mark.parametrize("top", [0.0, 5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0)])
def test_noise_bound_covers_the_largest_maximum_at_the_edges(top, n_noise):
    # The bound is computed on one float with math, the maxima with numpy's
    # ufuncs; the pad must cover the two at either end of the uniforms.
    bound = _noise_bound(float(top), n_noise)
    assert math.isfinite(bound)
    assert bound >= max_noise_from_uniform(n_noise, top)


@pytest.mark.parametrize("energy", [0.0, 1e-300, 100.0, 1e12])
def test_drawn_scores_match_the_reference_order_bit_for_bit(monkeypatch, energy):
    # The kernel forms mu = m * m; mu *= energy; mu += 1, then t = -y / mu
    # from -y and -s = expm1(t); the reference forms s = -expm1(-(y / mu)).
    # Amplitudes and uniforms at the edges, where a reordering would show.
    n = 1000
    m = np.repeat([0.0, 5e-324, 1.0, 1e150], n // 4)
    v = np.tile([0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0)], n // 4)

    def amplitudes(model, rng, k, out, *_):
        out[:] = m[:k]
        return out

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seq: _FixedUniforms(
        default_rng(seq), {2: v}.get(seq.spawn_key[-1])))
    monkeypatch.setattr(detector, "draw_m_batch", amplitudes)
    monkeypatch.setattr(helpers, "reference_amplitudes", lambda model, rng, k: amplitudes(
        model, rng, k, np.empty(k)))
    with np.errstate(over="ignore"):
        _assert_kernel_matches_reference([(_PIN_SHADOWED, energy)], [1, 2699, 10**9], n, [0])


def test_uniform_cut_keeps_every_uniform_within_the_e_cut():
    # The chunk tests u against -expm1(-cut) * pad, derived from a count's
    # cut on E: every u whose E = -ln(1 - u) is at or below the cut, that
    # is whose L = ln(1 - u) is at or above -cut, passes.
    # 64 ulp either side of -expm1(-cut) for 2001 cuts; without the pad a
    # few of these u would be lost.
    cuts = np.geomspace(1e-12, 50.0, 2001)
    u_cuts = np.array([-math.expm1(-cut) for cut in cuts])
    steps = [u_cuts]
    for toward in (0.0, 1.0):
        u = u_cuts
        for _ in range(64):
            u = np.nextafter(u, toward)
            steps.append(u)
    u = np.stack(steps, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        kept = _log_survival(u, np.empty_like(u)) >= -cuts[:, None]
    kept &= u < 1.0
    assert kept.any(axis=1).all()
    assert (u <= u_cuts[:, None] * (1.0 + detector._SLACK))[kept].all()


@pytest.mark.parametrize("iterations", [250_000, 37])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_every_cell_of_a_shared_pass_equals_its_one_cell_call(iterations, threads):
    # All PINNED_ERRORS models, both hold_mean_rx_power settings and three
    # alphabets, each at its own transmit power, as the grid points of a
    # sweep: each cell of one multi-cell call is the one-cell estimate.
    variants = tuple(helpers.scheme_with_alphabet(s) for s in (16, 4, 2))
    powers = (100.0, 250.0, 40.0)
    models = tuple(model for model, _, _ in PINNED_ERRORS.values())
    for hold in (False, True):
        shared = estimate_pe(
            variants, models, powers, 1.0, iterations, seed=2024,
            threads=threads, hold_mean_rx_power=hold,
        )
        single = [
            estimate_pe(params, model, p_t, 1.0, iterations, seed=2024,
                        threads=threads, hold_mean_rx_power=hold)
            for model in models
            for params, p_t in zip(variants, powers)
        ]
        assert shared == tuple(single), (hold, iterations, threads)
    for model, hold, pinned in PINNED_ERRORS.values():
        (est,) = estimate_pe(
            variants[:1], (model,), powers[:1], 1.0, iterations, seed=2024,
            threads=threads, hold_mean_rx_power=hold,
        )
        assert est.p_e == pinned[iterations] / iterations
        # One model at one power beside several noise counts.
        one_model = estimate_pe(
            variants, (model,), (100.0,) * 3, 1.0, iterations, seed=2024,
            threads=threads, hold_mean_rx_power=hold,
        )
        assert one_model == tuple(
            estimate_pe(params, model, 100.0, 1.0, iterations, seed=2024,
                        threads=threads, hold_mean_rx_power=hold)
            for params in variants
        ), (hold, iterations, threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model", [NO_FADING, _PIN_SHADOWED], ids=["constant", "shadowed"])
def test_a_repeated_cell_gives_two_estimates_equal_to_the_one_cell_call(model, threads):
    # The same params at the same power twice is the same (signal, noise
    # count) cell twice: the call returns two estimates, scored apart, and
    # each has the one-cell call's bits.
    params = helpers.scheme_with_alphabet(16)
    one = estimate_pe(params, model, 100.0, 1.0, 250_000, seed=5, threads=threads)
    both = estimate_pe([params, params], model, [100.0, 100.0], 1.0, 250_000, seed=5,
                       threads=threads)
    assert both == (one, one)


def test_intervals_cover_the_exact_value_below_the_floor():
    # Over 20 fixed seeds, each 95 % interval must hold the exact value in
    # at least 17: a no-shadowing cell where every iteration with E <= c_f
    # lies below the floor, against the closed form, and an 8 dB cell,
    # against its Gauss-Hermite average.
    params = helpers.scheme_with_alphabet(16)
    models = (NO_FADING, LargeScaleModel(enabled=True, shadowing_std_db=8.0))
    energy = signal_energy(1e4, params, 1.0)
    exact = [helpers.exact_pe(model, energy, 15) for model in models]
    assert exact[0] == analytic_pe_no_shadowing(energy + 1.0, 15)
    covered = [0, 0]
    for seed in range(20):
        for c, est in enumerate(estimate_pe(params, models, 1e4, 1.0, 50_000, seed=seed)):
            covered[c] += abs(est.p_e - exact[c]) <= est.half_width_95
    assert min(covered) >= 17, covered


def test_intervals_cover_the_exact_value_on_both_sides_of_the_floor():
    # mc-sweep's duty 1e-3 WTFC row: about 2 % of its errors lie outside
    # the floor set and the rest inside it. Over 20 fixed seeds each 95 %
    # interval must hold the closed form in at least 17.
    params = derive_scheme(_readme_inputs(1e-3))
    exact = analytic_pe_no_shadowing(signal_energy(10e3, params, 1.0) + 1.0,
                                     params.noise_slot_count)
    covered = sum(abs(est.p_e - exact) <= est.half_width_95
                  for est in (estimate_pe(params, NO_FADING, 10e3, 1.0, 50_000, seed=seed)
                              for seed in range(20)))
    assert covered >= 17, covered


@pytest.mark.parametrize("duty_cycle, bound", [(1e-3, 4e-3), (1e-5, 2e-3)],
                         ids=["both_sides", "below_the_floor"])
def test_floor_set_mean_gives_narrow_intervals(duty_cycle, bound):
    # At 1M iterations the floor set holds ~15 600 iterations; averaged
    # over their actual number, their scores' spread alone sets the width.
    # Divided by the expected number, the spread of that number read
    # relative half-widths of 1.55e-2 and 1.57e-2 here.
    params = derive_scheme(_readme_inputs(duty_cycle))
    est = estimate_pe(params, NO_FADING, 10e3, 1.0, 1_000_000, seed=1)
    assert est.half_width_95 < bound * est.p_e


def test_floor_estimate_is_unbiased_at_small_n():
    # Alphabet 16 at P_t = 1e4: every error lies in the floor set, which
    # at n = 50 is empty in 45 % of the draws. Over 2000 seeds the mean
    # p_e lies within 4 standard errors of the closed form; without the
    # division by pi_50 = P(f >= 1) it read 35 standard errors low.
    params = helpers.scheme_with_alphabet(16)
    exact = analytic_pe_no_shadowing(1e4 + 1.0, 15)
    p_e = np.array([estimate_pe(params, NO_FADING, 1e4, 1.0, 50, seed=seed).p_e
                    for seed in range(2000)])
    assert abs(p_e.mean() - exact) <= 4 * p_e.std(ddof=1) / math.sqrt(p_e.size)


@pytest.mark.parametrize("n", [37, 128, 1000])
def test_floor_estimate_is_unbiased_where_strata_decide_the_floor_set(n):
    # Alphabet 16 at P_t = 1e4, every error in the floor set. Stratified u
    # put the first pair in F with probability min(1, H P_f) each, so
    # P(f >= 1) is 0.49 at n = 37 and 1 from n = 128 on, where the iid
    # 1 - (1 - P_f)^n read 0.44 and 0.87. Over 400 seeds the mean p_e lies
    # within 3 standard errors of the closed form; divided by the iid
    # P(f >= 1) it read 2.7 and 9.5 standard errors high at 37 and 128.
    params = helpers.scheme_with_alphabet(16)
    exact = analytic_pe_no_shadowing(1e4 + 1.0, 15)
    p_e = np.array([estimate_pe(params, NO_FADING, 1e4, 1.0, n, seed=seed).p_e
                    for seed in range(400)])
    assert abs(p_e.mean() - exact) <= 3 * p_e.std(ddof=1) / math.sqrt(p_e.size)


@pytest.mark.parametrize("variant", ["WTFC", "IFSK"])
def test_constant_half_width_matches_the_spread_over_seeds(variant):
    # The README point at 200 000 iterations, seeds 0-39: at least 36 of
    # the 40 intervals hold the closed form, and the mean reported
    # half-width lies within 15 % of 1.96 times the seeds' standard
    # deviation (1.08 and 1.03 of it when measured). The pair half-width
    # is a quarter of the binomial one the iid draws had here.
    params = derive_scheme(_readme_inputs(1e-2), variant)
    exact = analytic_pe_no_shadowing(signal_energy(10e3, params, 1.0) + 1.0,
                                     params.noise_slot_count)
    estimates = [estimate_pe(params, NO_FADING, 10e3, 1.0, 200_000, seed=seed)
                 for seed in range(40)]
    p_e = np.array([est.p_e for est in estimates])
    half_widths = np.array([est.half_width_95 for est in estimates])
    assert np.count_nonzero(np.abs(p_e - exact) <= half_widths) >= 36
    assert abs(half_widths.mean() / (1.96 * p_e.std(ddof=1)) - 1.0) <= 0.15


def _deep_fade_cell():
    """The README point at duty 1e-4 under 8 dB shadowing, one symbol per
    realization, and its exact p_e: 0.0087, of which the 0.0017 without
    shadowing is a fifth, so most errors come from deep fades."""
    params = derive_scheme(_readme_inputs(1e-4))
    model = LargeScaleModel(enabled=True, shadowing_std_db=8.0)
    exact = helpers.exact_pe(model, signal_energy(10e3, params, 1.0), params.noise_slot_count)
    return params, model, exact


def test_drawn_intervals_cover_the_exact_value():
    # Over 20 fixed seeds, each 95 % interval of the conditional score's
    # mean must hold the Gauss-Hermite average in at least 17.
    params, model, exact = _deep_fade_cell()
    covered = sum(abs(est.p_e - exact) <= est.half_width_95
                  for est in (estimate_pe(params, model, 10e3, 1.0, 50_000, seed=seed)
                              for seed in range(20)))
    assert covered >= 17, covered


@pytest.mark.parametrize("block_len", [1, 1000])
def test_drawn_intervals_cover_the_exact_value_in_pairs_of_blocks(block_len):
    # The README point at 8 dB, 400 000 iterations, seeds 0-19. Blocks of
    # 1000 symbols sharing one amplitude covered 2 of 20 when the
    # half-width treated symbols as independent; pairs of blocks hold the
    # blocks' spread.
    params = derive_scheme(_readme_inputs(1e-2))
    model = LargeScaleModel(enabled=True, shadowing_std_db=8.0, block_len=block_len)
    exact = helpers.exact_pe(model, signal_energy(10e3, params, 1.0), params.noise_slot_count)
    covered = sum(abs(est.p_e - exact) <= est.half_width_95
                  for est in (estimate_pe(params, model, 10e3, 1.0, 400_000, seed=seed)
                              for seed in range(20)))
    assert covered >= 17, covered


def test_drawn_half_width_matches_the_spread_over_seeds():
    # One chunk per seed at the README point, seeds 0-99: the mean reported
    # half-width lies within 20 % of 1.96 times the seeds' standard
    # deviation (0.96 of it when measured).
    params = derive_scheme(_readme_inputs(1e-2))
    model = LargeScaleModel(enabled=True, shadowing_std_db=8.0)
    estimates = [estimate_pe(params, model, 10e3, 1.0, CHUNK_SIZE, seed=seed)
                 for seed in range(100)]
    spread = 1.96 * np.std([est.p_e for est in estimates], ddof=1)
    mean_half_width = np.mean([est.half_width_95 for est in estimates])
    assert abs(mean_half_width / spread - 1.0) <= 0.2


def test_drawn_estimate_is_unbiased_at_small_n():
    # The mean score is unbiased at any n: over 1000 seeds of 50 iterations
    # the mean p_e lies within 4 standard errors of the exact value, and no
    # half-width is 0.
    params, model, exact = _deep_fade_cell()
    estimates = [estimate_pe(params, model, 10e3, 1.0, 50, seed=seed) for seed in range(1000)]
    p_e = np.array([est.p_e for est in estimates])
    assert abs(p_e.mean() - exact) <= 4 * p_e.std(ddof=1) / math.sqrt(p_e.size)
    assert min(est.half_width_95 for est in estimates) > 0


def test_drawn_half_width_at_one_iteration_is_the_widest():
    # One score has no sample variance; the half-width takes 1/4, the
    # largest variance of a score in [0, 1]: 1.96 * sqrt(1/4) = 0.98.
    params, model, _ = _deep_fade_cell()
    for seed in range(5):
        est = estimate_pe(params, model, 10e3, 1.0, 1, seed=seed)
        assert 0 < est.p_e < 1 and est.half_width_95 == 0.98


@pytest.mark.parametrize("seed, floor_size", [(0, 1), (1, 0)])
def test_floor_spread_below_two_scores_is_the_widest(seed, floor_size):
    # README point at duty 1e-4, 50 iterations, no error outside the floor
    # set. Below two scores q in [0, P_f] the spread is (P_f / 2)^2, over
    # max(f, 1): seed 0 draws f = 1 (one score's spread would be 0), seed 1
    # draws f = 0 (0 +- 0 without the bound). 50 iterations are 25 pairs,
    # so the count adds nothing.
    params = derive_scheme(_readme_inputs(1e-4))
    mu = signal_energy(10e3, params, 1.0) + 1.0
    counts, discordant, sums, _, f = helpers.reference_chunk_error_count(
        0, 50, seed, [mu], [params.noise_slot_count], np.empty((3, 50)))
    assert (f, counts[0, 0], discordant[0, 0]) == (floor_size, 0, 0)
    est = estimate_pe(params, NO_FADING, 10e3, 1.0, 50, seed=seed)
    reach = _stratified_reach(50)
    assert est.p_e == (sums[0, 0] / f / reach if f else 0.0)
    assert est.half_width_95 == 1.96 * (detector.P_FLOOR / 2 / reach)


@pytest.mark.parametrize("powers", [100.0, (100.0,), (100.0, 100.0, 100.0)])
def test_rejects_powers_not_one_per_params_entry(powers):
    variants = (helpers.scheme_with_alphabet(16), helpers.scheme_with_alphabet(4))
    with pytest.raises((ValueError, TypeError)):
        estimate_pe(variants, NO_FADING, powers, 1.0, 10, seed=0)


@pytest.mark.parametrize("threads", [0, -3])
def test_rejects_threads_below_one(threads):
    params = helpers.scheme_with_alphabet(4)
    with pytest.raises(ValueError, match="^threads must be at least 1$"):
        estimate_pe(params, NO_FADING, 1.0, 1.0, 10, seed=0, threads=threads)


_NAN_SHADOWING = ("distance_m", "reference_distance_m", "wavelength_m",
                  "path_loss_exponent", "shadowing_std_db")
_NAN_INPUTS = ("bandwidth_hz", "symbol_time_s", "delay_spread_s", "doppler_spread_hz",
               "guard_time_s")


@pytest.mark.parametrize("field", [*_NAN_SHADOWING, *_NAN_INPUTS,
                                   "transmit_power", "noise_density"])
def test_nan_fails_at_its_field(field):
    # A comparison with NaN is False, so a check must be written to fail
    # on it rather than to pass it.
    params = helpers.scheme_with_alphabet(4)
    with pytest.raises(ValueError, match=f"^{field} "):
        if field in _NAN_SHADOWING:
            _PIN_SHADOWED.replace(**{field: math.nan})
        elif field in _NAN_INPUTS:
            _readme_inputs(1e-2).replace(**{field: math.nan})
        elif field == "transmit_power":
            estimate_pe(params, NO_FADING, math.nan, 1.0, 10, seed=0)
        else:
            estimate_pe(params, NO_FADING, 1.0, math.nan, 10, seed=0)


@pytest.mark.parametrize("noise_density", [1e-300, 5e-324])
def test_signal_energy_past_the_float_range_fails(noise_density):
    # Duty 1 and T_s = 1: the energy is P_t / N_0, past the float range at
    # either N_0. An infinite mu read p_e = 0 +- 0.
    params = helpers.scheme_with_alphabet(4)
    with pytest.raises(ValueError, match="^noise_density gives a signal energy outside"):
        signal_energy(1e10, params, noise_density)
    with pytest.raises(ValueError, match="^noise_density gives a signal energy outside"):
        estimate_pe(params, NO_FADING, 1e10, noise_density, 10, seed=0)


@pytest.mark.parametrize("field", ["bandwidth_hz", "symbol_time_s", "doppler_spread_hz"])
def test_inf_fails_at_its_field(field):
    # Past the check, derive_scheme would round or ceil an infinite float.
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        _readme_inputs(1e-2).replace(**{field: math.inf})


@pytest.mark.parametrize("call", [
    lambda: scheme.amplitude(math.nan, helpers.scheme_with_alphabet(4)),
    lambda: channel.transmit_power(math.nan, NO_FADING),
    lambda: analytic_pe_no_shadowing(math.nan, 3),
    lambda: dmc_capacity(0.1, 4, 1.0, math.nan),
    lambda: awgn_capacity(math.nan, 1.0, 1.0),
    lambda: awgn_capacity(1.0, math.nan, 1.0),
    lambda: awgn_capacity(1.0, 1.0, math.nan),
], ids=["amplitude", "transmit_power", "analytic_pe", "dmc_capacity", "awgn_receive_power",
        "awgn_noise_density", "awgn_bandwidth_hz"])
def test_nan_fails_the_closed_form_checks(call):
    with pytest.raises(ValueError, match="must be"):
        call()


def test_oracle_agreement_smoke():
    # Two cells of the acceptance grid, checked at lighter weight.
    for mu, n in [(10.0, 3), (100.0, 15)]:
        params = helpers.scheme_with_alphabet(n + 1)
        est = estimate_pe(
            params, NO_FADING, helpers.power_for_mu(mu), 1.0, 100_000, seed=17
        )
        assert abs(est.p_e - analytic_pe_no_shadowing(mu, n)) <= 3 * est.half_width_95


def test_equal_floor_scores_get_the_spread_bound():
    # Mean 101 against 15 noise slots at 37 iterations, seed 2030: both
    # scores of the floor set are the same and no error lies outside it, so
    # the sample spread is 0, and a row that kept it would read
    # 0.0318 +- 0.0265, the unpaired last iteration's bound alone. The
    # spread is bounded by (P_f / 2)^2, as below two scores.
    params = helpers.scheme_with_alphabet(16)
    est = estimate_pe(params, NO_FADING, 100.0, 1.0, 37, seed=2030)
    counts, _, sums, squares, f = helpers.reference_chunk_error_count(
        0, 37, 2030, [101.0], [15], np.empty((3, 37)))
    assert counts[0, 0] == 0 and f >= 2
    assert squares[0, 0] / f - (sums[0, 0] / f) ** 2 <= 0.0
    reach = _stratified_reach(37)
    assert est.p_e == pytest.approx(0.0318, abs=1e-4)
    assert est.half_width_95 == pytest.approx(
        1.96 * math.hypot(0.5 / 37, (detector.P_FLOOR / 2) / (math.sqrt(f) * reach)), rel=1e-12)


@pytest.mark.parametrize("sigma_db", [0.0, 8.0])
def test_half_width_at_a_huge_signal_energy_scales_with_it(sigma_db):
    # Scores are about y / mu, so at n_0 = 1e-300 (mu ~ 1e302) their squares
    # underflowed and the row read p_e +- 0. Scaled by a power of two before
    # squaring, p_e and its half-width times n_0 match the unscaled ones at
    # n_0 = 1e-100, where mu ~ 1e102 lies below the scaling's threshold.
    params = derive_scheme(PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100))
    model = LargeScaleModel(enabled=sigma_db > 0, shadowing_std_db=sigma_db)
    scaled = estimate_pe(params, model, 1e4, 1e-300, 1000, seed=0)
    plain = estimate_pe(params, model, 1e4, 1e-100, 1000, seed=0)
    assert detector._square_scale(signal_energy(1e4, params, 1e-100)) == 1.0
    assert detector._square_scale(signal_energy(1e4, params, 1e-300)) > 1.0
    assert scaled.half_width_95 > 0.0
    assert scaled.p_e * 1e300 == pytest.approx(plain.p_e * 1e100, rel=1e-9)
    assert scaled.half_width_95 * 1e300 == pytest.approx(plain.half_width_95 * 1e100, rel=1e-9)
