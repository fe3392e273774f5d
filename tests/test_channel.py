import math

import numpy as np
import pytest

import helpers
from wtfc import (
    LargeScaleModel,
    deterministic_power_gain,
    shadowing_mean_power_gain,
    transmit_power,
)
from wtfc.channel import constant_amplitude
from wtfc.detector import draw_m_batch

# 4 pi d0 / lambda = 1, so the reference term is 0 dB.
TRIVIAL = LargeScaleModel(
    distance_m=1.0,
    reference_distance_m=1.0,
    wavelength_m=4.0 * math.pi,
    path_loss_exponent=2.0,
    enabled=True,
)


def test_loss_at_reference_distance_is_reference_term():
    model = LargeScaleModel(
        distance_m=2.0, reference_distance_m=2.0, wavelength_m=0.1, enabled=True
    )
    expected = 20.0 * math.log10(4.0 * math.pi * 2.0 / 0.1)
    assert model.deterministic_loss_db() == pytest.approx(expected)


@pytest.mark.parametrize("key, geometry", [
    ("distance_m", {"distance_m": 1e300}),
    ("wavelength_m", {"wavelength_m": 1e300}),
    ("wavelength_m", {"wavelength_m": 1e-300}),
    # 4 pi d0 / lambda underflows to 0, whose log10 fails.
    ("wavelength_m", {"reference_distance_m": 1e-300, "distance_m": 1e-300,
                      "wavelength_m": 1e300}),
])
@pytest.mark.parametrize("enabled", [False, True])
def test_gain_past_the_float_range_is_rejected_at_its_key(key, geometry, enabled):
    # A disabled model attenuates nothing, but enabling it keeps the geometry.
    with pytest.raises(ValueError, match=f"^{key} puts the path-loss power gain"):
        LargeScaleModel(enabled=enabled, **geometry)


def test_loss_decade_distance():
    model = TRIVIAL.replace(distance_m=10.0)
    assert model.deterministic_loss_db() == pytest.approx(20.0)


def test_amplitude_from_loss():
    # 0, 20 and 40 dB of loss at 1, 10 and 100 m on the trivial geometry.
    for d, m in [(1.0, 1.0), (10.0, 0.1), (100.0, 0.01)]:
        model = TRIVIAL.replace(distance_m=d)
        assert constant_amplitude(model) == pytest.approx(m)


def test_loss_monotone_in_distance_and_shadowing():
    last = None
    for d in [1.0, 2.0, 5.0, 17.0, 100.0]:
        m = constant_amplitude(TRIVIAL.replace(distance_m=d))
        if last is not None:
            assert m < last
        last = m
    # The mean shadowing power factor grows with the spread.
    gains = [shadowing_mean_power_gain(TRIVIAL.replace(shadowing_std_db=s))
             for s in (0.0, 2.0, 4.0, 8.0)]
    assert gains == sorted(gains) and gains[0] == 1.0 < gains[1]


@pytest.mark.parametrize("distance_m", [1.0, 3.0, 350.0])
def test_constant_amplitude_is_the_root_of_the_loss_bit_for_bit(distance_m):
    model = TRIVIAL.replace(distance_m=distance_m)
    loss = model.deterministic_loss_db()
    assert constant_amplitude(model) == math.sqrt(10.0 ** (-loss / 10.0))
    assert constant_amplitude(model.replace(enabled=False)) == 1.0


def test_transmit_power_identity_at_reference():
    assert transmit_power(1.0, TRIVIAL) == pytest.approx(1.0)
    assert transmit_power(40.0, TRIVIAL) == pytest.approx(40.0)


def test_transmit_power_decade():
    model = TRIVIAL.replace(distance_m=10.0)
    assert transmit_power(1.0, model) == pytest.approx(100.0)


def test_transmit_power_round_trip():
    model = LargeScaleModel(
        distance_m=350.0,
        reference_distance_m=2.0,
        wavelength_m=0.05,
        path_loss_exponent=3.2,
        enabled=True,
    )
    p_t = transmit_power(7.5, model)
    assert p_t * deterministic_power_gain(model) == pytest.approx(7.5, rel=1e-12)


def test_disabled_model_is_transparent():
    model = LargeScaleModel(distance_m=1e4, wavelength_m=0.01, enabled=False)
    assert transmit_power(3.0, model) == 3.0
    assert constant_amplitude(model) == 1.0


def test_zero_sigma_trivial_geometry_gives_unit_m():
    assert constant_amplitude(TRIVIAL) == 1.0
    model = TRIVIAL.replace(distance_m=10.0)
    assert constant_amplitude(model) == pytest.approx(0.1)


def test_zero_sigma_consumes_no_rng():
    # Disabled and sigma=0 runs must leave the stream untouched so paired
    # comparisons stay draw-for-draw aligned.
    rng_a = np.random.default_rng(7)
    with pytest.raises(ValueError):
        draw_m_batch(TRIVIAL, rng_a, 50, out=np.empty(50))
    rng_b = np.random.default_rng(7)
    assert rng_a.random() == rng_b.random()


def test_shadowing_moment_matches_lognormal():
    # E[m^2] relative to the deterministic value is exp((sigma ln10/10)^2/2),
    # over ten chunks drawn one after the other.
    sigma = 8.0
    model = TRIVIAL.replace(distance_m=10.0, shadowing_std_db=sigma)
    rng = np.random.default_rng(1234)
    m = np.concatenate([draw_m_batch(model, rng, 100_000, out=np.empty(100_000))
                        for _ in range(10)])
    det_power = deterministic_power_gain(model)
    ratio = float(np.mean(m**2)) / det_power
    expected = shadowing_mean_power_gain(model)
    assert expected == pytest.approx(math.exp((sigma * math.log(10) / 10) ** 2 / 2))
    assert ratio == pytest.approx(expected, rel=0.03)


def test_block_length_holds_m_constant():
    model = TRIVIAL.replace(shadowing_std_db=6.0, block_len=4)
    rng = np.random.default_rng(5)
    m = draw_m_batch(model, rng, 10, out=np.empty(10))
    assert np.all(m[0:4] == m[0])
    assert np.all(m[4:8] == m[4])
    assert m[0] != m[4]
    assert np.all(m[8:10] == m[8])


@pytest.mark.parametrize("block_len", [1, 4, 1000])
@pytest.mark.parametrize("distance_m", [1.0, 3.0, 350.0])
def test_in_place_draw_equals_stratified_formula_bit_for_bit(block_len, distance_m):
    # The reference takes each block's z one block at a time. 99 999
    # symbols end in an odd whole block, and at block_len 4 and 1000 in a
    # partial one after it.
    model = TRIVIAL.replace(distance_m=distance_m, shadowing_std_db=8.0, block_len=block_len)
    n = 99_999
    want = helpers.reference_amplitudes(model, np.random.default_rng(11), n)
    out = np.full(n, np.nan)
    got = draw_m_batch(model, np.random.default_rng(11), n, out=out)
    assert got is out
    assert np.array_equal(got, want)


def test_each_pair_of_blocks_draws_from_its_own_stratum():
    # 2H blocks in H pairs: pair h's two normals lie in the h-th H-quantile
    # interval, so the blocks' normals, sorted, take two per interval.
    sigma = 8.0
    model = TRIVIAL.replace(shadowing_std_db=sigma, block_len=10)
    pairs = 500
    m = draw_m_batch(model, np.random.default_rng(3), 2 * pairs * 10 + 7, out=np.empty(10_007))
    z = -np.log(m[::10]) / (math.log(10.0) / 20.0) / sigma
    edges = [helpers.normal_quantile(h / pairs) for h in range(pairs + 1)]
    stratum = np.searchsorted(edges, z[: 2 * pairs]) - 1
    assert np.array_equal(stratum[0::2], np.arange(pairs))
    assert np.array_equal(stratum[1::2], np.arange(pairs))


def test_a_draw_past_one_chunk_is_rejected():
    model = TRIVIAL.replace(shadowing_std_db=8.0)
    with pytest.raises(ValueError, match="at most 100000 symbols"):
        draw_m_batch(model, np.random.default_rng(0), 10, np.empty(10), start=99_995)


def test_constant_model_is_rejected():
    # A constant amplitude has no draws; the kernel uses constant_amplitude.
    out = np.full(5, np.nan)
    for model in (
        LargeScaleModel(),
        TRIVIAL.replace(distance_m=10.0),
        TRIVIAL.replace(shadowing_std_db=8.0, enabled=False),
    ):
        with pytest.raises(ValueError, match="constant_amplitude"):
            draw_m_batch(model, np.random.default_rng(0), 5, out=out)
    assert np.isnan(out).all()


def test_model_validation():
    with pytest.raises(ValueError, match="distance_m"):
        LargeScaleModel(distance_m=0.5, reference_distance_m=1.0)
    with pytest.raises(ValueError, match="shadowing_std_db"):
        LargeScaleModel(shadowing_std_db=-1.0)
    with pytest.raises(ValueError, match="block_len"):
        LargeScaleModel(block_len=0)
