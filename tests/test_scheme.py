import math

import pytest

from wtfc import PhysicalInputs, SchemeParams, amplitude, derive_scheme


def test_airplane_doppler_picks_q3():
    # 25 kHz Doppler over an 81 us window forces the third spacing multiple.
    params = derive_scheme(
        PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100)
    )
    assert params.q == 3
    assert params.delta_f_hz == pytest.approx(37037.037037, rel=1e-9)
    assert params.tone_count == 2700
    assert params.slots_per_cycle == 100
    assert params.alphabet_size == 270_000
    assert params.bits_per_symbol == pytest.approx(math.log2(270_000))


def test_highway_doppler_keeps_q1():
    params = derive_scheme(PhysicalInputs(100e6, 101e-6, 20e-6, 360.0, 1 / 100))
    assert params.q == 1
    assert params.delta_f_hz == pytest.approx(12345.679012, rel=1e-9)


def test_smallest_legal_alphabet():
    window = 1.0
    params = derive_scheme(
        PhysicalInputs(2.0 / window, 1.5, 0.5, 1.0 / window, 1.0)
    )
    assert params.q == 1
    assert params.tone_count == 2
    assert params.alphabet_size == 2


def test_rejects_delay_spread_at_symbol_time():
    with pytest.raises(ValueError, match="delay_spread"):
        PhysicalInputs(1e6, 10e-6, 10e-6, 0.0, 1.0)


def test_rejects_fractional_slot_count():
    with pytest.raises(ValueError, match="duty_cycle"):
        PhysicalInputs(1e6, 10e-6, 0.0, 0.0, 0.4)


def test_rejects_single_tone_bandwidth():
    with pytest.raises(ValueError, match="bandwidth_hz too small"):
        derive_scheme(PhysicalInputs(1.9, 1.0, 0.0, 0.0, 1.0))


def test_rejects_override_violating_doppler():
    inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100, q_override=2)
    with pytest.raises(ValueError, match="q_override"):
        derive_scheme(inputs)


def test_override_accepted_when_legal():
    inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100, q_override=5)
    params = derive_scheme(inputs)
    assert params.q == 5
    assert params.tone_count == 1620


def test_q_minimality():
    # Without an override, q-1 must violate the Doppler constraint.
    cases = [
        (100e6, 101e-6, 20e-6, 25e3, 1 / 100),
        (400e6, 100e-6, 0.3e-6, 360.0, 1 / 1000),
        (50e6, 40e-6, 5e-6, 123e3, 1 / 10),
        (1e9, 10e-6, 1e-6, 1e6, 1 / 2),
    ]
    for case in cases:
        inputs = PhysicalInputs(*case)
        params = derive_scheme(inputs)
        assert params.delta_f_hz >= inputs.doppler_spread_hz * (1 - 1e-12)
        if params.q > 1:
            assert (params.q - 1) / inputs.window_s < inputs.doppler_spread_hz


def test_tone_count_doubles_with_bandwidth():
    # M(2B) >= 2 M(B) - 1 and M is nondecreasing in B.
    previous = None
    for bandwidth in [3.7e5, 1e6, 7.3e6, 5.5e7, 2.1e8]:
        inputs = PhysicalInputs(bandwidth, 101e-6, 20e-6, 25e3, 1 / 100)
        m_single = derive_scheme(inputs).tone_count
        m_double = derive_scheme(
            inputs.replace(bandwidth_hz=2 * bandwidth)
        ).tone_count
        assert m_double >= 2 * m_single - 1
        if previous is not None:
            assert m_single >= previous
        previous = m_single


def test_shrinking_duty_cycle_grows_amplitude_and_alphabet():
    last_a, last_s = None, None
    for slots in [1, 2, 10, 100, 1000]:
        inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 360.0, 1 / slots)
        params = derive_scheme(inputs)
        a = amplitude(1.0, params)
        if last_a is not None:
            assert a > last_a
            assert params.alphabet_size > last_s
        last_a, last_s = a, params.alphabet_size


def test_derive_is_pure():
    inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100)
    assert derive_scheme(inputs) == derive_scheme(inputs)


def test_longer_guard_shrinks_window():
    base = PhysicalInputs(100e6, 101e-6, 20e-6, 360.0, 1 / 100)
    padded = base.replace(guard_time_s=41e-6)
    assert derive_scheme(padded).tone_count == 6000
    assert derive_scheme(base).tone_count == 8100
    with pytest.raises(ValueError, match="guard_time_s"):
        base.replace(guard_time_s=10e-6)


# The README point, with and without an override, in both variants: q,
# delta_f_hz, tone_count, slots_per_cycle and alphabet_size as derived.
@pytest.mark.parametrize("q_override, variant, grid", [
    (None, "WTFC", (3, 3 / 81e-6, 2700, 100, 270_000)),
    (None, "IFSK", (3, 3 / 81e-6, 2700, 100, 2700)),
    (5, "WTFC", (5, 5 / 81e-6, 1620, 100, 162_000)),
    (5, "IFSK", (5, 5 / 81e-6, 1620, 100, 1620)),
])
def test_scheme_is_its_inputs_and_variant(q_override, variant, grid):
    inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100, q_override=q_override)
    params = SchemeParams(inputs, variant)
    assert params == derive_scheme(inputs, variant)
    assert vars(params) == {"inputs": inputs, "variant": variant}
    q, delta_f_hz, tone_count, slots, alphabet = grid
    assert (params.q, params.tone_count, params.slots_per_cycle,
            params.alphabet_size) == (q, tone_count, slots, alphabet)
    assert params.delta_f_hz == pytest.approx(delta_f_hz, rel=1e-12)


@pytest.mark.parametrize("changes, message", [
    ({"bandwidth_hz": 1e4}, "bandwidth_hz too small"),
    ({"q_override": 1}, "below the Doppler spread"),
])
def test_scheme_checks_run_at_construction(changes, message):
    inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100).replace(**changes)
    with pytest.raises(ValueError, match=message):
        SchemeParams(inputs)


def test_scheme_takes_no_tone_grid():
    inputs = PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100)
    with pytest.raises(TypeError, match="unexpected keyword argument 'tone_count'"):
        SchemeParams(inputs, tone_count=5)
    with pytest.raises(AttributeError):
        SchemeParams(inputs).q = 4


def test_amplitude_full_window_is_unit():
    params = derive_scheme(PhysicalInputs(2.0, 1.0, 0.0, 0.0, 1.0))
    assert amplitude(1.0, params) == pytest.approx(1.0)


def test_amplitude_direct_substitution():
    params = derive_scheme(PhysicalInputs(4.0, 2.0, 1.0, 0.0, 0.25))
    assert amplitude(4.0, params) == pytest.approx(math.sqrt(32.0))


def test_amplitude_impulsive_case():
    params = derive_scheme(PhysicalInputs(400e6, 100e-6, 0.3e-6, 360.0, 1 / 1000))
    assert amplitude(1.0, params) == pytest.approx(31.6703, abs=1e-3)


def test_amplitude_rejects_nonpositive_power():
    params = derive_scheme(PhysicalInputs(2.0, 1.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        amplitude(0.0, params)


def test_amplitude_past_the_float_range_is_rejected():
    # P_t T_s / (theta window) overflows at the README point's duty 1e-2
    # although P_t = 1e307 is finite; 1e306 still fits.
    params = derive_scheme(PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1e-2))
    assert amplitude(1e306, params) < math.inf
    with pytest.raises(ValueError, match="^transmit_power gives a tone amplitude past"):
        amplitude(1e307, params)
