"""Signal scheme parameters: tone grid, alphabet size, and transmit amplitude.

The modulation places one complex tone per duty cycle. Information rides on
both the tone index (one of ``M`` orthogonal frequencies) and the time slot
index (one of ``1/theta`` slots of length ``T_s``), so the alphabet has
``S = M / theta`` symbols; the impulsive-FSK (I-FSK) receiver knows the
slot, so its alphabet is ``M``. The delay spread is spent as guard time,
which shortens the usable transmission window to ``T_s - T_d`` and sets
the orthogonal tone spacing ``q / (T_s - T_d)``; ``q`` is bumped up until
the spacing clears the Doppler spread.

A scheme is ``SchemeParams(inputs, variant)`` and nothing more: its tone
grid (``q``, spacing, tone count, slots per cycle) is computed from the
inputs on each read, and its checks run at construction. Only the
alphabet depends on the variant. ``derive_scheme`` is the same call by
the name the CLI and the sweep use.
"""

from __future__ import annotations

import math
import sys

from .record import Record

__all__ = ["VARIANTS", "PhysicalInputs", "SchemeParams", "derive_scheme", "amplitude"]

# Receiver variants: WTFC searches every tone and slot; I-FSK knows the slot.
VARIANTS = ("WTFC", "IFSK")

# Tolerances for snapping near-integer ratios produced by float arithmetic
# (e.g. 100e6 * (101e-6 - 20e-6) / 3 landing a few ulp below 2700).
_REL_SNAP = 1e-9


def _snapped_floor(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) <= _REL_SNAP * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.floor(x))


class PhysicalInputs(Record):
    """Physical-layer inputs from which every scheme parameter is derived.

    ``guard_time_s`` defaults to the delay spread; a longer guard is legal
    and simply shrinks the transmission window.
    """

    bandwidth_hz: float
    symbol_time_s: float
    delay_spread_s: float
    doppler_spread_hz: float
    duty_cycle: float
    q_override: int | None = None
    guard_time_s: float | None = None

    def __post_init__(self) -> None:
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be positive")
        if not self.symbol_time_s > 0:
            raise ValueError("symbol_time_s must be positive")
        if not self.delay_spread_s >= 0:
            raise ValueError("delay_spread_s must be nonnegative")
        if not self.doppler_spread_hz >= 0:
            raise ValueError("doppler_spread_hz must be nonnegative")
        # An infinite one would reach round() or ceil() in SchemeParams.
        for field in ("bandwidth_hz", "symbol_time_s", "doppler_spread_hz"):
            if getattr(self, field) == math.inf:
                raise ValueError(f"{field} must be finite")
        if self.delay_spread_s >= self.symbol_time_s:
            raise ValueError(
                "delay_spread_s must be smaller than symbol_time_s: "
                "no transmission window remains"
            )
        if not 0 < self.duty_cycle <= 1:
            raise ValueError("duty_cycle must lie in (0, 1]")
        inverse = 1.0 / self.duty_cycle
        if inverse == math.inf or abs(round(inverse) * self.duty_cycle - 1.0) > 1e-9:
            raise ValueError(
                f"duty_cycle {self.duty_cycle} is invalid: its inverse "
                f"{inverse:g} is not a whole number of time slots"
            )
        if self.q_override is not None and self.q_override < 1:
            raise ValueError("q_override must be a positive integer")
        # SchemeParams divides it by the window as a float.
        if self.q_override is not None and self.q_override > sys.float_info.max:
            raise ValueError("q_override must not exceed the float range")
        guard = self.guard_time_s
        if guard is not None:
            if not guard >= self.delay_spread_s:
                raise ValueError("guard_time_s must be at least the delay spread")
            if guard >= self.symbol_time_s:
                raise ValueError("guard_time_s must be smaller than symbol_time_s")
        # SchemeParams rounds the bandwidth and the Doppler spread times
        # the window to whole numbers; each product must be a float. The
        # larger factor is named, the symbol time for the window.
        window = self.window_s
        for field in ("bandwidth_hz", "doppler_spread_hz"):
            rate = getattr(self, field)
            if rate * window == math.inf:
                raise ValueError(f"{field if rate >= window else 'symbol_time_s'} is too "
                                 f"large: {field} times the transmission window lies "
                                 "outside the float range")

    @property
    def slots_per_cycle(self) -> int:
        return round(1.0 / self.duty_cycle)

    @property
    def window_s(self) -> float:
        """Usable transmission window: symbol time minus guard time."""
        guard = self.delay_spread_s if self.guard_time_s is None else self.guard_time_s
        return self.symbol_time_s - guard


class SchemeParams(Record):
    """One scheme: physical inputs and a receiver variant, with the tone grid they set.

    ``variant`` is "WTFC" (receiver searches tones and slots, alphabet
    ``M / theta``) or "IFSK" (receiver knows the slot, alphabet ``M``).
    The tone grid (``q``, ``delta_f_hz``, ``tone_count``,
    ``slots_per_cycle``) is computed from ``inputs`` on each read, so no
    record holds a grid its inputs contradict. The spacing multiplier
    ``q`` is the smallest positive integer giving
    ``q / window >= doppler_spread``, unless overridden. Both variants
    share every physical parameter; only the alphabet differs, and with
    duty cycle 1 they coincide. Raises ValueError for a variant not in
    ``VARIANTS``, when the bandwidth fits fewer than two tones, when the
    alphabet lies past the float range or when an override breaks the
    Doppler constraint.
    """

    inputs: PhysicalInputs
    variant: str = "WTFC"

    def __post_init__(self) -> None:
        inputs, q = self.inputs, self.q
        window = inputs.window_s
        if (inputs.q_override is not None
                and q / window < inputs.doppler_spread_hz * (1.0 - _REL_SNAP)):
            raise ValueError(
                f"q_override={q} gives tone spacing {q / window:.6g} Hz below "
                f"the Doppler spread {inputs.doppler_spread_hz:.6g} Hz"
            )
        if self.tone_count < 2:
            raise ValueError(
                f"bandwidth_hz too small: only {self.tone_count} tone(s) fit the "
                f"{window:.6g} s window at spacing multiplier q={q}"
            )
        # The sampler and the capacity take S as a float. The larger
        # factor of S = M / theta is named.
        if self.alphabet_size > sys.float_info.max:
            field = "bandwidth_hz" if self.tone_count >= self.slots_per_cycle else "duty_cycle"
            raise ValueError(f"{field} puts the alphabet size S = tone_count / duty_cycle "
                             "outside the float range")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def q(self) -> int:
        """Tone spacing multiplier: the override, else the least clearing the Doppler spread."""
        inputs = self.inputs
        if inputs.q_override is not None:
            return inputs.q_override
        return max(1, math.ceil(inputs.doppler_spread_hz * inputs.window_s - _REL_SNAP))

    @property
    def delta_f_hz(self) -> float:
        """Orthogonal tone spacing q / window."""
        return self.q / self.inputs.window_s

    @property
    def tone_count(self) -> int:
        """M: the tones at spacing q / window that fit the bandwidth."""
        return _snapped_floor(self.inputs.bandwidth_hz * self.inputs.window_s / self.q)

    @property
    def slots_per_cycle(self) -> int:
        return self.inputs.slots_per_cycle

    @property
    def alphabet_size(self) -> int:
        """S = M / theta symbols, or M for I-FSK, whose receiver knows the slot."""
        return self.tone_count * (self.slots_per_cycle if self.variant == "WTFC" else 1)

    @property
    def bits_per_symbol(self) -> float:
        return math.log2(self.alphabet_size)

    @property
    def noise_slot_count(self) -> int:
        """Number of competing noise-only receiver outputs."""
        return self.alphabet_size - 1

    def ceiling_bps(self) -> float:
        """Capacity ceiling (theta / T_s) log2 S: one symbol per cycle, no errors."""
        return (self.inputs.duty_cycle / self.inputs.symbol_time_s) * self.bits_per_symbol


def derive_scheme(inputs: PhysicalInputs, variant: str = "WTFC") -> SchemeParams:
    """The scheme of ``inputs`` and ``variant``: ``SchemeParams(inputs, variant)``."""
    return SchemeParams(inputs, variant)


def amplitude(transmit_power: float, params: SchemeParams) -> float:
    """Tone amplitude for a given average transmit power.

    The tone is on for ``window`` seconds out of every ``T_s / theta``,
    so the amplitude is boosted to sqrt(P_t * T_s / (theta * window)).
    ``ValueError`` where the product inside the root overflows, as it can
    for a finite P_t.
    """
    if not transmit_power > 0:
        raise ValueError("transmit_power must be positive")
    inputs = params.inputs
    value = math.sqrt(
        transmit_power * inputs.symbol_time_s / (inputs.duty_cycle * inputs.window_s)
    )
    if value == math.inf:
        raise ValueError("transmit_power gives a tone amplitude past the float range")
    return value
