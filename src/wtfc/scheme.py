"""Signal scheme parameters: tone grid, alphabet size, and transmit amplitude.

The modulation places one complex tone per duty cycle. Information rides on
both the tone index (one of ``M`` orthogonal frequencies) and the time slot
index (one of ``1/theta`` slots of length ``T_s``), so the alphabet has
``S = M / theta`` symbols; the impulsive-FSK (I-FSK) receiver knows the
slot, so its alphabet is ``M``. The delay spread is spent as guard time,
which shortens the usable transmission window to ``T_s - T_d`` and sets
the orthogonal tone spacing ``q / (T_s - T_d)``; ``q`` is bumped up until
the spacing clears the Doppler spread.
"""

from __future__ import annotations

import math

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
        # An infinite one would reach round() or ceil() in derive_scheme.
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
        slots = round(1.0 / self.duty_cycle)
        if slots < 1 or abs(slots * self.duty_cycle - 1.0) > 1e-9:
            raise ValueError(
                f"duty_cycle {self.duty_cycle} is invalid: its inverse "
                f"{1.0 / self.duty_cycle:g} is not a whole number of time slots"
            )
        if self.q_override is not None and self.q_override < 1:
            raise ValueError("q_override must be a positive integer")
        guard = self.guard_time_s
        if guard is not None:
            if not guard >= self.delay_spread_s:
                raise ValueError("guard_time_s must be at least the delay spread")
            if guard >= self.symbol_time_s:
                raise ValueError("guard_time_s must be smaller than symbol_time_s")

    @property
    def slots_per_cycle(self) -> int:
        return round(1.0 / self.duty_cycle)

    @property
    def window_s(self) -> float:
        """Usable transmission window: symbol time minus guard time."""
        guard = self.delay_spread_s if self.guard_time_s is None else self.guard_time_s
        return self.symbol_time_s - guard


class SchemeParams(Record):
    """Derived signal parameters for one scheme instantiation.

    ``variant`` is "WTFC" (receiver searches tones and slots, alphabet
    ``M / theta``) or "IFSK" (receiver knows the slot, alphabet ``M``).
    """

    inputs: PhysicalInputs
    q: int
    delta_f_hz: float
    tone_count: int
    slots_per_cycle: int
    variant: str = "WTFC"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.tone_count < 2:
            raise ValueError("tone_count must be at least 2")

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
    """Derive tone spacing, tone count and alphabet size from physical inputs.

    The spacing multiplier ``q`` is the smallest positive integer giving
    ``q / window >= doppler_spread``, unless overridden. Both variants share
    every physical parameter; only the alphabet differs, and with duty
    cycle 1 they coincide. Raises ValueError for a variant not in
    ``VARIANTS``, when the bandwidth fits fewer than two tones or when an
    override breaks the Doppler constraint.
    """
    window = inputs.window_s
    q_min = max(1, math.ceil(inputs.doppler_spread_hz * window - _REL_SNAP))
    if inputs.q_override is not None:
        q = inputs.q_override
        if q / window < inputs.doppler_spread_hz * (1.0 - _REL_SNAP):
            raise ValueError(
                f"q_override={q} gives tone spacing {q / window:.6g} Hz below "
                f"the Doppler spread {inputs.doppler_spread_hz:.6g} Hz"
            )
    else:
        q = q_min
    tone_count = _snapped_floor(inputs.bandwidth_hz * window / q)
    if tone_count < 2:
        raise ValueError(
            f"bandwidth_hz too small: only {tone_count} tone(s) fit the "
            f"{window:.6g} s window at spacing multiplier q={q}"
        )
    return SchemeParams(
        inputs=inputs,
        q=q,
        delta_f_hz=q / window,
        tone_count=tone_count,
        slots_per_cycle=inputs.slots_per_cycle,
        variant=variant,
    )


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
