"""Large-scale fading model: path loss and log-normal shadowing.

Large-scale fading combines a deterministic path loss (free space up to
the reference distance, then a distance power law) with log-normal
shadowing. Small-scale fading is the squared magnitude of a unit-variance
circularly symmetric complex Gaussian, i.e. a unit-mean exponential, which
the detector folds into the exponential law of the signal slot. Multipath
never appears tap by tap: its aggregate effect is exactly this small-scale
gain, so no waveform is synthesized anywhere.

This module is the closed-form half of the channel and imports the
standard library alone. The per-symbol shadowing draw, ``draw_m_batch``,
belongs to the Monte Carlo sampler in ``wtfc.detector``.
"""

from __future__ import annotations

import math
import sys

from .record import Record

__all__ = [
    "LargeScaleModel",
    "deterministic_power_gain",
    "transmit_power",
    "constant_amplitude",
    "shadowing_mean_power_gain",
]

# ln of the largest float: exp overflows past it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class LargeScaleModel(Record):
    """Path-loss geometry plus shadowing spread and an on/off switch.

    With ``enabled=False`` the channel applies no large-scale attenuation at
    all (amplitude 1). ``block_len`` holds one shadowing realization across
    that many consecutive symbols.
    """

    distance_m: float = 1.0
    reference_distance_m: float = 1.0
    wavelength_m: float = 4.0 * math.pi
    path_loss_exponent: float = 2.0
    shadowing_std_db: float = 0.0
    enabled: bool = False
    block_len: int = 1

    def __post_init__(self) -> None:
        if not self.reference_distance_m > 0:
            raise ValueError("reference_distance_m must be positive")
        if not self.distance_m >= self.reference_distance_m:
            raise ValueError("distance_m must be at least reference_distance_m")
        if not self.wavelength_m > 0:
            raise ValueError("wavelength_m must be positive")
        if not self.path_loss_exponent > 0:
            raise ValueError("path_loss_exponent must be positive")
        if not self.shadowing_std_db >= 0:
            raise ValueError("shadowing_std_db must be nonnegative")
        # The mean power factor exp((sigma ln10 / 10)^2 / 2) must be a
        # float, as hold_mean_rx_power divides by it: sigma at most about
        # 163.6 dB, where the drawn amplitudes' squares stay floats too.
        spread = self.shadowing_std_db * math.log(10.0) / 10.0
        if not spread * spread / 2.0 <= _LOG_FLOAT_MAX:
            raise ValueError("shadowing_std_db puts the mean shadowing power gain "
                             "outside the float range")
        if self.block_len < 1:
            raise ValueError("block_len must be a positive integer")
        # The power gain 10^(-L/10) must be a positive float whether or not
        # the model is enabled, since enabling it (as compare_shadowing
        # does) keeps the geometry. log10 fails on an underflowed
        # 4 pi d0 / lambda and the power on a gain above the float range.
        try:
            gain = 10.0 ** (-self.deterministic_loss_db() / 10.0)
        except (ValueError, OverflowError):
            gain = math.inf
        if not 0.0 < gain < math.inf:
            # Only the wavelength term can raise the gain; the distance
            # term lowers it unless distance_m is reference_distance_m.
            far = gain == 0.0 and self.distance_m > self.reference_distance_m
            raise ValueError(f"{'distance_m' if far else 'wavelength_m'} puts the path-loss "
                             "power gain 10^(-L/10) outside the float range")

    def deterministic_loss_db(self) -> float:
        """Path loss, shadowing zeroed: 20 log10(4 pi d0/lambda) + 10 n log10(d/d0)."""
        reference_term = 20.0 * math.log10(
            4.0 * math.pi * self.reference_distance_m / self.wavelength_m
        )
        distance_term = 10.0 * self.path_loss_exponent * math.log10(
            self.distance_m / self.reference_distance_m
        )
        return reference_term + distance_term


def deterministic_power_gain(model: LargeScaleModel) -> float:
    """Received/transmitted power ratio with shadowing zeroed; 1 if disabled."""
    if not model.enabled:
        return 1.0
    return 10.0 ** (-model.deterministic_loss_db() / 10.0)


def transmit_power(receive_power: float, model: LargeScaleModel) -> float:
    """Transmit power needed for a given average receive power.

    Inverts the deterministic (shadowing-free) power gain. A disabled model
    attenuates nothing, so transmit and receive power coincide.
    """
    if not receive_power > 0:
        raise ValueError("receive_power must be positive")
    return receive_power / deterministic_power_gain(model)


def shadowing_mean_power_gain(model: LargeScaleModel) -> float:
    """Mean of the log-normal shadowing power factor 10^(-X/10).

    Equals exp((sigma * ln10 / 10)^2 / 2); 1 when shadowing is off.
    """
    if not model.enabled or model.shadowing_std_db == 0:
        return 1.0
    a = model.shadowing_std_db * math.log(10.0) / 10.0
    return math.exp(a * a / 2.0)


def constant_amplitude(model: LargeScaleModel) -> float | None:
    """The amplitude every symbol gets when it does not vary, else None.

    1 when the model is disabled, the deterministic amplitude when sigma is
    zero; None when shadowing draws a fresh amplitude per block.
    """
    if model.enabled and model.shadowing_std_db != 0:
        return None
    return math.sqrt(deterministic_power_gain(model))

