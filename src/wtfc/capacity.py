"""Capacity of the symmetric discrete memoryless channel seen by the receiver.

Every wrong symbol is equally likely given an error, so the channel is an
S-ary symmetric DMC and its capacity follows from the error probability
alone. A symbol occupies one slot out of ``1/theta``, hence the extra
``theta / T_s`` factor converting bits per symbol into bits per second.
"""

from __future__ import annotations

import math
import sys

__all__ = ["dmc_capacity", "awgn_capacity"]


def dmc_capacity(
    p_e: float,
    alphabet_size: int,
    duty_cycle: float,
    symbol_time_s: float,
) -> float:
    """Capacity in bits/s of the S-ary symmetric DMC at error rate ``p_e``.

    C = (log2 S + (1-p) log2(1-p) + p log2(p/(S-1))) * theta / T_s, with
    0 log 0 = 0. Error rates above 1 - 1/S can only come from estimator
    noise; they are clamped to the zero-capacity point with a warning.
    """
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be at least 2")
    if not symbol_time_s > 0:
        raise ValueError("symbol_time_s must be positive")
    if not 0 < duty_cycle <= 1:
        raise ValueError("duty_cycle must lie in (0, 1]")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must lie in [0, 1]")

    s = alphabet_size
    worst = 1.0 - 1.0 / s
    if p_e > worst:
        # Imported here: no command that stays below the clamp needs logging.
        import logging

        logging.getLogger(__name__).warning(
            "p_e=%.17g exceeds 1 - 1/S = %.17g; clamping to the zero-capacity point",
            p_e,
            worst,
        )
        p_e = worst

    # p_e = 0 contributes nothing by the 0 log 0 = 0 convention, and so
    # does 1 - p_e = 0: past S = 2^53, 1 - 1/S rounds to 1 and the clamp
    # above lets p_e = 1 through.
    bits = math.log2(s)
    if p_e > 0.0:
        if p_e < 1.0:
            bits += (1.0 - p_e) * math.log2(1.0 - p_e)
        # At S past ~1e306 the quotient can underflow; its two logs cannot.
        ratio = p_e / (s - 1)
        bits += p_e * (math.log2(ratio) if ratio >= sys.float_info.min
                       else math.log2(p_e) - math.log2(s - 1))

    return max(bits * (duty_cycle / symbol_time_s), 0.0)


def awgn_capacity(receive_power: float, noise_density: float, bandwidth_hz: float) -> float:
    """Shannon capacity B log2(1 + P_r / (N_0 B)), the upper-bound baseline."""
    if not (receive_power > 0 and noise_density > 0 and bandwidth_hz > 0):
        raise ValueError("receive_power, noise_density and bandwidth_hz must be positive")
    band = noise_density * bandwidth_hz
    if not (band > 0 and receive_power / band < math.inf):
        raise ValueError("the SNR receive_power / (noise_density * bandwidth_hz) "
                         "lies outside the float range")
    return bandwidth_hz * math.log2(1.0 + receive_power / band)

