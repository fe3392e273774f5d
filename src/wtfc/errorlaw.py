"""Square-law receiver error law: everything about it that needs no sampling.

The receiver picks the (tone, slot) pair whose matched-filter output has the
largest squared magnitude. Conditional on the large-scale amplitude ``m``,
the squared output of the transmitted slot is exponential with mean
``mu = m^2 P_t T_s / (theta N_0) + 1`` (small-scale fading folded in), and
every other slot is exponential with mean 1. A symbol error occurs when the
maximum of the ``S - 1`` noise outputs beats the signal output.

Without shadowing the error law is exact: with ``N = S - 1`` noise slots the
probability of a correct decision is the Gamma ratio
Gamma(N+1) Gamma(1+1/mu) / Gamma(N+1+1/mu), the noncoherent orthogonal
signalling result, evaluated with the ``math`` module alone. The Monte
Carlo sampler, ``wtfc.detector``, is the only module that imports numpy;
this one holds what it shares with the code that never samples: the signal
energy, the estimate record and the chunk size.
"""

from __future__ import annotations

import math

from .record import Record
from .scheme import SchemeParams

__all__ = ["CHUNK_SIZE", "PeEstimate", "signal_energy", "analytic_pe_no_shadowing"]

# Iterations per Monte Carlo chunk. Part of the determinism contract:
# changing it changes which uniforms map to which iteration. Shadowing
# blocks restart in every chunk, so a block length must divide it.
CHUNK_SIZE = 100_000


class PeEstimate(Record):
    """Monte Carlo symbol error probability with its 95% half-width.

    ``p_e`` is sampled over ``iterations`` symbols (``wtfc.detector``). At
    a constant signal-slot mean it is the error fraction outside the
    sampler's floor set plus the mean of the floor set's conditional error
    scores; under log-normal shadowing with sigma > 0 it is the mean of
    every iteration's error probability given its noise maximum and
    amplitude. ``half_width_95`` is 1.96 times its standard error.

    For a p_e that was given rather than sampled (``capacity --pe``),
    ``iterations``, ``half_width_95`` and ``seed`` are None.
    """

    p_e: float
    iterations: int | None
    half_width_95: float | None
    seed: int | None


def signal_energy(
    transmit_power: float, params: SchemeParams, noise_density: float
) -> float:
    """Signal energy per slot over N_0 at unit amplitude: P_t T_s/(theta N_0).

    The transmitted slot's squared output is exponential with mean
    ``mu = m^2 * signal_energy + 1``; zero power is the pure-noise limit.
    An energy past the float range raises ``ValueError``.
    """
    if not transmit_power >= 0:
        raise ValueError("transmit_power must be nonnegative")
    if not noise_density > 0:
        raise ValueError("noise_density must be positive")
    inputs = params.inputs
    scale = inputs.duty_cycle * noise_density
    if not (scale > 0 and transmit_power * inputs.symbol_time_s / scale < math.inf):
        raise ValueError("noise_density gives a signal energy outside the float range")
    return transmit_power * inputs.symbol_time_s / scale


# Below this argument lnGamma differences are summed term by term; from it
# on, the six-term Stirling difference series is accurate to double
# precision (its first omitted term is below 1e-16 of the sum).
_STIRLING_MIN_X = 16

# B_2j / (2j (2j - 1)) for j = 1..6: the Stirling series coefficients.
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _lgamma_shift(x: float, a: float) -> float:
    """lnGamma(x + a) - lnGamma(x) for x >= 16 by the Stirling difference.

    Every term is written to be proportional to ``a`` (through
    r = log1p(a/x) and expm1), so the difference keeps full relative
    precision even when a = 1/mu is 1e-12 and x is 1e9.
    """
    r = math.log1p(a / x)
    total = (x - 0.5) * r + a * (math.log(x) + r) - a
    for j, c in enumerate(_STIRLING_COEFFS, start=1):
        total += c * x ** (1 - 2 * j) * math.expm1(-(2 * j - 1) * r)
    return total


def analytic_pe_no_shadowing(mu: float, n_noise: int) -> float:
    """Exact symbol error probability without shadowing.

    Probability that an Exp(mean mu) signal statistic loses to the maximum
    of ``n_noise`` independent Exp(1) noise statistics. With a = 1/mu the
    probability of a correct decision is the Gamma ratio
    Gamma(N+1) Gamma(1+a) / Gamma(N+1+a) = prod_{k=1..N} 1/(1 + a/k).
    Its logarithm is summed directly for k < 16 and by the Stirling
    difference series beyond, then p_e = -expm1(ln P(correct)); the
    relative error is a few ulp for any mu >= 1 and N up to 1e9. The result
    is capped at the uniform-guessing value 1 - 1/(N+1), which rounding
    alone would overshoot by an ulp near mu = 1.
    """
    if not mu >= 1.0:
        raise ValueError("mu must be at least 1")
    if n_noise < 1:
        raise ValueError("n_noise must be at least 1")
    a = 1.0 / mu
    head = min(n_noise, _STIRLING_MIN_X - 1)
    log_correct = -math.fsum(math.log1p(a / k) for k in range(1, head + 1))
    if n_noise >= _STIRLING_MIN_X:
        log_correct += _lgamma_shift(_STIRLING_MIN_X, a) - _lgamma_shift(
            float(n_noise + 1), a
        )
    return min(-math.expm1(log_correct), 1.0 - 1.0 / (n_noise + 1))
