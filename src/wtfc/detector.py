"""Square-law receiver error model.

The receiver picks the (tone, slot) pair whose matched-filter output has the
largest squared magnitude. Conditional on the large-scale amplitude ``m``,
the squared output of the transmitted slot is exponential with mean
``mu = m^2 P_t T_s / (theta N_0) + 1`` (small-scale fading folded in), and
every other slot is exponential with mean 1. A symbol error occurs when the
maximum of the ``S - 1`` noise outputs beats the signal output.

Monte Carlo estimation draws the signal statistic and the max-of-noise
statistic by inverse transform sampling, two uniforms per iteration instead
of ``S`` exponentials. Iterations are processed in fixed-size chunks, each
chunk seeded by (seed, chunk index) with separate substreams for shadowing,
signal and noise, so estimates are bit-identical for any worker count and
unchanged when shadowing is toggled on a zero-sigma model.

The chunk kernel is allocation-free: each worker allocates three
``CHUNK_SIZE`` float arrays (mu, x, y) once per ``estimate_pe`` call, and
every chunk draws and transforms in place there. Per chunk only the 1-byte
comparison mask, and for block shadowing the repeated block amplitudes,
are new memory.

Without shadowing the error law is exact: with ``N = S - 1`` noise slots the
probability of a correct decision is the Gamma ratio
Gamma(N+1) Gamma(1+1/mu) / Gamma(N+1+1/mu), the noncoherent orthogonal
signalling result, evaluated with the ``math`` module alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import LargeScaleModel, draw_m_batch, shadowing_mean_power_gain
from .scheme import SchemeParams

__all__ = [
    "PeEstimate",
    "signal_energy",
    "signal_power_from_uniform",
    "max_noise_from_uniform",
    "estimate_pe",
    "analytic_pe_no_shadowing",
    "CHUNK_SIZE",
]

# Iterations per chunk. Part of the determinism contract: changing it
# changes which uniforms map to which iteration.
CHUNK_SIZE = 100_000


@dataclass(frozen=True)
class PeEstimate:
    """Monte Carlo symbol error probability with its binomial 95% half-width."""

    p_e: float
    iterations: int
    half_width_95: float
    seed: int


def signal_energy(
    transmit_power: float, params: SchemeParams, noise_density: float
) -> float:
    """Signal energy per slot over N_0 at unit amplitude: P_t T_s/(theta N_0).

    The transmitted slot's squared output is exponential with mean
    ``mu = m^2 * signal_energy + 1``; zero power is the pure-noise limit.
    """
    if transmit_power < 0:
        raise ValueError("transmit_power must be nonnegative")
    if noise_density <= 0:
        raise ValueError("noise_density must be positive")
    inputs = params.inputs
    return transmit_power * inputs.symbol_time_s / (inputs.duty_cycle * noise_density)


def signal_power_from_uniform(mu, u, out=None):
    """Invert the signal-slot CDF: -mu * ln(1 - u). Accepts arrays.

    With ``out`` (a float array shaped like ``u``, which may be ``u``
    itself) the same ufuncs run in place and the result is written there.
    """
    if out is None:
        return mu * -np.log1p(-np.asarray(u, dtype=float))
    np.negative(u, out=out)
    np.log1p(out, out=out)
    np.negative(out, out=out)
    return np.multiply(mu, out, out=out)


def max_noise_from_uniform(n_noise: int, u, out=None):
    """Invert the CDF of the max of ``n_noise`` unit-mean exponentials.

    Computes -ln(1 - u^(1/N)) as -ln(-expm1(ln(u)/N)); the expm1 keeps the
    inner difference from collapsing to a constant even at N ~ 1e9, and
    u = 0 maps to exactly 0. Accepts arrays; ``out`` works as in
    ``signal_power_from_uniform``.
    """
    if n_noise < 1:
        raise ValueError(
            "n_noise must be at least 1: with no competing slots there is "
            "no maximum to sample"
        )
    with np.errstate(divide="ignore"):
        if out is None:
            return -np.log(-np.expm1(np.log(np.asarray(u, dtype=float)) / n_noise))
        np.log(u, out=out)
        out /= n_noise
        np.expm1(out, out=out)
        np.negative(out, out=out)
        np.log(out, out=out)
        return np.negative(out, out=out)


def _chunk_error_count(
    chunk_index: int,
    n: int,
    seed: int,
    model: LargeScaleModel,
    energy_factor: float,
    n_noise: int,
    scratch: np.ndarray,
) -> int:
    """Errors in one chunk of ``n`` iterations, seeded by (seed, chunk).

    ``scratch`` holds three rows (mu, x, y) of at least ``n`` floats; the
    chunk overwrites their first ``n`` entries.
    """
    streams = np.random.SeedSequence([seed, chunk_index]).spawn(3)
    shadow_rng = np.random.default_rng(streams[0])
    signal_rng = np.random.default_rng(streams[1])
    noise_rng = np.random.default_rng(streams[2])

    mu, x, y = scratch[0, :n], scratch[1, :n], scratch[2, :n]
    draw_m_batch(model, shadow_rng, n, out=mu)
    # mu = (m * m) * energy_factor + 1, evaluated in that order.
    mu *= mu
    mu *= energy_factor
    mu += 1.0
    signal_power_from_uniform(mu, signal_rng.random(n, out=x), out=x)
    max_noise_from_uniform(n_noise, noise_rng.random(n, out=y), out=y)
    # Ties count as errors (measure zero, pinned for reproducibility).
    return int(np.count_nonzero(x <= y))


def estimate_pe(
    params: SchemeParams,
    model: LargeScaleModel,
    transmit_power: float,
    noise_density: float,
    iterations: int,
    seed: int,
    threads: int = 1,
    hold_mean_rx_power: bool = False,
) -> PeEstimate:
    """Monte Carlo symbol error probability of the square-law receiver.

    Per iteration: draw the large-scale amplitude, compute the signal-slot
    mean, draw the signal statistic and the max of the ``S - 1`` noise
    statistics, count an error when the signal does not win. Deterministic
    for fixed (seed, iterations); ``threads`` only changes wall time.

    ``hold_mean_rx_power`` rescales transmit power so the mean received
    power under shadowing matches the shadowing-free value; the default
    keeps transmit power fixed and lets shadowing move the mean. Shadowing
    blocks restart in every chunk, so ``model.block_len`` must divide
    CHUNK_SIZE.
    """
    if params.alphabet_size < 2:
        raise ValueError("alphabet_size must be at least 2")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if CHUNK_SIZE % model.block_len:
        raise ValueError(
            f"shadow_block_len {model.block_len} does not divide the "
            f"{CHUNK_SIZE}-iteration chunk, so shadowing blocks would be cut "
            "at chunk boundaries"
        )

    p_t = transmit_power
    if hold_mean_rx_power:
        p_t /= shadowing_mean_power_gain(model)
    energy_factor = signal_energy(p_t, params, noise_density)
    n_noise = params.noise_slot_count

    n_chunks = -(-iterations // CHUNK_SIZE)
    workers = max(1, min(threads, n_chunks))

    def work(first: int) -> int:
        # Worker ``first`` runs chunks first, first + workers, ... in its
        # own scratch; a chunk's draws depend on its index alone.
        scratch = np.empty((3, min(CHUNK_SIZE, iterations)))
        errors = 0
        for i in range(first, n_chunks, workers):
            n = min(CHUNK_SIZE, iterations - i * CHUNK_SIZE)
            errors += _chunk_error_count(
                i, n, seed, model, energy_factor, n_noise, scratch
            )
        return errors

    if workers == 1:
        errors = work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = sum(pool.map(work, range(workers)))

    p_e = errors / iterations
    half_width = 1.96 * math.sqrt(p_e * (1.0 - p_e) / iterations)
    return PeEstimate(p_e=p_e, iterations=iterations, half_width_95=half_width, seed=seed)


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
    if mu < 1.0:
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
