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

The unit of work is a grid point: one ``estimate_pe`` call may carry every
(model, variant) cell of a point, such as WTFC and I-FSK, or shadowing off
and on. Each chunk then draws its uniforms once and computes
E = -ln(1 - u) and ln(v) once; every model turns E into its signal
statistic (a constant-mean model with one scalar mu, a shadowed one with
one amplitude draw) and every variant finishes its noise maximum from
ln(v). Each cell's count equals what a call for that cell alone gives.

The chunk kernel is allocation-free: each worker allocates its scratch rows
(one per distinct noise-slot count of the point, plus two) of
``CHUNK_SIZE`` floats once per ``estimate_pe`` call, and every chunk draws
and transforms in place there. Per chunk only the 1-byte comparison masks
and, for block shadowing, one amplitude per block are new memory.

Without shadowing the error law is exact: with ``N = S - 1`` noise slots the
probability of a correct decision is the Gamma ratio
Gamma(N+1) Gamma(1+1/mu) / Gamma(N+1+1/mu), the noncoherent orthogonal
signalling result, evaluated with the ``math`` module alone.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    LargeScaleModel,
    constant_amplitude,
    draw_m_batch,
    shadowing_mean_power_gain,
)
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


def _unit_exponential(u, out):
    """-ln(1 - u) into ``out``: a unit-mean exponential by inversion."""
    np.negative(u, out=out)
    np.log1p(out, out=out)
    return np.negative(out, out=out)


def signal_power_from_uniform(mu, u):
    """Invert the signal-slot CDF: -mu * ln(1 - u). Accepts arrays."""
    out = np.array(u, dtype=float)
    return np.multiply(mu, _unit_exponential(out, out), out=out)


def _max_noise_from_log(n_noise: int, log_u, out):
    """-ln(-expm1(ln(u)/N)) from ln(u) into ``out``: the max-of-noise inversion."""
    np.divide(log_u, n_noise, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    return np.negative(out, out=out)


def max_noise_from_uniform(n_noise: int, u):
    """Invert the CDF of the max of ``n_noise`` unit-mean exponentials.

    Computes -ln(1 - u^(1/N)) as -ln(-expm1(ln(u)/N)); the expm1 keeps the
    inner difference from collapsing to a constant even at N ~ 1e9, and
    u = 0 maps to exactly 0. Accepts arrays.
    """
    if n_noise < 1:
        raise ValueError(
            "n_noise must be at least 1: with no competing slots there is "
            "no maximum to sample"
        )
    out = np.array(u, dtype=float)
    with np.errstate(divide="ignore"):
        return _max_noise_from_log(n_noise, np.log(out, out=out), out)


def _chunk_error_count(
    chunk_index: int,
    n: int,
    seed: int,
    signals: Sequence[float | tuple[LargeScaleModel, float]],
    noise_counts: Sequence[int],
    scratch: np.ndarray,
) -> np.ndarray:
    """Errors of every (signal, noise count) pair in one chunk of ``n`` iterations.

    A signal is its signal-slot mean: a float when it is the same for every
    iteration, else the (model, signal energy) whose amplitudes the
    shadowing stream draws. The chunk is seeded by (seed, chunk). Its signal
    and noise uniforms are drawn once and turned once into E = -ln(1 - u)
    and ln(v); each signal statistic is then mu * E and each noise maximum
    is finished from ln(v), the same ufuncs in the same order as a one-cell
    chunk, so each count equals that chunk's bit for bit. ``scratch`` holds
    at least ``len(noise_counts) + 2`` rows of at least ``n`` floats; the
    chunk overwrites the first ``n`` entries of those it uses. Returns counts
    shaped (signals, noise counts).
    """
    shadow_seed, signal_seed, noise_seed = np.random.SeedSequence(
        [seed, chunk_index]
    ).spawn(3)
    e, log_v, *spare = (row[:n] for row in scratch)
    _unit_exponential(np.random.default_rng(signal_seed).random(n, out=e), out=e)
    with np.errstate(divide="ignore"):
        np.log(np.random.default_rng(noise_seed).random(n, out=log_v), out=log_v)

    # Hold every noise maximum, the last in ln(v)'s row; the signal
    # statistics pass through one work row, the last one through E's.
    last = len(noise_counts) - 1
    ys = [
        _max_noise_from_log(n_noise, log_v, out=log_v if k == last else spare[k])
        for k, n_noise in enumerate(noise_counts)
    ]
    work = spare[last]
    # Ties count as errors (measure zero, pinned for reproducibility).
    counts = np.empty((len(signals), len(noise_counts)), dtype=np.int64)
    for j, signal in enumerate(signals):
        x = e if j == len(signals) - 1 else work
        mu = signal
        if not isinstance(signal, float):
            model, energy_factor = signal
            mu = draw_m_batch(model, np.random.default_rng(shadow_seed), n, out=work)
            # mu = (m * m) * energy_factor + 1, evaluated in that order.
            mu *= mu
            mu *= energy_factor
            mu += 1.0
        np.multiply(mu, e, out=x)
        counts[j] = [np.count_nonzero(x <= y) for y in ys]
    return counts


def estimate_pe(
    params: SchemeParams | Sequence[SchemeParams],
    model: LargeScaleModel | Sequence[LargeScaleModel],
    transmit_power: float | Sequence[float],
    noise_density: float,
    iterations: int,
    seed: int,
    threads: int = 1,
    hold_mean_rx_power: bool = False,
) -> PeEstimate | tuple[PeEstimate, ...]:
    """Monte Carlo symbol error probability of the square-law receiver.

    Per iteration: draw the large-scale amplitude, compute the signal-slot
    mean, draw the signal statistic and the max of the ``S - 1`` noise
    statistics, count an error when the signal does not win. Deterministic
    for fixed (seed, iterations); ``threads`` only changes wall time.

    ``params`` and ``model`` may each be a sequence, with ``transmit_power``
    then a number or one per model: the call estimates every (model,
    params) cell of one grid point from one pass over the draws and returns
    their estimates in model-major order, each equal to the one-cell call.

    ``hold_mean_rx_power`` rescales transmit power so the mean received
    power under shadowing matches the shadowing-free value; the default
    keeps transmit power fixed and lets shadowing move the mean. Shadowing
    blocks restart in every chunk, so ``model.block_len`` must divide
    CHUNK_SIZE.
    """
    one_cell = isinstance(params, SchemeParams) and isinstance(model, LargeScaleModel)
    variants = (params,) if isinstance(params, SchemeParams) else tuple(params)
    models = (model,) if isinstance(model, LargeScaleModel) else tuple(model)
    if isinstance(transmit_power, numbers.Real):
        powers = (transmit_power,) * len(models)
    else:
        powers = tuple(transmit_power)
    if not variants or not models:
        raise ValueError("params and model must each name at least one cell")
    if len(powers) != len(models):
        raise ValueError("transmit_power must be one number or one per model")
    if any(p.alphabet_size < 2 for p in variants):
        raise ValueError("alphabet_size must be at least 2")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    for m in models:
        if CHUNK_SIZE % m.block_len:
            raise ValueError(
                f"shadow_block_len {m.block_len} does not divide the "
                f"{CHUNK_SIZE}-iteration chunk, so shadowing blocks would be cut "
                "at chunk boundaries"
            )

    # Cells map to distinct signal means and noise-slot counts; equal ones
    # share their arrays.
    signals: dict = {}
    noise_counts: dict = {}
    cells = []
    for m, p_t in zip(models, powers):
        if hold_mean_rx_power:
            p_t /= shadowing_mean_power_gain(m)
        amplitude = constant_amplitude(m)
        for p in variants:
            energy_factor = signal_energy(p_t, p, noise_density)
            if amplitude is None:
                signal = (m, energy_factor)
            else:
                # (m * m) * energy_factor + 1, as a drawn mu array is formed.
                signal = amplitude * amplitude * energy_factor + 1.0
            cells.append((
                signals.setdefault(signal, len(signals)),
                noise_counts.setdefault(p.noise_slot_count, len(noise_counts)),
            ))
    signal_list, noise_list = list(signals), list(noise_counts)

    n_chunks = -(-iterations // CHUNK_SIZE)
    workers = min(threads, n_chunks)

    def work(first: int) -> np.ndarray:
        # Worker ``first`` runs chunks first, first + workers, ... in its
        # own scratch; a chunk's draws depend on its index alone.
        scratch = np.empty((len(noise_list) + 2, min(CHUNK_SIZE, iterations)))
        errors = np.zeros((len(signal_list), len(noise_list)), dtype=np.int64)
        for i in range(first, n_chunks, workers):
            n = min(CHUNK_SIZE, iterations - i * CHUNK_SIZE)
            errors += _chunk_error_count(i, n, seed, signal_list, noise_list, scratch)
        return errors

    if workers == 1:
        errors = work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = sum(pool.map(work, range(workers)))

    estimates = tuple(_binomial_estimate(int(errors[j, k]), iterations, seed)
                      for j, k in cells)
    return estimates[0] if one_cell else estimates


def _binomial_estimate(errors: int, iterations: int, seed: int) -> PeEstimate:
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
