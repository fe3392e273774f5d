"""Shared test utilities: synthetic schemes and independent reference paths.

The naive estimators here deliberately avoid the library's inverse-transform
machinery: they draw every receiver output individually straight from
numpy's exponential sampler, so they can serve as an independent oracle for
the fast path.
"""

import math
import statistics
from fractions import Fraction
from typing import Sequence

import numpy as np

from wtfc import (LargeScaleModel, PhysicalInputs, analytic_pe_no_shadowing, derive_scheme,
                  detector)
from wtfc.channel import constant_amplitude
from wtfc.detector import _FLOOR_CUT


def scheme_with_alphabet(alphabet_size: int):
    """Scheme whose alphabet has exactly ``alphabet_size`` symbols.

    Duty cycle 1 and a 1 s window make the tone count equal the bandwidth
    in Hz, so mu = P_t + 1 for unit noise density.
    """
    return derive_scheme(
        PhysicalInputs(
            bandwidth_hz=float(alphabet_size),
            symbol_time_s=1.0,
            delay_spread_s=0.0,
            doppler_spread_hz=0.0,
            duty_cycle=1.0,
        )
    )


def power_for_mu(mu: float) -> float:
    """Transmit power hitting a given signal-slot mean with the unit scheme."""
    return mu - 1.0


def naive_pe(alphabet_size: int, mu: float, iterations: int, seed: int):
    """All-slots reference estimator: draw every noise output individually."""
    rng = np.random.default_rng(seed)
    errors = 0
    remaining = iterations
    while remaining > 0:
        n = min(remaining, 200_000)
        signal = rng.exponential(mu, n)
        noise = rng.exponential(1.0, (n, alphabet_size - 1)).max(axis=1)
        errors += int(np.count_nonzero(signal <= noise))
        remaining -= n
    p = errors / iterations
    half_width = 1.96 * math.sqrt(p * (1.0 - p) / iterations)
    return p, half_width


def exact_pe(model: LargeScaleModel, energy: float, n_noise: int, nodes: int = 64) -> float:
    """Exact error probability at signal energy ``energy`` under ``model``.

    The Gamma-ratio closed form at a constant amplitude; under log-normal
    shadowing, its average over the amplitude by ``nodes``-point
    Gauss-Hermite quadrature in the shadowing normal.
    """
    amplitude = constant_amplitude(model)
    if amplitude is not None:
        return analytic_pe_no_shadowing(amplitude * amplitude * energy + 1.0, n_noise)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    nepers = math.log(10.0) / 20.0
    loss = model.deterministic_loss_db()
    return math.fsum(
        wi / math.sqrt(math.pi) * analytic_pe_no_shadowing(
            math.exp(-2.0 * nepers * (loss + model.shadowing_std_db * math.sqrt(2.0) * xi))
            * energy + 1.0, n_noise)
        for xi, wi in zip(x, w)
    )


def exact_pe_alternating_sum(mu: float, n_noise: int) -> float:
    """Closed-form error probability by the alternating binomial sum.

    1 - sum_k C(N,k) (-1)^k / (1 + k mu), evaluated in exact rational
    arithmetic so the heavy cancellation between terms costs no precision.
    Cost grows as N^2, so keep N in the tens.
    """
    mu_exact = Fraction(mu)
    total = Fraction(0)
    for k in range(n_noise + 1):
        term = Fraction(math.comb(n_noise, k), 1) / (1 + k * mu_exact)
        total += -term if k % 2 else term
    return float(1 - total)


def naive_max_noise(n_noise: int, draws: int, seed: int) -> np.ndarray:
    """Max of ``n_noise`` exponentials, drawn one by one."""
    rng = np.random.default_rng(seed)
    return rng.exponential(1.0, (draws, n_noise)).max(axis=1)


def combined_3hw(hw_a: float, hw_b: float) -> float:
    return 3.0 * math.hypot(hw_a, hw_b)


def header_to_config_text(line: str) -> str:
    """Turn a ``# config:`` header back into config-file text."""
    prefix = "# config: "
    if not line.startswith(prefix):
        raise ValueError("not a config header line")
    return "\n".join(line[len(prefix):].split(" ")) + "\n"


def _horner(coefficients: Sequence[float], r: float) -> float:
    total = coefficients[0]
    for c in coefficients[1:]:
        total = total * r + c
    return total


def normal_quantile(p: float) -> float:
    """The standard normal quantile of one p; -inf at p = 0, inf at 1.

    ``statistics.NormalDist().inv_cdf`` for |p - 1/2| <= 0.425, and in the
    tails Wichura's AS 241 in its operations and order, with
    ln min(p, 1 - p) from numpy's log, as the vectorised form takes it:
    with AVX-512 numpy's log and the C library's differ by one ulp at about
    2e-4 of arguments, and there a tail value may differ from the standard
    library's by a few ulp.
    """
    if p in (0.0, 1.0):
        return math.inf if p else -math.inf
    q = p - 0.5
    if abs(q) <= 0.425:
        return statistics.NormalDist().inv_cdf(p)
    r = math.sqrt(-float(np.log(p if q <= 0.0 else 1.0 - p)))
    num, den = (detector._NEAR_TAIL if r <= 5.0 else detector._FAR_TAIL).T.tolist()
    r = r - 1.6 if r <= 5.0 else r - 5.0
    x = _horner(num, r) / _horner(den, r)
    return -x if q < 0.0 else x


def reference_amplitudes(model: LargeScaleModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Shadowed amplitudes of a chunk of ``n`` symbols, one block at a time.

    Block b draws its uniform U from ``rng`` in block order; with H whole
    pairs of blocks in the chunk, block b < 2H draws z = Phi^-1((b // 2 + U) / H)
    and any later block z = Phi^-1(U), each by ``normal_quantile``. Its
    amplitude is exp(-(ln10/20)(L + sigma z)), formed as z * sigma, plus L,
    times -ln10/20.
    """
    block_len = model.block_len
    pairs = n // block_len // 2
    n_blocks = -(-n // block_len)
    uniforms = rng.random(n_blocks, out=np.empty(n_blocks)).tolist()
    z = np.array([normal_quantile((b // 2 + u) / pairs if b < 2 * pairs else u)
                  for b, u in enumerate(uniforms)])
    m = np.exp((z * model.shadowing_std_db + model.deterministic_loss_db())
               * -(math.log(10.0) / 20.0))
    return np.repeat(m, block_len)[:n]


def _max_noise_from_log(n_noise: int, log_v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y = -ln(-expm1(ln(v) / N)) from ln(v) into ``out``, one ufunc at a time."""
    np.divide(log_v, n_noise, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    return np.negative(out, out=out)


# The chunk kernel without any filter: every iteration is inverted and
# scored, in the order the estimator defines, as the reference whose
# counts, score sums and floor size the filtered kernel must equal bit for
# bit.
def reference_chunk_error_count(
    chunk_index: int,
    n: int,
    seed: int,
    signals: Sequence[float | tuple[LargeScaleModel, float]],
    noise_counts: Sequence[int],
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Scores of every (signal, noise count) pair in one chunk of ``n`` iterations.

    A signal is its signal-slot mean: a float when it is the same for every
    iteration, else the (model, signal energy) whose amplitudes the
    shadowing stream draws. The chunk is seeded by (seed, chunk). Its signal
    and noise uniforms are drawn once and turned once into E = -ln(1 - u)
    and ln(v); each noise maximum y is finished from ln(v).

    A drawn signal's amplitudes come from ``reference_amplitudes``, and it
    scores every iteration s = -expm1(-y / mu) and counts nothing. Its
    first sum is the ``math.fsum`` of the np.sum of each 1000-iteration
    slice of s. Its second is over the chunk's whole pairs of blocks: with
    A each block's np.sum of s, the ``math.fsum`` of the np.sum of
    (A_2h - A_2h+1)^2 over the pairs of each window of lcm(1000, 2 L)
    iterations. A constant signal's
    statistic is mu * E. Every iteration of the floor set, those with
    E <= c_f, scores q = -expm1(-min(t, c_f)) for t = y / mu; every other
    one scores its error indicator, x <= y (ties count as errors), and the
    sums are the np.sum of q over the floor set, in order, and of q squared.

    ``scratch`` holds at least ``len(noise_counts) + 2`` rows of at least
    ``n`` floats; the chunk overwrites the first ``n`` entries of those it
    uses. Returns the counts of the indicators and the two sums, each
    shaped (signals, noise counts), and the floor set's size, 0 when no
    signal is constant.
    """
    shadow_seed, signal_seed, noise_seed = np.random.SeedSequence(
        [seed, chunk_index]
    ).spawn(3)
    e, log_v, *spare = (row[:n] for row in scratch)
    np.random.default_rng(signal_seed).random(n, out=e)
    np.negative(np.log1p(np.negative(e, out=e), out=e), out=e)
    with np.errstate(divide="ignore"):
        np.log(np.random.default_rng(noise_seed).random(n, out=log_v), out=log_v)
    floor = e <= _FLOOR_CUT

    # Hold every noise maximum, the last in ln(v)'s row; the signal
    # statistics pass through one work row, the last one through E's.
    last = len(noise_counts) - 1
    ys = [
        _max_noise_from_log(n_noise, log_v, log_v if k == last else spare[k])
        for k, n_noise in enumerate(noise_counts)
    ]
    work = spare[last]
    amplitudes = {}
    shape = (len(signals), len(noise_counts))
    counts = np.zeros(shape, dtype=np.int64)
    sums, square_sums = np.empty(shape), np.empty(shape)
    for j, signal in enumerate(signals):
        if isinstance(signal, float):
            x = np.multiply(signal, e, out=work)
            for k, y in enumerate(ys):
                counts[j, k] = np.count_nonzero((x <= y) & ~floor)
                scores = -np.expm1(-np.minimum(y / signal, _FLOOR_CUT))[floor]
                sums[j, k] = np.sum(scores)
                square_sums[j, k] = np.sum(scores * scores)
            continue
        model, energy_factor = signal
        if model not in amplitudes:
            amplitudes[model] = reference_amplitudes(model, np.random.default_rng(shadow_seed), n)
        # mu = (m * m) * energy_factor + 1, evaluated in that order.
        mu = amplitudes[model] * amplitudes[model]
        mu *= energy_factor
        mu += 1.0
        block_len = model.block_len
        paired = n // block_len // 2 * 2
        per_window = math.lcm(1000, 2 * block_len) // (2 * block_len)
        for k, y in enumerate(ys):
            scores = -np.expm1(-(y / mu))
            sums[j, k] = math.fsum(np.sum(scores[i : i + 1000]) for i in range(0, n, 1000))
            blocks = scores[: paired * block_len].reshape(paired, block_len).sum(axis=1)
            squares = (blocks[0::2] - blocks[1::2]) ** 2
            square_sums[j, k] = math.fsum(np.sum(squares[i : i + per_window])
                                          for i in range(0, paired // 2, per_window))
    constant = any(isinstance(signal, float) for signal in signals)
    return counts, sums, square_sums, int(np.count_nonzero(floor)) if constant else 0
