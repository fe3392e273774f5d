"""Monte Carlo sampler of the square-law receiver.

This is the only module of the package that imports numpy. The error law
itself (signal energy, the exact closed form without shadowing, the
estimate record and the chunk size) lives in ``wtfc.errorlaw``, needs the
standard library alone, and is re-exported here. Commands that never
sample (``--version``, ``derive``, ``capacity --pe``) never import this
module, so they start without numpy; ``wtfc.sweep`` and ``wtfc.cli``
import it on their first estimate, and ``wtfc`` on first access to a
sampler name.

Monte Carlo estimation draws the signal statistic and the max-of-noise
statistic by inverse transform sampling, two uniforms per iteration instead
of ``S`` exponentials. Iterations are processed in fixed-size chunks, each
chunk seeded by (seed, chunk index) with separate substreams for shadowing,
signal and noise, so estimates are bit-identical for any worker count and
unchanged when shadowing is toggled on a zero-sigma model.

The unit of work is a grid point: one ``estimate_pe`` call may carry every
(model, variant) cell of a point, such as WTFC and I-FSK, or shadowing off
and on, all at the point's one transmit power. Each chunk draws its
uniforms once and computes E = -ln(1 - u) and ln(v) at most once per
iteration; every model turns E into its signal statistic (one scalar mu,
or one amplitude draw when shadowed) and every variant finishes its noise
maximum from ln(v), so each cell's count equals its one-cell call's.

Only iterations that can be errors are inverted. The noise maximum rises
with its uniform v, so the one at a chunk's largest v, padded by a
relative 1e-6 (``_SLACK``) against the ufuncs' few-ulp error, bounds every
maximum of the chunk, and an iteration whose signal statistic lies above
the bound is correct for every cell. Each chunk gathers the candidates of
all its cells once, when they are few, and computes E, the noise maxima
and every comparison on them through the same element-wise ufuncs as a
pass over every iteration, so each count equals that pass's bit for bit.

The chunk kernel is allocation-free: each worker allocates its scratch
rows of ``CHUNK_SIZE`` floats once per ``estimate_pe`` call, as many as
``_scratch_rows`` asks, and every chunk draws, gathers and transforms in
place there. Per chunk only the 1-byte candidate and comparison masks,
the candidates' indices and, for block shadowing, one amplitude per block
are new memory.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .channel import LargeScaleModel, constant_amplitude, shadowing_mean_power_gain
from .errorlaw import CHUNK_SIZE, PeEstimate, analytic_pe_no_shadowing, signal_energy
from .scheme import SchemeParams

__all__ = [
    "PeEstimate",
    "signal_energy",
    "signal_power_from_uniform",
    "max_noise_from_uniform",
    "draw_m_batch",
    "point_seed",
    "estimate_pe",
    "analytic_pe_no_shadowing",
    "CHUNK_SIZE",
]

# Natural-log amplitude change per dB of loss: 10^(-L/20) = exp(-L ln10/20).
_NEPERS_PER_DB = math.log(10.0) / 20.0
# Relative pad on the chunk's noise bound and on the signal cut derived from
# it, far above the few-ulp error of the ufuncs that compute either side.
_SLACK = 1e-6


def point_seed(seed: int, axis_index: int) -> int:
    """Deterministic per-grid-point seed derived from (seed, axis index)."""
    return int(np.random.SeedSequence([seed, axis_index]).generate_state(1, np.uint64)[0])


def draw_m_batch(
    model: LargeScaleModel,
    rng: np.random.Generator,
    n: int,
    out: np.ndarray,
) -> np.ndarray:
    """Shadowed large-scale amplitudes for ``n`` consecutive symbols, into ``out``.

    One fresh shadowing realization per symbol by default; ``model.block_len``
    symbols share a realization when it is larger, and a short ``n`` keeps
    its partial last block. A disabled or zero-sigma model draws nothing:
    its one amplitude is ``constant_amplitude(model)``, and it is rejected
    here before the rng is touched.
    """
    if constant_amplitude(model) is not None:
        raise ValueError("the model's amplitude is constant; use constant_amplitude")
    # m = exp(-(ln10/20)(L + sigma z)), one pass at a time over the draws.
    block_len = model.block_len
    n_blocks = -(-n // block_len)
    m = out if block_len == 1 else np.empty(n_blocks)
    rng.standard_normal(n_blocks, out=m)
    m *= model.shadowing_std_db
    m += model.deterministic_loss_db()
    m *= -_NEPERS_PER_DB
    np.exp(m, out=m)
    if block_len > 1:
        # Each block's amplitude broadcast over its row of a (blocks,
        # block_len) view of ``out``; no n-element temporary.
        full = n // block_len
        out[: full * block_len].reshape(full, block_len)[:] = m[:full, None]
        out[full * block_len :] = m[full:]
    return out


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


def _noise_bound(v: np.ndarray, n_noise: int) -> float:
    """A number that no noise maximum of a chunk with noise uniforms ``v`` exceeds.

    The maximum rises with its uniform and with the noise count, so the one
    at the largest uniform and the largest count ``n_noise`` bounds them
    all. The pad covers the few-ulp error of each computed maximum, which is
    absolute below 1 and relative above it.
    """
    top = float(max_noise_from_uniform(n_noise, v.max()))
    return top + _SLACK * max(top, 1.0)


def _scratch_rows(signals: Sequence, noise_counts: Sequence[int]) -> int:
    """Rows of scratch the chunk kernel needs: one for u, one per noise
    count, and one per shadowed signal for its x, or one work row if none."""
    shadowed = sum(not isinstance(signal, float) for signal in signals)
    return 1 + len(noise_counts) + max(1, shadowed)


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
    shadowing stream draws. The chunk is seeded by (seed, chunk); its signal
    uniforms u and noise uniforms v are drawn once. ``scratch`` holds at
    least ``_scratch_rows(signals, noise_counts)`` rows of at least ``n``
    floats, else ``ValueError``; the chunk overwrites the first ``n``
    entries of those it uses. Returns counts shaped (signals, noise counts).

    Only iterations that can be errors are inverted, and the counts stay
    exact:

    - No noise maximum of the chunk exceeds ``bound = _noise_bound(v)``.
      Each maximum increases with v and with the noise count; the bound is
      the maximum at the largest v and count, padded by more than the
      few-ulp error of any computed one.
    - So an iteration whose signal statistic x lies above the bound is
      correct for every noise count: a signal's errors are among its
      candidates, the iterations with x <= bound.
    - A shadowed signal's x is formed over the whole chunk, since its
      amplitudes are drawn there anyway, and compared with the bound.
    - The constant-mean signals share one set of candidates, the u at or
      below -expm1(-bound * pad / mu_min) * pad with pad = 1 + ``_SLACK``.
      E = -ln(1 - u) increases with u and mu * E rounds at most a few ulp
      above the exact product, so every u whose x can reach the bound
      passes, and E is computed for candidates only.

    The chunk's candidates are every signal's together. When at most
    n * K // 8 for K noise counts, u (or E), v and each shadowed x are
    gathered through one index array, else the whole chunk runs; then E
    where still needed, ln v and the K noise maxima are computed once and
    every pair counts x <= y. Every ufunc acts element by element, so a
    gathered element gets the value it has in place, and counting over any
    superset of a signal's candidates gives the all-iterations count bit
    for bit. Ties count as errors (measure zero, pinned for reproducibility).
    """
    rows = _scratch_rows(signals, noise_counts)
    if len(scratch) < rows:
        raise ValueError(f"scratch has {len(scratch)} rows; the chunk needs {rows}")
    shadow_seed, signal_seed, noise_seed = np.random.SeedSequence(
        [seed, chunk_index]
    ).spawn(3)
    u, v, *free = (row[:n] for row in scratch[:rows])
    np.random.default_rng(signal_seed).random(n, out=u)
    np.random.default_rng(noise_seed).random(n, out=v)
    bound = _noise_bound(v, max(noise_counts))

    constant = [j for j, signal in enumerate(signals) if isinstance(signal, float)]
    shadowed = [j for j in range(len(signals)) if j not in constant]
    candidates = None
    if constant:
        pad = 1.0 + _SLACK
        cut = -math.expm1(-bound * pad / min(signals[j] for j in constant)) * pad
        candidates = u <= cut
    if shadowed:
        _unit_exponential(u, out=u)
    xs = []
    for j in shadowed:
        model, energy_factor = signals[j]
        mu = draw_m_batch(model, np.random.default_rng(shadow_seed), n, out=free.pop())
        # mu = (m * m) * energy_factor + 1, evaluated in that order.
        mu *= mu
        mu *= energy_factor
        mu += 1.0
        xs.append(np.multiply(mu, u, out=mu))
        if candidates is None:
            candidates = xs[-1] <= bound
        else:
            candidates |= xs[-1] <= bound

    # A gather pays below about an eighth of the chunk per noise count,
    # since each count adds a whole-chunk inversion.
    index = None
    if np.count_nonzero(candidates) <= n * len(noise_counts) // 8:
        index = np.flatnonzero(candidates)
    del candidates
    live = [u, v, *xs]
    if index is not None:
        for k, source in enumerate(live):
            # Into the oldest free row, the source's own only if none was
            # free; "clip" skips the range check that makes take copy.
            free.append(source)
            live[k] = np.take(source, index, out=free.pop(0)[: index.size], mode="clip")
        free = [row[: index.size] for row in free]
    e, v, *xs = live

    if not shadowed:
        _unit_exponential(e, out=e)
    with np.errstate(divide="ignore"):
        np.log(v, out=v)
    # Hold every noise maximum, the last in ln(v)'s row.
    last = len(noise_counts) - 1
    ys = [
        _max_noise_from_log(n_noise, v, out=v if k == last else free[k])
        for k, n_noise in enumerate(noise_counts)
    ]
    counts = np.empty((len(signals), len(noise_counts)), dtype=np.int64)
    for j, x in zip(shadowed, xs):
        counts[j] = [np.count_nonzero(x <= y) for y in ys]
    # The last shadowed x's row, once counted, takes the constant means' x.
    work = xs[-1] if xs else free[last]
    for j in constant:
        x = np.multiply(signals[j], e, out=work)
        counts[j] = [np.count_nonzero(x <= y) for y in ys]
    return counts


def estimate_pe(
    params: SchemeParams | Sequence[SchemeParams],
    model: LargeScaleModel | Sequence[LargeScaleModel],
    transmit_power: float,
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

    ``params`` and ``model`` may each be a sequence: the call estimates
    every (model, params) cell of one grid point, all at the one
    ``transmit_power``, from one pass over the draws and returns their
    estimates in model-major order, each equal to the one-cell call.

    ``hold_mean_rx_power`` rescales transmit power so the mean received
    power under shadowing matches the shadowing-free value; the default
    keeps transmit power fixed and lets shadowing move the mean. Shadowing
    blocks restart in every chunk, so ``model.block_len`` must divide
    CHUNK_SIZE.
    """
    one_cell = isinstance(params, SchemeParams) and isinstance(model, LargeScaleModel)
    variants = (params,) if isinstance(params, SchemeParams) else tuple(params)
    models = (model,) if isinstance(model, LargeScaleModel) else tuple(model)
    if not variants or not models:
        raise ValueError("params and model must each name at least one cell")
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
    for m in models:
        p_t = transmit_power
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
        scratch = np.empty((_scratch_rows(signal_list, noise_list),
                            min(CHUNK_SIZE, iterations)))
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
