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

The unit of work is a whole sweep: one ``estimate_pe`` call may carry
every (model, variant) cell of every grid point, such as WTFC and I-FSK,
or shadowing off and on, each variant at its own point's transmit power.
Each chunk draws its uniforms, and each shadowing model its amplitudes,
once for every cell, so the rows of a sweep share their draws (common
random numbers) and each cell's count equals its one-cell call's.

Only iterations that can be errors are inverted. The noise maximum rises
with its uniform v, so the one at a chunk's largest v, computed on one
float with ``math`` and padded by a relative 1e-6 (``_SLACK``) against
the few-ulp error of either computation, bounds every maximum of the
chunk at that noise count, and an iteration whose signal statistic lies
above the bound is correct in that cell. Each noise count has one cut
on E for its constant means, from which the chunk's test on u is
derived, and a shadowed statistic is formed by ``_shadowed`` alone,
wherever it is tested or counted. Each chunk gathers the candidates of
all its cells once, when they are few; each noise count then inverts its
maximum, and counts its cells, only over its own candidates among them,
unless they are most of a span. E, the noise maxima and every comparison
go through the same element-wise ufuncs as a pass over every iteration,
so each count equals that pass's bit for bit.

The chunk kernel is allocation-free: each worker allocates its scratch
rows of ``CHUNK_SIZE`` floats once per ``estimate_pe`` call, and so once
per sweep, as many as ``_scratch_rows`` asks: u, v, one work row of
three spans (the noise maxima, E and the signal statistics) and one per
shadowing model, however many grid points the call carries. Every chunk
draws, gathers and transforms in place there. Per chunk only the
1-byte candidate and comparison masks, the candidates' indices (the
chunk's, and each noise count's a span at a time) and, for block
shadowing, one amplitude per block are new memory.
"""

from __future__ import annotations

import math
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
    "estimate_pe",
    "analytic_pe_no_shadowing",
    "CHUNK_SIZE",
]

# Natural-log amplitude change per dB of loss: 10^(-L/20) = exp(-L ln10/20).
_NEPERS_PER_DB = math.log(10.0) / 20.0
# Relative pad on the chunk's noise bound and on the signal cut derived from
# it, far above the few-ulp error of the ufuncs that compute either side.
_SLACK = 1e-6
# Iterations per span of the chunk kernel's work row: the noise maxima, E
# and the signal statistics of this many iterations are held at a time.
_SPAN = 1 << 14
# Columns the chunk kernel's scratch needs at least: one for each of the
# work row's three spans, y, E and x.
_MIN_COLUMNS = 3


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


def _noise_bound(top: float, n_noise: int) -> float:
    """A number that no noise maximum of ``n_noise`` slots in a chunk exceeds.

    ``top`` is the chunk's largest noise uniform. The maximum rises with its
    uniform, so the one at ``top`` bounds them all; it is computed here in
    ``math`` on one float, as ``max_noise_from_uniform`` computes it, with
    0 mapped to 0. The pad covers the few-ulp error of either computation,
    which is absolute below 1 and relative above it.
    """
    top = -math.log(-math.expm1(math.log(top) / n_noise)) if top > 0.0 else 0.0
    return top + _SLACK * max(top, 1.0)


def _shadowed(m2, energy: float, e, out):
    """(m * m * energy + 1) * E into ``out``, from m * m: the shadowed signal
    statistic, formed in this one order wherever it is tested or counted."""
    np.multiply(m2, energy, out=out)
    out += 1.0
    return np.multiply(out, e, out=out)


def _shadowing_models(signals: Sequence) -> dict:
    """Each distinct shadowing model of the signals and its index, in first-seen order."""
    models = dict.fromkeys(signal[0] for signal in signals if not isinstance(signal, float))
    return {model: g for g, model in enumerate(models)}


def _scratch_rows(signals: Sequence) -> int:
    """Rows of scratch the chunk kernel needs: one each for u, v and the
    work row, and one per distinct shadowing model for its amplitudes."""
    return 3 + len(_shadowing_models(signals))


def _spans(length: int, span: int) -> list[slice]:
    """Consecutive slices of at most ``span`` that cover ``range(length)``."""
    return [slice(start, min(start + span, length)) for start in range(0, length, span)]


def _select(source, index, out):
    """``source`` at ``index``, taken into ``out``; all of it when ``index`` is None.

    "clip" skips the range check that makes take copy.
    """
    return source if index is None else np.take(source, index, mode="clip", out=out)


def _chunk_error_count(
    chunk_index: int,
    n: int,
    seed: int,
    signals: Sequence[float | tuple[LargeScaleModel, float]],
    noise_counts: Sequence[int],
    cells: Sequence[tuple[int, int]],
    scratch: np.ndarray,
) -> np.ndarray:
    """Errors of every cell in one chunk of ``n`` iterations.

    A signal is its signal-slot mean: a float when it is the same for every
    iteration, else the (model, signal energy) whose amplitudes the
    shadowing stream draws. A cell is a (signal, noise count) pair of
    indices. The chunk is seeded by (seed, chunk); its signal uniforms u,
    its noise uniforms v and each distinct model's amplitudes are drawn
    once for every cell. ``scratch`` holds at least
    ``_scratch_rows(signals)`` rows of at least max(n, ``_MIN_COLUMNS``)
    floats, else ``ValueError``; the chunk overwrites those rows. Returns
    one count per cell.

    Only iterations that can be errors are inverted, and the counts stay
    exact:

    - No noise maximum of the chunk at noise count N exceeds
      ``bound[N] = _noise_bound(max v, N)``: each maximum increases with
      v, and the pad exceeds the few-ulp error of any computed one.
    - So an iteration whose signal statistic x lies above the bound of its
      cell's noise count is correct in that cell: a cell's errors are
      among its candidates, the iterations with x <= bound, and a noise
      count's candidates are its cells' together.
    - A constant mean mu gives x = mu * E, within an ulp of the product,
      so each noise count has one cut on E, bound * pad / mu * pad at its
      smallest mean with pad = 1 + ``_SLACK``, or -1, which no E reaches,
      without a constant mean. E = -ln(1 - u) rises with u, within a few
      ulp, so the chunk tests u at or below -expm1(-cut) * pad for the
      largest cut, which keeps every u of every count's E cut.
    - A shadowed signal's x is ``_shadowed``'s (m * m * energy + 1) * E,
      formed alike wherever it is tested or counted. A model's amplitudes
      are drawn over the whole chunk; the chunk tests x at the smallest
      of its counts' energies against the largest of their bounds, and a
      noise count at its own smallest energy against its own bound.

    The chunk's candidates are every cell's together. When at most
    n * K // 8 for K noise counts, u (or E), v and each model's squared
    amplitudes are gathered in place, else the whole chunk runs. The work
    row holds three spans of ``_SPAN`` floats, for the noise maxima y, E
    and the signal statistics x, so a count's values stay in cache and
    the row's rest is never touched. A span at a time, each noise count
    finds its own candidates. When they are at most half the span, its
    log(v), E and squared amplitudes are gathered into the y, E and x
    spans and the count inverts and compares only there; else it runs on
    the whole span, with y and x in their spans. Every ufunc acts element
    by element, so a gathered or spanned element gets the value it has in
    a pass over every iteration, and counting over any superset of a
    cell's candidates gives that pass's count bit for bit. Ties count as
    errors (measure zero, pinned for reproducibility).
    """
    rows, columns = _scratch_rows(signals), max(n, _MIN_COLUMNS)
    if len(scratch) < rows or scratch.shape[1] < columns:
        raise ValueError(f"scratch has {len(scratch)} rows of {scratch.shape[1]} floats; "
                         f"the chunk needs {rows} of {columns}")
    shadow_seed, signal_seed, noise_seed = np.random.SeedSequence(
        [seed, chunk_index]
    ).spawn(3)
    u, v = scratch[0, :n], scratch[1, :n]
    span = min(_SPAN, scratch.shape[1] // _MIN_COLUMNS)
    ys, es, xs = (scratch[2, i * span : (i + 1) * span] for i in range(_MIN_COLUMNS))
    np.random.default_rng(signal_seed).random(n, out=u)
    np.random.default_rng(noise_seed).random(n, out=v)
    top = float(v.max())
    bounds = [_noise_bound(top, n_noise) for n_noise in noise_counts]

    # Each noise count's cells as (cell, model index or None, mean or
    # energy), and its smallest value per model index, None for the means.
    models = _shadowing_models(signals)
    by_noise: dict = {}
    least: list = [{} for _ in noise_counts]
    for c, (j, k) in enumerate(cells):
        g, value = ((None, signals[j]) if isinstance(signals[j], float)
                    else (models[signals[j][0]], signals[j][1]))
        by_noise.setdefault(k, []).append((c, g, value))
        least[k][g] = min(least[k].get(g, math.inf), value)
    # Each count's one cut on E, at its smallest mean, or -1, below every
    # E; what stays in ``least`` is its smallest energy per model.
    pad = 1.0 + _SLACK
    cuts = [bound * pad / low.pop(None) * pad if None in low else -1.0
            for bound, low in zip(bounds, least)]

    candidates = u <= -math.expm1(-max(cuts)) * pad
    if models:
        _unit_exponential(u, out=u)
    squares = []
    for (model, g), row in zip(models.items(), scratch[3:rows]):
        m2 = draw_m_batch(model, np.random.default_rng(shadow_seed), n, out=row[:n])
        m2 *= m2
        squares.append(m2)
        energy = min(low[g] for low in least if g in low)
        bound = max(b for b, low in zip(bounds, least) if g in low)
        for part in _spans(n, span):
            x = _shadowed(m2[part], energy, u[part], xs[: part.stop - part.start])
            candidates[part] |= x <= bound

    # A gather pays below about an eighth of the chunk per noise count,
    # since a count whose own candidates are many inverts the whole chunk.
    live = [u, v, *squares]
    found = np.count_nonzero(candidates)
    if found <= n * len(noise_counts) // 8:
        # Compacted in place, a span of the chunk at a time through the y
        # span: a span's candidates land at or before their own places,
        # so no span overwrites what a later one reads.
        size = 0
        for part in _spans(n, span):
            index = np.flatnonzero(candidates[part])
            gathered = slice(size, size + index.size)
            for source in live:
                source[gathered] = _select(source[part], index, ys[: index.size])
            size = gathered.stop
        del candidates
        live = [source[:found] for source in live]
    e, log_v, *squares = live

    if not models:
        _unit_exponential(e, out=e)
    with np.errstate(divide="ignore"):
        np.log(log_v, out=log_v)
    counts = np.zeros(len(cells), dtype=np.int64)
    for part in _spans(len(e), span):
        length = part.stop - part.start
        for k, members in by_noise.items():
            own = e[part] <= cuts[k]
            for g, energy in least[k].items():
                own |= _shadowed(squares[g][part], energy, e[part], xs[:length]) <= bounds[k]
            size = np.count_nonzero(own)
            if 2 * size <= length:
                index = np.flatnonzero(own)
            else:
                index, size = None, length
            y, e_own, x = ys[:size], es[:size], xs[:size]
            y = _max_noise_from_log(noise_counts[k], _select(log_v[part], index, y), out=y)
            e_own = _select(e[part], index, e_own)
            for c, g, value in members:
                if g is None:
                    np.multiply(value, e_own, out=x)
                else:
                    _shadowed(_select(squares[g][part], index, x), value, e_own, x)
                counts[c] += np.count_nonzero(x <= y)
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

    ``params`` and ``model`` may each be a sequence, and then
    ``transmit_power`` holds one power per ``params`` entry: the call
    estimates every (model, params) cell, such as every variant of every
    point of a sweep, from one set of draws and returns their estimates in
    model-major order, each equal to the one-cell call.

    ``hold_mean_rx_power`` rescales transmit power so the mean received
    power under shadowing matches the shadowing-free value; the default
    keeps transmit power fixed and lets shadowing move the mean. Shadowing
    blocks restart in every chunk, so ``model.block_len`` must divide
    CHUNK_SIZE.
    """
    one_params = isinstance(params, SchemeParams)
    one_cell = one_params and isinstance(model, LargeScaleModel)
    variants = (params,) if one_params else tuple(params)
    powers = (transmit_power,) if one_params else tuple(transmit_power)
    models = (model,) if isinstance(model, LargeScaleModel) else tuple(model)
    if not variants or not models:
        raise ValueError("params and model must each name at least one cell")
    if len(powers) != len(variants):
        raise ValueError("transmit_power must hold one power per params entry")
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

    # Estimates map to distinct cells, cells to distinct signal means and
    # noise-slot counts; equal ones share their counts and arrays.
    signals: dict = {}
    noise_counts: dict = {}
    cells: dict = {}
    estimate_cells = []
    for m in models:
        amplitude = constant_amplitude(m)
        for p, p_t in zip(variants, powers):
            if hold_mean_rx_power:
                p_t /= shadowing_mean_power_gain(m)
            energy_factor = signal_energy(p_t, p, noise_density)
            if amplitude is None:
                signal = (m, energy_factor)
            else:
                # (m * m) * energy_factor + 1, as a drawn mu array is formed.
                signal = amplitude * amplitude * energy_factor + 1.0
            cell = (signals.setdefault(signal, len(signals)),
                    noise_counts.setdefault(p.noise_slot_count, len(noise_counts)))
            estimate_cells.append(cells.setdefault(cell, len(cells)))
    signal_list, noise_list, cell_list = list(signals), list(noise_counts), list(cells)

    n_chunks = -(-iterations // CHUNK_SIZE)
    workers = min(threads, n_chunks)

    def work(first: int) -> np.ndarray:
        # Worker ``first`` runs chunks first, first + workers, ... in its
        # own scratch; a chunk's draws depend on its index alone.
        columns = max(_MIN_COLUMNS, min(CHUNK_SIZE, iterations))
        scratch = np.empty((_scratch_rows(signal_list), columns))
        errors = np.zeros(len(cell_list), dtype=np.int64)
        for i in range(first, n_chunks, workers):
            n = min(CHUNK_SIZE, iterations - i * CHUNK_SIZE)
            errors += _chunk_error_count(i, n, seed, signal_list, noise_list, cell_list,
                                         scratch)
        return errors

    if workers == 1:
        errors = work(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = sum(pool.map(work, range(workers)))

    estimates = tuple(_binomial_estimate(int(errors[c]), iterations, seed)
                      for c in estimate_cells)
    return estimates[0] if one_cell else estimates


def _binomial_estimate(errors: int, iterations: int, seed: int) -> PeEstimate:
    p_e = errors / iterations
    half_width = 1.96 * math.sqrt(p_e * (1.0 - p_e) / iterations)
    return PeEstimate(p_e=p_e, iterations=iterations, half_width_95=half_width, seed=seed)
