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
unchanged when shadowing is toggled on a zero-sigma model. A chunk runs a
span, about a third of it, at a time; its streams carry on from span to
span, so every draw equals the one a whole-chunk draw gives.

The unit of work is a whole sweep: one ``estimate_pe`` call may carry
every (model, variant) cell of every grid point, such as WTFC and I-FSK,
or shadowing off and on, each variant at its own point's transmit power.
Each chunk draws its uniforms, and each shadowing model its amplitudes,
once for every cell, so the rows of a sweep share their draws (common
random numbers) and each cell's scores equal its one-cell call's.

An iteration is scored by its error indicator, unless its error is
unlikely given its own noise maximum y and signal mean mu: where
t = y / mu lies below c_f = -ln(1 - ``P_FLOOR``), the signal wins unless
E = -ln(1 - u) <= t, and it scores 1{E <= c_f} (-expm1(-t)) / ``P_FLOOR``,
its conditional error probability given (v, m) and whether E <= c_f.
E is a unit exponential independent of (v, m), so the score's mean is
still p_e (conditional Monte Carlo), and the scores of distinct
iterations stay independent. Only the iterations with E <= c_f, about a
64th of a chunk, can score a fraction; every span's union keeps them, the
chunk collects them as it goes and scores them in every cell once it is
drawn, in iteration order, so that the soft sums do not depend on the
span, the other cells of the call or the threads.

Only iterations that can be errors are inverted. The noise maximum rises
with its uniform v, so the one at a span's largest v, computed on one
float with ``math`` and padded by a relative 1e-6 (``_SLACK``) against
the few-ulp error of either computation, bounds every maximum of the
span at that noise count, and an iteration whose signal statistic lies
above the bound is correct in that cell. Each noise count has one cut
on E for its constant means, from which the span's test on u is
derived, and a shadowed statistic is formed by ``_shadowed`` alone,
wherever it is tested or counted. Each span gathers the candidates of
all its cells once, when they are few; each noise count then inverts its
maximum, and counts its cells, only over its own candidates among them,
unless they are most of them. E, the noise maxima and every comparison
go through the same element-wise ufuncs as a pass over every iteration,
so each count equals that pass's bit for bit.

The chunk kernel is allocation-free: each worker allocates its scratch
once per ``estimate_pe`` call, and so once per sweep: ``_scratch_rows``
rows of one span, ``_span`` floats (a third of a chunk, rounded up to
whole shadowing blocks), for u, v, the noise maxima, E, the signal
statistics and each shadowing model's amplitudes, however many grid
points the call carries. Every span draws, gathers and transforms in
place there. Per span only the 1-byte candidate and comparison masks,
the candidates' indices (the span's and each noise count's), the E, ln v
and squared amplitudes of its iterations with E <= c_f and, for block
shadowing, one amplitude per block are new memory; the chunk joins the
kept values once and scores them in its scratch rows.
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
    "P_FLOOR",
]

# Natural-log amplitude change per dB of loss: 10^(-L/20) = exp(-L ln10/20).
_NEPERS_PER_DB = math.log(10.0) / 20.0
# Relative pad on the chunk's noise bound and on the signal cut derived from
# it, far above the few-ulp error of the ufuncs that compute either side.
_SLACK = 1e-6
# The floor P_f: an iteration whose error probability given its own noise
# maximum and amplitude is below it is scored by that probability. Part
# of the determinism contract, as CHUNK_SIZE is: it decides which
# iterations score a fraction, and so every such estimate's bits.
P_FLOOR = 1.0 / 64.0
# c_f = -ln(1 - P_f): a unit exponential E lies at or below it with
# probability P_f.
_FLOOR_CUT = -math.log1p(-P_FLOOR)


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
    """Rows of scratch the chunk kernel needs: one each for u, v, the noise
    maxima y, E and the signal statistics x, and one per distinct shadowing
    model for its amplitudes."""
    return 5 + len(_shadowing_models(signals))


def _span(signals: Sequence) -> int:
    """Iterations per span of the chunk kernel: a third of a chunk, rounded
    up to whole shadowing blocks of every model, so that no span cuts a block."""
    block = math.lcm(*(model.block_len for model in _shadowing_models(signals)))
    third = -(-CHUNK_SIZE // 3)
    return -(-third // block) * block


def _select(source, index, out):
    """``source`` at ``index``, taken into ``out``; all of it when ``index`` is None.

    "clip" skips the range check that makes take copy.
    """
    return source if index is None else np.take(source, index, mode="clip", out=out)


def _compact(rows, mask, buffer):
    """Each row's entries where ``mask`` holds, moved to its front through
    ``buffer``; returns those fronts."""
    index = np.flatnonzero(mask)
    fronts = [row[: index.size] for row in rows]
    for row, front in zip(rows, fronts):
        front[:] = _select(row, index, buffer[: index.size])
    return fronts


def _chunk_error_count(
    chunk_index: int,
    n: int,
    seed: int,
    signals: Sequence[float | tuple[LargeScaleModel, float]],
    noise_counts: Sequence[int],
    cells: Sequence[tuple[int, int]],
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores of every cell in one chunk of ``n`` iterations.

    A signal is its signal-slot mean: a float when it is the same for every
    iteration, else the (model, signal energy) whose amplitudes the
    shadowing stream draws. A cell is a (signal, noise count) pair of
    indices. The chunk is seeded by (seed, chunk); its signal uniforms u,
    its noise uniforms v and each distinct model's amplitudes are drawn
    once for every cell. ``scratch`` holds at least
    ``_scratch_rows(signals)`` rows of at least min(n, ``_span(signals)``)
    floats, else ``ValueError``; the chunk overwrites those rows.

    An iteration's score is its error indicator, ``x <= y`` for signal
    statistic x = mu * E and noise maximum y, unless it lies below the
    floor: E <= c_f and t = y / mu < c_f, with c_f = -ln(1 - ``P_FLOOR``).
    There it scores its conditional error probability given its own
    (v, m) and E <= c_f: -expm1(-t) / ``P_FLOOR``. Returns, per cell, the
    count of errors among the other iterations, and the sum and the sum of
    squares of the soft values: ``_floor_scores`` gives both.

    The chunk runs a span of ``_span(signals)`` iterations at a time. Each
    span draws its own u, v and amplitudes from the chunk's three
    generators, which carry on from span to span, so every value equals
    the one a whole-chunk draw gives it; a span is whole shadowing blocks,
    but for a short chunk's last one. Only iterations that can be errors
    are inverted, and the counts stay exact:

    - No noise maximum of the span at noise count N exceeds
      ``bound[N] = _noise_bound(max v, N)``, over the span's v: each
      maximum increases with v, and the pad exceeds the few-ulp error of
      any computed one.
    - So an iteration whose signal statistic x lies above the bound of its
      cell's noise count is correct in that cell: a cell's errors are
      among its candidates, the iterations with x <= bound, and a noise
      count's candidates are its cells' together.
    - A constant mean mu gives x = mu * E, within an ulp of the product,
      so each noise count has one cut on E, bound * pad / mu * pad at its
      smallest mean with pad = 1 + ``_SLACK``, or -1, which no E reaches,
      without a constant mean. E = -ln(1 - u) rises with u, within a few
      ulp, so the span tests u at or below -expm1(-cut) * pad for the
      largest cut, which keeps every u of every count's E cut.
    - A shadowed signal's x is ``_shadowed``'s (m * m * energy + 1) * E,
      formed alike wherever it is tested or counted. The span tests a
      model's x at the smallest of its counts' energies against the
      largest of their bounds, and a noise count at its own smallest
      energy against its own bound.

    The span's candidates are every cell's together. When at most
    length * K // 8 for K noise counts, u (or E), v and each model's
    squared amplitudes are compacted in place, else the whole span runs.
    Each noise count then finds its own candidates among them. When they
    are at most half, its log(v), E and squared amplitudes are gathered
    into the y, E and x rows and the count inverts and compares only
    there; else it runs on all of them, with y and x in their rows. Every
    ufunc acts element by element, so a gathered element gets the value
    it has in a pass over every iteration, and counting over any superset
    of a cell's candidates gives that pass's count bit for bit. Ties count
    as errors (measure zero, pinned for reproducibility).

    The span's union also keeps every iteration with E <= c_f: its test
    on u takes the larger of the largest cut and c_f. Each span keeps
    the E, ln v and squared amplitudes of those iterations, in order, and
    ``_floor_scores`` scores them in every cell once the chunk is drawn.
    """
    span = _span(signals)
    rows, columns = _scratch_rows(signals), min(n, span)
    if len(scratch) < rows or scratch.shape[1] < columns:
        raise ValueError(f"scratch has {len(scratch)} rows of {scratch.shape[1]} floats; "
                         f"the chunk needs {rows} of {columns}")
    u_row, v_row, y_row, e_row, x_row, *amplitude_rows = scratch[:rows]

    # Each noise count's cells as (cell, model index or None, mean or
    # energy), its smallest constant mean, None without one, and its
    # smallest energy per model index.
    models = _shadowing_models(signals)
    by_noise: dict = {}
    least: list = [{} for _ in noise_counts]
    for c, (j, k) in enumerate(cells):
        g, value = ((None, signals[j]) if isinstance(signals[j], float)
                    else (models[signals[j][0]], signals[j][1]))
        by_noise.setdefault(k, []).append((c, g, value))
        least[k][g] = min(least[k].get(g, math.inf), value)
    means = [low.pop(None, None) for low in least]

    shadow_seed, signal_seed, noise_seed = np.random.SeedSequence(
        [seed, chunk_index]
    ).spawn(3)
    signal_rng, noise_rng = np.random.default_rng(signal_seed), np.random.default_rng(noise_seed)
    # Every model draws its amplitudes from the start of the shadowing stream.
    shadow_rngs = [np.random.default_rng(shadow_seed) for _ in models]
    pad = 1.0 + _SLACK
    # The E, ln v and each model's squared amplitudes of every span's
    # iterations with E <= c_f, in iteration order.
    below: list = [[] for _ in range(2 + len(models))]
    counts = np.zeros(len(cells), dtype=np.int64)
    for start in range(0, n, span):
        length = min(span, n - start)
        u = signal_rng.random(length, out=u_row[:length])
        v = noise_rng.random(length, out=v_row[:length])
        top = float(v.max())
        bounds = [_noise_bound(top, n_noise) for n_noise in noise_counts]
        # Each count's one cut on E, at its smallest mean, or -1, below every E.
        cuts = [-1.0 if mean is None else bound * pad / mean * pad
                for bound, mean in zip(bounds, means)]

        # The union keeps every iteration with E <= c_f too.
        candidates = u <= -math.expm1(-max(*cuts, _FLOOR_CUT)) * pad
        if models:
            _unit_exponential(u, out=u)
        squares = []
        for (model, g), rng, row in zip(models.items(), shadow_rngs, amplitude_rows):
            m2 = draw_m_batch(model, rng, length, out=row[:length])
            m2 *= m2
            squares.append(m2)
            energy = min(low[g] for low in least if g in low)
            bound = max(b for b, low in zip(bounds, least) if g in low)
            candidates |= _shadowed(m2, energy, u, x_row[:length]) <= bound

        # A gather pays below about an eighth of the span per noise count,
        # since a count whose own candidates are many inverts them all.
        live = [u, v, *squares]
        if np.count_nonzero(candidates) <= length * len(noise_counts) // 8:
            live = _compact(live, candidates, y_row)
        del candidates
        e, log_v, *squares = live
        if not models:
            _unit_exponential(e, out=e)
        with np.errstate(divide="ignore"):
            np.log(log_v, out=log_v)
        floor = np.flatnonzero(e <= _FLOOR_CUT)
        for kept, row in zip(below, live):
            kept.append(np.take(row, floor))
        del floor
        for k, members in by_noise.items():
            own = e <= cuts[k]
            for g, energy in least[k].items():
                own |= _shadowed(squares[g], energy, e, x_row[: e.size]) <= bounds[k]
            size = np.count_nonzero(own)
            if 2 * size <= e.size:
                index = np.flatnonzero(own)
            else:
                index, size = None, e.size
            y, e_own, x = y_row[:size], e_row[:size], x_row[:size]
            y = _max_noise_from_log(noise_counts[k], _select(log_v, index, y), out=y)
            e_own = _select(e, index, e_own)
            for c, g, value in members:
                if g is None:
                    np.multiply(value, e_own, out=x)
                else:
                    _shadowed(_select(squares[g], index, x), value, e_own, x)
                counts[c] += np.count_nonzero(x <= y)
            # Freed before the next count builds its own, so a span's
            # temporaries stay under one span of floats.
            del own, index
    for i, parts in enumerate(below):
        below[i] = np.concatenate(parts)
    sums, square_sums = _floor_scores(below, by_noise, noise_counts, counts, scratch[:5])
    return counts, sums, square_sums


def _floor_scores(
    below: Sequence[np.ndarray],
    by_noise: dict,
    noise_counts: Sequence[int],
    counts: np.ndarray,
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Score a chunk's iterations below the floor, in iteration order.

    ``below`` holds the E, ln v and each model's squared amplitudes of the
    chunk's iterations with E <= c_f, in iteration order, and ``by_noise``
    each noise count's cells as (cell, model index or None, mean or
    energy). In a cell, an iteration with E <= c_f and
    t = y / mu < c_f is a soft member: its error, if ``counts`` holds one,
    is taken back out, and it scores -expm1(-t) / ``P_FLOOR`` instead.
    Returns per cell the ``np.sum`` of the soft values over the chunk's
    iterations with E <= c_f, in iteration order with 0 where t >= c_f,
    and the same sum of their squares. Each is one sum over the chunk, so
    its bits do not depend on the span.

    Every cell is scored, a block at a time in the rows of ``scratch``,
    one row per cell and as many as a row holds, or in new rows when one
    cell does not fit.
    """
    sums, square_sums = np.zeros(counts.size), np.zeros(counts.size)
    e, log_v, *squares = below
    size = e.size
    if not size:
        return sums, square_sums
    # Blocks in the scratch rows, or in new rows when one cell does not fit.
    rows = scratch if size <= scratch.shape[1] else np.empty((5, size))
    # Cells of one noise count side by side, so a block inverts each once.
    scored = [(c, k, g, value) for k, members in by_noise.items() for c, g, value in members]

    per_block = rows.shape[1] // size
    # The masks of a block, one byte per element, in the second row.
    flags = rows[1].view(np.bool_)
    for first in range(0, len(scored), per_block):
        block = scored[first : first + per_block]
        shape, elements = (len(block), size), len(block) * size
        y, mu, x, t = (rows[r][:elements].reshape(shape) for r in (2, 0, 4, 3))
        soft = flags[:elements].reshape(shape)
        errors = flags[elements : 2 * elements].reshape(shape)
        for i, (_, k, g, value) in enumerate(block):
            if i and block[i - 1][1] == k:
                y[i] = y[i - 1]
            else:
                row = y[i]
                row[:] = log_v
                _max_noise_from_log(noise_counts[k], row, out=row)
            if g is None:
                mu[i] = value
            else:
                # (m * m) * energy + 1, as _shadowed forms it.
                np.multiply(squares[g], value, out=mu[i])
                mu[i] += 1.0
        np.divide(y, mu, out=t)
        np.less(t, _FLOOR_CUT, out=soft)
        np.less_equal(np.multiply(mu, e, out=x), y, out=errors)
        errors &= soft
        index = [c for c, _, _, _ in block]
        counts[index] -= np.count_nonzero(errors, axis=1)
        # -expm1(-t) / P_f: the sign and the power-of-two scale are exact.
        np.negative(t, out=t)
        np.expm1(t, out=t)
        t *= -1.0 / P_FLOOR
        t *= soft
        sums[index] = t.sum(axis=1)
        t *= t
        square_sums[index] = t.sum(axis=1)
    return sums, square_sums


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
    statistics, and score the error indicator, 1 when the signal does not
    win; below the floor, score the conditional error probability instead
    (see the module docstring). ``p_e`` is the mean score and
    ``half_width_95`` 1.96 times its iid standard error; without a score
    below the floor they are the error count's fraction and binomial
    half-width. Deterministic for fixed (seed, iterations); ``threads``
    only changes wall time.

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

    scratch_shape = (_scratch_rows(signal_list), min(_span(signal_list), iterations))

    def work(first: int) -> tuple[np.ndarray, list]:
        # Worker ``first`` runs chunks first, first + workers, ... in its
        # own scratch; a chunk's draws depend on its index alone. Its soft
        # sums are kept per chunk, for one exact sum over all chunks.
        scratch = np.empty(scratch_shape)
        errors = np.zeros(len(cell_list), dtype=np.int64)
        soft = []
        for i in range(first, n_chunks, workers):
            n = min(CHUNK_SIZE, iterations - i * CHUNK_SIZE)
            chunk_errors, *chunk_soft = _chunk_error_count(
                i, n, seed, signal_list, noise_list, cell_list, scratch)
            errors += chunk_errors
            soft.append(chunk_soft)
        return errors, soft

    if workers == 1:
        results = [work(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, range(workers)))
    errors = sum(worker_errors for worker_errors, _ in results)
    chunks = [chunk for _, soft in results for chunk in soft]
    estimates = []
    for c in estimate_cells:
        # math.fsum rounds the exact total once, so the order in which the
        # workers ran their chunks cannot show.
        soft_sum = math.fsum(sums[c] for sums, _ in chunks)
        soft_square_sum = math.fsum(square_sums[c] for _, square_sums in chunks)
        estimates.append(_estimate(int(errors[c]), soft_sum, soft_square_sum, iterations, seed))
    return estimates[0] if one_cell else tuple(estimates)


def _estimate(errors: int, soft_sum: float, soft_square_sum: float, iterations: int,
              seed: int) -> PeEstimate:
    """The mean score and its 95 % half-width, 1.96 times the iid standard error.

    The scores are ``errors`` ones, soft values summing to ``soft_sum``
    with squares summing to ``soft_square_sum``, and zeros. Their sample
    variance is p(1 - p) + (soft_square_sum - soft_sum) / n; without soft
    values it is the binomial p(1 - p), bit for bit.
    """
    p_e = (errors + soft_sum) / iterations
    variance = p_e * (1.0 - p_e) + (soft_square_sum - soft_sum) / iterations
    half_width = 1.96 * math.sqrt(max(variance, 0.0) / iterations)
    return PeEstimate(p_e=p_e, iterations=iterations, half_width_95=half_width, seed=seed)
