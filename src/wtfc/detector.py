"""Monte Carlo sampler of the square-law receiver.

This is the only module of the package that imports numpy. The error law
itself (signal energy, the exact closed form without shadowing, the
estimate record and the chunk size) lives in ``wtfc.errorlaw``, needs the
standard library alone, and is re-exported here. Commands that never
sample (``--version``, ``derive``, ``capacity --pe``) never import this
module, so they start without numpy; ``wtfc.sweep``, through which every
command samples, imports it on its first estimate, and ``wtfc`` on first
access to a sampler name.

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

The scores rest on one fact. The noise maximum y comes from the noise
uniform v; given y and the amplitude m, the signal output is exponential
with mean mu = m * m * energy + 1, so P(error | y, m) = -expm1(-y / mu).
Its mean is p_e and its variance is at most the error indicator's
(conditional Monte Carlo; Asmussen & Glynn, *Stochastic Simulation*,
ch. V).

A cell whose amplitudes are drawn (log-normal shadowing with sigma > 0)
scores every iteration so, s = -expm1(-y / mu), and draws no signal
uniform: p_e is the mean score and the half-width comes from the scores'
sample variance (``_estimate``). Its scores are summed in pieces of
``_PIECE`` iterations aligned to the chunk, and the chunk's total is the
``math.fsum`` of its pieces, so the sums do not depend on the span, the
other cells of the call or the threads.

A cell with a constant mean (shadowing disabled, or sigma = 0) counts
errors instead: an iteration errs when the signal statistic x = mu * E,
with E = -ln(1 - u), does not beat y. The floor set F, the iterations
with E <= c_f = -ln(1 - ``P_FLOOR``), is about a 64th of them and one set
for every constant cell, since they share u. Each scores
q = -expm1(-min(t, c_f)) with t = y / mu: P_f times its error
probability given v and E <= c_f. F is chosen by E alone, which is
independent of v, so q's mean over F estimates P(error, E <= c_f)
whatever F's size f is (a ratio estimator, conditional Monte Carlo
within F); p_e is the error fraction outside F plus that mean over
pi_n = P(f >= 1) (``_estimate``). Every span's union keeps F; the chunk
collects its ln v as it goes and scores it in every constant cell once it
is drawn, in iteration order, so that the sums do not depend on the span,
the other cells of the call or the threads.

The kernel holds every statistic in one sign, L = ln(1 - u) = -E and
w = ln(-expm1(ln v / N)) = -y: a constant cell errs when mu * L >= w, F
is L >= -c_f, and -q = expm1(max(w / mu, -c_f)), as -s = expm1(w / mu).
IEEE negation, products, quotients, min and max are exact under a change
of sign, so every count, score and floor set is the E/y form's bit for bit.

Constant cells invert only iterations that can be errors. The noise
maximum rises with its uniform v, so the one at a span's largest v,
computed on one float with ``math`` and padded by a relative 1e-6
(``_SLACK``) against the few-ulp error of either computation, bounds
every maximum of the span at that noise count, and an iteration whose
signal statistic lies above the bound is correct in that cell. Each
noise count has one cut on E at its smallest constant mean, from which
the span's test on u is derived. Each span gathers the candidates of all
its constant cells, its union, once; each noise count then inverts its
maximum, and counts its constant cells, over that whole union, where
F's L is -inf, so no count sees F. L, w and every comparison go through
the same element-wise ufuncs as a pass over every iteration, so each
count equals that pass's bit for bit.

The chunk kernel is allocation-free: each worker allocates its scratch
once per ``estimate_pe`` call, and so once per sweep: ``_scratch_rows``
rows of one span, ``_span`` floats (a third of a chunk, rounded up to
whole pieces and whole shadowing blocks), for u (then L), v (then ln v),
w (the gather buffer before it), the signal statistics (or a drawn
cell's scores) and each shadowing model's amplitudes, however many grid
points the call carries. Every span draws, scores, gathers and
transforms in place there. Per span only the 1-byte candidate and
comparison masks, the candidates' indices, F's indices and ln v and, for
block shadowing, one amplitude per block are new memory; per chunk, the
drawn cells' piece sums, and F's ln v joined once and scored one cell at
a time in two of the scratch rows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .channel import (LargeScaleModel, constant_amplitude, deterministic_power_gain,
                      shadowing_mean_power_gain)
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
# The floor P_f: the iterations with E <= c_f, a share P_f of them, are
# scored by their error probability given their own noise maximum and
# amplitude. Part of the determinism contract, as CHUNK_SIZE is: it
# decides which iterations score a fraction, and so every estimate's bits.
P_FLOOR = 1.0 / 64.0
# c_f = -ln(1 - P_f): a unit exponential E lies at or below it with
# probability P_f.
_FLOOR_CUT = -math.log1p(-P_FLOOR)
# Iterations per piece of a drawn cell's score sums. Pieces are aligned to
# the chunk and every span is whole pieces, so the sums do not depend on
# the span; it divides CHUNK_SIZE.
_PIECE = 1000
# Binary exponent of the typical signal-slot mean above which a cell's
# scores are scaled before they are squared (``_square_scale``).
_SQUARE_EXPONENT = 400


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


def _log_survival(u, out):
    """ln(1 - u) into ``out``: minus a unit-mean exponential by inversion."""
    np.negative(u, out=out)
    return np.log1p(out, out=out)


def signal_power_from_uniform(mu, u):
    """Invert the signal-slot CDF: -mu * ln(1 - u). Accepts arrays."""
    out = np.array(u, dtype=float)
    np.multiply(mu, _log_survival(out, out), out=out)
    return np.negative(out, out=out)


def _negative_max_noise_from_log(n_noise: int, log_u, out):
    """ln(-expm1(ln(u)/N)) from ln(u) into ``out``: minus the max-of-noise inversion."""
    np.divide(log_u, n_noise, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    return np.log(out, out=out)


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
        _negative_max_noise_from_log(n_noise, np.log(out, out=out), out)
    return np.negative(out, out=out)


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


def _square_scale(signal) -> float:
    """2^k by which a cell's scores are scaled before they are squared.

    A score is about y / mu, so at a mean mu near the top of the float
    range its square underflows to 0. The typical mean is the float mean of
    a constant signal, or the energy times the deterministic power gain of a
    drawn one; from 2^``_SQUARE_EXPONENT`` on, k is its binary exponent
    less ``_SQUARE_EXPONENT``, so the scaled scores are about y 2^-400.
    Below it k = 0. A power of two scales exactly away from the ends of the
    float range, so a scaled square sum is the unscaled one times 4^k
    wherever that one does not underflow.
    """
    mean = signal if isinstance(signal, float) else signal[1] * deterministic_power_gain(signal[0])
    if mean < 2.0 ** _SQUARE_EXPONENT:
        return 1.0
    return math.ldexp(1.0, math.frexp(mean)[1] - _SQUARE_EXPONENT)


def _shadowing_models(signals: Sequence) -> dict:
    """Each distinct shadowing model of the signals and its index, in first-seen order."""
    models = dict.fromkeys(signal[0] for signal in signals if not isinstance(signal, float))
    return {model: g for g, model in enumerate(models)}


def _scratch_rows(signals: Sequence) -> int:
    """Rows of scratch the chunk kernel needs: one each for u (then L), v
    (then ln v), the negated noise maxima w (first the gather buffer) and
    the signal statistics (or a drawn cell's scores), and one per distinct
    shadowing model for its amplitudes."""
    return 4 + len(_shadowing_models(signals))


def _span(signals: Sequence) -> int:
    """Iterations per span of the chunk kernel: a third of a chunk, rounded
    up to whole pieces and whole shadowing blocks of every model, so that
    no span cuts a piece or a block."""
    block = math.lcm(_PIECE, *(model.block_len for model in _shadowing_models(signals)))
    third = -(-CHUNK_SIZE // 3)
    return -(-third // block) * block


def _piece_sums(t, out) -> None:
    """``np.sum`` of each ``_PIECE``-long piece of ``t`` into ``out``, the
    last one short when ``t`` is: the same bits, piece by piece, however
    ``t`` is cut at piece boundaries."""
    whole = t.size // _PIECE
    t[: whole * _PIECE].reshape(whole, _PIECE).sum(axis=1, out=out[:whole])
    if whole < out.size:
        out[whole] = t[whole * _PIECE :].sum()


def _compact(rows, mask, buffer):
    """Each row's entries where ``mask`` holds, moved to its front through
    ``buffer``; returns those fronts. "clip" skips the range check that
    makes take copy."""
    index = np.flatnonzero(mask)
    fronts = [row[: index.size] for row in rows]
    for row, front in zip(rows, fronts):
        front[:] = np.take(row, index, mode="clip", out=buffer[: index.size])
    return fronts


def _chunk_error_count(
    chunk_index: int,
    n: int,
    seed: int,
    signals: Sequence[float | tuple[LargeScaleModel, float]],
    noise_counts: Sequence[int],
    cells: Sequence[tuple[int, int]],
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Scores of every cell in one chunk of ``n`` iterations.

    A signal is its signal-slot mean: a float when it is the same for every
    iteration, else the (model, signal energy) whose amplitudes the
    shadowing stream draws. A cell is a (signal, noise count) pair of
    indices. The chunk is seeded by (seed, chunk); its signal uniforms u,
    its noise uniforms v and each distinct model's amplitudes are drawn
    once for every cell. ``scratch`` holds at least
    ``_scratch_rows(signals)`` rows of at least min(n, ``_span(signals)``)
    floats, else ``ValueError``; the chunk overwrites those rows.

    A cell whose amplitudes are drawn scores every iteration by its error
    probability given its noise maximum y and amplitude m,
    s = -expm1(-y / mu) with mu = m * m * energy + 1; it draws no u. Its
    count is 0, and its sums are of s and of (2^k s) squared over the
    chunk, 2^k = ``_square_scale`` of its signal.

    A cell with a constant mean mu counts an error when x = mu * E does not
    beat y. The floor set F, one set for every such cell, holds the
    iterations with E <= c_f = -ln(1 - ``P_FLOOR``); each scores
    q = -expm1(-min(y / mu, c_f)), ``P_FLOOR`` times its error probability
    given its own v and E <= c_f. Its count is of the errors outside F, its
    sums are of q over F (from ``_floor_scores``), and F's size is returned
    last; it is 0 when no cell has a constant mean, since then no u is
    drawn. The statistics are held negated, L = -E and w = -y (see the
    module docstring): an error is ``mu * L >= w`` and F is L >= -c_f.

    The chunk runs a span of ``_span(signals)`` iterations at a time. Each
    span draws its own u, v and amplitudes from the chunk's three
    generators, which carry on from span to span, so every value equals
    the one a whole-chunk draw gives it; a span is whole pieces and whole
    shadowing blocks, but for a short chunk's last one. A drawn cell's
    scores are summed in pieces of ``_PIECE`` iterations aligned to the
    chunk and the chunk's total is the ``math.fsum`` of the pieces, so its
    bits do not depend on the span.

    For the constant cells, only iterations that can be errors are
    inverted, and the counts stay exact:

    - No noise maximum of the span at noise count N exceeds
      ``bound[N] = _noise_bound(max v, N)``, over the span's v: each
      maximum increases with v, and the pad exceeds the few-ulp error of
      any computed one.
    - A constant mean mu gives x = mu * E, within an ulp of the product,
      so each noise count has one cut on E, bound * pad / mu * pad at its
      smallest mean with pad = 1 + ``_SLACK``: above it, x lies above the
      bound and the iteration is correct in every cell of the count.
      E = -L rises with u, within a few ulp, so the span tests u at or
      below -expm1(-cut) * pad for the largest cut and c_f, which keeps
      every u of every count's E cut and the floor set.

    The span's candidates, its union, are gathered once: u and ln v are
    compacted to it in place, through the row that then takes w. Each span
    keeps the ln v of its floor set, in order, for ``_floor_scores`` to
    score one cell at a time once the chunk is drawn, and then sets the
    floor set's L to -inf, where no count sees it. Each noise count
    inverts its w over the whole union and compares each of its cells
    there. Every ufunc acts element by element, so a gathered element gets
    the value it has in a pass over every iteration, and counting over any
    superset of a cell's candidates gives that pass's count bit for bit.
    Ties count as errors (measure zero, pinned for reproducibility).
    """
    span = _span(signals)
    rows, columns = _scratch_rows(signals), min(n, span)
    if len(scratch) < rows or scratch.shape[1] < columns:
        raise ValueError(f"scratch has {len(scratch)} rows of {scratch.shape[1]} floats; "
                         f"the chunk needs {rows} of {columns}")
    u_row, v_row, w_row, x_row, *amplitude_rows = scratch[:rows]

    # Each noise count's constant cells as (cell, mean) and drawn cells as
    # (cell, model index, energy, square scale), and its smallest constant mean.
    models = _shadowing_models(signals)
    constant: dict = {}
    drawn: dict = {}
    for c, (j, k) in enumerate(cells):
        if isinstance(signals[j], float):
            constant.setdefault(k, []).append((c, signals[j]))
        else:
            drawn.setdefault(k, []).append(
                (c, models[signals[j][0]], signals[j][1], _square_scale(signals[j])))
    means = {k: min(mean for _, mean in members) for k, members in constant.items()}

    shadow_seed, signal_seed, noise_seed = np.random.SeedSequence(
        [seed, chunk_index]
    ).spawn(3)
    signal_rng, noise_rng = np.random.default_rng(signal_seed), np.random.default_rng(noise_seed)
    # Every model draws its amplitudes from the start of the shadowing stream.
    shadow_rngs = [np.random.default_rng(shadow_seed) for _ in models]
    pad = 1.0 + _SLACK
    counts = np.zeros(len(cells), dtype=np.int64)
    sums, square_sums = np.zeros(len(cells)), np.zeros(len(cells))
    # Each drawn cell's piece sums of -s and of s * s, in iteration order.
    pieces = np.empty((len(cells), 2, -(-n // _PIECE))) if drawn else None
    # The ln v of every span's iterations with L >= -c_f, in order.
    below = []
    for start in range(0, n, span):
        length = min(span, n - start)
        v = noise_rng.random(length, out=v_row[:length])
        squares = []
        for model, rng, row in zip(models, shadow_rngs, amplitude_rows):
            m2 = draw_m_batch(model, rng, length, out=row[:length])
            m2 *= m2
            squares.append(m2)
        if constant:
            top = float(v.max())
        if drawn:
            with np.errstate(divide="ignore"):
                np.log(v, out=v)
            w, t = w_row[:length], x_row[:length]
            at = slice(start // _PIECE, -(-(start + length) // _PIECE))
            for k, members in drawn.items():
                _negative_max_noise_from_log(noise_counts[k], v, out=w)
                for c, g, energy, scale in members:
                    # mu = (m * m) * energy + 1, then t = w / mu and -s = expm1(t).
                    np.multiply(squares[g], energy, out=t)
                    t += 1.0
                    np.divide(w, t, out=t)
                    np.expm1(t, out=t)
                    _piece_sums(t, pieces[c, 0, at])
                    if scale != 1.0:
                        t *= scale
                    t *= t
                    _piece_sums(t, pieces[c, 1, at])
        if not constant:
            continue

        u = signal_rng.random(length, out=u_row[:length])
        bounds = {k: _noise_bound(top, noise_counts[k]) for k in constant}
        # Each count's one cut on E is at its smallest mean; the union
        # keeps every E at or below the largest of them and c_f.
        cut = max(_FLOOR_CUT, *(bounds[k] * pad / means[k] * pad for k in constant))
        candidates = u <= -math.expm1(-cut) * pad
        # w_row is free until the counts below write w.
        ell, log_v = _compact([u, v], candidates, w_row)
        del candidates
        _log_survival(ell, out=ell)
        if not drawn:
            with np.errstate(divide="ignore"):
                np.log(log_v, out=log_v)
        # The floor set is scored by _floor_scores; at L = -inf no count sees it.
        floor = np.flatnonzero(ell >= -_FLOOR_CUT)
        below.append(np.take(log_v, floor))
        ell[floor] = -math.inf
        del floor
        w, x = w_row[: ell.size], x_row[: ell.size]
        for k, members in constant.items():
            _negative_max_noise_from_log(noise_counts[k], log_v, out=w)
            for c, mean in members:
                counts[c] += np.count_nonzero(np.multiply(mean, ell, out=x) >= w)
    for members in drawn.values():
        for c, *_ in members:
            # 0.0 - total is -total, but +0 where every score is 0.
            sums[c] = 0.0 - math.fsum(pieces[c, 0])
            square_sums[c] = math.fsum(pieces[c, 1])
    if not constant:
        return counts, sums, square_sums, 0
    log_v = np.concatenate(below)
    _floor_scores(log_v, constant, noise_counts, sums, square_sums, scratch)
    return counts, sums, square_sums, log_v.size


def _floor_scores(
    log_v: np.ndarray,
    constant: dict,
    noise_counts: Sequence[int],
    sums: np.ndarray,
    square_sums: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Score a chunk's floor set in every constant cell, in iteration order.

    ``log_v`` holds the ln v of the chunk's iterations with L >= -c_f, in
    iteration order, and ``constant`` each noise count's cells as (cell,
    mean). In each cell every such iteration scores q, with
    -q = expm1(max(w / mu, -c_f)) for w = -y. Writes per cell the
    ``np.sum`` of q over those iterations, in iteration order, into
    ``sums``, and the same sum of (2^k q) squared, 2^k = ``_square_scale``
    of the mean, into ``square_sums``. Each is one sum over the chunk, so
    its bits do not depend on the span.

    Each noise count inverts its w once, and its cells are scored one at a
    time, in two rows of ``scratch`` for w and -q, or in two new rows when
    the floor set is wider than a row.
    """
    size = log_v.size
    w, t = scratch[:2, :size] if size <= scratch.shape[1] else np.empty((2, size))
    for k, members in constant.items():
        _negative_max_noise_from_log(noise_counts[k], log_v, out=w)
        for c, mean in members:
            np.divide(w, mean, out=t)
            np.maximum(t, -_FLOOR_CUT, out=t)
            np.expm1(t, out=t)
            # Summed as q, not as -q negated after: np.sum has no sign
            # symmetry at zero, and an all-zero set's sum must keep its bits.
            sums[c] = np.negative(t, out=t).sum()
            scale = _square_scale(mean)
            if scale != 1.0:
                t *= scale
            t *= t
            square_sums[c] = t.sum()


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

    Per iteration: draw the max of the ``S - 1`` noise statistics and,
    under shadowing with sigma > 0, the large-scale amplitude, and score
    the error probability given both, -expm1(-y / mu); ``p_e`` is the mean
    score. With a constant signal-slot mean, draw the signal statistic
    and score the error indicator, 1 when the signal does not win, or in
    the floor set the conditional error probability (see the module
    docstring); ``p_e`` is the error fraction outside the floor set plus
    the floor set's mean score. ``half_width_95`` is 1.96 times the
    standard error (``_estimate``). Deterministic for fixed (seed,
    iterations); ``threads`` only changes wall time.

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

    def work(first: int) -> list:
        # Worker ``first`` runs chunks first, first + workers, ... in its
        # own scratch; a chunk's draws depend on its index alone.
        scratch = np.empty(scratch_shape)
        return [_chunk_error_count(i, min(CHUNK_SIZE, iterations - i * CHUNK_SIZE), seed,
                                   signal_list, noise_list, cell_list, scratch)
                for i in range(first, n_chunks, workers)]

    if workers == 1:
        results = [work(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, range(workers)))
    # One (counts, sums, square sums, floor size) per chunk. math.fsum
    # rounds each exact total once, so the order in which the workers ran
    # their chunks cannot show.
    chunks = [chunk for worker in results for chunk in worker]
    errors = sum(counts for counts, _, _, _ in chunks)
    floor_size = sum(size for _, _, _, size in chunks)
    estimates = []
    for c in estimate_cells:
        signal = signal_list[cell_list[c][0]]
        estimates.append(_estimate(
            int(errors[c]), floor_size, math.fsum(sums[c] for _, sums, _, _ in chunks),
            math.fsum(squares[c] for _, _, squares, _ in chunks), iterations, seed,
            drawn=not isinstance(signal, float), scale=_square_scale(signal)))
    return estimates[0] if one_cell else tuple(estimates)


def _estimate(errors: int, floor_size: int, score_sum: float, square_sum: float,
              iterations: int, seed: int, drawn: bool = False, scale: float = 1.0) -> PeEstimate:
    """p_e and its 95 % half-width from a cell's scores.

    A ``drawn`` cell scores every iteration: its n scores s lie in [0, 1]
    and sum to ``score_sum``, their squares to ``square_sum``. Then
    p_e = sum s / n and the half-width is 1.96 sqrt(var(s) / n), with the
    sample variance var(s) = (sum s^2 - (sum s)^2 / n) / (n - 1), or 1/4,
    the largest variance of a score in [0, 1], at n = 1.

    A constant cell has ``errors`` outside the floor set F and the
    f = ``floor_size`` scores q over F, which lie in [0, P_f] and sum to
    ``score_sum``, their squares to ``square_sum``. With p_B = errors / n
    and pi_n = 1 - (1 - P_f)^n = P(f >= 1), p_e = p_B + (sum q / f) / pi_n,
    the second term 0 when f = 0, and the half-width is
    1.96 sqrt(p_B (1 - p_B) / n + var_F(q) / (max(f, 1) pi_n^2)), with
    var_F(q) = sum q^2 / f - (sum q / f)^2 where that is positive and
    (P_f / 2)^2, the largest variance of a score in [0, P_f], where it is
    not: below two scores, or where the scores are equal. Dividing by pi_n
    keeps p_e unbiased at any n; it is 1.0 in floats from about 2 300
    iterations.

    ``square_sum`` is of the scores times ``scale``, a power of two
    (``_square_scale``), so the variance is formed in those units and the
    half-width divided by ``scale``; at 1.0 nothing changes.
    """
    if drawn:
        p_e = score_sum / iterations
        variance, units = 0.25, 1.0
        if iterations > 1:
            scaled = score_sum * scale
            variance = max(square_sum - scaled * scaled / iterations, 0.0) / (iterations - 1)
            units = scale
        half_width = 1.96 * math.sqrt(variance / iterations) / units
        return PeEstimate(p_e=p_e, iterations=iterations, half_width_95=half_width, seed=seed)
    p_b = errors / iterations
    p_e, variance = p_b, p_b * (1.0 - p_b) / iterations
    reach = -math.expm1(iterations * math.log1p(-P_FLOOR))
    spread, units = (P_FLOOR / 2.0) ** 2, 1.0
    if floor_size:
        mean = score_sum / floor_size
        # An f below its mean can lift a p_e within its noise of 1 past 1.
        p_e = min(p_e + mean / reach, 1.0)
        scaled = mean * scale
        sample = square_sum / floor_size - scaled * scaled
        if floor_size > 1 and sample > 0.0:
            spread, units = sample, scale
    variance = (variance * units) * units + spread / (max(floor_size, 1) * reach * reach)
    half_width = 1.96 * math.sqrt(variance) / units
    return PeEstimate(p_e=p_e, iterations=iterations, half_width_95=half_width, seed=seed)
