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
A cell is a plain (signal, noise-slot count) pair, one per estimate: the
signal is the cell's signal-slot mean, or the model and energy whose
amplitudes are drawn, and the count is its alphabet's S - 1. Each chunk
draws its uniforms, and each shadowing model its amplitudes, once for
every cell, and inverts each noise count's maximum once for the cells
that share it, so the rows of a sweep share their draws (common random
numbers) and each cell's scores equal its one-cell call's. A cell that
appears twice is scored twice, to the same bits.

The scores rest on one fact. The noise maximum y comes from the noise
uniform v; given y and the amplitude m, the signal output is exponential
with mean mu = m * m * energy + 1, so P(error | y, m) = -expm1(-y / mu).
Its mean is p_e and its variance is at most the error indicator's
(conditional Monte Carlo; Asmussen & Glynn, *Stochastic Simulation*,
ch. V).

A cell whose amplitudes are drawn (log-normal shadowing with sigma > 0)
scores every iteration so, s = -expm1(-y / mu), and draws no signal
uniform: p_e is the mean score. Its amplitudes are stratified
(``draw_m_batch``): a chunk takes its whole shadowing blocks in pairs, in
chunk order, and both blocks of pair h of H draw their normal z from the
h-th H-quantile interval, z = Phi^-1((h + U) / H), with Phi^-1 Wichura's
AS 241 (``_normal_quantile``). A block without a partner, an odd last
whole block or a partial last one, draws z on the whole line. Nearly all
of a shadowed score's variance is the spread of p_e(z) over z, and
stratifying z removes most of it (Owen, *Monte Carlo theory, methods and
examples*, 2013, ch. 8). The half-width takes the block as its unit: with
A a block's score sum, the variance of the chunk's total is estimated by
the sum over pairs of (A_2h - A_2h+1)^2, plus size^2 / 4 for each block
without a partner (``_estimate``), so blocks that share one amplitude get
an honest bar. The scores are summed in pieces of ``_PIECE`` iterations
and the pairs' squared differences in windows of whole pieces and whole
pairs (``_window``), both aligned to the chunk, and the chunk's totals are
the ``math.fsum`` of those, so the sums do not depend on the span, the
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
constant cell has a cut on E from that bound and its mean, and the
span's test on u is derived from the largest. Each span gathers the
candidates of all its constant cells, its union, once; each noise count
then inverts its maximum, and counts its constant cells, over that whole
union, where F's L is -inf, so no count sees F. L, w and every
comparison go through the same element-wise ufuncs as a pass over every
iteration, so each count equals that pass's bit for bit.

The chunk kernel is allocation-free: each worker allocates its scratch
once per ``estimate_pe`` call, and so once per sweep: ``_scratch_rows``
rows of one span, ``_span`` floats (a third of a chunk, rounded up to
whole pieces and whole pairs of shadowing blocks, at most a chunk), for u
(then L), v (then ln v), w (the gather buffer before it), the signal
statistics (or a drawn cell's scores) and each shadowing model's
amplitudes, however many grid points the call carries. Every span draws,
scores, gathers and transforms in place there: the normal quantile works
in the u and w rows before they are drawn, and a drawn cell's block sums
and pair differences in the u and statistic rows. Per span only the
1-byte candidate and comparison masks, the candidates' indices, F's
indices and ln v, the quantile's tail indices and values (about 15 % of
the blocks) and, for block shadowing, one amplitude per block are new
memory; per chunk, the drawn cells' piece and window sums, and F's ln v
joined once and scored one cell at a time in two of the scratch rows.
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
# The index h of each pair of shadowing blocks in a chunk, as a float.
_PAIR_INDEX = np.arange(CHUNK_SIZE // 2, dtype=float)
# Binary exponent of the typical signal-slot mean above which a cell's
# scores are scaled before they are squared (``_square_scale``).
_SQUARE_EXPONENT = 400


# Wichura's AS 241 rational approximations to the normal quantile (*Applied
# Statistics* 37, 1988): for each power, highest first, a numerator's and
# its denominator's coefficient. The central one is in r = 0.180625 - q^2
# for |q| = |p - 1/2| <= 0.425, and the two tail ones in r - 1.6 and r - 5
# for r = sqrt(-ln min(p, 1 - p)) up to 5 and beyond.
_CENTRAL = np.array([
    [2.5090809287301226727e+3, 5.2264952788528545610e+3],
    [3.3430575583588128105e+4, 2.8729085735721942674e+4],
    [6.7265770927008700853e+4, 3.9307895800092710610e+4],
    [4.5921953931549871457e+4, 2.1213794301586595867e+4],
    [1.3731693765509461125e+4, 5.3941960214247511077e+3],
    [1.9715909503065514427e+3, 6.8718700749205790830e+2],
    [1.3314166789178437745e+2, 4.2313330701600911252e+1],
    [3.3871328727963666080e+0, 1.0],
])
_NEAR_TAIL = np.array([
    [7.74545014278341407640e-4, 1.05075007164441684324e-9],
    [2.27238449892691845833e-2, 5.47593808499534494600e-4],
    [2.41780725177450611770e-1, 1.51986665636164571966e-2],
    [1.27045825245236838258e+0, 1.48103976427480074590e-1],
    [3.64784832476320460504e+0, 6.89767334985100004550e-1],
    [5.76949722146069140550e+0, 1.67638483018380384940e+0],
    [4.63033784615654529590e+0, 2.05319162663775882187e+0],
    [1.42343711074968357734e+0, 1.0],
])
_FAR_TAIL = np.array([
    [2.01033439929228813265e-7, 2.04426310338993978564e-15],
    [2.71155556874348757815e-5, 1.42151175831644588870e-7],
    [1.24266094738807843860e-3, 1.84631831751005468180e-5],
    [2.65321895265761230930e-2, 7.86869131145613259100e-4],
    [2.96560571828504891230e-1, 1.48753612908506148525e-2],
    [1.78482653991729133580e+0, 1.36929880922735805310e-1],
    [5.46378491116411436990e+0, 5.99832206555887937690e-1],
    [6.65790464350110377720e+0, 1.0],
])


def _polynomial(coefficients, r, out):
    """The polynomial in ``r`` with ``coefficients``, highest power first,
    by Horner's rule into ``out``. A column of coefficients gives one
    polynomial; a (powers, rows, 1) array gives one per row of ``out``."""
    np.multiply(r, coefficients[0], out=out)
    for c in coefficients[1:-1]:
        out += c
        out *= r
    out += coefficients[-1]
    return out


def _normal_quantile(p, work):
    """The standard normal quantile of each ``p`` in [0, 1], in place.

    Wichura's AS 241 with the operations in the order of
    ``statistics.NormalDist().inv_cdf``, so each value has its bits where
    numpy's log has the C library's (the tails take a log); p = 0 and
    p = 1, which that refuses, give -inf and inf. Every p takes the
    central form in ``p`` and the two rows of ``work``, a 2-D array; the
    tails, about 15 % of them, are then gathered and finished with the
    numerator and denominator side by side in those rows, which halves
    their calls.
    """
    size = p.size
    q, r = work[0, :size], work[1, :size]
    np.subtract(p, 0.5, out=q)
    tails = np.flatnonzero(np.abs(q, out=r) > 0.425)
    tail_p = np.take(p, tails)
    np.multiply(q, q, out=r)
    np.subtract(0.180625, r, out=r)
    _polynomial(_CENTRAL[:, 0], r, out=p)
    p *= q
    # The tails' central values are overwritten below; their denominator
    # may be 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(p, _polynomial(_CENTRAL[:, 1], r, out=q), out=p)
    if not tails.size:
        return p
    lower = tail_p < 0.5
    r, both = tail_p, work[:, : tails.size]
    np.minimum(tail_p, np.subtract(1.0, tail_p, out=both[0]), out=r)
    with np.errstate(divide="ignore"):
        np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
    far = np.flatnonzero(r > 5.0)
    far_r = np.take(r, far) - 5.0
    r -= 1.6
    with np.errstate(invalid="ignore"):
        x = np.divide(*_polynomial(_NEAR_TAIL[:, :, None], r, out=both), out=r)
        if far.size:
            # r = inf, at p = 0 or 1, is inf / inf in the rational form.
            num, den = _polynomial(_FAR_TAIL[:, :, None], far_r, np.empty((2, far.size)))
            x[far] = np.where(far_r == math.inf, math.inf, num / den)
    np.negative(x, out=x, where=lower)
    p[tails] = x
    return p


def draw_m_batch(
    model: LargeScaleModel,
    rng: np.random.Generator,
    n: int,
    out: np.ndarray,
    work: Sequence[np.ndarray] | None = None,
    start: int = 0,
    total: int | None = None,
) -> np.ndarray:
    """Shadowed large-scale amplitudes of symbols ``start`` to ``start + n``
    of a chunk of ``total`` symbols, into ``out``.

    One shadowing realization per symbol by default; ``model.block_len``
    symbols share one when it is larger, and a short chunk keeps its partial
    last block. The chunk's whole blocks are taken in pairs, in chunk order.
    With H pairs, each block of pair h draws z = Phi^-1((h + U) / H) from
    its own uniform U, so the two blocks of a pair fall in the same H-th of
    the normal's mass (stratified sampling). A block without a partner, an
    odd last whole block or a partial last block, draws z = Phi^-1(U).

    The uniforms come from ``rng``, one per block in chunk order, so
    ``rng`` must have drawn the chunk's blocks before ``start``, which
    starts a pair, and every draw equals the matching slice of a draw over
    the whole chunk. ``total``, at most ``CHUNK_SIZE``, defaults to
    ``start + n``: the draw ends the chunk. ``work`` is a 2-D array of two
    rows of at least one float per block drawn, else a new one is
    allocated. A disabled or zero-sigma model draws nothing: its one
    amplitude is ``constant_amplitude(model)``, and it is rejected here
    before the rng is touched.
    """
    if constant_amplitude(model) is not None:
        raise ValueError("the model's amplitude is constant; use constant_amplitude")
    block_len = model.block_len
    total = start + n if total is None else total
    if total > CHUNK_SIZE:
        raise ValueError(f"a chunk holds at most {CHUNK_SIZE} symbols, not {total}")
    pairs = total // block_len // 2
    first, n_blocks = start // block_len, -(-n // block_len)
    if work is None:
        work = np.empty((2, n_blocks))
    m = out if block_len == 1 else np.empty(n_blocks)
    rng.random(n_blocks, out=m)
    # (h + U) / H for the blocks of this draw that have a partner.
    paired = min(n_blocks, max(2 * pairs - first, 0))
    if paired:
        h = _PAIR_INDEX[first // 2 : (first + paired) // 2]
        m[0:paired:2] += h
        m[1:paired:2] += h
        m[:paired] /= pairs
    _normal_quantile(m, work)
    # m = exp(-(ln10/20)(L + sigma z)), one pass at a time over the draws.
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
    """2^k by which a cell's scores, or a drawn cell's pair differences,
    are scaled before they are squared.

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


def _window(block_len: int) -> int:
    """Iterations per window of a drawn cell's pair sums at ``block_len``:
    whole pieces and whole pairs of blocks."""
    return math.lcm(_PIECE, 2 * block_len)


def _span(signals: Sequence) -> int:
    """Iterations per span of the chunk kernel: a third of a chunk, rounded
    up to whole windows of every model, so that no span cuts a piece, a
    block or a pair of blocks, and at most a chunk."""
    block = math.lcm(_PIECE, *(_window(model.block_len) for model in _shadowing_models(signals)))
    third = -(-CHUNK_SIZE // 3)
    return min(-(-third // block) * block, CHUNK_SIZE)


def _piece_sums(t, out, piece: int = _PIECE) -> None:
    """``np.sum`` of each ``piece``-long piece of ``t`` into ``out``, the
    last one short when ``t`` is: the same bits, piece by piece, however
    ``t`` is cut at piece boundaries."""
    whole = t.size // piece
    t[: whole * piece].reshape(whole, piece).sum(axis=1, out=out[:whole])
    if whole < out.size:
        out[whole] = t[whole * piece :].sum()


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
    cells: Sequence[tuple[float | tuple[LargeScaleModel, float], int]],
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Scores of every cell in one chunk of ``n`` iterations.

    A cell is a (signal, noise-slot count) pair. A signal is its
    signal-slot mean: a float when it is the same for every iteration,
    else the (model, signal energy) whose amplitudes the shadowing stream
    draws. The chunk is seeded by (seed, chunk); its signal uniforms u, its
    noise uniforms v and each distinct model's amplitudes are drawn once
    for every cell, and the cells that share a noise count share its
    maximum. ``scratch`` holds at least ``_scratch_rows(signals)`` rows of
    at least min(n, ``_span(signals)``) floats, over the cells' signals,
    else ``ValueError``; the chunk overwrites those rows. Returns each
    cell's count and two sums, in cell order, and F's size.

    A cell whose amplitudes are drawn scores every iteration by its error
    probability given its noise maximum y and amplitude m,
    s = -expm1(-y / mu) with mu = m * m * energy + 1; it draws no u. Its
    count is 0, its first sum is of s over the chunk and its second is of
    (2^k (A_2h - A_2h+1))^2 over the chunk's pairs of whole shadowing
    blocks, for A a block's sum of s and 2^k = ``_square_scale`` of its
    signal (the blocks without a partner are left to ``_estimate``).

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
    pairs of shadowing blocks, but for a short chunk's last one. A drawn
    cell's scores are summed in pieces of ``_PIECE`` iterations, and its
    pairs' squared differences in windows of ``_window`` iterations, each
    aligned to the chunk, and the chunk's totals are the ``math.fsum`` of
    those, so their bits do not depend on the span.

    For the constant cells, only iterations that can be errors are
    inverted, and the counts stay exact:

    - No noise maximum of the span at noise count N exceeds
      ``bound[N] = _noise_bound(max v, N)``, over the span's v: each
      maximum increases with v, and the pad exceeds the few-ulp error of
      any computed one.
    - A constant mean mu gives x = mu * E, within an ulp of the product,
      so each constant cell has a cut on E, bound[N] * pad / mu * pad with
      pad = 1 + ``_SLACK``: above it, x lies above the bound and the
      iteration is correct in that cell. E = -L rises with u, within a
      few ulp, so the span tests u at or below -expm1(-cut) * pad for the
      largest cut and c_f, which keeps every u of every cell's E cut and
      the floor set.

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
    signals = [signal for signal, _ in cells]
    span = _span(signals)
    rows, columns = _scratch_rows(signals), min(n, span)
    if len(scratch) < rows or scratch.shape[1] < columns:
        raise ValueError(f"scratch has {len(scratch)} rows of {scratch.shape[1]} floats; "
                         f"the chunk needs {rows} of {columns}")
    v_row, u_row, w_row, x_row, *amplitude_rows = scratch[:rows]

    # Each noise count's constant cells as (cell, mean) and drawn cells as
    # (cell, model index, energy, square scale).
    models = _shadowing_models(signals)
    constant: dict = {}
    drawn: dict = {}
    for c, (signal, n_noise) in enumerate(cells):
        if isinstance(signal, float):
            constant.setdefault(n_noise, []).append((c, signal))
        else:
            drawn.setdefault(n_noise, []).append(
                (c, models[signal[0]], signal[1], _square_scale(signal)))

    shadow_seed, signal_seed, noise_seed = np.random.SeedSequence(
        [seed, chunk_index]
    ).spawn(3)
    signal_rng, noise_rng = np.random.default_rng(signal_seed), np.random.default_rng(noise_seed)
    # Every model draws its amplitudes from the start of the shadowing stream.
    shadow_rngs = [np.random.default_rng(shadow_seed) for _ in models]
    # Each model's block length, pairs of blocks per window and whole pairs
    # in the chunk.
    layouts = [(model.block_len, _window(model.block_len) // (2 * model.block_len),
                n // model.block_len // 2) for model in models]
    pad = 1.0 + _SLACK
    counts = np.zeros(len(cells), dtype=np.int64)
    sums, square_sums = np.zeros(len(cells)), np.zeros(len(cells))
    # Each drawn cell's piece sums of -s and window sums of its pairs'
    # squared differences, in iteration order.
    pieces = np.empty((len(cells), 2, -(-n // _PIECE))) if drawn else None
    # The ln v of every span's iterations with L >= -c_f, in order.
    below = []
    for start in range(0, n, span):
        length = min(span, n - start)
        v = noise_rng.random(length, out=v_row[:length])
        squares = []
        for model, rng, row in zip(models, shadow_rngs, amplitude_rows):
            # The u and w rows, side by side, are free until the cells
            # below write them.
            m2 = draw_m_batch(model, rng, length, row[:length], scratch[1:3, :length], start, n)
            m2 *= m2
            squares.append(m2)
        if constant:
            top = float(v.max())
        if drawn:
            with np.errstate(divide="ignore"):
                np.log(v, out=v)
            w, t = w_row[:length], x_row[:length]
            at = slice(start // _PIECE, -(-(start + length) // _PIECE))
            for n_noise, members in drawn.items():
                _negative_max_noise_from_log(n_noise, v, out=w)
                for c, g, energy, scale in members:
                    # mu = (m * m) * energy + 1, then t = w / mu and -s = expm1(t).
                    np.multiply(squares[g], energy, out=t)
                    t += 1.0
                    np.divide(w, t, out=t)
                    np.expm1(t, out=t)
                    _piece_sums(t, pieces[c, 0, at])
                    # The span's whole pairs, each block's score sum A and
                    # each pair's (2^k (A_2h - A_2h+1))^2, summed by window.
                    block_len, per_window, pairs = layouts[g]
                    paired = min(length // block_len, 2 * pairs - start // block_len)
                    if paired <= 0:
                        continue
                    if block_len == 1:
                        blocks, d = t[:paired], u_row[: paired // 2]
                    else:
                        blocks = t[: paired * block_len].reshape(paired, block_len).sum(
                            axis=1, out=u_row[:paired])
                        d = x_row[: paired // 2]
                    np.subtract(blocks[0::2], blocks[1::2], out=d)
                    if scale != 1.0:
                        d *= scale
                    d *= d
                    first = start // block_len // 2
                    _piece_sums(d, pieces[c, 1, first // per_window :
                                          -(-(first + d.size) // per_window)], per_window)
        if not constant:
            continue

        u = signal_rng.random(length, out=u_row[:length])
        # Each constant cell's cut on E; the union keeps every E at or below
        # the largest of them and c_f.
        cut = max(_FLOOR_CUT, *(_noise_bound(top, n_noise) * pad / mean * pad
                                for n_noise, members in constant.items() for _, mean in members))
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
        for n_noise, members in constant.items():
            _negative_max_noise_from_log(n_noise, log_v, out=w)
            for c, mean in members:
                counts[c] += np.count_nonzero(np.multiply(mean, ell, out=x) >= w)
    for members in drawn.values():
        for c, g, *_ in members:
            _, per_window, pairs = layouts[g]
            # 0.0 - total is -total, but +0 where every score is 0.
            sums[c] = 0.0 - math.fsum(pieces[c, 0])
            square_sums[c] = math.fsum(pieces[c, 1, : -(-pairs // per_window)])
    # Without a constant cell no u is drawn and the floor set is empty.
    log_v = np.concatenate(below) if constant else np.empty(0)
    _floor_scores(log_v, constant, sums, square_sums, scratch)
    return counts, sums, square_sums, log_v.size


def _floor_scores(
    log_v: np.ndarray,
    constant: dict,
    sums: np.ndarray,
    square_sums: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Score a chunk's floor set in every constant cell, in iteration order.

    ``log_v`` holds the ln v of the chunk's iterations with L >= -c_f, in
    iteration order, and ``constant`` maps each noise-slot count to its
    constant cells as (cell index, mean). In each cell every such
    iteration scores q, with -q = expm1(max(w / mu, -c_f)) for w = -y.
    Writes at each cell's index the ``np.sum`` of q over those iterations,
    in iteration order, into ``sums``, and the same sum of (2^k q)
    squared, 2^k = ``_square_scale`` of the mean, into ``square_sums``.
    Each is one sum over the chunk, so its bits do not depend on the span.

    Each noise count inverts its w once for all its cells, which are
    scored one at a time, in two rows of ``scratch`` for w and -q, or in
    two new rows when the floor set is wider than a row.
    """
    size = log_v.size
    w, t = scratch[:2, :size] if size <= scratch.shape[1] else np.empty((2, size))
    for n_noise, members in constant.items():
        _negative_max_noise_from_log(n_noise, log_v, out=w)
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

    # One (signal, noise-slot count) cell per estimate, model-major.
    cells = []
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
            cells.append((signal, p.noise_slot_count))
    signals = [signal for signal, _ in cells]

    n_chunks = -(-iterations // CHUNK_SIZE)
    workers = min(threads, n_chunks)

    scratch_shape = (_scratch_rows(signals), min(_span(signals), iterations))

    def work(first: int) -> list:
        # Worker ``first`` runs chunks first, first + workers, ... in its
        # own scratch; a chunk's draws depend on its index alone.
        scratch = np.empty(scratch_shape)
        return [_chunk_error_count(i, min(CHUNK_SIZE, iterations - i * CHUNK_SIZE), seed,
                                   cells, scratch)
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
    estimates = [
        _estimate(int(errors[c]), floor_size, math.fsum(sums[c] for _, sums, _, _ in chunks),
                  math.fsum(squares[c] for _, _, squares, _ in chunks), iterations, seed,
                  block_len=0 if isinstance(signal, float) else signal[0].block_len,
                  scale=_square_scale(signal))
        for c, signal in enumerate(signals)
    ]
    return estimates[0] if one_cell else tuple(estimates)


def _unpaired(n: int, block_len: int) -> int:
    """The sum of squared sizes of the blocks without a partner in a chunk
    of ``n`` iterations: an odd last whole block and a partial last block."""
    whole, part = divmod(n, block_len)
    return whole % 2 * block_len * block_len + part * part


def _estimate(errors: int, floor_size: int, score_sum: float, square_sum: float,
              iterations: int, seed: int, block_len: int = 0,
              scale: float = 1.0) -> PeEstimate:
    """p_e and its 95 % half-width from a cell's scores.

    A drawn cell, whose amplitudes come in blocks of ``block_len`` > 0
    iterations, scores every iteration: its n scores s lie in [0, 1] and
    sum to ``score_sum``, so p_e = sum s / n. Each chunk pairs its whole
    blocks within strata of the shadowing normal (``draw_m_batch``), and
    ``square_sum`` is the sum over all pairs of (A_2h - A_2h+1)^2, for A a
    block's score sum: the two blocks of a pair are independent draws from
    one stratum, so its squared difference estimates the variance of their
    sum without bias (Cochran, *Sampling Techniques*, 1977; Owen,
    *Monte Carlo theory, methods and examples*, 2013, ch. 8). A block
    without a partner adds size^2 / 4, the largest variance of a sum of
    that many scores in [0, 1]. The half-width is 1.96 sqrt(variance) / n;
    at n = 1 it is 1.96 sqrt(1/4) = 0.98.

    A constant cell, ``block_len`` 0, has ``errors`` outside the floor set
    F and the f = ``floor_size`` scores q over F, which lie in [0, P_f] and sum to
    ``score_sum``, their squares to ``square_sum``. With p_B = errors / n
    and pi_n = 1 - (1 - P_f)^n = P(f >= 1), p_e = p_B + (sum q / f) / pi_n,
    the second term 0 when f = 0, and the half-width is
    1.96 sqrt(p_B (1 - p_B) / n + var_F(q) / (max(f, 1) pi_n^2)), with
    var_F(q) = sum q^2 / f - (sum q / f)^2 where that is positive and
    (P_f / 2)^2, the largest variance of a score in [0, P_f], where it is
    not: below two scores, or where the scores are equal. Dividing by pi_n
    keeps p_e unbiased at any n; it is 1.0 in floats from about 2 300
    iterations.

    ``square_sum`` is of the scores, or of a drawn cell's differences,
    times ``scale``, a power of two (``_square_scale``), so the variance is
    formed in those units and the half-width divided by ``scale``; at 1.0
    nothing changes.
    """
    if block_len:
        full, last = divmod(iterations, CHUNK_SIZE)
        bound = (full * _unpaired(CHUNK_SIZE, block_len) + _unpaired(last, block_len)) / 4
        half_width = 1.96 * math.hypot(math.sqrt(square_sum) / scale, math.sqrt(bound))
        return PeEstimate(p_e=score_sum / iterations, iterations=iterations,
                          half_width_95=half_width / iterations, seed=seed)
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
