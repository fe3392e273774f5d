"""Independent reference values for every figure the benchmark checks.

Nothing here imports ``wtfc``: the error law, the scheme arithmetic and the
capacity formulas are written out again from their definitions so that a
defect in the package cannot hide in a shared helper.

Error law. With ``N`` competing unit-mean exponential noise outputs and a
signal output of mean ``mu``, P(correct) = E[exp(-Y/mu)] for Y the maximum
of the noise outputs, which is Gamma(N+1) Gamma(1+1/mu) / Gamma(N+1+1/mu):
the noncoherent orthogonal-signalling result (Proakis & Salehi, *Digital
Communications*, ch. 4) in product form. It is evaluated in ``mpmath`` at
40 significant digits. Log-normal shadowing in dB is averaged out with
probabilists' Gauss-Hermite quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

# Gauss-Hermite nodes for the shadowing average.
SHADOW_NODES = 64

# Rejection thresholds for a sampled row.
MAX_BINOMIAL_SIGMAS = 5.0
MAX_HALF_WIDTHS = 3.0
COLUMN_RTOL = 1e-9

_SNAP = 1e-9


def p_error(mu: float, n_noise: int) -> float:
    """Exact symbol error probability at signal mean ``mu`` and ``N`` noise slots."""
    with mpmath.workdps(40):
        a = 1 / mpmath.mpf(mu)
        n = mpmath.mpf(n_noise)
        log_correct = (
            mpmath.loggamma(n + 1) + mpmath.loggamma(1 + a) - mpmath.loggamma(n + 1 + a)
        )
        return float(-mpmath.expm1(log_correct))


@functools.lru_cache(maxsize=256)
def p_error_shadowed(
    energy: float, n_noise: int, sigma_db: float, nodes: int = SHADOW_NODES
) -> float:
    """Error probability averaged over log-normal shadowing of ``sigma_db``.

    ``energy`` is the unshadowed signal-to-noise term, so a shadowing draw
    of X dB gives mu = 10^(-X/10) * energy + 1.
    """
    if sigma_db == 0:
        return p_error(energy + 1.0, n_noise)
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    total = 0.0
    for zi, wi in zip(z, w):
        gain = 10.0 ** (-sigma_db * zi / 10.0)
        total += wi * p_error(gain * energy + 1.0, n_noise)
    return total / math.sqrt(2.0 * math.pi)


def _snapped_floor(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) <= _SNAP * max(1.0, abs(nearest)):
        return int(nearest)
    return math.floor(x)


@dataclass(frozen=True)
class Point:
    """One physical operating point, as the benchmark configures it."""

    bandwidth_hz: float
    symbol_time_s: float
    delay_spread_s: float
    doppler_spread_hz: float
    duty_cycle: float
    p_r: float
    n_0: float = 1.0

    @property
    def tone_count(self) -> int:
        window = self.symbol_time_s - self.delay_spread_s
        q = max(1, math.ceil(self.doppler_spread_hz * window - _SNAP))
        return _snapped_floor(self.bandwidth_hz * window / q)

    @property
    def skipped(self) -> bool:
        """Whether the point is too narrow for two tones."""
        return self.tone_count < 2

    def alphabet_size(self, variant: str) -> int:
        slots = round(1.0 / self.duty_cycle)
        return self.tone_count * slots if variant.upper() == "WTFC" else self.tone_count

    @property
    def energy(self) -> float:
        """Unshadowed m^2 P_t T_s / (theta N_0); the default geometry has no path loss."""
        return self.p_r * self.symbol_time_s / (self.duty_cycle * self.n_0)

    def expected_pe(self, variant: str, sigma_db: float = 0.0) -> float:
        return p_error_shadowed(self.energy, self.alphabet_size(variant) - 1, sigma_db)

    def ceiling_bps(self, variant: str) -> float:
        return self.duty_cycle / self.symbol_time_s * math.log2(self.alphabet_size(variant))

    def capacity_bps(self, p_e: float, variant: str) -> float:
        s = self.alphabet_size(variant)
        bits = math.log2(s)
        if p_e > 0:
            bits += (1 - p_e) * math.log2(1 - p_e) + p_e * math.log2(p_e / (s - 1))
        return max(0.0, bits * self.duty_cycle / self.symbol_time_s)

    @property
    def amplitude(self) -> float:
        window = self.symbol_time_s - self.delay_spread_s
        return math.sqrt(self.p_r * self.symbol_time_s / (self.duty_cycle * window))

    @property
    def awgn_bps(self) -> float:
        b = self.bandwidth_hz
        return b * math.log2(1 + self.p_r / (self.n_0 * b))


def _close(got: float, want: float, rtol: float = COLUMN_RTOL) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def check_estimate(p_e: float, half_width: float, iterations: int, oracle: float) -> list[str]:
    """Problems with one sampled error probability against its exact value."""
    problems = []
    sigma = math.sqrt(oracle * (1 - oracle) / iterations)
    if abs(p_e - oracle) > MAX_BINOMIAL_SIGMAS * sigma:
        problems.append(
            f"p_e {p_e:.6g} is {abs(p_e - oracle) / sigma:.1f} binomial sigma "
            f"from the exact {oracle:.6g}"
        )
    if abs(p_e - oracle) > MAX_HALF_WIDTHS * half_width:
        problems.append(
            f"exact {oracle:.6g} lies outside p_e {p_e:.6g} +- 3 x {half_width:.3g}"
        )
    return problems


def check_columns(pairs: list[tuple[str, float, float]]) -> list[str]:
    """Problems among (column, reported, recomputed) triples."""
    return [
        f"{name} {got!r} differs from recomputed {want!r}"
        for name, got, want in pairs
        if not _close(got, want)
    ]


def check_sweep_row(row: dict, point: Point, sigma_db: float) -> list[str]:
    """Problems with one parsed CSV sweep row at ``point``.

    ``sigma_db`` is the row's shadowing spread, 0 when shadowing is off.
    """
    skipped = row["skipped_reason"] != ""
    if point.skipped != skipped:
        want = "skipped" if point.skipped else "computed"
        return [f"row at {row['axis_value']} should be {want}"]
    if skipped:
        return []
    variant = row["variant"]
    p_e = float(row["p_e"])
    problems = check_estimate(
        p_e,
        float(row["ci_half_width_95"]),
        int(row["iterations"]),
        point.expected_pe(variant, sigma_db),
    )
    problems += check_columns([
        ("capacity_bps", float(row["capacity_bps"]), point.capacity_bps(p_e, variant)),
        ("ceiling_bps", float(row["ceiling_bps"]), point.ceiling_bps(variant)),
        ("awgn_bps", float(row["awgn_bps"]), point.awgn_bps),
    ])
    return problems
