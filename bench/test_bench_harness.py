"""Tests of the benchmark's own code: oracle, metric formulas and span arithmetic."""

from __future__ import annotations

import math
import types
from fractions import Fraction

import pytest

import oracle
import spans
from run import time_to_1pct


class TestOracle:
    @pytest.mark.parametrize("mu", [1.0, 2.0, 101.0, 1e5, 1e9])
    def test_single_noise_slot(self, mu):
        assert oracle.p_error(mu, 1) == pytest.approx(1 / (mu + 1), rel=1e-13)

    @pytest.mark.parametrize("n_noise", [1, 2, 7, 2699, 269_999_999])
    def test_zero_signal_energy(self, n_noise):
        assert oracle.p_error(1.0, n_noise) == pytest.approx(n_noise / (n_noise + 1), rel=1e-13)

    @pytest.mark.parametrize("mu", [2, 10, 1000])
    @pytest.mark.parametrize("n_noise", [1, 2, 3, 5, 8])
    def test_product_form(self, mu, n_noise):
        a = Fraction(1, mu)
        correct = math.prod((Fraction(k) / (k + a) for k in range(1, n_noise + 1)), start=Fraction(1))
        assert oracle.p_error(mu, n_noise) == pytest.approx(float(1 - correct), rel=1e-13)

    def test_shadowed_without_spread_is_plain(self):
        assert oracle.p_error_shadowed(100.0, 2699, 0.0) == oracle.p_error(101.0, 2699)

    def test_shadowing_nodes_converged(self):
        # The paper's 100 MHz, theta = 1/100 point at 8 dB.
        coarse = oracle.p_error_shadowed(100.0, 269_999, 8.0)
        fine = oracle.p_error_shadowed(100.0, 269_999, 8.0, nodes=128)
        assert coarse == pytest.approx(fine, rel=1e-8)

    def test_scheme_arithmetic_at_readme_point(self):
        point = oracle.Point(100e6, 101e-6, 20e-6, 25e3, 1 / 100, 10e3)
        assert point.tone_count == 2700
        assert point.alphabet_size("WTFC") == 270_000
        assert point.alphabet_size("IFSK") == 2700
        assert not point.skipped
        narrow = oracle.Point(1e4, 101e-6, 20e-6, 25e3, 1 / 100, 10e3)
        assert narrow.skipped

    def test_estimate_far_from_exact_fails(self):
        exact, n = 0.1, 1_000_000
        sigma = math.sqrt(exact * (1 - exact) / n)
        assert oracle.check_estimate(exact + sigma, 1.96 * sigma, n, exact) == []
        assert oracle.check_estimate(exact + 6 * sigma, 1.96 * sigma, n, exact)

    def test_zero_error_bar_fails(self):
        exact, n = 0.1, 1_000_000
        sigma = math.sqrt(exact * (1 - exact) / n)
        problems = oracle.check_estimate(exact + 0.5 * sigma, 0.0, n, exact)
        assert any("outside" in problem for problem in problems)

    def test_skip_state(self):
        narrow = oracle.Point(1e4, 101e-6, 20e-6, 25e3, 1 / 100, 10e3)
        row = {"axis_value": "10000.0", "skipped_reason": "bandwidth_hz too small"}
        assert oracle.check_sweep_row(row, narrow, 0.0) == []
        assert oracle.check_sweep_row({**row, "skipped_reason": ""}, narrow, 0.0)


def test_time_to_1pct():
    assert time_to_1pct(2.0, [0.02, 0.02]) == pytest.approx(8.0)
    # RMS of (0.01, 0.03) is sqrt(5e-4): 5x the iterations for 1 %.
    assert time_to_1pct(2.0, [0.01, 0.03]) == pytest.approx(10.0)
    assert time_to_1pct(3.0, [0.005]) == pytest.approx(0.75)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:        20 |         20 |   _io
import time:       500 |        500 |       numpy._core
import time:       200 |        700 |     numpy
import time:       300 |       1000 |   wtfc.channel
import time:       100 |        100 |     scipy
import time:        50 |         50 |         numpy.linalg
import time:       400 |        450 |       scipy.special
import time:       600 |       1050 |     scipy.integrate
import time:       250 |       1400 |   wtfc.detector
import time:        80 |       2480 | wtfc
"""


def test_parse_importtime():
    entries = spans.parse_importtime(IMPORTTIME)
    assert len(entries) == 10
    assert entries[0] == ("_io", 1, pytest.approx(20e-6), pytest.approx(20e-6))
    assert entries[1][:2] == ("numpy._core", 3)
    assert entries[-1] == ("wtfc", 0, pytest.approx(80e-6), pytest.approx(2480e-6))


def test_import_costs():
    costs = spans.import_costs(spans.parse_importtime(IMPORTTIME), "wtfc")
    assert costs["total"] == pytest.approx(2480e-6)
    # numpy.linalg loads inside scipy.special, so it counts to scipy only.
    assert costs["scipy"] == pytest.approx(1150e-6)
    assert costs["numpy"] == pytest.approx(700e-6)
    assert costs["self"] == pytest.approx(630e-6)


def test_self_times_across_threads():
    main, worker = 1, 2
    trace = [
        spans.Span("detector.estimate", 0.0, 10.0, None, main),
        spans.Span("channel.draw", 1.0, 3.0, 0, main),
        spans.Span("detector.signal", 2.0, 6.0, None, worker),
        spans.Span("detector.noise", 6.5, 8.0, None, worker),
        spans.Span("inner", 3.0, 4.0, 2, worker),
        spans.Span("cli.write", 11.0, 12.0, None, main),
        spans.Span("stray", 10.5, 10.8, None, worker),
    ]
    spans.attribute_parents(trace)
    assert [span.parent for span in trace] == [None, 0, 0, 0, 2, None, None]
    # Children of the estimate cover [1, 6] and [6.5, 8]: 6.5 of its 10 s.
    assert spans.self_times(trace) == pytest.approx([3.5, 2.0, 3.0, 1.5, 1.0, 1.0, 0.3])


def test_tracer_wraps_and_restores():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    originals = (module.inner, module.outer)
    tracer = spans.Tracer()
    tracer.wrap(module, "inner", "inner", lambda args, kwargs, result: {"result": result})
    tracer.wrap(module, "outer", "outer")
    assert module.outer(1) == 4
    tracer.uninstall()
    assert (module.inner, module.outer) == originals
    names = [(span.name, span.parent, span.attrs) for span in tracer.spans]
    assert names == [("outer", None, {}), ("inner", 0, {"result": 2})]
    assert tracer.spans[0].start <= tracer.spans[1].start <= tracer.spans[1].end <= tracer.spans[0].end
