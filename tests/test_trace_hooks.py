"""The benchmark's layer wrappers still find every name they hook.

``bench/run.py --trace 1`` replaces functions in ``wtfc.cli``,
``wtfc.sweep`` and ``wtfc.detector`` by name; renaming or dropping one
would only show up as a crash of the traced benchmark. This runs a small
``sweep``, ``compare-shadowing`` and ``pe`` through those wrappers.
"""

import os
from pathlib import Path

import pytest

from wtfc.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"

POINT_SETS = [
    "--set", "bandwidth_hz=100e6",
    "--set", "symbol_time_s=101e-6",
    "--set", "delay_spread_s=20e-6",
    "--set", "doppler_spread_hz=25e3",
    "--set", "duty_cycle=1/100",
    "--set", "p_r=10e3",
    "--iters", "150000",
]
GRID = ["--axis", "duty_cycle", "--grid", "1e-2,1e-3"]


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for key in [key for key in os.environ if key.startswith("WTFC_")]:
        monkeypatch.delenv(key)
    import run
    import spans

    return run, spans


@pytest.mark.parametrize("command, extra", [
    ("sweep", [*GRID, "--variants", "wtfc,ifsk"]),
    ("compare-shadowing", [*GRID, "--sigma-db", "8", "--threads", "2"]),
    # One cell through wtfc.sweep.estimate_cells.
    ("pe", ["--threads", "2"]),
])
def test_layer_wrappers_record_estimates_and_chunks(bench_modules, command, extra,
                                                    tmp_path, capsys):
    run, spans = bench_modules
    tracer = spans.Tracer()
    run.install_layer_wrappers(tracer)
    try:
        code = main([command, *POINT_SETS, *extra, "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    estimates = [span for span in tracer.spans if span.name == "detector.estimate"]
    chunks = [span for span in tracer.spans if span.name == "detector.chunk"]
    # One estimate for the whole call, over one chunk per 100 000 iterations.
    assert len(estimates) == 1
    assert all(span.attrs["iterations"] > 0 for span in estimates)
    assert len(chunks) == 2
