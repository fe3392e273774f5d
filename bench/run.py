"""Benchmark of the ``wtfc`` command line.

Usage, from the repository root:

    python3 bench/run.py --workload mc-sweep --seed 0 --seconds 32 --trace 0

Every CLI call is a child process ``python -m wtfc.cli`` with
``PYTHONPATH=src``, started one at a time (closed loop, one client). Each
output row is checked against ``oracle``, which shares no code with
``wtfc``. With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it replays the same calls in-process through
``wtfc.cli.main`` with timed wrappers around each layer and prints the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. NOTES.md explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import importlib.metadata
import inspect
import io
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle
import spans as spanlib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("mc-sweep", "shadow-pair", "cli-queries")

# The README operating point, shadowing off. Calls read it from a config file.
POINT = oracle.Point(
    bandwidth_hz=100e6,
    symbol_time_s=101e-6,
    delay_spread_s=20e-6,
    doppler_spread_hz=25e3,
    duty_cycle=1 / 100,
    p_r=10e3,
)
POINT_CONFIG = "".join(f"{key} = {value!r}\n" for key, value in dataclasses.asdict(POINT).items())
DUTY_GRID = "1e-2,1e-3,1e-4,1e-5"
# 1e4 Hz fits fewer than two tones, so that row must come out skipped.
BANDWIDTH_GRID = "1e4,1e6,1e8"
SIGMA_DB = 8.0
SWEEP_ITERATIONS = 6_000_000
QUERY_ITERATIONS = 200_000
POOL_THREADS = 2

SETUP_PROCESSES = 6
IMPORT_PROCESSES = 3
POOL_REPEATS = 3
CALL_TIMEOUT_S = 120
TARGET_REL_HALF_WIDTH = 0.01


@dataclass
class Output:
    code: int
    stdout: str
    stderr: str
    wall: float
    maxrss_kb: int = 0
    data: bytes = b""


@dataclass
class Checked:
    """Problems per operation (empty list: correct) and sampled relative half-widths."""

    problems: list[list[str]]
    rel_half_widths: list[float] = field(default_factory=list)


@dataclass
class Call:
    """One CLI invocation: arguments after ``python -m wtfc.cli``, and its check."""

    args: list[str]
    check: Callable[[Output], Checked]
    ops: int = 1
    env: dict = field(default_factory=dict)
    out: Path | None = None


@dataclass
class Pass:
    """One execution of a workload's calls."""

    outputs: list[Output]
    problems: list[list[str]]
    rel_half_widths: list[float]
    sampled_wall: float

    @property
    def wall(self) -> float:
        return sum(output.wall for output in self.outputs)


# ---------------------------------------------------------------- checks


def _csv_rows(data: bytes) -> list[dict]:
    lines = data.decode("utf-8").splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError("result file has no '# config:' header")
    return list(csv.DictReader(lines[1:]))


def _row_point(row: dict) -> oracle.Point:
    name = {"duty_cycle": "duty_cycle", "bandwidth": "bandwidth_hz"}[row["axis_name"]]
    return dataclasses.replace(POINT, **{name: float(row["axis_value"])})


def _rel_half_width(p_e: str, half_width: str) -> list[float]:
    p = float(p_e)
    return [float(half_width) / p] if p > 0 else []


def _iteration_problems(row: dict, iterations: int) -> list[str]:
    """A row must report the iterations asked for, so less work cannot pass for speed."""
    if int(row["iterations"]) == iterations:
        return []
    return [f"reports {row['iterations']} iterations, asked for {iterations}"]


def check_sweep(expected_rows: int, iterations: int, sigma_db: float = 0.0):
    """Check of a sweep result file, one operation per row.

    With ``sigma_db`` the rows are compare-shadowing (off, on) pairs and
    each on-row's capacity loss is recomputed from its partner.
    """

    def check(output: Output) -> Checked:
        rows = _csv_rows(output.data)
        if len(rows) != expected_rows:
            return Checked([[f"{len(rows)} rows, expected {expected_rows}"]] * expected_rows)
        problems, widths = [], []
        for row in rows:
            on = row["shadowing_enabled"] == "true"
            problems.append(oracle.check_sweep_row(row, _row_point(row), sigma_db if on else 0.0)
                            + _iteration_problems(row, iterations))
            if not row["skipped_reason"]:
                widths += _rel_half_width(row["p_e"], row["ci_half_width_95"])
        if sigma_db:
            for index in range(0, len(rows), 2):
                off, on = rows[index], rows[index + 1]
                if (off["shadowing_enabled"], on["shadowing_enabled"]) != ("false", "true"):
                    problems[index + 1].append("rows are not (off, on) pairs")
                    continue
                off_c, on_c = float(off["capacity_bps"]), float(on["capacity_bps"])
                problems[index + 1] += oracle.check_columns([(
                    "capacity_loss_pct",
                    float(on["capacity_loss_pct"]),
                    100.0 * (off_c - on_c) / off_c,
                )])
        return Checked(problems, widths)

    return check


def _key_values(stdout: str) -> dict:
    pairs = (line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    return {key.strip(): value.strip() for key, value in pairs}


def check_version(output: Output) -> Checked:
    ok = re.fullmatch(r"\d+(\.\d+)+", output.stdout.strip())
    return Checked([[] if ok else [f"unexpected version {output.stdout!r}"]])


def check_derive(fmt: str):
    def check(output: Output) -> Checked:
        report = json.loads(output.stdout) if fmt == "json" else _key_values(output.stdout)
        problems = []
        for key, want in (
            ("tone_count", POINT.tone_count),
            ("alphabet_size", POINT.alphabet_size("WTFC")),
            ("slots_per_cycle", round(1 / POINT.duty_cycle)),
        ):
            if int(report[key]) != want:
                problems.append(f"{key} {report[key]} != {want}")
        problems += oracle.check_columns([
            ("ceiling_bps", float(report["ceiling_bps"]), POINT.ceiling_bps("WTFC")),
            ("amplitude", float(report["amplitude"]), POINT.amplitude),
            ("p_r", float(report["p_r"]), POINT.p_r),
            ("p_t", float(report["p_t"]), POINT.p_r),
        ])
        return Checked([problems])

    return check


def check_capacity(p_e: float, variant: str):
    def check(output: Output) -> Checked:
        report = _key_values(output.stdout)
        problems = oracle.check_columns([
            ("capacity_bps", float(report["capacity_bps"]), POINT.capacity_bps(p_e, variant)),
            ("ceiling_bps", float(report["ceiling_bps"]), POINT.ceiling_bps(variant)),
            ("awgn_bps", float(report["awgn_bps"]), POINT.awgn_bps),
        ])
        if int(report["alphabet_size"]) != POINT.alphabet_size(variant):
            problems.append(f"alphabet_size {report['alphabet_size']}")
        return Checked([problems])

    return check


def check_pe(sigma_db: float):
    def check(output: Output) -> Checked:
        (row,) = _csv_rows(output.data)
        problems = oracle.check_estimate(
            float(row["p_e"]),
            float(row["ci_half_width_95"]),
            int(row["iterations"]),
            POINT.expected_pe("WTFC", sigma_db),
        ) + _iteration_problems(row, QUERY_ITERATIONS)
        return Checked([problems], _rel_half_width(row["p_e"], row["ci_half_width_95"]))

    return check


def check_whole_sweep(expected_rows: int, iterations: int):
    """Check of a sweep counted as one operation, as in the cli-queries workload."""

    def check(output: Output) -> Checked:
        checked = check_sweep(expected_rows, iterations)(output)
        problems = [problem for row in checked.problems for problem in row]
        return Checked([problems], checked.rel_half_widths)

    return check


# ------------------------------------------------------------- workloads


def workload_calls(workload: str, seed: int, outdir: Path) -> list[Call]:
    """The CLI calls of one pass of ``workload`` at CLI seed ``seed``."""
    outdir.mkdir(parents=True, exist_ok=True)
    config = str(WORK / "point.cfg")
    common = ["--config", config, "--seed", str(seed)]
    if workload == "mc-sweep":
        out = outdir / "mc-sweep.csv"
        return [Call(
            ["sweep", *common, "--axis", "duty_cycle", "--grid", DUTY_GRID,
             "--variants", "wtfc,ifsk", "--threads", "1",
             "--iters", str(SWEEP_ITERATIONS), "--out", str(out)],
            check_sweep(8, SWEEP_ITERATIONS), ops=8, out=out,
        )]
    if workload == "shadow-pair":
        out = outdir / "shadow-pair.csv"
        return [Call(
            ["compare-shadowing", *common, "--axis", "duty_cycle", "--grid", DUTY_GRID,
             "--sigma-db", repr(SIGMA_DB), "--threads", str(POOL_THREADS),
             "--iters", str(SWEEP_ITERATIONS), "--out", str(out)],
            check_sweep(8, SWEEP_ITERATIONS, SIGMA_DB), ops=8, out=out,
        )]
    if workload == "cli-queries":
        rng = random.Random(seed)
        p_wtfc, p_ifsk = rng.uniform(0.001, 0.3), rng.uniform(0.001, 0.3)
        iters = ["--iters", str(QUERY_ITERATIONS)]
        pe_plain, pe_shadow, bandwidth = (
            outdir / "pe-plain.csv", outdir / "pe-shadow.csv", outdir / "bandwidth.csv"
        )
        return [
            Call(["--version"], check_version),
            Call(["derive", "--config", config], check_derive("csv")),
            Call(["derive", "--config", config, "--format", "json"], check_derive("json")),
            Call(["capacity", "--config", config, "--pe", repr(p_wtfc)],
                 check_capacity(p_wtfc, "WTFC")),
            Call(["capacity", "--config", config, "--pe", repr(p_ifsk), "--variant", "ifsk"],
                 check_capacity(p_ifsk, "IFSK")),
            Call(["pe", *common, *iters, "--out", str(pe_plain)], check_pe(0.0), out=pe_plain),
            Call(["pe", *common, *iters, "--set", f"shadowing_std_db={SIGMA_DB!r}",
                  "--out", str(pe_shadow)],
                 check_pe(SIGMA_DB), env={"WTFC_SHADOWING_ENABLED": "true"}, out=pe_shadow),
            Call(["sweep", *common, *iters, "--axis", "bandwidth", "--grid", BANDWIDTH_GRID,
                  "--allow-skips", "--out", str(bandwidth)],
                 check_whole_sweep(len(BANDWIDTH_GRID.split(",")), QUERY_ITERATIONS),
                 out=bandwidth),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------- runners


def _child_env(extra: dict) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("WTFC_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def spawn(argv: list[str], env: dict) -> Output:
    """Run one child to completion; wall time and peak RSS come from ``os.wait4``."""
    stdout_path = WORK / f"child-{os.getpid()}.stdout"
    stderr_path = WORK / f"child-{os.getpid()}.stderr"
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = Output(
        code=proc.returncode,
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
        wall=wall,
        maxrss_kb=usage.ru_maxrss,
    )
    stdout_path.unlink()
    stderr_path.unlink()
    return output


def run_subprocess(call: Call) -> Output:
    return spawn([sys.executable, "-m", "wtfc.cli", *call.args], _child_env(call.env))


def run_inprocess(call: Call) -> Output:
    """Run ``wtfc.cli.main`` on the same arguments in this process."""
    import wtfc.cli

    saved = {key: os.environ.pop(key) for key in list(os.environ) if key.startswith("WTFC_")}
    os.environ.update(call.env)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = wtfc.cli.main(call.args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # a crash fails the call, as it would in a child process
                traceback.print_exc()
                code = 1
    finally:
        wall = time.perf_counter() - start
        for key in call.env:
            os.environ.pop(key, None)
        os.environ.update(saved)
    return Output(code=code, stdout=stdout.getvalue(), stderr=stderr.getvalue(), wall=wall)


def run_pass(calls: list[Call], runner: Callable[[Call], Output]) -> Pass:
    outputs, problems, widths, sampled_wall = [], [], [], 0.0
    for call in calls:
        if call.out is not None:
            call.out.unlink(missing_ok=True)
        output = runner(call)
        if call.out is not None and call.out.exists():
            output.data = call.out.read_bytes()
        if output.code != 0:
            tail = output.stderr.strip().splitlines()[-1:] or [""]
            checked = Checked([[f"exit code {output.code}: {tail[0]}"]] * call.ops)
        else:
            try:
                checked = call.check(output)
            except (ValueError, KeyError, IndexError) as exc:
                checked = Checked([[f"unreadable output: {exc!r}"]] * call.ops)
        outputs.append(output)
        problems += checked.problems
        widths += checked.rel_half_widths
        if checked.rel_half_widths:
            sampled_wall += output.wall
    return Pass(outputs, problems, widths, sampled_wall)


def pass_seed(seed: int, index: int) -> int:
    """CLI seed of pass ``index`` in a run with workload seed ``seed``."""
    return seed * 1000 + index


def time_to_1pct(wall: float, rel_half_widths: list[float]) -> float:
    """Projected seconds for the command to reach 1 % relative 95 % half-widths.

    ``wall * (RMS(half_width / p_e) / 0.01)^2``: plain Monte Carlo needs
    iterations in proportion to the square of the precision asked for.
    Without sampled rows (every call failed) there is nothing to project: 0.
    """
    if not rel_half_widths:
        return 0.0
    mean_square = sum(w * w for w in rel_half_widths) / len(rel_half_widths)
    return wall * mean_square / TARGET_REL_HALF_WIDTH**2


# ---------------------------------------------------------- end to end


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    # Untimed warm-up: lets the interpreter write its bytecode cache.
    spawn([sys.executable, "-m", "wtfc.cli", "--version"], _child_env({}))

    def set_up_until(count: float) -> None:
        while len(setup) < count:
            setup.append(run_pass([Call(["--version"], check_version)], run_subprocess))

    setup: list[Pass] = []
    passes: list[Pass] = []
    elapsed = 0.0
    while True:
        # Set-up calls are spread evenly over the run, so that they sample
        # the same machine state as the passes.
        set_up_until(1 + (SETUP_PROCESSES - 1) * elapsed / seconds)
        start = time.perf_counter()
        passes.append(run_pass(workload_calls(workload, pass_seed(seed, len(passes)), WORK / "out"),
                               run_subprocess))
        elapsed += time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            break
    set_up_until(SETUP_PROCESSES)

    widths = [w for p in passes for w in p.rel_half_widths]
    calls = [output for p in passes for output in p.outputs]
    metrics = {
        "setup_s": (statistics.median(p.wall for p in setup), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "time_to_1pct_s": (
            time_to_1pct(statistics.median(p.sampled_wall for p in passes), widths), "s"),
        "query_p50_s": (statistics.median(output.wall for output in calls), "s"),
        "peak_rss_mb": (
            statistics.median(max(o.maxrss_kb for o in p.outputs) for p in passes) / 1024.0, "MB"),
    }
    problems = [problem for p in setup + passes for problem in p.problems]
    print(f"passes {len(passes)}, calls {len(calls)}, measured {elapsed:.1f} s")
    for index, p in enumerate(passes):
        print(f"pass {index}: wall {p.wall:.4f} s, sampled {p.sampled_wall:.4f} s, "
              f"peak rss {max(o.maxrss_kb for o in p.outputs) / 1024.0:.2f} MB")
    return metrics, problems


# ------------------------------------------------------------- traced


def _estimate_attrs(original):
    signature = inspect.signature(original)

    def describe(args, kwargs, result):
        return {"iterations": signature.bind(*args, **kwargs).arguments["iterations"]}

    return describe


def _sweep_attrs(args, kwargs, result):
    return {
        "rows": len(result.rows),
        "skipped": sum(row.skipped_reason is not None for row in result.rows),
    }


def install_layer_wrappers(tracer: spanlib.Tracer) -> None:
    """Wrap each layer's entry points in the module that makes the call."""
    from wtfc import cli, detector, sweep

    describe_estimate = _estimate_attrs(detector.estimate_pe)
    for module in (cli, sweep):
        tracer.wrap(module, "derive_scheme", "scheme.derive")
        tracer.wrap(module, "estimate_pe", "detector.estimate", describe_estimate)
        tracer.wrap(module, "dmc_capacity", "capacity.dmc")
        tracer.wrap(module, "awgn_capacity", "capacity.awgn")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "merge_sources", "config.merge")
    tracer.wrap(cli, "build_run_config", "config.build")
    tracer.wrap(cli, "write_sweep_csv", "cli.write",
                lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])})
    tracer.wrap(cli, "run_sweep", "sweep.run", _sweep_attrs)
    tracer.wrap(cli, "compare_shadowing", "sweep.compare", _sweep_attrs)
    tracer.wrap(sweep, "run_sweep", "sweep.run")
    install_detector_wrappers(tracer)


def install_detector_wrappers(tracer: spanlib.Tracer) -> None:
    """Wrap the chunk and the helpers ``wtfc.detector`` looks up as module globals.

    ``_chunk_error_count`` is the unit of work handed to the thread pool;
    its spans carry the per-thread busy time of the estimator.
    """
    from wtfc import detector

    tracer.wrap(detector, "_chunk_error_count", "detector.chunk")
    tracer.wrap(detector, "draw_m_batch", "channel.draw")
    tracer.wrap(detector, "signal_power_from_uniform", "detector.signal")
    tracer.wrap(detector, "max_noise_from_uniform", "detector.noise")


def layer_totals(spans: list[spanlib.Span]) -> Counter:
    """Summed durations, self times, counts and attributes per span name."""
    spanlib.attribute_parents(spans)
    totals: Counter = Counter()
    for span, self_time in zip(spans, spanlib.self_times(spans)):
        totals[f"{span.name}.time"] += span.duration
        totals[f"{span.name}.self"] += self_time
        totals[f"{span.name}.calls"] += 1
        for key, value in span.attrs.items():
            totals[f"{span.name}.{key}"] += value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(t: Counter, passes: int) -> dict:
    iterations = t["detector.estimate.iterations"]
    sweep_self = t["sweep.run.self"] + t["sweep.compare.self"]
    return {
        "config.build_ms": (
            1e3 * _ratio(t["config.merge.time"] + t["config.build.time"], t["config.build.calls"]),
            "ms"),
        "cli.write_ms": (1e3 * _ratio(t["cli.write.time"], t["cli.write.calls"]), "ms"),
        "cli.write_bytes": (t["cli.write.bytes"] / passes, "bytes"),
        "scheme.derive_us": (1e6 * _ratio(t["scheme.derive.time"], t["scheme.derive.calls"]), "us"),
        "capacity.dmc_us": (1e6 * _ratio(t["capacity.dmc.time"], t["capacity.dmc.calls"]), "us"),
        "capacity.awgn_us": (1e6 * _ratio(t["capacity.awgn.time"], t["capacity.awgn.calls"]), "us"),
        "channel.draw_ns_per_iter": (1e9 * _ratio(t["channel.draw.time"], iterations), "ns"),
        "channel.share": (_ratio(t["channel.draw.time"], t["detector.chunk.time"]), "ratio"),
        "detector.signal_ns_per_iter": (1e9 * _ratio(t["detector.signal.time"], iterations), "ns"),
        "detector.noise_ns_per_iter": (1e9 * _ratio(t["detector.noise.time"], iterations), "ns"),
        "detector.chunk_self_ns_per_iter": (
            1e9 * _ratio(t["detector.chunk.self"], iterations), "ns"),
        "detector.estimate_ns_per_iter": (
            1e9 * _ratio(t["detector.estimate.time"], iterations), "ns"),
        "detector.iterations": (iterations / passes, "count"),
        "detector.chunks": (t["detector.chunk.calls"] / passes, "count"),
        "sweep.self_ms": (1e3 * sweep_self / passes, "ms"),
        "sweep.rows": ((t["sweep.run.rows"] + t["sweep.compare.rows"]) / passes, "count"),
        "sweep.skipped": ((t["sweep.run.skipped"] + t["sweep.compare.skipped"]) / passes, "count"),
    }


def import_metrics() -> tuple[dict, list]:
    costs, problems = [], []
    for _ in range(IMPORT_PROCESSES):
        output = spawn([sys.executable, "-X", "importtime", "-c", "import wtfc"], _child_env({}))
        if output.code != 0:
            problems.append([f"import wtfc failed: {output.stderr.strip()[-200:]}"])
            continue
        problems.append([])
        costs.append(spanlib.import_costs(spanlib.parse_importtime(output.stderr), "wtfc"))
    median = lambda key: statistics.median(c[key] for c in costs) if costs else 0.0  # noqa: E731
    return {
        "import.total_s": (median("total"), "s"),
        "import.scipy_s": (median("scipy"), "s"),
        "import.numpy_s": (median("numpy"), "s"),
        "import.wtfc_self_s": (median("self"), "s"),
    }, problems


def probe_metrics(seed: int) -> tuple[dict, list, list]:
    """Layer probes at fixed inputs: shadowing draw, thread pool, closed form.

    The pool and channel probes run the first shadow-pair row (duty cycle
    1e-2, WTFC, 8 dB) at the sweep's iteration count.
    """
    from wtfc import detector
    from wtfc.config import build_run_config, merge_sources, read_config_file
    from wtfc.scheme import derive_scheme

    values = merge_sources(read_config_file(str(WORK / "point.cfg")),
                           {"shadowing_std_db": SIGMA_DB})
    configs = {
        shadowed: build_run_config({**values, "shadowing_enabled": shadowed})
        for shadowed in (False, True)
    }
    params = derive_scheme(configs[True].inputs)

    def estimate(shadowed: bool, threads: int):
        config = configs[shadowed]
        return detector.estimate_pe(params, config.model, config.resolved_p_t(), config.n_0,
                                    SWEEP_ITERATIONS, seed, threads=threads)

    metrics, problems, probe_spans = {}, [], []
    for shadowed, suffix in ((False, "off"), (True, "on")):
        tracer = spanlib.Tracer()
        tracer.wrap(detector, "estimate_pe", "detector.estimate")
        install_detector_wrappers(tracer)
        try:
            estimate(shadowed, 1)
        finally:
            tracer.uninstall()
        totals = layer_totals(tracer.spans)
        probe_spans += tracer.spans
        metrics[f"channel.draw_ns_per_iter_{suffix}"] = (
            1e9 * totals["channel.draw.time"] / SWEEP_ITERATIONS, "ns")
        metrics[f"channel.share_{suffix}"] = (
            totals["channel.draw.time"] / totals["detector.chunk.time"], "ratio")

    times: dict[int, list[float]] = {1: [], POOL_THREADS: []}
    results = set()
    for repeat in range(POOL_REPEATS):
        order = (1, POOL_THREADS) if repeat % 2 == 0 else (POOL_THREADS, 1)
        for threads in order:
            start = time.perf_counter()
            result = estimate(True, threads)
            times[threads].append(time.perf_counter() - start)
            results.add((result.p_e, result.half_width_95))
    problems.append([] if len(results) == 1 else
                    [f"estimates differ across thread counts: {sorted(results)}"])
    metrics["detector.pool_speedup"] = (
        statistics.median(times[1]) / statistics.median(times[POOL_THREADS]), "x")

    call_times, rel_errors = [], []
    for duty in (float(d) for d in DUTY_GRID.split(",")):
        point = dataclasses.replace(POINT, duty_cycle=duty)
        for variant in ("WTFC", "IFSK"):
            mu, n_noise = point.energy + 1.0, point.alphabet_size(variant) - 1
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                value = detector.analytic_pe_no_shadowing(mu, n_noise)
                samples.append(time.perf_counter() - start)
            call_times.append(statistics.median(samples))
            exact = oracle.p_error(mu, n_noise)
            rel_errors.append(abs(value - exact) / exact)
    metrics["detector.closed_form_us"] = (1e6 * statistics.median(call_times), "us")
    metrics["detector.closed_form_max_rel_err"] = (max(rel_errors), "ratio")
    return metrics, problems, probe_spans


def _same_outputs(got: Pass, want: Pass) -> list[str]:
    return [
        f"call {index}: output differs from the untraced child process"
        for index, (a, b) in enumerate(zip(got.outputs, want.outputs))
        if (a.stdout, a.data) != (b.stdout, b.data)
    ]


def measure_layers(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    metrics, problems = import_metrics()
    sys.path.insert(0, str(SRC))

    cli_seed = pass_seed(seed, 0)
    reference = run_pass(workload_calls(workload, cli_seed, WORK / "plain"), run_subprocess)
    problems += reference.problems

    traced_walls, plain_walls, all_spans = [], [], []
    totals: Counter = Counter()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced_walls:
        # Alternate which mode goes first so warm-up favours neither.
        for traced in (True, False) if len(traced_walls) % 2 == 0 else (False, True):
            tracer = spanlib.Tracer()
            if traced:
                install_layer_wrappers(tracer)
            outdir = WORK / ("traced" if traced else "inprocess")
            try:
                result = run_pass(workload_calls(workload, cli_seed, outdir), run_inprocess)
            finally:
                tracer.uninstall()
            problems += result.problems
            problems.append(_same_outputs(result, reference))
            if traced:
                traced_walls.append(result.wall)
                totals.update(layer_totals(tracer.spans))
                all_spans.append(tracer.spans)
            else:
                plain_walls.append(result.wall)

    metrics.update(layer_metrics(totals, len(traced_walls)))
    traced, plain = statistics.median(traced_walls), statistics.median(plain_walls)
    metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")

    probes, probe_problems, probe_spans = probe_metrics(cli_seed)
    metrics.update(probes)
    problems += probe_problems
    all_spans.append(probe_spans)
    write_spans(WORK / f"spans-{workload}-seed{seed}.json", all_spans)
    print(f"traced passes {len(traced_walls)}, untraced in-process passes {len(plain_walls)}")
    return metrics, problems


def write_spans(path: Path, groups: list[list[spanlib.Span]]) -> None:
    payload = [[dataclasses.asdict(span) for span in group] for group in groups]
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


# -------------------------------------------------------------- output


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
        if result.returncode == 0:
            commit = result.stdout.strip()
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "loadavg_start": _loadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that a running child is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "wtfc" / "cli.py").is_file():
        print(f"error: no wtfc sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    (WORK / "point.cfg").write_text(POINT_CONFIG, encoding="utf-8")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    measure = measure_layers if args.trace else measure_end_to_end
    metrics, problems = measure(args.workload, args.seed, args.seconds)
    env["loadavg_end"] = _loadavg()

    failures = [p for p in problems if p]
    for problem in failures[:20]:
        print("FAILED: " + "; ".join(problem), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'failed_share':34s} {len(failures) / len(problems):14.6g} ratio")
    result = {
        "correct": not failures,
        "attempted": len(problems),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "problems": failures[:100]}
    record_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
