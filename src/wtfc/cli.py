"""Command-line front end.

Subcommands: derive | pe | capacity | sweep | compare-shadowing. Settings
come from defaults, then --config file, then WTFC_* environment variables,
then repeated --set key=value, then dedicated flags; later sources win.
Output files start with a ``# config:`` comment holding the fully resolved
configuration, from which the run can be reproduced byte for byte. A
sweep file's columns, and the keys that add the optional ones, come from
``wtfc.sweep.COLUMNS``; this module names none.

Exit codes: 0 success, 1 I/O or internal failure, 2 invalid configuration,
3 sweep produced skipped rows without --allow-skips.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from . import __version__
# Unused here since ``wtfc.sweep`` estimates and computes capacities, but
# ``bench/run.py --trace 1`` wraps these names in this module.
from .capacity import awgn_capacity, dmc_capacity  # noqa: F401
from .sweep import estimate_pe  # noqa: F401
from .config import (
    ConfigError,
    build_run_config,
    config_items,
    env_overrides,
    merge_sources,
    parse_value,
    read_config_file,
)
from .errorlaw import PeEstimate
from .scheme import amplitude, derive_scheme
from .sweep import (COLUMNS, SweepResult, SweepSpec, cell_row, compare_shadowing,
                    estimate_cells, run_sweep)

CSV_COLUMNS = [name for name, key in COLUMNS.items() if key is None]

# Config keys a sweep writes to its header besides the RunConfig keys: its
# own, then the key of each optional column but compare-shadowing's sigma_db.
_SWEEP_KEYS = ("axis", "grid", "variants", "include_awgn", "awgn_power", "allow_skips",
               *dict.fromkeys(key for key in COLUMNS.values() if key not in (None, "sigma_db")))

# Dedicated flags (argparse dest) and the config keys they set.
_FLAG_KEYS = {
    "seed": "seed",
    "iters": "iterations",
    "variant": "variant",
    "pe": "p_e",
    "axis": "axis",
    "grid": "grid",
    "variants": "variants",
    "allow_skips": "allow_skips",
    "sigma_db": "sigma_db",
}

_CAPACITY_REPORT = ("variant", "capacity_bps", "ceiling_bps", "alphabet_size",
                    "awgn_bps", "p_e", "iterations", "seed")
_PE_FILE_COLUMNS = ("variant", "p_e", "ci_half_width_95", "iterations", "seed")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def header_line(values: dict, extra: tuple[str, ...] = ()) -> str:
    """Single ``# config:`` line with every result-determining setting."""
    items = config_items(values, extra)
    return "# config: " + " ".join(f"{key}={value}" for key, value in items)


def _sweep_table(result: SweepResult, values: dict, keys: tuple[str, ...]):
    """Column names and one {column: value} dict per row, CSV and JSON alike.

    An optional column is written when its key is a header key and set.
    ``merge_sources`` keeps no None, and False is tested by identity, as a
    sigma_db of 0.0 equals False yet adds its column.
    """
    columns = [name for name, key in COLUMNS.items()
               if key is None or key in keys and values.get(key, False) is not False]
    return columns, [{name: getattr(row, name) for name in columns} for row in result.rows]


def _write_csv(path: str, header: str, columns, rows) -> None:
    """Header line, column line, then one line of formatted cells per row."""
    lines = [header, ",".join(columns)]
    lines += [",".join(_format_cell(value) for value in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_sweep_csv(path: str, result: SweepResult, values: dict, keys: tuple) -> None:
    """The sweep's CSV file: its header holds ``values`` and the ``keys``."""
    columns, rows = _sweep_table(result, values, keys)
    _write_csv(path, header_line(values, keys), columns, (row.values() for row in rows))


def _collect_values(args) -> dict:
    sources = [{}]
    if args.config:
        sources.append(read_config_file(args.config))
    sources.append(env_overrides())
    overrides: dict = {}
    for assignment in args.set or []:
        if "=" not in assignment:
            raise ConfigError(assignment, "expected key=value after --set")
        key, _, text = assignment.partition("=")
        key = key.strip()
        overrides[key] = parse_value(key, text, "--set")
    sources.append(overrides)
    flags: dict = {}
    for dest, key in _FLAG_KEYS.items():
        text = getattr(args, dest, None)
        if text is not None:
            flags[key] = parse_value(key, text, "--" + dest.replace("_", "-"))
    sources.append(flags)
    return merge_sources(*sources)


def _emit_report(args, report: dict, header: str | None) -> None:
    """Print the report; with --out and a header, also write it to the file."""
    if args.format == "json":
        import json

        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(f"{key} = {_format_cell(value)}\n" for key, value in report.items())
    sys.stdout.write(text)
    if args.out and header is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text if args.format == "json" else header + "\n" + text)


def cmd_derive(args) -> int:
    values = _collect_values(args)
    config = build_run_config(values)
    params = derive_scheme(config.inputs)
    config.require_power()
    p_t = config.resolved_p_t()
    try:
        tone = amplitude(p_t, params)
    except ValueError as exc:
        # p_t is positive here: only an amplitude past the float range fails.
        raise ConfigError("p_r" if config.p_r is not None else "p_t",
                          "the tone amplitude it gives lies outside the float range") from exc
    report = {
        "q": params.q,
        "delta_f_hz": params.delta_f_hz,
        "tone_count": params.tone_count,
        "slots_per_cycle": params.slots_per_cycle,
        "alphabet_size": params.alphabet_size,
        "bits_per_symbol": params.bits_per_symbol,
        "amplitude": tone,
        "ceiling_bps": params.ceiling_bps(),
        "p_t": p_t,
        "p_r": config.resolved_p_r(),
    }
    _emit_report(args, report, header_line(values))
    return 0


def cmd_estimate(args) -> int:
    """pe and capacity: derive the variant's scheme, estimate p_e unless capacity has one."""
    values = _collect_values(args)
    config = build_run_config(values)
    config.require_power()
    params = derive_scheme(config.inputs, values["variant"])
    if args.command == "capacity" and "p_e" in values:
        estimate = PeEstimate(values["p_e"], None, None, None)
    else:
        estimate, = estimate_cells(config, [(config, params)], (config.model,), args.threads)
    if args.command == "pe":
        header = header_line(values, ("variant",))
        report = {"variant": params.variant, "p_e": estimate.p_e,
                  "ci_half_width_95": estimate.half_width_95,
                  "iterations": estimate.iterations, "seed": estimate.seed,
                  "alphabet_size": params.alphabet_size}
        # A CSV --out file is a one-row table; a JSON one holds what is printed.
        csv_file = args.out and args.format == "csv"
        _emit_report(args, report, None if csv_file else header)
        if csv_file:
            _write_csv(args.out, header, _PE_FILE_COLUMNS,
                       [[report[key] for key in _PE_FILE_COLUMNS]])
        return 0
    fields = {**vars(cell_row(config, params, estimate)), "alphabet_size": params.alphabet_size}
    _emit_report(args, {key: fields[key] for key in _CAPACITY_REPORT},
                 header_line(values, ("p_e", "variant")))
    return 0


def _run_sweep_command(args, paired: bool) -> int:
    values = _collect_values(args)
    for key in ("axis", "grid"):
        if key not in values:
            raise ConfigError(key, "required for sweeps")
    if not args.out:
        raise ConfigError("out", "sweeps write a results file; pass --out PATH")
    if paired and "sigma_db" not in values:
        raise ConfigError("sigma_db", "required for compare-shadowing")

    config = build_run_config(values)
    spec = SweepSpec(
        base=config,
        axis=values["axis"],
        grid=values["grid"],
        variants=values["variants"],
        include_awgn=values["include_awgn"],
        awgn_power=values["awgn_power"],
    )
    if paired:
        result = compare_shadowing(spec, values["sigma_db"], threads=args.threads)
    else:
        result = run_sweep(spec, threads=args.threads)

    extra = _SWEEP_KEYS + (("sigma_db",) if paired else ())
    if args.format == "json":
        import json

        _, rows = _sweep_table(result, values, extra)
        payload = {"config": dict(config_items(values, extra)), "rows": rows}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    else:
        write_sweep_csv(args.out, result, values, extra)

    for variant in spec.variants:
        rows = [r for r in result.rows if r.variant == variant]
        done = [r for r in rows if r.skipped_reason is None]
        capacities = [r.capacity_bps for r in done]
        span = (
            f"capacity {min(capacities):.6g}..{max(capacities):.6g} bps"
            if capacities
            else "no completed rows"
        )
        print(
            f"{variant}: {len(done)}/{len(rows)} rows, "
            f"{len(rows) - len(done)} skipped, {span}"
        )

    skipped = sum(1 for r in result.rows if r.skipped_reason is not None)
    if skipped and not values["allow_skips"]:
        print(
            f"error: {skipped} grid point row(s) skipped; pass --allow-skips "
            "to accept a partial grid",
            file=sys.stderr,
        )
        return 3
    return 0


def _add_command(commands, name: str, help_text: str, handler):
    parser = commands.add_parser(name, help=help_text)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    parser.add_argument("--seed", help="rng seed")
    parser.add_argument("--iters", help="Monte Carlo iterations")
    parser.add_argument("--out", help="output file path")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads; changes speed, never results",
    )
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtfc",
        description="Wideband time-frequency coding link-level simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    _add_command(commands, "derive", "derive and print scheme parameters", cmd_derive)

    for name, help_text in (
        ("pe", "estimate the symbol error probability"),
        ("capacity", "estimate capacity in bits/s"),
    ):
        sub = _add_command(commands, name, help_text, cmd_estimate)
        sub.add_argument("--variant", help="wtfc or ifsk")
        if name == "capacity":
            sub.add_argument(
                "--pe",
                help="skip simulation and convert this error probability directly",
            )

    for name, help_text, paired in (
        ("sweep", "run a parameter sweep to CSV/JSON", False),
        ("compare-shadowing", "run a sweep with shadowing off and on, same seeds", True),
    ):
        handler = functools.partial(_run_sweep_command, paired=paired)
        sub = _add_command(commands, name, help_text, handler)
        sub.add_argument("--axis", help="swept variable")
        sub.add_argument("--grid", help="comma-separated axis values; a list that starts "
                         "with a minus sign needs '=', as in --grid=-40,-30")
        sub.add_argument("--variants", help="comma-separated: wtfc,ifsk")
        sub.add_argument("--allow-skips", action="store_const", const="true")
        if paired:
            sub.add_argument("--sigma-db", help="shadowing std dev in dB")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("threads", "must be at least 1")
        return args.handler(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """``main()`` for a process that exits when it returns.

    Freezes every object alive by then, so the collections at interpreter
    shutdown skip the import-time heap (numpy's included) instead of
    scanning it; atexit handlers and the final flushes still run.
    ``main()`` itself freezes nothing, for callers that go on running.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
