import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

import helpers
from helpers import header_to_config_text
from wtfc import (
    LargeScaleModel,
    PhysicalInputs,
    analytic_pe_no_shadowing,
    cli,
    derive_scheme,
    signal_energy,
)
from wtfc.cli import CSV_COLUMNS, build_parser, main
from wtfc.config import ConfigError

BASE_SETS = [
    "--set", "bandwidth_hz=100e6",
    "--set", "symbol_time_s=101e-6",
    "--set", "delay_spread_s=20e-6",
    "--set", "doppler_spread_hz=25e3",
    "--set", "duty_cycle=1/100",
    "--set", "p_r=10e3",
]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_prints_q3_branch(capsys):
    code, out, _ = run_cli(["derive", *BASE_SETS], capsys)
    assert code == 0
    assert "q = 3" in out
    assert "tone_count = 2700" in out
    assert "alphabet_size = 270000" in out
    assert "bits_per_symbol" in out and "ceiling_bps" in out


def test_derive_json_format(capsys):
    code, out, _ = run_cli(["derive", *BASE_SETS, "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["q"] == 3
    assert report["alphabet_size"] == 270000


def test_derive_amplitude_trivial_case(capsys):
    code, out, _ = run_cli(
        [
            "derive",
            "--set", "bandwidth_hz=4",
            "--set", "symbol_time_s=1",
            "--set", "duty_cycle=1",
            "--set", "p_t=9",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["amplitude"] == pytest.approx(3.0)


def test_malformed_duty_cycle_exits_2_naming_field(capsys):
    code, _, err = run_cli(
        [
            "derive",
            "--set", "bandwidth_hz=1e6",
            "--set", "symbol_time_s=1e-4",
            "--set", "duty_cycle=0.4",
            "--set", "p_r=1",
        ],
        capsys,
    )
    assert code == 2
    assert "duty_cycle" in err


def test_error_names_the_field_the_message_starts_with(capsys):
    # The message also mentions symbol_time_s, which precedes
    # delay_spread_s in the key table; the field named first must win.
    sets = [item.replace("20e-6", "200e-6") for item in BASE_SETS]
    code, _, err = run_cli(["derive", *sets], capsys)
    assert code == 2
    assert err.startswith("error: delay_spread_s: delay_spread_s must be")


INVALID_FIELDS = [
    ("bandwidth_hz", "0"),
    ("symbol_time_s", "0"),
    ("delay_spread_s", "200e-6"),
    ("doppler_spread_hz", "-1"),
    ("duty_cycle", "0.4"),
    ("q_override", "0"),
    ("guard_time_s", "1e-6"),
    ("distance_m", "0.5"),
    ("reference_distance_m", "0"),
    ("wavelength_m", "0"),
    ("path_loss_exponent", "0"),
    ("shadowing_std_db", "-1"),
    ("shadow_block_len", "0"),
    ("shadow_block_len", "3"),
    ("p_r", "-1"),
    ("p_t", "-1"),
    ("n_0", "0"),
    ("iterations", "0"),
    ("seed", "-1"),
]


@pytest.mark.parametrize("key, text", INVALID_FIELDS)
def test_invalid_field_is_reported_under_its_key(key, text, capsys):
    argv = ["derive", *BASE_SETS, "--set", f"{key}={text}"]
    args = build_parser().parse_args(argv)
    with pytest.raises(ConfigError) as info:
        args.handler(args)
    assert info.value.field == key
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {key}: ")


NON_FINITE = [
    ("pe", "p_r", "nan"),
    ("capacity", "p_r", "inf"),
    ("derive", "n_0", "nan"),
    ("derive", "bandwidth_hz", "nan"),
    ("derive", "p_t", "1e308/1e-10"),
]


@pytest.mark.parametrize("source", ["set", "env", "config"])
@pytest.mark.parametrize("command, key, text", NON_FINITE)
def test_non_finite_value_exits_2_naming_its_key(
    command, key, text, source, capsys, tmp_path, monkeypatch
):
    # Every source is parsed before the sources are merged, so the bad value
    # fails even where a later source sets the key again.
    argv = [command, *BASE_SETS]
    if source == "set":
        argv += ["--set", f"{key}={text}"]
    elif source == "env":
        monkeypatch.setenv(f"WTFC_{key.upper()}", text)
    else:
        (tmp_path / "bad.cfg").write_text(f"{key}={text}\n")
        argv += ["--config", str(tmp_path / "bad.cfg")]
    args = build_parser().parse_args(argv)
    with pytest.raises(ConfigError) as info:
        args.handler(args)
    assert info.value.field == key
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert f"{key}: invalid value {text!r} (must be finite)" in err


@pytest.mark.parametrize("command", ["pe", "capacity", "derive"])
def test_signal_energy_past_the_float_range_exits_2_naming_n_0(command, capsys):
    # p_r T_s / (theta n_0) = 1.01 / 1e-322 overflows: pe read p_e = 0 +- 0
    # and capacity awgn_bps = inf, both with exit 0.
    code, out, err = run_cli([command, *BASE_SETS, "--set", "n_0=1e-320", "--iters", "1000"],
                             capsys)
    assert code == 2 and out == ""
    assert err == "error: n_0: the signal energy it gives lies outside the float range\n"


@pytest.mark.parametrize("command", ["pe", "capacity", "derive"])
def test_awgn_snr_past_the_float_range_exits_2_naming_n_0(command, capsys):
    # Path-loss gain ~6e297: p_t = 1 gives a finite energy but
    # p_r / (n_0 B) ~6e289 / 1e-100 overflows; capacity read awgn_bps = inf
    # with exit 0.
    code, out, err = run_cli([command, *BASE_SETS[:-2], "--set", "p_t=1",
                              "--set", "shadowing_enabled=true", "--set", "wavelength_m=1e150",
                              "--set", "n_0=1e-100", "--iters", "1000"], capsys)
    assert code == 2 and out == ""
    assert err == "error: n_0: the AWGN SNR it gives lies outside the float range\n"


@pytest.mark.parametrize("command", [["pe"], ["capacity"], ["capacity", "--pe", "0.5"]],
                         ids=["pe", "capacity", "capacity-pe"])
def test_awgn_snr_that_rounds_to_0_exits_2_naming_n_0(command, capsys):
    # p_r / (n_0 B) = 1e-338 rounds to 0: capacity --pe read
    # "error: math domain error", naming no field, and pe exited 0.
    code, out, err = run_cli([*command, *BASE_SETS[:-2], "--set", "p_r=1e-320",
                              "--set", "n_0=1e10", "--iters", "1000"], capsys)
    assert code == 2 and out == ""
    assert err == "error: n_0: the AWGN SNR it gives lies outside the float range\n"


def test_snr_db_n0_past_the_float_range_reads_finite(capsys, tmp_path):
    # p_r / n_0 = 1e309 is inf, where the column read inf; p_r / (n_0 B)
    # = 1e301 stays a float, so the row is sampled.
    out = tmp_path / "snr.csv"
    sets = [item.replace("p_r=10e3", "p_r=1e300") for item in BASE_SETS]
    code, _, _ = run_cli(["sweep", *sets, "--set", "n_0=1e-9", "--iters", "1000",
                          "--axis", "duty_cycle", "--grid", "1e-2",
                          "--set", "snr_columns=true", "--out", str(out)], capsys)
    assert code == 0
    (row,) = csv.DictReader(out.read_text().splitlines()[1:])
    assert float(row["snr_db_n0"]) == pytest.approx(3090.0)
    assert all(cell.lower() not in ("inf", "-inf", "nan") for cell in row.values())


@pytest.mark.parametrize("flag, key, value", [
    ("--sigma-db", "sigma_db", "nan"),
    ("--grid", "grid", "1e-3,nan"),
    ("--grid", "grid", "1e-3,-inf"),
])
def test_non_finite_sweep_flag_exits_2_naming_its_key(flag, key, value, capsys, tmp_path):
    argv = list(COMPARE_ARGS)
    argv[argv.index(flag) + 1] = value
    argv += ["--out", str(tmp_path / "cmp.csv")]
    args = build_parser().parse_args(argv)
    with pytest.raises(ConfigError) as info:
        args.handler(args)
    assert info.value.field == key
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {flag}: {key}: invalid value")
    assert not (tmp_path / "cmp.csv").exists()


@pytest.mark.parametrize("grid", ["10,4000", "10,3050"])
def test_snr_db_past_the_float_range_is_a_p_r_skip(grid, capsys, tmp_path):
    # 10^(4000/10) overflows a float; 10^305 N_0 B is an infinite p_r.
    assert BASE_SETS[-1] == "p_r=10e3"
    argv = ["sweep", *BASE_SETS[:-2], "--axis", "snr_db", "--grid", grid,
            "--iters", "1000", "--out", str(tmp_path / "snr.csv")]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "1 grid point row(s) skipped" in err
    code, _, _ = run_cli([*argv, "--allow-skips"], capsys)
    assert code == 0
    rows = (tmp_path / "snr.csv").read_text().splitlines()[2:]
    assert rows[0].endswith(",")
    assert rows[1].split(",")[-1] == "p_r: must be finite"


# The README point with shadowing on, at a geometry whose path-loss power
# gain 10^(-L/10) underflows to 0 (distance_m) or overflows (wavelength_m).
GAIN_PAST_FLOATS = [
    ("distance_m", ["distance_m=1e300", "p_r=1"]),
    ("distance_m", ["distance_m=1e300", "p_t=1"]),
    ("wavelength_m", ["wavelength_m=1e300", "p_r=1"]),
]
COMMAND_FLAGS = {
    "derive": [],
    "pe": ["--iters", "1000"],
    "capacity": ["--iters", "1000"],
    "sweep": ["--axis", "bandwidth", "--grid", "1e6,1e7", "--iters", "1000"],
    "compare-shadowing": ["--axis", "bandwidth", "--grid", "1e6,1e7", "--sigma-db", "8",
                          "--iters", "1000"],
}


def _geometry_argv(command, sets, tmp_path):
    argv = [command, *BASE_SETS[:-2], "--set", "shadowing_enabled=true"]
    for assignment in sets:
        argv += ["--set", assignment]
    argv += COMMAND_FLAGS[command]
    if command in ("sweep", "compare-shadowing"):
        argv += ["--out", str(tmp_path / "out.csv")]
    return argv


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
@pytest.mark.parametrize("key, sets", GAIN_PAST_FLOATS, ids=["far-p_r", "far-p_t", "wide"])
def test_gain_past_the_float_range_exits_2_naming_its_key(command, key, sets, capsys,
                                                          tmp_path):
    # Not a ZeroDivisionError or OverflowError, nor p_r = 0 passed on to
    # the capacity formula.
    code, out, err = run_cli(_geometry_argv(command, sets, tmp_path), capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}: {key} puts the path-loss power gain")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["derive", "pe", "capacity"])
@pytest.mark.parametrize("key, sets, power", [
    # Gain 1e-300: p_r = 1e10 needs p_t = 1e310.
    ("p_r", ["distance_m=1e150", "p_r=1e10"], "transmit"),
    # Gain ~6e297: p_t = 1e20 gives p_r ~6e317.
    ("p_t", ["wavelength_m=1e150", "p_t=1e20"], "receive"),
], ids=["p_t-overflows", "p_r-overflows"])
def test_resolved_power_past_the_float_range_exits_2_naming_the_given_key(
    command, key, sets, power, capsys, tmp_path
):
    # Not p_t = inf printed, and then p_e = 0 sampled from it.
    code, out, err = run_cli(_geometry_argv(command, sets, tmp_path), capsys)
    assert code == 2 and out == ""
    assert err == (f"error: {key}: the {power} power it gives at this path loss lies "
                   "outside the float range\n")


@pytest.mark.parametrize("key", ["p_r", "p_t"])
@pytest.mark.parametrize("output", ["csv", "json"])
def test_amplitude_past_the_float_range_exits_2_naming_the_power_key(key, output, capsys,
                                                                      tmp_path):
    # Not amplitude = inf printed with exit 0; no --out file is written.
    out_file = tmp_path / "derive.out"
    code, out, err = run_cli(["derive", *BASE_SETS[:-2], "--set", f"{key}=1e307",
                              "--format", output, "--out", str(out_file)], capsys)
    assert code == 2 and out == "" and not out_file.exists()
    assert err == f"error: {key}: the tone amplitude it gives lies outside the float range\n"


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_capacity_where_nearly_every_symbol_errs_reads_a_probability(seed, capsys):
    # At p_r = 1e-3 the error fraction outside the floor set plus the floor
    # set's mean score lies within noise of 1: a floor set smaller than its
    # mean lifted p_e past 1 in two of these seeds, and capacity failed.
    code, out, _ = run_cli(["capacity", *BASE_SETS[:-2], "--set", "p_r=1e-3", "--iters",
                            "20000", "--seed", str(seed), "--format", "json"], capsys)
    assert code == 0
    assert 0.99 < json.loads(out)["p_e"] <= 1.0


def test_unknown_key_exits_2(capsys):
    code, _, err = run_cli(["derive", "--set", "bandwdith=1"], capsys)
    assert code == 2
    assert "unknown configuration key" in err


def test_missing_required_key_exits_2(capsys):
    code, _, err = run_cli(["derive", "--set", "bandwidth_hz=1e6"], capsys)
    assert code == 2
    assert "symbol_time_s" in err


def test_pe_reports_seed_and_iterations(capsys, tmp_path):
    out_file = tmp_path / "pe.csv"
    code, out, _ = run_cli(
        [
            "pe", *BASE_SETS,
            "--iters", "20000",
            "--seed", "7",
            "--out", str(out_file),
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["iterations"] == 20000
    assert report["seed"] == 7
    assert 0.0 <= report["p_e"] <= 1.0
    assert out_file.read_text() == out


# The README geometry at duty 1e-5 and p_r = 1e5, where p_e is ~2e-5.
SATURATED_SETS = [*BASE_SETS, "--set", "duty_cycle=1e-5", "--set", "p_r=1e5"]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_saturated_pe_scores_below_the_floor(seed, capsys):
    # 20 000 iterations hold no error to count here: a 0/1 count read
    # p_e = 0 +- 0. The ~310 iterations with E <= c_f score their
    # conditional error probabilities instead, averaged over their actual
    # number, so the estimate is positive, about 0.7 % wide, and covers the
    # exact value.
    code, out, _ = run_cli(["pe", *SATURATED_SETS, "--iters", "20000", "--seed", str(seed),
                            "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    inputs = PhysicalInputs(bandwidth_hz=100e6, symbol_time_s=101e-6, delay_spread_s=20e-6,
                            doppler_spread_hz=25e3, duty_cycle=1e-5)
    params = derive_scheme(inputs)
    exact = helpers.exact_pe(LargeScaleModel(), signal_energy(1e5, params, 1.0),
                             params.noise_slot_count)
    p_e, half_width = report["p_e"], report["ci_half_width_95"]
    assert p_e > 0 and 0.004 < half_width / p_e < 0.012
    assert abs(p_e - exact) <= 3 * half_width


def test_capacity_direct_pe_conversion(capsys):
    code, out, _ = run_cli(
        [
            "capacity",
            "--set", "bandwidth_hz=4",
            "--set", "symbol_time_s=1",
            "--set", "duty_cycle=1",
            "--set", "p_r=1",
            "--pe", "0.1",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["capacity_bps"] == pytest.approx(1.3725081563386, abs=1e-9)
    assert report["ceiling_bps"] == pytest.approx(2.0)


def test_capacity_simulated(capsys):
    code, out, _ = run_cli(
        ["capacity", *BASE_SETS, "--iters", "20000", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert 0.0 <= report["capacity_bps"] <= report["ceiling_bps"]
    assert report["awgn_bps"] > 0


SWEEP_ARGS = [
    "sweep", *BASE_SETS,
    "--axis", "bandwidth",
    "--grid", "1e5,1e6,1e7",
    "--variants", "wtfc,ifsk",
    "--iters", "20000",
]


def test_sweep_csv_schema_and_summary(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli([*SWEEP_ARGS, "--out", str(out_file)], capsys)
    assert code == 0
    assert "WTFC: 3/3 rows" in out and "IFSK: 3/3 rows" in out
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + 6
    first = lines[2].split(",")
    assert first[0] == "bandwidth" and first[2] == "WTFC"
    # 17 significant digits on float cells
    assert first[1] == "100000"
    p_e_cell = first[3]
    assert len(p_e_cell.replace(".", "").replace("-", "").lstrip("0")) >= 1
    assert float(p_e_cell) == pytest.approx(float(lines[3].split(",")[3]), abs=0.5)


def test_sweep_json_format(capsys, tmp_path):
    out_file = tmp_path / "sweep.json"
    code, _, _ = run_cli([*SWEEP_ARGS, "--format", "json", "--out", str(out_file)], capsys)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["config"]["axis"] == "bandwidth"
    assert len(payload["rows"]) == 6
    assert payload["rows"][0]["variant"] == "WTFC"


def test_sweep_reproduces_from_header(capsys, tmp_path):
    first = tmp_path / "a.csv"
    code, _, _ = run_cli([*SWEEP_ARGS, "--out", str(first)], capsys)
    assert code == 0
    header = first.read_text().splitlines()[0]
    config_file = tmp_path / "replay.cfg"
    config_file.write_text(header_to_config_text(header))
    second = tmp_path / "b.csv"
    code, _, _ = run_cli(
        ["sweep", "--config", str(config_file), "--out", str(second)], capsys
    )
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_skips_require_flag(capsys, tmp_path):
    args = [
        "sweep", *BASE_SETS,
        "--axis", "bandwidth",
        "--grid", "1e4,1e5",
        "--iters", "5000",
        "--out", str(tmp_path / "skip.csv"),
    ]
    code, _, err = run_cli(args, capsys)
    assert code == 3
    assert "skipped" in err
    code, _, _ = run_cli([*args[:-1], str(tmp_path / "skip2.csv"), "--allow-skips"], capsys)
    assert code == 0
    lines = (tmp_path / "skip2.csv").read_text().splitlines()
    skipped_row = lines[2].split(",")
    assert skipped_row[3] == ""  # p_e empty, never silently absent
    assert "bandwidth" in skipped_row[-1]


COMPARE_ARGS = [
    "compare-shadowing",
    "--set", "bandwidth_hz=100e6",
    "--set", "symbol_time_s=100e-6",
    "--set", "delay_spread_s=0.3e-6",
    "--set", "doppler_spread_hz=360",
    "--set", "duty_cycle=1/1000",
    "--set", "p_r=1e5",
    "--axis", "duty_cycle",
    "--grid", "1e-3,1e-4",
    "--sigma-db", "8",
    "--iters", "20000",
]

REPLAY_COMMANDS = {
    "derive": ["derive", *BASE_SETS],
    "pe": ["pe", *BASE_SETS, "--variant", "ifsk", "--iters", "20000", "--seed", "3"],
    "capacity": ["capacity", *BASE_SETS, "--variant", "ifsk", "--iters", "20000"],
    # The header must carry p_e, or the replay would simulate instead.
    "capacity-pe": ["capacity", *BASE_SETS, "--pe", "0.1"],
    "sweep": SWEEP_ARGS,
    "compare-shadowing": COMPARE_ARGS,
    # 1e4 Hz fits fewer than two tones: the header must carry allow_skips.
    "sweep-skips": [
        "sweep", *BASE_SETS, "--axis", "bandwidth", "--grid", "1e4,1e5",
        "--iters", "5000", "--allow-skips",
    ],
}


@pytest.mark.parametrize("case", list(REPLAY_COMMANDS))
def test_result_file_replays_from_its_header(case, capsys, tmp_path):
    first, second = tmp_path / "a.out", tmp_path / "b.out"
    command = REPLAY_COMMANDS[case]
    code, _, _ = run_cli([*command, "--out", str(first)], capsys)
    assert code == 0
    config_file = tmp_path / "replay.cfg"
    config_file.write_text(header_to_config_text(first.read_text().splitlines()[0]))
    code, _, err = run_cli(
        [command[0], "--config", str(config_file), "--out", str(second)], capsys
    )
    assert code == 0, err
    assert first.read_bytes() == second.read_bytes()


def _header_items(path) -> list[str]:
    """The ``key=value`` entries of a result file's ``# config:`` line."""
    return path.read_text().splitlines()[0].split()[2:]


DUTY_SWEEP = ["sweep", *BASE_SETS, "--iters", "1000"]


# Each dedicated flag of each subcommand, the value it is given (None for a
# flag that takes none), and the header entry that value must reach.
@pytest.mark.parametrize("argv, flag, value, entry", [
    (["derive", *BASE_SETS], "--seed", "7", "seed=7"),
    (["derive", *BASE_SETS], "--iters", "1234", "iterations=1234"),
    (["pe", *BASE_SETS, "--iters", "1000"], "--variant", "ifsk", "variant=IFSK"),
    (["capacity", *BASE_SETS], "--pe", "0.25", "p_e=0.25"),
    ([*DUTY_SWEEP, "--grid", "1e-2"], "--axis", "duty_cycle", "axis=duty_cycle"),
    ([*DUTY_SWEEP, "--axis", "duty_cycle"], "--grid", "1e-2,1e-3", "grid=0.01,0.001"),
    ([*DUTY_SWEEP, "--axis", "duty_cycle", "--grid", "1e-2"], "--variants", "wtfc,ifsk",
     "variants=wtfc,ifsk"),
    ([*DUTY_SWEEP, "--axis", "duty_cycle", "--grid", "1e-2"], "--allow-skips", None,
     "allow_skips=true"),
    (["compare-shadowing", *DUTY_SWEEP[1:], "--axis", "duty_cycle", "--grid", "1e-2"],
     "--sigma-db", "8", "sigma_db=8.0"),
], ids=["derive-seed", "derive-iters", "pe-variant", "capacity-pe", "sweep-axis", "sweep-grid",
        "sweep-variants", "sweep-allow-skips", "compare-shadowing-sigma-db"])
def test_each_dedicated_flag_reaches_the_header_under_its_key(argv, flag, value, entry,
                                                              capsys, tmp_path):
    path = tmp_path / "result.out"
    given = [flag] if value is None else [flag, value]
    code, _, err = run_cli([*argv, *given, "--out", str(path)], capsys)
    assert code == 0, err
    assert entry in _header_items(path)


@pytest.mark.parametrize("command", ["sweep", "compare-shadowing"])
def test_allow_skips_help_names_the_exit_code(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--allow-skips accept a grid with skipped rows: exit 0, not 3" in text


# A key the command does not read is parsed, then dropped: it changes
# neither what is printed nor the file, and stays out of the header.
@pytest.mark.parametrize("argv, assignment", [
    (["derive", *BASE_SETS], "variant=ifsk"),
    (["derive", *BASE_SETS], "axis=bandwidth"),
    (["pe", *BASE_SETS, "--iters", "1000"], "p_e=0.5"),
    (["capacity", *BASE_SETS, "--iters", "1000"], "sigma_db=3"),
], ids=["derive-variant", "derive-axis", "pe-p_e", "capacity-sigma_db"])
def test_a_key_the_command_does_not_read_changes_none_of_its_bytes(argv, assignment,
                                                                   capsys, tmp_path):
    runs = []
    for name, given in (("plain.out", []), ("set.out", ["--set", assignment])):
        path = tmp_path / name
        runs.append((run_cli([*argv, *given, "--out", str(path)], capsys), path.read_bytes()))
    assert runs[0][0][0] == 0
    assert runs[0] == runs[1]
    key = assignment.partition("=")[0]
    assert key not in [item.partition("=")[0] for item in _header_items(tmp_path / "set.out")]


def test_snr_db_sweep_given_p_t_names_p_t(capsys, tmp_path):
    assert BASE_SETS[-1] == "p_r=10e3"
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(["sweep", *BASE_SETS[:-1], "p_t=5", "--axis", "snr_db",
                                 "--grid=-40", "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err == ("error: p_t: snr_db sweeps set the power per grid point; "
                   "leave p_r and p_t unset\n")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_capacity_out_writes_the_printed_report(fmt, capsys, tmp_path):
    out_file = tmp_path / "cap.out"
    code, out, _ = run_cli(
        ["capacity", *BASE_SETS, "--pe", "0.1", "--format", fmt, "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    text = out_file.read_text()
    if fmt == "json":
        assert text == out
    else:
        header, _, body = text.partition("\n")
        assert header.startswith("# config: bandwidth_hz=")
        assert header.endswith(" p_e=0.1 variant=WTFC")
        assert body == out


def test_variant_flag_accepts_what_the_key_accepts(capsys):
    by_flag = run_cli(["pe", *BASE_SETS, "--iters", "1000", "--variant", "WTFC"], capsys)
    by_key = run_cli(["pe", *BASE_SETS, "--iters", "1000", "--set", "variant=wtfc"], capsys)
    assert by_flag == by_key
    assert by_flag[0] == 0 and "variant = WTFC" in by_flag[1]


@pytest.mark.parametrize("command, flag, text, message", [
    ("pe", "--variant", "foo", "variant: invalid value 'foo' (expected wtfc or ifsk)"),
    ("capacity", "--pe", "nan", "p_e: invalid value 'nan' (must be finite)"),
    ("capacity", "--pe", "1.5", "p_e: invalid value '1.5' (must lie in [0, 1])"),
    ("capacity", "--set", "p_e=-0.5", "p_e: invalid value '-0.5' (must lie in [0, 1])"),
])
def test_bad_flag_value_exits_2_naming_flag_and_key(command, flag, text, message, capsys):
    code, out, err = run_cli([command, *BASE_SETS, flag, text], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {flag}: {message}\n"


def test_pe_csv_out_writes_a_one_row_table(capsys, tmp_path):
    # With --format json the file holds the printed report instead; see
    # test_pe_reports_seed_and_iterations.
    out_file = tmp_path / "pe.csv"
    code, out, _ = run_cli(
        ["pe", *BASE_SETS, "--iters", "20000", "--seed", "7", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# config: bandwidth_hz=")
    assert lines[0].endswith(" variant=WTFC")
    assert lines[1] == "variant,p_e,ci_half_width_95,iterations,seed"
    assert lines[2].split(",")[3:] == ["20000", "7"]
    assert f"p_e = {lines[2].split(',')[1]}\n" in out


def test_block_cut_by_chunks_exits_2_naming_the_key(capsys):
    code, _, err = run_cli(
        [
            "pe", *BASE_SETS,
            "--set", "shadowing_enabled=true",
            "--set", "shadowing_std_db=8",
            "--set", "shadow_block_len=30000",
            "--iters", "1000",
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: shadow_block_len: 30000 does not divide")


@pytest.mark.parametrize("command, extra", [
    ("derive", []),
    ("pe", []),
    ("capacity", []),
    ("capacity", ["--pe", "0.1"]),
    ("sweep", ["--axis", "duty_cycle", "--grid", "1e-2,1e-3"]),
    ("compare-shadowing", ["--axis", "duty_cycle", "--grid", "1e-2", "--sigma-db", "8"]),
])
def test_block_len_not_dividing_the_chunk_exits_2_before_sampling(
        command, extra, capsys, tmp_path):
    # The key is rejected while the config is built, so the header a
    # derive would write can always be replayed by pe and sweep.
    code, out, err = run_cli(
        [command, *BASE_SETS, "--set", "shadow_block_len=3", *extra,
         "--out", str(tmp_path / "out.csv")],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: shadow_block_len: 3 does not divide the 100000")
    assert not (tmp_path / "out.csv").exists()


def test_env_override_changes_seed(capsys, tmp_path, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run_cli([*SWEEP_ARGS, "--out", str(out_a)], capsys)
    monkeypatch.setenv("WTFC_SEED", "99")
    code, _, _ = run_cli([*SWEEP_ARGS, "--out", str(out_b)], capsys)
    assert code == 0
    assert "seed=99" in out_b.read_text().splitlines()[0]
    assert out_a.read_bytes() != out_b.read_bytes()


def test_flag_beats_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WTFC_SEED", "99")
    out_file = tmp_path / "c.csv"
    code, _, _ = run_cli([*SWEEP_ARGS, "--seed", "5", "--out", str(out_file)], capsys)
    assert code == 0
    assert "seed=5" in out_file.read_text().splitlines()[0]


def test_config_file_plus_overrides(capsys, tmp_path):
    config = tmp_path / "base.cfg"
    config.write_text(
        "# base configuration\n"
        "bandwidth_hz = 100e6\n"
        "symbol_time_s = 101e-6\n"
        "delay_spread_s = 20e-6\n"
        "doppler_spread_hz = 360\n"
        "duty_cycle = 1/100\n"
        "p_r = 1e3\n"
    )
    code, out, _ = run_cli(
        ["derive", "--config", str(config), "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["q"] == 1
    code, out, _ = run_cli(
        [
            "derive", "--config", str(config),
            "--set", "doppler_spread_hz=25e3",
            "--format", "json",
        ],
        capsys,
    )
    assert json.loads(out)["q"] == 3


def test_config_file_parse_error_names_line(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("bandwidth_hz = 1e6\nduty_cycle = huh\n")
    code, _, err = run_cli(["derive", "--config", str(config)], capsys)
    assert code == 2
    assert "bad.cfg:2" in err and "duty_cycle" in err


def test_config_file_byte_order_mark_is_ignored(capsys, tmp_path):
    # An editor may save the file with a UTF-8 byte-order mark; it is not
    # part of the first key.
    text = (
        "bandwidth_hz = 100e6\n"
        "symbol_time_s = 101e-6\n"
        "delay_spread_s = 20e-6\n"
        "doppler_spread_hz = 25e3\n"
        "duty_cycle = 1/100\n"
        "p_r = 10e3\n"
    )
    outputs = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        (tmp_path / name).mkdir()
        config, out_file = tmp_path / name / "run.cfg", tmp_path / name / "derive.csv"
        config.write_text(text, encoding=encoding)
        code, _, err = run_cli(["derive", "--config", str(config), "--out", str(out_file)],
                               capsys)
        assert code == 0, err
        outputs.append(out_file.read_bytes())
    assert (tmp_path / "bom" / "run.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]


# Sigma 0 still writes the loss column, though 0.0 == False.
@pytest.mark.parametrize("sigma_db", ["8", "0"])
def test_compare_shadowing_csv(sigma_db, capsys, tmp_path):
    out_file = tmp_path / "cmp.csv"
    code, _, _ = run_cli([*COMPARE_ARGS, "--sigma-db", sigma_db, "--out", str(out_file)],
                         capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[1] == ",".join(CSV_COLUMNS) + ",capacity_loss_pct"
    assert len(lines) == 2 + 4  # 2 grid points x (off, on) pairs
    data = [line.split(",") for line in lines[2:]]
    assert data[0][8] == "false" and data[1][8] == "true"
    assert data[0][-1] == "" and data[1][-1] != ""


# sha256 of the result files at 250 000 iterations, captured when the
# signal uniforms of constant rows were first drawn stratified in pairs of
# iterations (the compare-shadowing on rows' p_e and half-width when
# shadowed amplitudes were first drawn stratified in pairs of blocks, and
# kept since); each row equals the one-cell estimate at
# its point (tests/test_sweep.py) and lies near its exact value (below).
PINNED_CSV_SHA256 = {
    "sweep": "3f8047565a5644793d36219ff9a3ce69f802bdce3ceaa5feb819323f8e8e1c02",
    "compare-shadowing": "53e1e2be99d7a33c92808014161dbec6f422e25057e628c583dea2b0bc884839",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", list(PINNED_CSV_SHA256))
def test_shared_pass_keeps_the_result_bytes(command, threads, capsys, tmp_path):
    out_file = tmp_path / "result.csv"
    args = {"sweep": SWEEP_ARGS, "compare-shadowing": COMPARE_ARGS}[command]
    code, _, _ = run_cli(
        [*args, "--iters", "250000", "--threads", threads, "--out", str(out_file)], capsys
    )
    assert code == 0
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert digest == PINNED_CSV_SHA256[command]


@pytest.mark.parametrize("command", list(PINNED_CSV_SHA256))
def test_pinned_result_rows_lie_near_the_exact_value(command, capsys, tmp_path):
    # The exact value lies within 3 half-widths of every row of the
    # pinned files: the closed form, or its Gauss-Hermite average at 8 dB.
    out_file = tmp_path / "result.csv"
    args = {"sweep": SWEEP_ARGS, "compare-shadowing": COMPARE_ARGS}[command]
    assert run_cli([*args, "--iters", "250000", "--out", str(out_file)], capsys)[0] == 0
    sets = dict(arg.split("=") for arg in args if "=" in arg)
    rows = list(csv.DictReader(out_file.read_text().splitlines()[1:]))
    assert len(rows) == (6 if command == "sweep" else 4)
    for row in rows:
        inputs = PhysicalInputs(**{key: float(Fraction(sets[key])) for key in (
            "bandwidth_hz", "symbol_time_s", "delay_spread_s", "doppler_spread_hz",
            "duty_cycle")}).replace(**{row["axis_name"].replace("bandwidth", "bandwidth_hz"):
                                       float(row["axis_value"])})
        params = derive_scheme(inputs, row["variant"])
        model = LargeScaleModel(enabled=row["shadowing_enabled"] == "true",
                                shadowing_std_db=8.0)
        exact = helpers.exact_pe(model, signal_energy(float(sets["p_r"]), params, 1.0),
                                 params.noise_slot_count)
        assert abs(float(row["p_e"]) - exact) <= 3 * float(row["ci_half_width_95"]), row


# The one-point commands and the sha256 of their --out files at 20 000
# iterations, captured when the signal uniforms were first drawn
# stratified in pairs of iterations (derive's when the capacity ceiling
# still had two formulas); the sampled ones lie near the exact value
# (below).
_ONE_POINT = [*BASE_SETS, "--iters", "20000", "--seed", "3"]
_IFSK_JSON = ["--variant", "ifsk", "--format", "json"]
PINNED_REPORTS = {
    "derive": (["derive", *BASE_SETS],
               "8cf3d8f504819bb5a064e1bdb54ccac60f3c29aacdb9a37780868b3636249957"),
    "pe": (["pe", *_ONE_POINT],
           "697cbc41a97918d5fb35b1be8a07b8746c79fc64387205b1c6c4a2649e043be4"),
    "pe-ifsk-json": (["pe", *_ONE_POINT, *_IFSK_JSON],
                     "242761dd2bae772309de939654cd78208089e6680bce9ec8b5550ea0f25522a4"),
    "capacity": (["capacity", *_ONE_POINT],
                 "ac7674d021a76a4f346bd40f19ed2d0af1587efbf574c3ee7008b466f4c53d8f"),
    "capacity-ifsk-json": (["capacity", *_ONE_POINT, *_IFSK_JSON],
                           "172bbab62e6d2acc72670aa88ba7827f003f4ee79ed3dda77aebc3a4328e4ae3"),
}


@pytest.mark.parametrize("case", list(PINNED_REPORTS))
def test_report_files_keep_their_bytes(case, capsys, tmp_path):
    command, pinned = PINNED_REPORTS[case]
    out_file = tmp_path / "report.out"
    code, _, _ = run_cli([*command, "--out", str(out_file)], capsys)
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == pinned


@pytest.mark.parametrize("variant", ["wtfc", "ifsk"])
def test_pinned_reports_lie_near_the_exact_value(variant, capsys):
    # The pinned pe and capacity reports of a variant sample the same p_e;
    # the exact value lies within 3 of its half-widths.
    code, out, _ = run_cli(["pe", *_ONE_POINT, "--variant", variant, "--format", "json"],
                           capsys)
    assert code == 0
    report = json.loads(out)
    params = derive_scheme(PhysicalInputs(bandwidth_hz=100e6, symbol_time_s=101e-6,
                                          delay_spread_s=20e-6, doppler_spread_hz=25e3,
                                          duty_cycle=1e-2), variant.upper())
    exact = analytic_pe_no_shadowing(signal_energy(10e3, params, 1.0) + 1.0,
                                     params.noise_slot_count)
    assert abs(report["p_e"] - exact) <= 3 * report["ci_half_width_95"]


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["pe", "sweep"])
def test_threads_below_one_exit_2_naming_threads(command, threads, capsys, tmp_path):
    args = {"pe": ["pe", *BASE_SETS, "--iters", "1000"], "sweep": SWEEP_ARGS}[command]
    code, out, err = run_cli(
        [*args, "--threads", threads, "--out", str(tmp_path / "out.csv")], capsys
    )
    assert code == 2
    assert err == "error: threads: must be at least 1\n"
    assert out == "" and not (tmp_path / "out.csv").exists()


def test_duplicate_variants_exit_2(capsys, tmp_path):
    args = [*SWEEP_ARGS, "--variants", "wtfc,wtfc", "--out", str(tmp_path / "dup.csv")]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert err == "error: variants: duplicate variant 'WTFC'\n"
    assert out == "" and not (tmp_path / "dup.csv").exists()


SNR_SWEEP_ARGS = [
    "sweep",
    "--set", "bandwidth_hz=400e6",
    "--set", "symbol_time_s=100e-6",
    "--set", "delay_spread_s=0.3e-6",
    "--set", "doppler_spread_hz=360",
    "--set", "duty_cycle=1/1000",
    "--axis", "snr_db",
    "--grid=-60,-50",
    "--iters", "5000",
]
SNR_COLUMNS = ["--set", "snr_columns=true"]


# The columns each sweep adds to ``CSV_COLUMNS``: ``sigma_db`` adds the loss
# column only where it is a header key, as in compare-shadowing.
@pytest.mark.parametrize("args, optional", [
    (SNR_SWEEP_ARGS, []),
    ([*SNR_SWEEP_ARGS, *SNR_COLUMNS], ["snr_db_bw", "snr_db_n0"]),
    ([*SNR_SWEEP_ARGS, "--set", "sigma_db=8"], []),
    (COMPARE_ARGS, ["capacity_loss_pct"]),
    ([*COMPARE_ARGS, *SNR_COLUMNS], ["capacity_loss_pct", "snr_db_bw", "snr_db_n0"]),
], ids=["sweep", "sweep-snr", "sweep-sigma-db", "compare", "compare-snr"])
def test_snr_columns_flag(args, optional, capsys, tmp_path):
    files = {fmt: tmp_path / f"result.{fmt}" for fmt in ("csv", "json")}
    for fmt, path in files.items():
        code, _, _ = run_cli([*args, "--format", fmt, "--out", str(path)], capsys)
        assert code == 0
    columns = files["csv"].read_text().splitlines()[1].split(",")
    assert columns == CSV_COLUMNS + optional
    rows = json.loads(files["json"].read_text())["rows"]
    assert [list(row) for row in rows] == [columns] * len(rows)
    if args[0] == "sweep" and "snr_db_bw" in optional:
        assert rows[0]["snr_db_bw"] == pytest.approx(-60.0)
        assert rows[0]["snr_db_n0"] == pytest.approx(-60.0 + 10 * 8.602059991327963,
                                                     abs=1e-6)


def test_cli_runs_without_scipy():
    # scipy is a test-only dependency: neither the package import nor a CLI
    # call may load it.
    script = (
        "import sys, wtfc, wtfc.cli\n"
        "try:\n"
        "    wtfc.cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0.1.0"


def test_main_in_process_leaves_the_gc_freeze_count_unchanged(capsys, tmp_path):
    # Only ``run`` freezes, at the end of a process; an in-process caller of
    # ``main`` keeps every object collectable.
    before = gc.get_freeze_count()
    assert run_cli(["derive", *BASE_SETS], capsys)[0] == 0
    assert run_cli(["pe", *BASE_SETS, "--iters", "1000", "--out", str(tmp_path / "pe.csv")],
                   capsys)[0] == 0
    assert run_cli(["capacity", *BASE_SETS, "--pe", "1.5"], capsys)[0] == 2
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, status", [(["derive", *BASE_SETS], 0),
                                          (["capacity", *BASE_SETS, "--pe", "1.5"], 2)])
def test_run_freezes_after_main_and_returns_its_status(monkeypatch, capsys, argv, status):
    # The freeze comes once main has written its output or its error.
    frozen = []
    monkeypatch.setattr(sys, "argv", ["wtfc", *argv])
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr()))
    assert cli.run() == status
    assert len(frozen) == 1
    assert (frozen[0].out if status == 0 else frozen[0].err.startswith("error: "))


def test_module_and_script_entry_points_run_through_run(tmp_path):
    # ``python -m wtfc.cli`` and the ``wtfc`` script both end in ``run``,
    # and a file written through ``--out`` is complete when the process ends.
    source = (Path(__file__).parents[1] / "src" / "wtfc" / "cli.py").read_text()
    assert source.rstrip().endswith('if __name__ == "__main__":\n    sys.exit(run())')
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert 'wtfc = "wtfc.cli:run"' in pyproject
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "wtfc.cli", "pe", *BASE_SETS, "--iters", "1000",
         "--out", "pe.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "pe.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ") and len(lines) == 3
    assert f"p_e = {lines[2].split(',')[1]}" in result.stdout.splitlines()


@pytest.mark.parametrize("argv", [["pe"], ["capacity"], ["capacity", "--pe", "0.1"]])
def test_pe_and_capacity_sample_through_the_sweep_mapping(argv, capsys, monkeypatch):
    # ``wtfc.sweep.estimate_cells`` is the one mapping of a configuration
    # onto the sampler: pe and capacity make one call through it, at the
    # resolved transmit power, and capacity --pe none.
    from wtfc import sweep

    calls = []
    original = sweep.estimate_pe
    monkeypatch.setattr(sweep, "estimate_pe",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    code, _, _ = run_cli([*argv, *BASE_SETS, "--iters", "1000", "--threads", "2"], capsys)
    assert code == 0
    assert len(calls) == (0 if "--pe" in argv else 1)
    for params, models, powers, n_0, iterations, seed in calls:
        assert [p.variant for p in params] == ["WTFC"] and powers == [10e3]
        assert (models, n_0, iterations, seed) == ((LargeScaleModel(),), 1.0, 1000, 0)


def test_duty_1_variant_rows_are_equal_and_each_equals_pe(capsys, tmp_path):
    # At duty cycle 1 WTFC and I-FSK have one alphabet, so the sweep's two
    # cells are the same (signal, noise count) pair, each scored in its
    # own right: the rows differ only in their variant, and each reads what
    # pe reads for its variant at that point.
    sets = [*BASE_SETS, "--set", "duty_cycle=1", "--iters", "20000", "--seed", "3"]
    out = tmp_path / "duty1.csv"
    code, _, _ = run_cli(["sweep", *sets, "--axis", "duty_cycle", "--grid", "1",
                          "--variants", "wtfc,ifsk", "--out", str(out)], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [row.pop("variant") for row in rows] == ["WTFC", "IFSK"]
    assert rows[0] == rows[1]
    for variant in ("wtfc", "ifsk"):
        code, text, _ = run_cli(["pe", *sets, "--variant", variant], capsys)
        assert code == 0
        report = dict(line.split(" = ", 1) for line in text.splitlines())
        assert (report["p_e"], report["ci_half_width_95"]) == (
            rows[0]["p_e"], rows[0]["ci_half_width_95"]), variant


def test_pe_where_every_symbol_errs_prints_nothing_on_stderr(tmp_path):
    # At p_r = 1e-9 every symbol errs. At seed 3 the floor set holds 15 of
    # the 1000 iterations (seed 0 draws 16 and p_e = 0.999625), and the
    # estimate is p_e = 1, past 1 - 1/S: pe reports it as it is, and only a
    # capacity clamps it, with a warning.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for key in [key for key in env if key.startswith("WTFC_")]:
        del env[key]
    sets = [item.replace("p_r=10e3", "p_r=1e-9") for item in BASE_SETS]
    result = subprocess.run(
        [sys.executable, "-m", "wtfc.cli", "pe", *sets, "--iters", "1000", "--seed", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert "p_e = 1\n" in result.stdout
