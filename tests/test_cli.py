import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wtfc.cli import CSV_COLUMNS, build_parser, header_to_config_text, main
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
        assert header.endswith(" variant=WTFC")
        assert body == out


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
    assert err.startswith("error: shadow_block_len 30000 does not divide")


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


def test_compare_shadowing_csv(capsys, tmp_path):
    out_file = tmp_path / "cmp.csv"
    code, _, _ = run_cli([*COMPARE_ARGS, "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[1] == ",".join(CSV_COLUMNS) + ",capacity_loss_pct"
    assert len(lines) == 2 + 4  # 2 grid points x (off, on) pairs
    data = [line.split(",") for line in lines[2:]]
    assert data[0][8] == "false" and data[1][8] == "true"
    assert data[0][-1] == "" and data[1][-1] != ""


# sha256 of the result files at 250 000 iterations, captured when every
# cell of a point still ran its own pass over the draws.
PINNED_CSV_SHA256 = {
    "sweep": "31cb56fa916116fce0f5db6620f430a3f161c241d90e4ef3ca89c2744b8fd1e8",
    "compare-shadowing": "6d9c511dff50d1b7befd0fde1d06582826c884d9490c6c2fe3cf3aa00c281ae8",
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


def test_snr_columns_flag(capsys, tmp_path):
    out_file = tmp_path / "snr.csv"
    code, _, _ = run_cli(
        [
            "sweep",
            "--set", "bandwidth_hz=400e6",
            "--set", "symbol_time_s=100e-6",
            "--set", "delay_spread_s=0.3e-6",
            "--set", "doppler_spread_hz=360",
            "--set", "duty_cycle=1/1000",
            "--set", "snr_columns=true",
            "--axis", "snr_db",
            "--grid=-60,-50",
            "--iters", "5000",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[1].endswith("snr_db_bw,snr_db_n0")
    first = lines[2].split(",")
    assert float(first[-2]) == pytest.approx(-60.0)
    assert float(first[-1]) == pytest.approx(-60.0 + 10 * 8.602059991327963, abs=1e-6)


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
