"""Input checks that fail at the field or flag that caused them.

Each check here either names its key in an ``error:`` line with exit 2, or,
for an I/O failure, exits 1; a sweep grid value that fails the scheme's
checks becomes a skipped row naming its field. ``main`` raises none of
them.
"""

import os
import re

import pytest

from wtfc import (LargeScaleModel, PhysicalInputs, RunConfig, SweepSpec, derive_scheme,
                  estimate_pe)
from wtfc.cli import main
from wtfc.config import ConfigError

POINT = [
    "--set", "bandwidth_hz=100e6",
    "--set", "symbol_time_s=101e-6",
    "--set", "delay_spread_s=20e-6",
    "--set", "doppler_spread_hz=25e3",
    "--set", "duty_cycle=1/100",
]
SWEEP = ["sweep", *POINT, "--set", "p_r=10e3", "--iters", "1000"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _no_env(monkeypatch):
    for key in [key for key in os.environ if key.startswith("WTFC_")]:
        monkeypatch.delenv(key)


def test_set_without_equals_exits_2(capsys):
    code, out, err = run_cli(["derive", *POINT, "--set", "p_r"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: p_r: expected key=value after --set\n"


@pytest.mark.parametrize("argv, message", [
    (["--grid", "1e-2"], "axis: required for sweeps"),
    (["--axis", "duty_cycle"], "grid: required for sweeps"),
    (["--axis", "duty_cycle", "--grid", "1e-2"],
     "out: sweeps write a results file; pass --out PATH"),
])
def test_sweep_without_axis_grid_or_out_exits_2(argv, message, capsys):
    code, out, err = run_cli([*SWEEP, *argv], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_compare_shadowing_without_sigma_db_exits_2(capsys, tmp_path):
    out_file = tmp_path / "cmp.csv"
    code, _, err = run_cli(["compare-shadowing", *SWEEP[1:], "--axis", "duty_cycle",
                            "--grid", "1e-2", "--out", str(out_file)], capsys)
    assert code == 2
    assert err == "error: sigma_db: required for compare-shadowing\n"
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["derive", *POINT, "--set", "p_r=1", "--out", "{missing}/report.txt"],
    ["derive", "--config", "{missing}/point.cfg"],
])
def test_io_failure_exits_1(argv, capsys, tmp_path):
    missing = tmp_path / "missing"
    code, _, err = run_cli([arg.format(missing=missing) for arg in argv], capsys)
    assert code == 1
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("sets, message", [
    (["shadowing_enabled=maybe"],
     "shadowing_enabled: invalid value 'maybe' (expected a boolean, got 'maybe')"),
    (["p_r=1", "p_t=1"], "p_r: give exactly one of p_r and p_t, not both"),
])
def test_bad_config_value_exits_2_naming_its_key(sets, message, capsys):
    argv = ["derive", *POINT]
    for item in sets:
        argv += ["--set", item]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.endswith(f"{message}\n")


@pytest.mark.parametrize("flag, key, message", [
    ("--grid", "grid", "expected a comma-separated list of numbers"),
    ("--variants", "variants", "expected a comma-separated list"),
])
def test_empty_list_flag_exits_2(flag, key, message, capsys, tmp_path):
    code, _, err = run_cli([*SWEEP, "--axis", "duty_cycle", "--grid", "1e-2", flag, ",",
                            "--out", str(tmp_path / "s.csv")], capsys)
    assert code == 2
    assert err == f"error: {flag}: {key}: invalid value ',' ({message})\n"


def test_config_line_without_equals_names_its_line(capsys, tmp_path):
    config = tmp_path / "point.cfg"
    config.write_text("bandwidth_hz = 1e6\nduty_cycle 0.5\n")
    code, _, err = run_cli(["derive", "--config", str(config)], capsys)
    assert code == 2
    assert err == f"error: {config}:2: duty_cycle: expected key = value\n"


def test_config_file_not_utf8_names_the_file(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
    code, out, err = run_cli(["derive", *POINT, "--set", "p_r=10e3", "--config", str(config)],
                             capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {config}: ")
    assert err == f"error: {config}: config: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("changes, message", [
    ({"duty_cycle": 0.0}, "duty_cycle must lie in (0, 1]"),
    ({"duty_cycle": 1.5}, "duty_cycle must lie in (0, 1]"),
    ({"guard_time_s": 101e-6}, "guard_time_s must be smaller than symbol_time_s"),
])
def test_physical_inputs_reject(changes, message):
    fields = dict(bandwidth_hz=100e6, symbol_time_s=101e-6, delay_spread_s=20e-6,
                  doppler_spread_hz=25e3, duty_cycle=0.01)
    with pytest.raises(ValueError, match=re.escape(message)):
        PhysicalInputs(**{**fields, **changes})


@pytest.mark.parametrize("changes, key, message", [
    ({"variants": ()}, "variants", "must not be empty"),
    ({"awgn_power": "both"}, "awgn_power", "must be 'pr' or 'pt'"),
])
def test_sweep_spec_rejects(changes, key, message):
    base = RunConfig(inputs=PhysicalInputs(100e6, 101e-6, 20e-6, 25e3, 1 / 100),
                     model=LargeScaleModel(), p_r=1e4, p_t=None, n_0=1.0, iterations=1000,
                     seed=0)
    spec = dict(base=base, axis="duty_cycle", grid=(1e-2,))
    with pytest.raises(ConfigError) as info:
        SweepSpec(**{**spec, **changes})
    assert (info.value.field, str(info.value)) == (key, f"{key}: {message}")


def test_estimate_pe_without_cells_raises():
    params = derive_scheme(PhysicalInputs(100.0, 1.0, 0.0, 0.0, 1.0))
    message = "params and model must each name at least one cell"
    with pytest.raises(ValueError, match=message):
        estimate_pe([], LargeScaleModel(), [], 1.0, 10, 0)
    with pytest.raises(ValueError, match=message):
        estimate_pe(params, [], 1.0, 1.0, 10, 0)


# Finite inputs whose scheme derivation overflowed a float; each raised
# OverflowError with a traceback and exit 1. (field named, extra --set
# items, sweep axis and grid value.)
DERIVATION_OVERFLOWS = [
    ("duty_cycle", ["duty_cycle=1e-320"], "duty_cycle", "1e-320"),
    ("symbol_time_s", ["symbol_time_s=1e308"], "symbol_time", "1e308"),
    ("symbol_time_s", ["symbol_time_s=1e308", "doppler_spread_hz=0"], "symbol_time", "1e308"),
    ("bandwidth_hz", ["bandwidth_hz=1e308", "symbol_time_s=10"], "bandwidth", "1e308"),
    ("q_override", ["q_override=1" + "0" * 400], None, None),
]


@pytest.mark.parametrize("command", ["derive", "pe", "capacity"])
@pytest.mark.parametrize("key, sets, axis, value", DERIVATION_OVERFLOWS)
def test_derivation_past_the_float_range_exits_2_naming_its_key(command, key, sets, axis,
                                                                 value, capsys):
    argv = [command, *POINT, "--set", "p_r=1e-10", "--iters", "1000"]
    for item in sets:
        argv += ["--set", item]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key}: {key} ")


@pytest.mark.parametrize("key, sets, axis, value",
                         [case for case in DERIVATION_OVERFLOWS if case[2] is not None])
def test_derivation_past_the_float_range_is_a_skipped_row(key, sets, axis, value, capsys,
                                                          tmp_path):
    # The base point stays valid: the overflowing value is the second grid
    # value, after the base's own, which is a completed row.
    base_sets = [item for item in sets if not item.startswith(f"{key}=")]
    first = {"duty_cycle": "1e-2", "symbol_time": "101e-6", "bandwidth": "100e6"}[axis]
    argv = [*SWEEP, "--axis", axis, "--grid", f"{first},{value}", "--allow-skips",
            "--out", str(tmp_path / "s.csv")]
    for item in base_sets:
        argv += ["--set", item]
    assert run_cli(argv, capsys)[0] == 0
    rows = (tmp_path / "s.csv").read_text().splitlines()[2:]
    assert len(rows) == 2
    assert rows[0].endswith(",")
    assert rows[1].split(",")[-1].startswith(f"{key} ")


# An alphabet S = tone_count / duty_cycle past the float range: the
# sampler's noise bound took it as a float and ended in an OverflowError
# traceback. The larger factor of S is named. (field named, --set items.)
ALPHABET_OVERFLOWS = [
    ("duty_cycle", ["duty_cycle=1e-300", "bandwidth_hz=1e300", "doppler_spread_hz=3"]),
    ("bandwidth_hz", ["duty_cycle=1e-10", "bandwidth_hz=1e305", "doppler_spread_hz=3"]),
]


@pytest.mark.parametrize("command", ["derive", "pe", "capacity"])
@pytest.mark.parametrize("key, sets", ALPHABET_OVERFLOWS)
def test_alphabet_past_the_float_range_exits_2_naming_its_key(command, key, sets, capsys):
    argv = [command, *POINT, "--set", "p_r=10e3", "--iters", "1000"]
    for item in sets:
        argv += ["--set", item]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key} puts the alphabet size S ")


@pytest.mark.parametrize("key, sets", ALPHABET_OVERFLOWS)
def test_alphabet_past_the_float_range_is_a_skipped_row(key, sets, capsys, tmp_path):
    duty = next(item for item in sets if item.startswith("duty_cycle="))
    argv = [*SWEEP, "--axis", "duty_cycle", "--grid", f"1e-2,{duty.split('=')[1]}",
            "--allow-skips", "--out", str(tmp_path / "s.csv")]
    for item in sets:
        if item != duty:
            argv += ["--set", item]
    assert run_cli(argv, capsys)[0] == 0
    rows = (tmp_path / "s.csv").read_text().splitlines()[2:]
    assert len(rows) == 2
    assert rows[0].endswith(",")
    assert rows[1].split(",")[-1].startswith(f"{key} puts the alphabet size S ")


@pytest.mark.parametrize("command", [["capacity"], ["sweep", "--axis", "duty_cycle",
                                                    "--grid", "1e-2,1e-300"]])
def test_capacity_at_an_alphabet_near_the_float_range_is_finite(command, capsys, tmp_path):
    # S ~ 2.7e302 at duty 1e-300, where a sampled p_e ~ 7e-298 over S - 1
    # underflowed to 0 and log2 failed with "math domain error".
    argv = [*command, *POINT, "--set", "p_r=10e3", "--iters", "1000",
            "--set", "duty_cycle=1e-300", "--out", str(tmp_path / "out")]
    assert run_cli(argv, capsys)[0] == 0
    text = (tmp_path / "out").read_text()
    assert "capacity_bps" in text and "nan" not in text and "inf" not in text


@pytest.mark.parametrize("argv, key", [
    (["pe", "--set", "shadowing_enabled=true", "--set", "shadowing_std_db=200",
      "--set", "hold_mean_rx_power=true"], "shadowing_std_db"),
    (["pe", "--set", "shadowing_enabled=true", "--set", "shadowing_std_db=2000"],
     "shadowing_std_db"),
    (["compare-shadowing", "--sigma-db", "1e300", "--axis", "duty_cycle", "--grid", "1e-2",
      "--out", "cmp.csv"], "sigma_db"),
], ids=["hold", "pe", "compare"])
def test_shadowing_spread_past_the_float_range_fails_at_its_field(argv, key, capsys):
    # Past about 163.6 dB the mean power factor exp((sigma ln10 / 10)^2 / 2)
    # overflows: hold_mean_rx_power failed with an OverflowError traceback,
    # and a drawn amplitude's exp and square overflowed with numpy warnings.
    code, out, err = run_cli([*argv, *POINT, "--set", "p_r=10e3", "--iters", "1000"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {key}: shadowing_std_db puts the mean shadowing power gain "
                   "outside the float range\n")


def test_shadowing_spread_below_the_float_range_samples(capsys):
    # At 163 dB, just inside the range, half the amplitudes are far below
    # the noise and the rest far above it: p_e ~ 1/2, without hold.
    code, out, _ = run_cli(["pe", *POINT, "--set", "p_r=10e3", "--iters", "1000",
                            "--set", "shadowing_enabled=true", "--set", "shadowing_std_db=163"],
                           capsys)
    assert code == 0
    assert abs(float(out.split("p_e = ")[1].split()[0]) - 0.5) < 0.05
