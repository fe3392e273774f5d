"""A property-based search of the CLI over every numeric configuration key.

Each example runs one command in process at the README point with one to
three numeric keys set to values from the edges of their range: zero,
negatives, subnormals, the ends of the float range, infinities, NaN and,
for the integer keys, numbers past the float range. Runs take at most
2 000 iterations. Every call must exit 0, 2 or 3 (exit 1 is for I/O
errors, and a traceback is a failure); an exit-2 message must name a
configuration key, a flag or a file; and every figure a call prints, or
writes to its result file, must be finite.
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wtfc.cli import main
from wtfc.config import KEYS, parse_value

POINT = [
    "--set", "bandwidth_hz=100e6",
    "--set", "symbol_time_s=101e-6",
    "--set", "delay_spread_s=20e-6",
    "--set", "doppler_spread_hz=25e3",
    "--set", "duty_cycle=1/100",
    "--set", "p_r=10e3",
    "--set", "iterations=2000",
]
COMMANDS = {
    "derive": ["derive"],
    "pe": ["pe"],
    "pe-shadowed": ["pe", "--set", "shadowing_enabled=true", "--set", "shadowing_std_db=8"],
    "capacity": ["capacity"],
    "capacity-ifsk": ["capacity", "--variant", "ifsk"],
    "capacity-pe": ["capacity", "--pe", "0.1"],
    "sweep": ["sweep", "--axis", "bandwidth", "--grid", "1e6,1e7", "--variants", "wtfc,ifsk"],
    "compare-shadowing": ["compare-shadowing", "--axis", "duty_cycle", "--grid", "1e-2,1e-4",
                          "--sigma-db", "8", "--allow-skips"],
}


def _number(key: str):
    """The value "1" takes at ``key``, or None where it is not one."""
    try:
        return parse_value(key, "1")
    except ValueError:
        return None


# Every key whose value is a number: its parser turns "1" into an int or a
# float, not a bool, a string or a list.
NUMERIC_KEYS = sorted(key for key in KEYS if type(_number(key)) in (int, float))
FLOAT_EDGES = ["0", "-0.0", "-1", "5e-324", "1e-300", "1e-9", "0.5", "1", "3", "2000",
               "1e300", "1.7976931348623157e308", "inf", "-inf", "nan", "1/0", "1e400"]
INT_EDGES = ["0", "-1", "1", "2", "3", "37", "1000", "2000", "1" + "0" * 30, "1" + "0" * 400]
# Iterations stay small; a count past 2 000 would only take time.
ITERATION_EDGES = ["-1", "0", "1", "2", "37", "2000", "2.5", "nan"]
# Names an exit-2 message may give: a key, a flag or a file.
NAMES = [*KEYS, "threads", "iters", "out", "config", "set", "result"]
NOT_FINITE = re.compile(r"(?<![\w.])-?(nan|inf|infinity)(?![\w.])", re.IGNORECASE)


def _values(key: str):
    if key == "iterations":
        return st.sampled_from(ITERATION_EDGES)
    if isinstance(_number(key), int):
        return st.sampled_from(INT_EDGES + ["1.5", "inf"])
    return st.sampled_from(FLOAT_EDGES)


settings_of_keys = st.lists(st.sampled_from(NUMERIC_KEYS), min_size=1, max_size=3,
                            unique=True).flatmap(
    lambda keys: st.tuples(*(st.tuples(st.just(key), _values(key)) for key in keys)))


def test_the_search_covers_every_numeric_key():
    assert {"bandwidth_hz", "duty_cycle", "q_override", "shadow_block_len", "p_r", "p_t",
            "n_0", "iterations", "seed", "p_e", "sigma_db"} <= set(NUMERIC_KEYS)
    assert not {"shadowing_enabled", "grid", "variant", "axis"} & set(NUMERIC_KEYS)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(COMMANDS)), sets=settings_of_keys)
def test_every_numeric_input_exits_cleanly_with_finite_figures(command, sets):
    argv = [*COMMANDS[command], *POINT]
    for key, value in sets:
        argv += ["--set", f"{key}={value}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    environment = {key: os.environ.pop(key) for key in list(os.environ)
                   if key.startswith("WTFC_")}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "result.out"
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", str(out)])
            written = out.read_text() if out.exists() else ""
    finally:
        os.environ.update(environment)
    out_text, err_text = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 2, 3), (argv, code, err_text)
    if code == 2:
        assert err_text.startswith("error: "), (argv, err_text)
        assert any(name in err_text for name in NAMES), (argv, err_text)
        assert out_text == "", (argv, out_text)
    else:
        printed = out_text + "".join(line for line in written.splitlines(keepends=True)
                                     if not line.startswith("# config:"))
        assert not NOT_FINITE.search(printed), (argv, printed)
