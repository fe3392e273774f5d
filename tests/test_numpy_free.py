"""Only sampling loads numpy.

``wtfc.detector`` is the Monte Carlo sampler and the one module that imports
numpy. A CLI call that never samples and a plain ``import wtfc`` with the
closed-form API must start without it; ``pe`` and ``sweep`` must still get
it. Each case runs in a fresh child process, since this test process has
numpy loaded already.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wtfc
import wtfc.detector

SRC = Path(__file__).resolve().parents[1] / "src"

BASE_SETS = [
    "--set", "bandwidth_hz=100e6",
    "--set", "symbol_time_s=101e-6",
    "--set", "delay_spread_s=20e-6",
    "--set", "doppler_spread_hz=25e3",
    "--set", "duty_cycle=1/100",
    "--set", "p_r=10e3",
]

CLI_SCRIPT = """
import sys
import wtfc.cli
try:
    code = wtfc.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print("exit", code, "numpy" in sys.modules)
"""

LIBRARY_SCRIPT = """
import sys
import wtfc
params = wtfc.derive_scheme(wtfc.PhysicalInputs(
    bandwidth_hz=100e6, symbol_time_s=101e-6, delay_spread_s=20e-6,
    doppler_spread_hz=25e3, duty_cycle=1 / 100))
wtfc.dmc_capacity(1e-3, params.alphabet_size, 1 / 100, 101e-6)
wtfc.analytic_pe_no_shadowing(101.0, 15)
print("exit", 0, "numpy" in sys.modules)
"""


def run_child(script, args=()):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("WTFC_")}
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("args", [
    ["--version"],
    ["derive", *BASE_SETS],
    ["derive", *BASE_SETS, "--format", "json"],
    ["capacity", *BASE_SETS, "--pe", "1e-3"],
    ["capacity", *BASE_SETS, "--pe", "1e-3", "--variant", "ifsk"],
    # Neither bandwidth fits two tones, so every row is skipped.
    ["sweep", *BASE_SETS, "--axis", "bandwidth", "--grid", "1e3,1e4", "--allow-skips",
     "--out", os.devnull],
], ids=["version", "derive-csv", "derive-json", "capacity-pe-wtfc", "capacity-pe-ifsk",
        "sweep-all-skipped"])
def test_calls_that_never_sample_do_not_load_numpy(args):
    assert run_child(CLI_SCRIPT, args) == "exit 0 False"


MODULES_SCRIPT = """
import sys
import wtfc.cli
try:
    code = wtfc.cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
print("exit", code, *sorted(name for name in sys.argv[1].split(",") if name in sys.modules))
"""


@pytest.mark.parametrize("args", [
    ["--version"],
    ["derive", *BASE_SETS],
    ["capacity", *BASE_SETS, "--pe", "1e-3"],
], ids=["version", "derive", "capacity-pe"])
def test_calls_without_a_warning_or_json_load_neither_logging_nor_json(args):
    assert run_child(MODULES_SCRIPT, ["logging,json", *args]) == "exit 0"


IMPORT_SCRIPT = """
import sys
import wtfc
print("exit", 0, *sorted(name for name in sys.argv[1].split(",") if name in sys.modules))
"""


# The value classes are records, not dataclasses: importing ``dataclasses``
# loads ``inspect``, which cost every call more than the package itself.
@pytest.mark.parametrize("script, args", [
    (IMPORT_SCRIPT, []),
    (MODULES_SCRIPT, ["--version"]),
    (MODULES_SCRIPT, ["derive", *BASE_SETS]),
    (MODULES_SCRIPT, ["capacity", *BASE_SETS, "--pe", "1e-3"]),
], ids=["import", "version", "derive", "capacity-pe"])
def test_start_up_loads_neither_dataclasses_nor_inspect(script, args):
    assert run_child(script, ["dataclasses,inspect", *args]) == "exit 0"


def test_pe_does_not_load_dataclasses():
    # numpy imports inspect itself, so only dataclasses is pinned here.
    args = ["dataclasses", "pe", *BASE_SETS, "--iters", "1000"]
    assert run_child(MODULES_SCRIPT, args) == "exit 0"


def test_one_thread_pe_does_not_load_the_thread_pool():
    args = ["concurrent.futures", "pe", *BASE_SETS, "--iters", "1000", "--threads", "1"]
    assert run_child(MODULES_SCRIPT, args) == "exit 0"


JSON_SCRIPT = """
import contextlib, io, json, sys
import wtfc.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = wtfc.cli.main(sys.argv[1:])
print("exit", code, json.loads(out.getvalue())["alphabet_size"])
"""


def test_json_derive_still_writes_json():
    # json is imported only by the writer that needs it.
    args = ["derive", *BASE_SETS, "--format", "json"]
    assert run_child(JSON_SCRIPT, args) == "exit 0 270000"


def test_closed_form_library_calls_do_not_load_numpy():
    assert run_child(LIBRARY_SCRIPT) == "exit 0 False"


@pytest.mark.parametrize("args", [
    ["pe", *BASE_SETS, "--iters", "1000"],
    ["sweep", *BASE_SETS, "--iters", "1000", "--axis", "duty_cycle", "--grid", "1e-2",
     "--out", os.devnull],
], ids=["pe", "sweep"])
def test_sampling_calls_load_numpy(args):
    assert run_child(CLI_SCRIPT, args) == "exit 0 True"


def test_sampler_names_resolve_to_the_detector():
    assert wtfc.estimate_pe is wtfc.detector.estimate_pe
    assert wtfc._SAMPLER_NAMES == ("estimate_pe",)
    # Each name in the package's and every submodule's ``__all__`` resolves:
    # a function deleted but left in an export list breaks ``import *``.
    submodules = [importlib.import_module(f"wtfc.{path.stem}")
                  for path in sorted((SRC / "wtfc").glob("*.py")) if path.stem != "__init__"]
    for module in [wtfc, *submodules]:
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name) is not None, (module.__name__, name)
    assert set(wtfc.__all__) <= set(dir(wtfc))
    with pytest.raises(AttributeError):
        wtfc.no_such_name


def _module_level_imports(tree):
    """Modules a source file imports when it is imported: outside function bodies."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))


def test_only_the_detector_imports_numpy_at_module_level():
    importers = sorted(
        path.name
        for path in (SRC / "wtfc").glob("*.py")
        if any(name.split(".")[0] == "numpy"
               for name in _module_level_imports(ast.parse(path.read_text())))
    )
    assert importers == ["detector.py"]
