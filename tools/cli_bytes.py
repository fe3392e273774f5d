"""Run a fixed list of CLI calls on two commits and compare every byte.

Usage, from the repository root:

    python3 tools/cli_bytes.py --parent REV --change REV

Each commit is exported with ``git archive`` into its own directory under
``--workdir``. Every call in ``CALLS`` runs as ``python -m wtfc.cli`` on
each export, in a fresh empty directory, with the ``WTFC_*`` environment
cleared except for what the call sets. The exit code, stdout, stderr and
every file the call writes (its ``--out`` file) are compared. Each call
prints one line, ``same`` or the parts that differ; the exit code is 1 if
any call differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, git

POINT = [
    "--set", "bandwidth_hz=100e6",
    "--set", "symbol_time_s=101e-6",
    "--set", "delay_spread_s=20e-6",
    "--set", "doppler_spread_hz=25e3",
    "--set", "duty_cycle=1/100",
]
PR = ["--set", "p_r=10e3"]
ITERS = ["--iters", "20000", "--seed", "3"]
OUT = ["--out", "result.out"]
SHADOWED = {"WTFC_SHADOWING_ENABLED": "true", "WTFC_SHADOWING_STD_DB": "8"}
# A 350 m link, 2 m reference distance, 5 cm wavelength, exponent 3.2: about
# 126 dB of path loss, where the default geometry has none. Sigma 0 gives
# every symbol the one constant amplitude. A given p_t puts the loss into
# the receive power; a given p_r would cancel it.
PATH_LOSS = [
    "--set", "distance_m=350",
    "--set", "reference_distance_m=2",
    "--set", "wavelength_m=0.05",
    "--set", "path_loss_exponent=3.2",
]
CONSTANT_LOSS = [*PATH_LOSS, "--set", "shadowing_enabled=true", "--set", "shadowing_std_db=0"]
BANDWIDTH_SWEEP = ["sweep", *POINT, *PR, *ITERS, "--axis", "bandwidth"]
COMPARE = [
    "compare-shadowing", *POINT, "--set", "p_r=1e5", *ITERS,
    "--axis", "duty_cycle", "--grid", "1e-2,1e-3", *OUT,
]

# (name, arguments after ``python -m wtfc.cli``, environment variables).
# ``capacity --pe`` without ``--out`` writes no file; with it, the file's
# header holds the given p_e.
CALLS = [
    ("version", ["--version"], {}),
    ("derive-csv", ["derive", *POINT, *PR, *OUT], {}),
    ("derive-json", ["derive", *POINT, *PR, "--format", "json", *OUT], {}),
    ("capacity-pe-wtfc", ["capacity", *POINT, *PR, "--pe", "0.1"], {}),
    ("capacity-pe-ifsk-json",
     ["capacity", *POINT, *PR, "--pe", "0.1", "--variant", "ifsk", "--format", "json", *OUT],
     {}),
    ("capacity-pe-out", ["capacity", *POINT, *PR, "--pe", "0.1", *OUT], {}),
    ("capacity", ["capacity", *POINT, *PR, *ITERS, *OUT], {}),
    ("capacity-ifsk", ["capacity", *POINT, *PR, *ITERS, "--variant", "ifsk", *OUT], {}),
    ("capacity-json", ["capacity", *POINT, *PR, *ITERS, "--format", "json", *OUT], {}),
    ("pe", ["pe", *POINT, *PR, *ITERS, *OUT], {}),
    ("pe-ifsk-json", ["pe", *POINT, *PR, *ITERS, "--variant", "ifsk", "--format", "json", *OUT],
     {}),
    ("pe-shadowed", ["pe", *POINT, *PR, *ITERS, *OUT], SHADOWED),
    ("sweep-variants", [*BANDWIDTH_SWEEP, "--grid", "1e5,1e6,1e7", "--variants", "wtfc,ifsk",
                        *OUT], {}),
    ("sweep-json-snr-columns", [*BANDWIDTH_SWEEP, "--grid", "1e6,1e7", "--set",
                                "snr_columns=true", "--format", "json", *OUT], {}),
    ("sweep-snr-db-pt", ["sweep", *POINT, *ITERS, "--axis", "snr_db", "--grid=-45,-40",
                         "--set", "awgn_power=pt", *OUT], {}),
    ("sweep-skips", [*BANDWIDTH_SWEEP, "--grid", "1e4,1e5", *OUT], {}),
    ("sweep-skips-allowed", [*BANDWIDTH_SWEEP, "--grid", "1e4,1e5", "--allow-skips", *OUT],
     {}),
    ("sweep-skips-variants", [*BANDWIDTH_SWEEP, "--grid", "1e4,1e5", "--variants", "wtfc,ifsk",
                              "--allow-skips", *OUT], {}),
    ("sweep-no-awgn", [*BANDWIDTH_SWEEP, "--grid", "1e6,1e7", "--variants", "wtfc,ifsk",
                       "--set", "include_awgn=false", *OUT], {}),
    ("compare-threads-2", [*COMPARE, "--sigma-db", "8", "--threads", "2"], {}),
    ("compare-sigma-0-json", [*COMPARE, "--sigma-db", "0", "--format", "json"], {}),
    ("compare-block-hold", [*COMPARE, "--sigma-db", "8", "--set", "shadow_block_len=1000",
                            "--set", "hold_mean_rx_power=true"], {}),
    ("capacity-pe-1.5", ["capacity", *POINT, *PR, "--pe", "1.5"], {}),
    ("capacity-pe-clamped",
     ["capacity", "--set", "bandwidth_hz=2", "--set", "symbol_time_s=1",
      "--set", "duty_cycle=1", "--set", "p_r=1", "--pe", "0.75"], {}),
    ("shadow-block-len-3", ["pe", *POINT, *PR, *ITERS, "--set", "shadow_block_len=3", *OUT],
     {}),
    ("bad-delay-spread", ["derive", *POINT, *PR, "--set", "delay_spread_s=200e-6"], {}),
    ("missing-sigma-db", COMPARE, {}),
    ("derive-path-loss", ["derive", *POINT, *PR, *CONSTANT_LOSS, *OUT], {}),
    ("pe-path-loss", ["pe", *POINT, "--set", "p_t=4e16", *ITERS, *CONSTANT_LOSS, *OUT], {}),
    ("compare-path-loss", ["compare-shadowing", *POINT, "--set", "p_t=4e17", *ITERS,
                           "--axis", "duty_cycle", "--grid", "1e-2,1e-3", *PATH_LOSS,
                           "--sigma-db", "8", *OUT], {}),
]


def run_call(src: Path, rundir: Path, args: list[str], env: dict) -> dict:
    """Run one call on the package under ``src`` inside the empty ``rundir``."""
    rundir.mkdir(parents=True)
    child_env = {key: value for key, value in os.environ.items()
                 if not key.startswith("WTFC_")}
    child_env.update(env, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-m", "wtfc.cli", *args], cwd=rundir,
                            env=child_env, capture_output=True, timeout=600)
    return {
        "exit": result.returncode,
        "stdout": result.stdout,
        "stderr": result.stderr,
        "files": {path.name: path.read_bytes() for path in sorted(rundir.iterdir())},
    }


def differences(parent: dict, change: dict) -> list[str]:
    """The parts of two ``run_call`` results that differ, by name."""
    return [part for part in ("exit", "stdout", "stderr", "files")
            if parent[part] != change[part]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="changed commit")
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)

    sides = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir, runs = args.workdir or Path(tmp), Path(tmp) / "runs"
        checkouts = {side: export(rev, workdir) for side, rev in sides.items()}
        for name, call, env in CALLS:
            results = [run_call(checkouts[side] / "src", runs / side / name, call, env)
                       for side in sides]
            parts = differences(*results)
            differing += bool(parts)
            print(f"{name}: {'differs in ' + ', '.join(parts) if parts else 'same'}",
                  flush=True)
    print(f"{len(CALLS) - differing} of {len(CALLS)} calls identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
