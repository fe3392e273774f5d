"""Run a fixed list of CLI calls on two commits and compare every byte.

Usage, from the repository root:

    python3 tools/cli_bytes.py --parent REV --change REV [--expect NAME[,NAME...]]

Each commit is exported with ``git archive`` into its own directory under
``--workdir``. Every call in ``CALLS`` runs as ``python -m wtfc.cli`` on
each export, in a fresh empty directory, with the ``WTFC_*`` environment
cleared except for what the call sets. The exit code, stdout, stderr and
every file the call writes (its ``--out`` file) are compared. Each call
prints one line, ``same`` or the parts that differ. Under a call whose
files differ, one more line per differing file names the columns that
differ: by header for a CSV table, by key for JSON or ``key = value``
lines, and ``# config`` for the header comment.

The exit code is 0 when exactly the calls named by ``--expect`` differ,
none by default, else 1: a change meant to move some results names them,
and any other difference, or a named call that stayed the same, still
fails. Names are comma-separated; blanks and repeats are ignored.
"""

from __future__ import annotations

import argparse
import csv
import json
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
# An alphabet S = tone_count / duty_cycle near or past the float range.
HUGE_ALPHABET = ["--set", "duty_cycle=1e-300"]
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
# Low duty cycles, where few iterations of a chunk can be errors: two full
# chunks and a half one, so the last chunk is short.
LOW_DUTY = ["--iters", "250000", "--seed", "3", "--axis", "duty_cycle", "--grid", "1e-4,1e-5"]
# Every span edge of those chunks: a chunk runs a third of itself at a time,
# rounded up to whole shadowing blocks, so 20 000-symbol blocks give spans
# of 40 000 and 50 000-symbol blocks spans of 50 000; the short chunk's last
# span ends inside a block at 20 000. Duty 1e-2 gives many candidates.
SPAN_EDGES = ["compare-shadowing", *POINT, "--set", "p_r=1e5", "--iters", "250000",
              "--seed", "3", "--axis", "duty_cycle", "--grid", "1e-2,1e-4", "--sigma-db", "8",
              *OUT]


def compare_path_loss(power: str) -> list[str]:
    """compare-shadowing over the ``PATH_LOSS`` geometry at one given power.

    The base has shadowing off, so at a given p_r the transmit power of
    both rows of a pair comes from the on model's path loss.
    """
    return [
        "compare-shadowing", *POINT, "--set", power, *ITERS,
        "--axis", "duty_cycle", "--grid", "1e-2,1e-3", *PATH_LOSS, "--sigma-db", "8", *OUT,
    ]


COMPARE_PATH_LOSS = compare_path_loss("p_t=4e17")

# (name, arguments after ``python -m wtfc.cli``, environment variables).
# ``capacity --pe`` without ``--out`` writes no file; with it, the file's
# header holds the given p_e.
CALLS = [
    ("version", ["--version"], {}),
    ("derive-csv", ["derive", *POINT, *PR, *OUT], {}),
    ("derive-json", ["derive", *POINT, *PR, "--format", "json", *OUT], {}),
    # Keys the command does not read: parsed, then left out of its values.
    ("derive-variant-set", ["derive", *POINT, *PR, "--set", "variant=ifsk", *OUT], {}),
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
    ("pe-p-e-set", ["pe", *POINT, *PR, *ITERS, "--set", "p_e=0.5", *OUT], {}),
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
    # Duty 1: WTFC and I-FSK have one alphabet, so both rows are one cell.
    ("sweep-duty-1-variants", ["sweep", *POINT, *PR, *ITERS, "--axis", "duty_cycle", "--grid",
                               "1", "--variants", "wtfc,ifsk", *OUT], {}),
    ("sweep-no-awgn", [*BANDWIDTH_SWEEP, "--grid", "1e6,1e7", "--variants", "wtfc,ifsk",
                       "--set", "include_awgn=false", *OUT], {}),
    ("compare-threads-2", [*COMPARE, "--sigma-db", "8", "--threads", "2"], {}),
    ("compare-sigma-0-json", [*COMPARE, "--sigma-db", "0", "--format", "json"], {}),
    ("compare-snr-columns", [*COMPARE, "--sigma-db", "8", "--set", "snr_columns=true"], {}),
    ("compare-skips", ["compare-shadowing", *POINT, *PR, *ITERS, "--axis", "bandwidth",
                       "--grid", "1e4,1e6", "--variants", "wtfc,ifsk", "--sigma-db", "8",
                       "--allow-skips", *OUT], {}),
    ("sweep-sigma-db-set", [*BANDWIDTH_SWEEP, "--grid", "1e6,1e7", "--set", "sigma_db=8", *OUT],
     {}),
    ("compare-block-hold", [*COMPARE, "--sigma-db", "8", "--set", "shadow_block_len=1000",
                            "--set", "hold_mean_rx_power=true"], {}),
    ("capacity-pe-1.5", ["capacity", *POINT, *PR, "--pe", "1.5"], {}),
    ("capacity-pe-clamped",
     ["capacity", "--set", "bandwidth_hz=2", "--set", "symbol_time_s=1",
      "--set", "duty_cycle=1", "--set", "p_r=1", "--pe", "0.75"], {}),
    ("shadow-block-len-3", ["pe", *POINT, *PR, *ITERS, "--set", "shadow_block_len=3", *OUT],
     {}),
    ("bad-delay-spread", ["derive", *POINT, *PR, "--set", "delay_spread_s=200e-6"], {}),
    # The scheme's own checks: fewer than two tones, and an override below
    # the Doppler spread.
    ("derive-two-tones", ["derive", *POINT, *PR, "--set", "bandwidth_hz=1e4"], {}),
    ("derive-q-override-doppler", ["derive", *POINT, *PR, "--set", "q_override=1"], {}),
    ("missing-sigma-db", COMPARE, {}),
    ("derive-path-loss", ["derive", *POINT, *PR, *CONSTANT_LOSS, *OUT], {}),
    ("pe-path-loss", ["pe", *POINT, "--set", "p_t=4e16", *ITERS, *CONSTANT_LOSS, *OUT], {}),
    ("compare-path-loss", COMPARE_PATH_LOSS, {}),
    ("compare-path-loss-pt", [*COMPARE_PATH_LOSS, "--set", "awgn_power=pt"], {}),
    ("compare-path-loss-pr", [*compare_path_loss("p_r=1e5"), "--set", "awgn_power=pt"], {}),
    ("sweep-low-duty", ["sweep", *POINT, *PR, *LOW_DUTY, "--variants", "wtfc,ifsk", *OUT], {}),
    ("compare-low-duty-blocks", ["compare-shadowing", *POINT, "--set", "p_r=1e5", *LOW_DUTY,
                                 "--sigma-db", "8", "--threads", "2",
                                 "--set", "shadow_block_len=1000", *OUT], {}),
    ("compare-span-blocks-20000", [*SPAN_EDGES, "--set", "shadow_block_len=20000"], {}),
    ("compare-span-blocks-50000", [*SPAN_EDGES, "--set", "shadow_block_len=50000"], {}),
    ("compare-span-threads-2", [*SPAN_EDGES, "--threads", "2"], {}),
    # Duty 1e-5 at p_r = 1e5, p_e ~2e-5: 20 000 iterations hold no error, and
    # the floor set's scores give the estimate.
    ("pe-saturated", ["pe", *POINT, "--set", "duty_cycle=1e-5", "--set", "p_r=1e5", *ITERS,
                      *OUT], {}),
    # p_r = 100, mu ~2.01: every iteration is a candidate, every span and
    # every count run whole, and every iteration with E <= c_f has
    # t >= c_f and scores P_f.
    ("pe-low-snr", ["pe", *POINT, "--set", "p_r=100", *ITERS, *OUT], {}),
    # 50 iterations at duty 1e-4, where every error lies in the floor set:
    # pi_50 = P(f >= 1) = 0.545 divides the floor set's mean score, and
    # seed 6 draws f >= 2, so its scores' spread gives the half-width.
    ("pe-iters-50", ["pe", *POINT, "--set", "duty_cycle=1e-4", *PR, "--iters", "50",
                     "--seed", "6", *OUT], {}),
    # One shadowed iteration: one score, whose half-width is the widest.
    ("pe-shadowed-iters-1", ["pe", *POINT, *PR, "--iters", "1", "--seed", "3", *OUT],
     SHADOWED),
    # Shadowed blocks of 1000 symbols: 20 blocks in 10 pairs.
    ("pe-shadowed-blocks-1000", ["pe", *POINT, *PR, *ITERS, "--set", "shadow_block_len=1000",
                                 *OUT], SHADOWED),
    # 37 shadowed symbols: 18 pairs and one block without a partner.
    ("pe-shadowed-iters-37", ["pe", *POINT, *PR, "--iters", "37", "--seed", "3", *OUT],
     SHADOWED),
    # S ~ 2.7e302: p_e / (S - 1) underflows.
    ("capacity-huge-alphabet", ["capacity", *POINT, *PR, *ITERS, *HUGE_ALPHABET, *OUT], {}),
    # S ~ 8e595, past the float range.
    ("pe-alphabet-past-float-range",
     ["pe", *POINT, *PR, *ITERS, *HUGE_ALPHABET, "--set", "bandwidth_hz=1e300",
      "--set", "doppler_spread_hz=3", *OUT], {}),
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


def columns(data: bytes) -> dict[str, list]:
    """A result file's values by column, in file order.

    JSON by key, with a sweep's ``rows`` by their keys; ``key = value``
    lines by key; else a CSV table by its header. A ``# config:`` comment
    is the column ``# config``.
    """
    text = data.decode()
    lines = text.splitlines()
    found: dict[str, list] = {}
    if lines and lines[0].startswith("# config:"):
        found["# config"] = [lines.pop(0)]
    try:
        document = json.loads(text)
    except ValueError:
        if lines and all(" = " in line for line in lines):
            for line in lines:
                key, value = line.split(" = ", 1)
                found.setdefault(key, []).append(value)
            return found
        header, *rows = csv.reader(lines)
        for i, name in enumerate(header):
            found[name] = [row[i] for row in rows]
        return found
    for key, value in document.items():
        if key == "rows" and isinstance(value, list):
            for row in value:
                for name, cell in row.items():
                    found.setdefault(name, []).append(cell)
        else:
            found[key] = [value]
    return found


def differing_columns(parent: bytes, change: bytes) -> list[str]:
    """The columns of one result file whose values differ between two runs."""
    old, new = columns(parent), columns(change)
    return [name for name in {**old, **new} if old.get(name) != new.get(name)]


def changed_files(parent: dict, change: dict) -> list[str]:
    """One line per result file of two ``run_call`` results that differs,
    naming the columns that differ."""
    lines = []
    for file in sorted(set(parent["files"]) | set(change["files"])):
        contents = [parent["files"].get(file), change["files"].get(file)]
        if contents[0] != contents[1]:
            names = (differing_columns(*contents) if None not in contents
                     else ["(only on one side)"])
            lines.append(f"  {file} columns: {', '.join(names)}")
    return lines


def expected_calls(text: str) -> set[str]:
    """The call names of an ``--expect`` value; ``ValueError`` on a name not in ``CALLS``."""
    names = {name.strip() for name in text.split(",")} - {""}
    unknown = names - {name for name, _, _ in CALLS}
    if unknown:
        raise ValueError(f"no such call: {', '.join(sorted(unknown))}")
    return names


def verdict(differing: set[str], expected: set[str]) -> tuple[int, list[str]]:
    """Exit code and report lines: 0 when exactly the expected calls differ."""
    lines = [f"{label}: {', '.join(sorted(names))}" for label, names in (
        ("differ, not expected", differing - expected),
        ("expected to differ, same", expected - differing),
    ) if names]
    return (0 if differing == expected else 1), lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="changed commit")
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--expect", default="", metavar="NAME[,NAME...]",
                        help="the calls that should differ, comma-separated")
    args = parser.parse_args(argv)
    try:
        expected = expected_calls(args.expect)
    except ValueError as exc:
        parser.error(f"--expect: {exc}")

    sides = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    differing = set()
    with tempfile.TemporaryDirectory() as tmp:
        workdir, runs = args.workdir or Path(tmp), Path(tmp) / "runs"
        checkouts = {side: export(rev, workdir) for side, rev in sides.items()}
        for name, call, env in CALLS:
            results = [run_call(checkouts[side] / "src", runs / side / name, call, env)
                       for side in sides]
            parts = differences(*results)
            if parts:
                differing.add(name)
            print(f"{name}: {'differs in ' + ', '.join(parts) if parts else 'same'}",
                  flush=True)
            for line in changed_files(*results):
                print(line, flush=True)
    print(f"{len(CALLS) - len(differing)} of {len(CALLS)} calls identical")
    code, lines = verdict(differing, expected)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
