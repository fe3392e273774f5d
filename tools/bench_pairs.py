"""Run ``bench/run.py`` on two commits in alternating pairs and record every run.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent REV --change REV --workload cli-queries \
        --seeds 1001-1010 --seconds 32 --out BENCH_7.json

Each commit is exported with ``git archive`` into its own directory under
``--workdir``, so the benchmark builds what it runs from committed files
only. Pair ``i`` runs both sides on seed ``i``, parent first in even pairs
and change first in odd ones, one run at a time. The last line each run
prints (its JSON result) is kept as it is, with the workload, seed and the
order in the pair. ``--out`` accumulates: runs of another workload are
added to an existing file, and the per-workload summary (medians, parent
quartiles, change wins) is recomputed over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, workdir: Path) -> Path:
    target = workdir / rev
    if not target.exists():
        target.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: medians, parent quartiles and change wins."""
    summary: dict = {}
    for workload in sorted({run["workload"] for run in runs}):
        pairs: dict = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        metrics = {}
        for name in pairs[0]["parent"]["metrics"]:
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            metrics[name] = {
                "parent_median": parent_median,
                "change_median": change_median,
                "change_pct": 100.0 * (change_median - parent_median) / parent_median
                if parent_median else None,
                "parent_quartiles": [q1, q3],
                "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            }
        summary[workload] = {
            "pairs": len(pairs),
            "failed": sum(p[side]["failed"] for p in pairs for side in p),
            "metrics": metrics,
        }
    return summary


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="changed commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, one pair per seed")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)

    sides = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    record = json.loads(args.out.read_text()) if args.out.exists() else {
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
        "environment": {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                        "python": platform.python_version()},
        "commits": {side: {"commit": rev, "src_tree": git("rev-parse", f"{rev}:src")}
                    for side, rev in sides.items()},
        "runs": [],
    }
    if {side: c["commit"] for side, c in record["commits"].items()} != sides:
        parser.error(f"{args.out} records other commits")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir or Path(tmp)
        checkouts = {side: export(rev, workdir) for side, rev in sides.items()}
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                result = run_once(checkouts[side], args.workload, seed, args.seconds)
                record["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                       "order": position, "seconds": args.seconds,
                                       "result": result})
                print(f"{args.workload} seed {seed} {side}: "
                      + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                      flush=True)
            record["summary"] = summarize(record["runs"])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
