"""Benchmark of su2gap: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload gap_sweep --seed 1 --seconds 20 --trace 0

Runs the workload in a fresh worker process (worker.py), which imports su2gap
from src/, repeats whole rounds of the workload's jobs for --seconds, and
checks every artifact against computations made apart from the program. The
last line printed is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gap_sweep", "monte_carlo", "word_orbits")
SETUP_RUNS = 3  # processes whose set-up is timed; the last one also runs the jobs
DEADLINE_S = 170.0  # everything this command starts ends within this


def _worker(args, index: int, deadline: float, setup_only: bool) -> dict:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--workdir", str(workdir)] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(time.monotonic())],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "su2gap" / "__init__.py").is_file():
        print(f"run.py: no su2gap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            _worker(args, i, deadline, setup_only=True)["setup_s"] for i in range(SETUP_RUNS - 1)
        ]
        result = _worker(args, SETUP_RUNS, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    jobs_per_s = result["jobs"] / result["job_time_s"]
    print(
        f"run.py: {args.workload} seed {args.seed}: {result['rounds']} rounds, {result['jobs']} jobs, "
        f"{jobs_per_s:.4f} jobs/s, trace {args.trace}",
        file=sys.stderr,
    )
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_p50_s": {"value": result["job_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {key: result[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps(summary | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
