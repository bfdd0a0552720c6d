"""One workload in one process: set up, run whole rounds of jobs, check.

Started by run.py; prints one JSON object as its last line of output. The
set-up time runs from the moment the parent started this process (``--t0``,
a CLOCK_MONOTONIC reading) until the first timed job, and covers interpreter
start, imports, writing the input pair files and the warm-up. Artifact checks
run after the timed loop.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_INDEX = {"gap_sweep": 0, "monte_carlo": 1, "word_orbits": 2}


def _import_program():
    """Import su2gap from the checkout's src/, and nothing installed elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import su2gap  # noqa: F401

    location = Path(su2gap.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError(f"su2gap was imported from {location}, not from {src}")


def _run(job, cli) -> object:
    """The timed part of one job: the CLI call or the library call."""
    if job.call is not None:
        return job.call()
    return cli.main(job.argv + ["--out", str(job.path)])


def _digest(job, outcome) -> str:
    if job.call is not None:
        return repr(outcome)
    return hashlib.sha256(job.path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INDEX))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    try:
        _import_program()
    except ImportError as exc:
        print(f"worker: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    from su2gap import cli

    import tracing
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed, WORKLOAD_INDEX[args.workload]])
    jobs, warm_up = workloads.WORKLOADS[args.workload](rng, workdir)
    for job in jobs:
        job.path = job.path or workdir / f"{job.key}.out"
    warm_up()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies: list[float] = []
    by_kind: dict[str, list[float]] = {}
    digests: dict[str, str] = {}
    bad_exit: dict[str, list] = {}
    outcomes: dict[str, object] = {}
    unsteady: set[str] = set()
    bytes_out = 0
    rounds = 0
    loop_start = time.perf_counter()
    # whole rounds only; another starts if it should end within --seconds
    while rounds == 0 or (time.perf_counter() - loop_start) * (rounds + 1) / rounds <= args.seconds:
        for job in jobs:
            start = time.perf_counter()
            try:
                outcome = _run(job, cli)
                ok = job.call is not None or outcome == 0
            except Exception as exc:  # a crash is a failed job, and the run goes on
                outcome, ok = f"{type(exc).__name__}: {exc}", False
            latencies.append(time.perf_counter() - start)
            by_kind.setdefault(job.kind, []).append(latencies[-1])
            if not ok:
                bad_exit.setdefault(job.key, []).append(outcome)
                continue
            outcomes[job.key] = outcome
            digest = _digest(job, outcome)
            if digests.setdefault(job.key, digest) != digest:
                unsteady.add(job.key)
            if job.call is None:
                bytes_out += job.path.stat().st_size
        rounds += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for kind, values in by_kind.items():
        print(f"worker: {kind}: {len(values)} jobs, median {statistics.median(values):.4g} s", file=sys.stderr)
    failed = sum(len(v) for v in bad_exit.values())
    correct = not unsteady
    for key in sorted(unsteady):
        print(f"worker: {key}: artifact differs between rounds", file=sys.stderr)
    for job in jobs:
        if job.key in bad_exit:
            statuses = bad_exit[job.key]
            errors = [f"failed in {len(statuses)} of {rounds} rounds, last with {statuses[-1]!r}"]
        else:
            target = outcomes[job.key] if job.call is not None else job.path
            try:
                errors = job.check(target)
            except Exception as exc:  # an unreadable artifact fails its check
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            if errors:
                failed += rounds
        if errors:
            label = "known fault" if job.known_fault else "FAILED"
            print(f"worker: {job.key} {label}: {'; '.join(errors)}", file=sys.stderr)
            correct = correct and job.known_fault is not None

    result = {
        "setup_s": setup_s,
        "rounds": rounds,
        "jobs": len(latencies),
        "job_time_s": sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "peak_rss_mb": rss_mb,
        "attempted": len(latencies),
        "failed": failed,
        "correct": correct,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(rounds, bytes_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
