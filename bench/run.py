"""Benchmark of the safedual reproduction: one workload, measured end to end.

    python3 bench/run.py --workload {ensemble,long_horizon,certify} \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round is a fresh single process
(`worker.py`) that imports the program from `src`, makes its inputs in a
fresh directory, runs the workload's commands serially and checks their
outputs.  Rounds repeat while one more still fits in S seconds; each run
does at least one.  With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 each round runs once untraced and once
with per-module spans, and the object holds the per-layer metrics.  See
README.md for what each workload and metric is.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUNS = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("ensemble", "long_horizon", "certify")
SETUP_PROBES = 3  # extra set-ups per run, so setup_s is a median of several
DEADLINE_S = 175  # a run must end within 180 s


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so a worker's readings compare with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, args, base: str):
        self.args = args
        self.base = base
        self.deadline = now() + DEADLINE_S
        self.count = 0

    def round(self, trace: bool, setup_only: bool = False) -> dict:
        """Run one worker to its end; returns its result plus its setup_s."""
        self.count += 1
        workdir = os.path.join(self.base, f"round{self.count:03d}")
        os.makedirs(workdir)
        argv = [sys.executable, WORKER, "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--dir", workdir, "--trace", str(int(trace))]
        if setup_only:
            argv.append("--setup-only")
        start = now()
        try:
            subprocess.run(argv, cwd=ROOT, stdout=sys.stderr, check=True,
                           timeout=max(1.0, self.deadline - start))
            with open(os.path.join(workdir, "result.json")) as fh:
                result = json.load(fh)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["setup_s"] = result["ready"] - start
        return result


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def end_to_end(setups, rounds) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median_of(rounds, "wall_s"), "s"),
        "peak_rss_mb": (median_of(rounds, "peak_rss_mb"), "MiB"),
    }


def per_layer(untraced, traced) -> dict:
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
    wall = median_of(traced, "wall_s")
    metrics["traced.wall_s"] = (wall, "s")
    metrics["traced.overhead_s"] = (wall - median_of(untraced, "wall_s"), "s")
    metrics["traced.coverage"] = (median_of(traced, "coverage"), "fraction")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the finally clause below removes the run's directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "safedual", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/safedual is missing", file=sys.stderr)
        return 2

    os.makedirs(RUNS, exist_ok=True)
    base = tempfile.mkdtemp(dir=RUNS)
    try:
        runner = Runner(args, base)
        setups = [runner.round(False, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        rounds = {False: [], True: []}
        begin = now()
        while True:
            start = now()
            for trace in ((False, True) if args.trace else (False,)):
                result = runner.round(trace)
                setups.append(result["setup_s"])
                rounds[trace].append(result)
            if now() - begin + (now() - start) > args.seconds:
                break  # another round as long as this one would overrun
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:  # another run is still using it
            pass

    done = rounds[False] + rounds[True]
    faults = [fault for r in done for fault in r["faults"]]
    failed = [op for r in done for op in r["failed"]]
    for fault in faults[:20]:
        print(f"CHECK FAILED: {fault}", file=sys.stderr)
    for op in failed[:20]:
        print(f"OPERATION FAILED: {op['op']}: {op['stderr'].strip()}", file=sys.stderr)
    metrics = per_layer(rounds[False], rounds[True]) if args.trace else end_to_end(setups, rounds[False])
    print(json.dumps({
        "correct": not faults,
        "attempted": sum(r["attempted"] for r in done),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not faults else 1


if __name__ == "__main__":
    sys.exit(main())
