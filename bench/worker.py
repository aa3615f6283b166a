"""One round of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --dir DIR --trace 0|1 [--setup-only]

Imports the program from the checkout's `src`, makes the workload's inputs
in DIR, then runs and times its commands and checks their outputs.  Writes
DIR/result.json; `run.py` reads it and removes DIR.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program():
    """The `safedual` package of this checkout, never an installed copy."""
    sys.path.insert(0, SRC)
    import safedual

    if os.path.dirname(os.path.abspath(safedual.__file__)) != os.path.join(SRC, "safedual"):
        raise ImportError(f"safedual was imported from {safedual.__file__}, not {SRC}")
    from safedual import cli
    from safedual.problem import GeneratorConfig, generate_random, problem_to_dict

    def regenerate(seed):
        return problem_to_dict(generate_random(GeneratorConfig(seed=seed)))

    return cli, regenerate


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    from tracer import Tracer
    from workloads import WORKLOADS

    cli, regenerate = import_program()
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.setup(args.dir, args.seed, cli)
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time.
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}

    if not args.setup_only:
        ops = []

        def call(label, argv):
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            ops.append({"op": label, "seconds": time.perf_counter() - start,
                        "ok": code == 0, "stderr": stderr.getvalue()})
            return code == 0, stdout.getvalue()

        covered = tracer.root_s if tracer else 0.0
        outputs = workload.run(args.dir, call)
        result["wall_s"] = sum(op["seconds"] for op in ops)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["attempted"] = len(ops)
        result["failed"] = [op for op in ops if not op["ok"]]
        if tracer:
            result["layers"] = tracer.layers()
            result["coverage"] = (tracer.root_s - covered) / result["wall_s"]
        result["faults"] = workload.check(outputs, regenerate)

    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
