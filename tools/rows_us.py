"""Microseconds that trace.write_rows takes per CHUNK-row chunk of the six trace columns.

    PYTHONPATH=src python3 tools/rows_us.py [--trials N] [--horizon T] [--passes P]

Runs `compare` in process on the first N trials of master seed 0 at horizon T
(2 and 8192 by default) in a temporary directory, loads its traces.npy, and
times, in process, trace.write_rows writing every whole CHUNK (1024) rounds
of every (trial, algorithm) slab, all six metric columns, to os.devnull, as
compare writes a trace CSV.  Each pass times all chunks once.  Prints one
JSON line: the median and the least of the passes' µs per chunk, each pass's
figure, the number of chunks, and the safedual module timed, so that two
source trees are measured by setting PYTHONPATH.  Pin it to one CPU
(`taskset -c 1 ...`) when comparing two trees run one after the other.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--horizon", type=int, default=8192)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    import safedual
    from safedual import cli, trace

    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["compare", "--seed", "0", "--trials", str(args.trials),
                             "--horizon", str(args.horizon), "--out", out])
        if code != 0:
            raise SystemExit(f"compare exited with {code}")
        table = np.load(os.path.join(out, "traces.npy"))  # (metric, round, algorithm, trial)
        with open(os.path.join(out, "manifest.json")) as fh:
            algorithms = json.load(fh)["config"]["algorithms"]
    chunks = [
        (f"{k},{algorithm},", range(start + 1, start + trace.CHUNK + 1), list(table[:, start:start + trace.CHUNK, a, k]))
        for k in range(table.shape[3])
        for a, algorithm in enumerate(algorithms)
        for start in range(0, table.shape[1] - trace.CHUNK + 1, trace.CHUNK)
    ]
    if not chunks:
        raise SystemExit(f"a horizon of {args.horizon} holds no whole chunk of {trace.CHUNK} rounds")
    passes = []
    with open(os.devnull, "w") as sink:
        for _ in range(args.passes):
            start = time.perf_counter()
            for prefix, index, columns in chunks:
                trace.write_rows(sink, prefix, index, columns)
            passes.append((time.perf_counter() - start) / len(chunks) * 1e6)
    print(json.dumps({
        "us_per_chunk": statistics.median(passes), "min_us_per_chunk": min(passes), "passes": passes,
        "chunks": len(chunks), "rows": trace.CHUNK, "columns": table.shape[0], "module": safedual.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
