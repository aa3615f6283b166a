"""Per-module spans, recorded by wrapping the program's public functions.

Each wrapper is installed at the name through which the program calls the
function (`sdgm.best_response_profile`, `harness.generate_random`, ...), so
nothing in the program is edited.  Spans are folded into per-name totals as
they close: a round of the ensemble opens about half a million of them.
"""
from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span): every place the program calls a traced function.
# Demand evaluations inside the oracle are not wrapped: they are oracle work.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "generate_random", "problem.generate_random"),
    ("harness", "generate_random", "problem.generate_random"),
    ("cli", "compute_constants", "problem.compute_constants"),
    ("harness", "compute_constants", "problem.compute_constants"),
    ("oracle", "compute_constants", "problem.compute_constants"),
    ("cli", "load_problem", "problem.load_problem"),
    ("cli", "save_problem", "problem.save_problem"),
    ("harness", "problem_hash", "problem.problem_hash"),
    ("oracle", "solve_optimal", "oracle.solve_optimal"),
    ("sdgm", "best_response_profile", "agents.best_response_profile"),
    ("baselines", "best_response_profile", "agents.best_response_profile"),
    ("sdgm", "run_sdgm", "sdgm.run_sdgm"),
    ("baselines", "run_dgm", "baselines.run_dgm"),
    ("baselines", "run_fdgm", "baselines.run_fdgm"),
    ("baselines", "run_ndgm", "baselines.run_ndgm"),
    ("sdgm", "build_trace", "trace.build_trace"),
    ("baselines", "build_trace", "trace.build_trace"),
    ("trace", "TrialTrace.write_csv", "trace.TrialTrace.write_csv"),
    ("harness", "read_trace_csv", "trace.read_trace_csv"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "report", "harness.report"),
    ("harness", "aggregate", "harness.aggregate"),
    ("harness", "SummaryStats.write_csv", "harness.SummaryStats.write_csv"),
)
LOOPS = ("sdgm.run_sdgm", "baselines.run_dgm", "baselines.run_fdgm", "baselines.run_ndgm")


def _horizon(args, kwargs):
    return kwargs["horizon"] if "horizon" in kwargs else args[2]


class Tracer:
    """Inclusive time, child time and calls per span name, plus work counts."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.children = defaultdict(float)
        self.calls = Counter()
        self.rounds = Counter()  # pricing rounds run by each loop
        self.bytes_written = 0
        self.iterations = []  # oracle iterations of each solve
        self.solve_s = []  # duration of each solve
        self.root_s = 0.0  # time covered by outermost spans
        self._open = []  # child time accumulated by each open span

    def self_s(self, name: str) -> float:
        return self.inclusive[name] - self.children[name]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.inclusive[name] += elapsed
                self.children[name] += self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.root_s += elapsed
            self._count(name, args, kwargs, result, elapsed)
            return result

        return traced

    def _count(self, name, args, kwargs, result, elapsed):
        if name in LOOPS:
            self.rounds[name] += _horizon(args, kwargs)
        elif name == "oracle.solve_optimal":
            self.iterations.append(result.iterations_used)
            self.solve_s.append(elapsed)
        elif name == "trace.TrialTrace.write_csv" and not hasattr(args[1], "write"):
            self.bytes_written += os.path.getsize(args[1])

    def install(self) -> None:
        """Wrap every function in SPANS, for the rest of this process."""
        for module_name, attribute, span in SPANS:
            owner = importlib.import_module(f"safedual.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(span, getattr(owner, leaf)))

    def layers(self) -> dict:
        """Per-layer metrics of everything traced so far: name -> (value, unit)."""
        s = self.self_s
        loop_rounds = {name: self.rounds[name] for name in LOOPS}
        baseline_loops = LOOPS[1:]
        baseline_rounds = sum(loop_rounds[name] for name in baseline_loops)
        iterations = self.iterations or [0]
        solve_ms = [1e3 * seconds for seconds in self.solve_s] or [0.0, 0.0]
        return {
            "problem.generate_s": (s("problem.generate_random"), "s"),
            "problem.constants_s": (s("problem.compute_constants"), "s"),
            "problem.io_s": (s("problem.load_problem") + s("problem.save_problem")
                             + s("problem.problem_hash"), "s"),
            "agents.demand_s": (s("agents.best_response_profile"), "s"),
            "agents.demand_calls": (self.calls["agents.best_response_profile"], "count"),
            "sdgm.loop_s": (s("sdgm.run_sdgm"), "s"),
            "sdgm.round_us": (_per_round(self.inclusive["sdgm.run_sdgm"], loop_rounds["sdgm.run_sdgm"]), "us"),
            "baselines.dgm_loop_s": (s("baselines.run_dgm"), "s"),
            "baselines.fdgm_loop_s": (s("baselines.run_fdgm"), "s"),
            "baselines.ndgm_loop_s": (s("baselines.run_ndgm"), "s"),
            "baselines.round_us": (_per_round(sum(self.inclusive[n] for n in baseline_loops),
                                              baseline_rounds), "us"),
            "oracle.solve_s": (s("oracle.solve_optimal"), "s"),
            "oracle.iterations_total": (sum(iterations), "count"),
            "oracle.iterations_p50": (statistics.median(iterations), "count"),
            "oracle.iterations_max": (max(iterations), "count"),
            "oracle.solve_p50_ms": (statistics.median(solve_ms), "ms"),
            "oracle.solve_p90_ms": (statistics.quantiles(solve_ms, n=10, method="inclusive")[8], "ms"),
            "trace.build_s": (s("trace.build_trace"), "s"),
            "trace.write_s": (s("trace.TrialTrace.write_csv"), "s"),
            "trace.bytes_written": (self.bytes_written, "B"),
            "trace.read_s": (s("trace.read_trace_csv"), "s"),
            "harness.aggregate_s": (s("harness.aggregate"), "s"),
            "harness.summary_write_s": (s("harness.SummaryStats.write_csv"), "s"),
            "harness.self_s": (s("harness.run_experiment") + s("harness.run_trial")
                               + s("harness.report"), "s"),
            "cli.self_s": (s("cli.main"), "s"),
        }


def _per_round(seconds: float, rounds: int) -> float:
    return seconds / rounds * 1e6 if rounds else 0.0
