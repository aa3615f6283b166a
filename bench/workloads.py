"""The benchmark's workloads: what each sets up, runs and checks.

Each workload is a batch job: one client that drives `safedual.cli.main`
in-process and waits for every command to finish.  `run` receives `call`,
which runs one CLI command, times it, and returns (succeeded, stdout).
"""
from __future__ import annotations

import json
import os

import numpy as np

import checks

ALGORITHMS = ("SDGM", "DGM", "FDGM", "NDGM")


class Experiment:
    """`safedual compare` into a fresh directory, then `safedual report` on it.

    The fresh directory matters: `compare` reuses the oracle cache it finds,
    and `report` averages every trace it finds.
    """

    def __init__(self, trials: int, horizon: int, args: tuple[str, ...]):
        self.trials = trials
        self.horizon = horizon
        self.args = args

    def setup(self, workdir: str, seed: int, cli) -> None:
        """Nothing to make: `compare` generates its networks from master seed 0."""

    def run(self, workdir: str, call) -> dict:
        out = os.path.join(workdir, "out")
        compared, compare_stdout = call("compare", ["compare", "--out", out, *self.args])
        if not compared:
            return {}
        with open(os.path.join(out, "summary.csv"), "rb") as fh:
            summary = fh.read()
        reported, report_stdout = call("report", ["report", "--out", out])
        if not reported:
            return {}
        return {"out": out, "compare": json.loads(compare_stdout),
                "report": json.loads(report_stdout), "summary": summary}

    def check(self, outputs: dict, regenerate) -> list[str]:
        if not outputs:  # a command failed; there is nothing whole to check
            return []
        return checks.check_experiment(
            outputs["out"], self.trials, self.horizon, ALGORITHMS,
            outputs["compare"], outputs["report"], outputs["summary"], regenerate,
        )


class Certify:
    """`safedual generate` for each problem during set-up, then `safedual solve`
    on each problem file: the oracle alone, with no pricing loop or traces."""

    def __init__(self, problems: int):
        self.problems = problems

    def paths(self, workdir: str) -> list[str]:
        return [os.path.join(workdir, f"problem_{k:04d}.json") for k in range(self.problems)]

    def setup(self, workdir: str, seed: int, cli) -> None:
        seeds = np.random.SeedSequence(seed).generate_state(self.problems, np.uint32)
        for path, problem_seed in zip(self.paths(workdir), seeds):
            if cli.main(["generate", "--seed", str(problem_seed), "--out", path]) != 0:
                raise RuntimeError(f"safedual generate --seed {problem_seed} failed")

    def run(self, workdir: str, call) -> dict:
        solved = {}
        for path in self.paths(workdir):
            ok, stdout = call("solve", ["solve", path])
            if ok:
                solved[path] = json.loads(stdout)
        return solved

    def check(self, outputs: dict, regenerate) -> list[str]:
        faults = []
        for path, solution in outputs.items():
            with open(path) as fh:
                problem = checks.problem_arrays(json.load(fh))
            faults += checks.check_optimum(problem, solution, os.path.basename(path))
        return faults


WORKLOADS = {
    # the shipped ensemble: 100 networks x 1000 rounds x 4 algorithms, seed 0
    "ensemble": Experiment(trials=100, horizon=1000, args=()),
    # the first 3 networks of the same ensemble, 10x the horizon
    "long_horizon": Experiment(trials=3, horizon=10_000, args=("--trials", "3", "--horizon", "10000")),
    "certify": Certify(problems=300),
}
