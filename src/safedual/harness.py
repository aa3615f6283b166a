"""End-to-end experiment runner: ensembles, metrics, CSV artifacts.

A run generates an ensemble of random networks, solves each to optimality,
runs the selected algorithms for a fixed horizon, and writes one trace CSV
per (trial, algorithm) plus an aggregate summary.  Each worker takes a
contiguous block of trials and runs every selected algorithm over it in
one loop, over a ProblemBatch that holds the block once per algorithm.
Everything is a pure function of the master seed, regardless of worker
count and batch size.
"""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import baselines, oracle, sdgm
from .agents import UnboundedSubproblemError
from .problem import (
    GeneratorConfig,
    ProblemBatch,
    compute_constants,
    generate_random,
    problem_hash,
)
from .trace import METRIC_COLUMNS, TraceRecorder, TrialTrace, read_trace_csv

# name -> start(batch, constants, gammas) -> (start dual, update) for
# sdgm.run_pricing.  Each entry looks its start function up on its module at
# call time, so a wrapper installed there sees every run.  gammas are the safe
# method's base steps, one per trial; the baselines take none.
STARTS = {
    "SDGM": lambda batch, constants, gammas: sdgm.start_sdgm(batch, constants, gammas),
    "DGM": lambda batch, constants, gammas: baselines.start_dgm(batch, constants),
    "FDGM": lambda batch, constants, gammas: baselines.start_fdgm(batch, constants),
    "NDGM": lambda batch, constants, gammas: baselines.start_ndgm(batch, constants),
}
ALGORITHMS = tuple(STARTS)


class ConfigError(ValueError):
    """An experiment config document names a field the config does not have."""


class TraceMismatchError(ValueError):
    """A trace the manifest lists is missing or does not match the manifest."""


def _from_fields(cls, doc: dict):
    """Build dataclass `cls` from a JSON document; JSON lists become tuples."""
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    horizon: int = 1000
    trials: int = 100
    algorithms: tuple[str, ...] = ALGORITHMS
    master_seed: int = 0
    output_dir: str = "results"
    gamma: float | None = None  # overrides the tuned base step of the safe method
    workers: int = 1

    def check(self):
        self.generator.check()
        if self.trials < 1 or self.horizon < 1:
            raise ValueError("trials and horizon must be at least 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if not self.algorithms:
            raise ValueError("no algorithms selected")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"repeated algorithms: {list(self.algorithms)}")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.gamma is not None and "SDGM" not in self.algorithms:
            raise ValueError(
                f"gamma is the base step of SDGM, which {list(self.algorithms)} leaves out"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        doc["generator"] = _from_fields(GeneratorConfig, doc.get("generator", {}))
        return _from_fields(cls, doc)


@dataclass
class SummaryStats:
    """Across-trial mean and standard deviation of every metric at every t."""

    algorithms: tuple[str, ...]
    horizon: int
    trials: int
    mean: dict  # (algorithm, metric) -> array over t
    std: dict
    regret_scaled_final: dict  # trial_id -> R(T)/sqrt(T), safe method only

    def write_csv(self, path) -> None:
        header = ["algorithm", "t"]
        for metric in METRIC_COLUMNS:
            header += [f"{metric}_mean", f"{metric}_std"]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for alg in self.algorithms:
                columns = [np.arange(1, self.horizon + 1)]
                for metric in METRIC_COLUMNS:
                    columns += [self.mean[(alg, metric)], self.std[(alg, metric)]]
                row = alg.replace("%", "%%") + ",%d" + ",%.17g" * (len(columns) - 1) + "\n"
                values = np.column_stack(columns).ravel().tolist()
                fh.write(row * self.horizon % tuple(values))


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Splittable per-trial seed; stable no matter how trials are scheduled."""
    state = np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1, np.uint64)
    return int(state[0])


def trial_trace_path(output_dir: str, trial_id: int, algorithm: str) -> str:
    return os.path.join(output_dir, "traces", f"trial_{trial_id:04d}_{algorithm}.csv")


def _cached_oracle(problem, cache_dir):
    name = f"{problem_hash(problem)}.{oracle.SOLVER}.json"
    path = os.path.join(cache_dir, name) if cache_dir else None
    if path and os.path.exists(path):
        with open(path) as fh:
            return oracle.OptimalSolution.from_dict(json.load(fh))
    solution = oracle.solve_optimal(problem)
    if path:
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(solution.to_dict(), fh)
        os.replace(tmp, path)
    return solution


def _fuse(starts, m: int, n: int):
    """One start dual and one update from the starts of several algorithms
    over one batch of m rows and n users: the a-th owns rows a*m to (a+1)*m
    and users a*n to (a+1)*n of the fused batch."""
    parts = [
        (update, slice(a * m, (a + 1) * m), slice(a * n, (a + 1) * n))
        for a, (_, update) in enumerate(starts)
    ]

    def update(lam, x, load, t):
        lam_next = np.empty_like(lam)
        for step, rows, users in parts:
            lam_next[rows] = step(lam[rows], x[users], load[rows], t)
        return lam_next

    return np.concatenate([lam for lam, _ in starts]), update


def run_batch(
    algorithms: tuple[str, ...], batch: ProblemBatch, constants, horizon: int, gammas,
    trial_ids, f_stars, x_star=None,
) -> list[TrialTrace]:
    """Run registered algorithms over a batch; one trace per (algorithm, trial),
    algorithm by algorithm.

    One loop prices the batch once per algorithm, so each round makes one
    demand call and one A x for all of them, and each algorithm updates its
    own slice of the duals.  An UnboundedSubproblemError names a user of
    that fused batch.  `constants`, `gammas`, `trial_ids` and `f_stars` hold
    one entry per trial; `x_star` is the trials' reference optima,
    concatenated, or None.
    """
    starts = [STARTS[alg](batch, constants, gammas) for alg in algorithms]
    copies = len(algorithms)
    fused = ProblemBatch(batch.problems * copies)
    record = TraceRecorder(fused, horizon, None if x_star is None else np.tile(x_star, copies))
    sdgm.run_pricing(fused, *_fuse(starts, batch.m, batch.n), horizon, record)
    return [
        trace
        for a, alg in enumerate(algorithms)
        for trace in record.traces(alg, trial_ids, f_stars, first=a * batch.size)
    ]


def run_algorithm(
    algorithm: str, problem, constants, horizon: int, gamma=None,
    trial_id: int = 0, f_star: float = np.nan, x_star=None,
) -> TrialTrace:
    """Run one registered algorithm on one instance, as a batch of one."""
    return run_batch(
        (algorithm,), ProblemBatch([problem]), [constants], horizon, [gamma],
        [trial_id], [f_star], x_star,
    )[0]


@contextmanager
def _naming_trial(config: ExperimentConfig, trial_id: int):
    """Re-raise any failure as one that names the trial and its seed, for replay."""
    try:
        yield
    except Exception as exc:
        seed = derive_trial_seed(config.master_seed, trial_id)
        raise RuntimeError(f"trial {trial_id} (seed {seed}) failed: {exc}") from exc


def _prepare_trial(config: ExperimentConfig, trial_id: int):
    """Generate one trial, derive its constants and solve its reference optimum."""
    seed = derive_trial_seed(config.master_seed, trial_id)
    problem = generate_random(replace(config.generator, seed=seed))
    constants = compute_constants(problem)
    cache_dir = os.path.join(config.output_dir, "oracle_cache")
    solution = _cached_oracle(problem, cache_dir)
    gamma = config.gamma if config.gamma is not None else sdgm.default_gamma(constants, problem)
    meta = {
        "trial_id": trial_id,
        "seed": seed,
        "n": problem.n,
        "m": problem.m,
        "gamma": gamma,
        "lambda_bar": constants.lambda_bar,
        "mu": constants.mu,
        "spectral": constants.spectral,
        "c_l1": float(np.abs(problem.capacities).sum()),
        "regret_constant": sdgm.regret_constant(constants, problem),
        "f_star": solution.f_star,
        "kkt_residual": solution.kkt_residual,
        "oracle_iterations": solution.iterations_used,
    }
    return problem, constants, solution, meta


def run_trials(config: ExperimentConfig, trial_ids) -> tuple[list[dict], list[TrialTrace]]:
    """Run a block of trials as one batch.

    Prepares each trial, runs the selected algorithms together over the
    batch, then writes one CSV per (trial, algorithm) under the output
    directory.
    Returns the trials' manifest entries and their traces.
    """
    trial_ids = list(trial_ids)
    prepared = []
    for trial_id in trial_ids:
        with _naming_trial(config, trial_id):
            prepared.append(_prepare_trial(config, trial_id))
    problems, constants, solutions, metas = zip(*prepared)
    batch = ProblemBatch(problems)
    gammas = [meta["gamma"] for meta in metas]
    f_stars = [solution.f_star for solution in solutions]
    x_star = np.concatenate([solution.x_star for solution in solutions])
    try:
        traces = run_batch(
            config.algorithms, batch, constants, config.horizon, gammas, trial_ids, f_stars,
            x_star,
        )
    except UnboundedSubproblemError as exc:
        # the fused batch holds the batch's users once per algorithm
        k, user = batch.locate_user(exc.user % batch.n)
        with _naming_trial(config, trial_ids[k]):
            raise UnboundedSubproblemError.at(user, exc.price) from exc
    for trace in traces:
        trace.write_csv(trial_trace_path(config.output_dir, trace.trial_id, trace.algorithm))
    return list(metas), traces


def run_trial(config: ExperimentConfig, trial_id: int) -> tuple[dict, list[TrialTrace]]:
    """One trial as a batch of one: its manifest entry and its traces."""
    metas, traces = run_trials(config, [trial_id])
    return metas[0], traces


def trial_blocks(trials: int, workers: int) -> list[range]:
    """Contiguous blocks of trial ids, one per worker, sizes within one of each other."""
    workers = max(1, min(workers, trials))
    bounds = [trials * k // workers for k in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def aggregate(traces: list[TrialTrace], algorithms, horizon: int) -> SummaryStats:
    """Across-trial statistics, computed in trial order for reproducibility."""
    by_alg: dict[str, list[TrialTrace]] = {alg: [] for alg in algorithms}
    for trace in sorted(traces, key=lambda tr: (tr.trial_id, tr.algorithm)):
        if trace.algorithm in by_alg:
            by_alg[trace.algorithm].append(trace)
    mean, std = {}, {}
    for alg in algorithms:
        group = by_alg[alg]
        if not group:
            raise ValueError(f"no traces for algorithm {alg}")
        for metric in METRIC_COLUMNS:
            stacked = np.vstack([getattr(tr, metric) for tr in group])
            mean[(alg, metric)] = stacked.mean(axis=0)
            std[(alg, metric)] = stacked.std(axis=0)
    regret_scaled = {}
    for trace in by_alg.get("SDGM", []):
        regret_scaled[trace.trial_id] = float(trace.regret_cum[-1] / np.sqrt(horizon))
    trials = len(next(iter(by_alg.values())))
    return SummaryStats(
        algorithms=tuple(algorithms),
        horizon=horizon,
        trials=trials,
        mean=mean,
        std=std,
        regret_scaled_final=regret_scaled,
    )


def _write_artifacts(config: ExperimentConfig, metas, summary: SummaryStats) -> None:
    summary.write_csv(os.path.join(config.output_dir, "summary.csv"))
    manifest = {"config": config.to_dict(), "trials": metas}
    with open(os.path.join(config.output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if summary.regret_scaled_final:
        path = os.path.join(config.output_dir, "sdgm_regret_scaled.csv")
        with open(path, "w") as fh:
            fh.write("trial_id,regret_final_over_sqrt_horizon\n")
            for trial_id in sorted(summary.regret_scaled_final):
                fh.write(f"{trial_id},{summary.regret_scaled_final[trial_id]:.17g}\n")


def run_experiment(config: ExperimentConfig) -> SummaryStats:
    """Run the full ensemble and write traces, summary, and manifest."""
    config.check()
    os.makedirs(os.path.join(config.output_dir, "traces"), exist_ok=True)
    os.makedirs(os.path.join(config.output_dir, "oracle_cache"), exist_ok=True)
    blocks = trial_blocks(config.trials, config.workers)
    if len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            results = list(pool.map(run_trials, [config] * len(blocks), blocks))
    else:
        results = [run_trials(config, blocks[0])]
    metas = [meta for block_metas, _ in results for meta in block_metas]
    traces = [trace for _, block_traces in results for trace in block_traces]
    summary = aggregate(traces, config.algorithms, config.horizon)
    _write_artifacts(config, metas, summary)
    return summary


def report(output_dir: str) -> SummaryStats:
    """Re-aggregate the traces of the run that `manifest.json` records."""
    with open(os.path.join(output_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    config = ExperimentConfig.from_dict(manifest["config"])
    traces = []
    for meta in manifest["trials"]:
        for alg in config.algorithms:
            path = trial_trace_path(output_dir, meta["trial_id"], alg)
            if not os.path.exists(path):
                raise TraceMismatchError(f"missing trace {path}")
            trace = read_trace_csv(path)
            if trace.horizon != config.horizon:
                raise TraceMismatchError(
                    f"{path} has {trace.horizon} rounds, the manifest {config.horizon}"
                )
            traces.append(trace)
    summary = aggregate(traces, config.algorithms, config.horizon)
    summary.write_csv(os.path.join(output_dir, "summary.csv"))
    return summary
