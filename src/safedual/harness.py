"""End-to-end experiment runner: ensembles, metrics, CSV artifacts.

A run generates an ensemble of random networks, solves each to optimality,
runs the selected algorithms for a fixed horizon, and writes one trace CSV
per (trial, algorithm) plus an aggregate summary.  Everything is a pure
function of the master seed, regardless of worker count.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import baselines, oracle, sdgm
from .problem import (
    GeneratorConfig,
    compute_constants,
    generate_random,
    problem_hash,
)
from .trace import METRIC_COLUMNS, TrialTrace, build_trace, read_trace_csv

# name -> runner(problem, constants, horizon, gamma) -> (x_hist, lam_hist).  Runners
# look each loop up on its module at call time, so a wrapper installed there
# (bench/tracer.py) sees every run.  gamma is the safe method's base step.
RUNNERS = {
    "SDGM": lambda p, c, horizon, gamma: sdgm.run_sdgm(p, c, horizon, gamma)[:2],
    "DGM": lambda p, c, horizon, gamma: baselines.run_dgm(p, c, horizon),
    "FDGM": lambda p, c, horizon, gamma: baselines.run_fdgm(p, c, horizon),
    "NDGM": lambda p, c, horizon, gamma: baselines.run_ndgm(p, c, horizon),
}
ALGORITHMS = tuple(RUNNERS)


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
        if self.trials < 1 or self.horizon < 1:
            raise ValueError("trials and horizon must be at least 1")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")

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
        with open(path, "w") as fh:
            header = ["algorithm", "t"]
            for metric in METRIC_COLUMNS:
                header += [f"{metric}_mean", f"{metric}_std"]
            fh.write(",".join(header) + "\n")
            for alg in self.algorithms:
                for i in range(self.horizon):
                    row = [alg, str(i + 1)]
                    for metric in METRIC_COLUMNS:
                        row.append(f"{self.mean[(alg, metric)][i]:.17g}")
                        row.append(f"{self.std[(alg, metric)][i]:.17g}")
                    fh.write(",".join(row) + "\n")


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Splittable per-trial seed; stable no matter how trials are scheduled."""
    state = np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1, np.uint64)
    return int(state[0])


def trial_trace_path(output_dir: str, trial_id: int, algorithm: str) -> str:
    return os.path.join(output_dir, "traces", f"trial_{trial_id:04d}_{algorithm}.csv")


def _cached_oracle(problem, constants, cache_dir):
    key = problem_hash(problem)
    path = os.path.join(cache_dir, f"{key}.json") if cache_dir else None
    if path and os.path.exists(path):
        with open(path) as fh:
            return oracle.OptimalSolution.from_dict(json.load(fh))
    solution = oracle.solve_optimal(problem, constants)
    if path:
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(solution.to_dict(), fh)
        os.replace(tmp, path)
    return solution


def run_algorithm(
    algorithm: str, problem, constants, horizon: int, gamma=None, **trace_args
) -> TrialTrace:
    """Run one registered algorithm; `trace_args` go on to `build_trace`."""
    x_hist, lam_hist = RUNNERS[algorithm](problem, constants, horizon, gamma)
    return build_trace(problem, algorithm, x_hist, lam_hist, **trace_args)


def run_trial(config: ExperimentConfig, trial_id: int) -> tuple[dict, list[TrialTrace]]:
    """Generate, solve, and run all selected algorithms for one trial.

    Returns per-trial metadata (for the manifest) and the traces, and writes
    one CSV per algorithm under the configured output directory.
    """
    seed = derive_trial_seed(config.master_seed, trial_id)
    problem = generate_random(replace(config.generator, seed=seed))
    constants = compute_constants(problem)
    cache_dir = os.path.join(config.output_dir, "oracle_cache")
    solution = _cached_oracle(problem, constants, cache_dir)
    gamma = config.gamma if config.gamma is not None else sdgm.default_gamma(constants, problem)

    traces = []
    for alg in config.algorithms:
        trace = run_algorithm(
            alg, problem, constants, config.horizon, gamma,
            trial_id=trial_id, f_star=solution.f_star, x_star=solution.x_star,
        )
        trace.write_csv(trial_trace_path(config.output_dir, trial_id, alg))
        traces.append(trace)

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
    return meta, traces


def _trial_job(args):
    config, trial_id = args
    try:
        meta, traces = run_trial(config, trial_id)
    except Exception as exc:  # surface the failing trial for replay
        raise RuntimeError(
            f"trial {trial_id} (seed {derive_trial_seed(config.master_seed, trial_id)}) "
            f"failed: {exc}"
        ) from exc
    # strip raw iterates before shipping across the process boundary
    for trace in traces:
        trace.x_hist = None
        trace.lam_hist = None
    return meta, traces


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
    jobs = [(config, trial_id) for trial_id in range(config.trials)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_trial_job, jobs))
    else:
        results = [_trial_job(job) for job in jobs]
    results.sort(key=lambda pair: pair[0]["trial_id"])
    metas = [meta for meta, _ in results]
    traces = [trace for _, group in results for trace in group]
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
