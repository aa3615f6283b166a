"""End-to-end experiment runner: ensembles, metrics, CSV artifacts.

A run generates an ensemble of random networks, solves each to optimality,
runs the selected algorithms for a fixed horizon, and writes one trace CSV
per (trial, algorithm) plus an aggregate summary.  The calling process
prepares every trial, then splits the trials into contiguous blocks: it
prices the first block itself while forked workers price the others, each
running every selected algorithm over its block in one loop, over a
ProblemBatch that holds the block once per algorithm.  Every block records
its traces into one shared (metric, round, algorithm, trial) table, from
which the caller aggregates.  Everything is a pure function of the master
seed, regardless of worker count and batch size.
"""
from __future__ import annotations

import json
import math
import mmap
import multiprocessing
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
    is_integer,
    is_real,
    problem_hash,
)
from .trace import (
    METRIC_COLUMNS,
    TraceRecorder,
    TrialTrace,
    read_trace_csv,
    table_traces,
    write_rows,
)

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


def _can_fork() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def available_workers() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork workers."""
    if not hasattr(os, "sched_getaffinity") or not _can_fork():
        return 1
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    horizon: int = 1000
    trials: int = 100
    algorithms: tuple[str, ...] = ALGORITHMS
    master_seed: int = 0
    output_dir: str = "results"
    gamma: float | None = None  # overrides the tuned base step of the safe method
    workers: int = field(default_factory=available_workers)  # the caller is one of them

    def check(self):
        for name, least in (("trials", 1), ("horizon", 1), ("workers", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        self.generator.check()  # after master_seed, which --seed also sets as its seed
        if self.workers > 1 and not _can_fork():
            raise ValueError(f"workers must be 1 where processes cannot fork, got {self.workers}")
        if not isinstance(self.algorithms, (list, tuple)) or not all(
            isinstance(name, str) for name in self.algorithms
        ):
            raise ValueError(f"algorithms must be a list of names, got {self.algorithms!r}")
        if not self.algorithms:
            raise ValueError("no algorithms selected")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"repeated algorithms: {list(self.algorithms)}")
        if self.gamma is not None and not (is_real(self.gamma) and 0 < self.gamma < math.inf):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
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
        stats = {"mean": self.mean, "std": self.std}
        names = [(metric, stat) for metric in METRIC_COLUMNS for stat in stats]
        with open(path, "w") as fh:
            fh.write(",".join(["algorithm", "t", *(f"{m}_{s}" for m, s in names)]) + "\n")
            for alg in self.algorithms:
                columns = [stats[stat][(alg, metric)] for metric, stat in names]
                write_rows(fh, f"{alg},", np.arange(1, self.horizon + 1), columns)


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Splittable per-trial seed; stable no matter how trials are scheduled."""
    state = np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1, np.uint64)
    return int(state[0])


def trial_trace_path(output_dir: str, trial_id: int, algorithm: str) -> str:
    return os.path.join(output_dir, "traces", f"trial_{trial_id:04d}_{algorithm}.csv")


def _cached_oracle(problem, cache_dir):
    """The problem's reference optimum, read from `cache_dir` or solved and
    stored there.  The caller of run_experiment is the one writer; a file is
    written whole under a temporary name, so a run cut short leaves none half
    written."""
    path = os.path.join(cache_dir, f"{problem_hash(problem)}.{oracle.SOLVER}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return oracle.OptimalSolution.from_dict(json.load(fh))
    solution = oracle.solve_optimal(problem)
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
    trial_ids, f_stars, x_star=None, table=None,
) -> list[TrialTrace]:
    """Run registered algorithms over a batch; one trace per (algorithm, trial),
    algorithm by algorithm.

    One loop prices the batch once per algorithm, so each round makes one
    demand call and one A x for all of them, and each algorithm updates its
    own slice of the duals.  An UnboundedSubproblemError names a user of
    that fused batch.  `constants`, `gammas`, `trial_ids` and `f_stars` hold
    one entry per trial; `x_star` is the trials' reference optima,
    concatenated, or None.  The traces are views of `table`, the
    (metric, round, algorithm, trial) array they are recorded into; a fresh
    one if None.
    """
    starts = [STARTS[alg](batch, constants, gammas) for alg in algorithms]
    copies = len(algorithms)
    if table is None:
        table = np.empty((len(METRIC_COLUMNS), horizon, copies, batch.size))
    fused = ProblemBatch(batch.problems * copies)
    record = TraceRecorder(fused, table, None if x_star is None else np.tile(x_star, copies))
    sdgm.run_pricing(fused, *_fuse(starts, batch.m, batch.n), horizon, record)
    return record.traces(algorithms, trial_ids, f_stars)


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
        "c_l1": constants.c_l1,
        "regret_constant": sdgm.regret_constant(constants, problem),
        "f_star": solution.f_star,
        "kkt_residual": solution.kkt_residual,
        "oracle_iterations": solution.iterations_used,
    }
    return problem, constants, solution, meta


def _prepare_trials(config: ExperimentConfig, trial_ids) -> list[tuple]:
    prepared = []
    for trial_id in trial_ids:
        with _naming_trial(config, trial_id):
            prepared.append(_prepare_trial(config, trial_id))
    return prepared


def _price_block(config: ExperimentConfig, prepared, table) -> list[TrialTrace]:
    """Price a block of prepared trials as one batch, record their traces
    into `table`, its (metric, round, algorithm, trial) slice, and write one
    CSV per (trial, algorithm) under the output directory."""
    problems, constants, solutions, metas = zip(*prepared)
    trial_ids = [meta["trial_id"] for meta in metas]
    batch = ProblemBatch(problems)
    try:
        traces = run_batch(
            config.algorithms, batch, constants, config.horizon,
            [meta["gamma"] for meta in metas], trial_ids,
            [solution.f_star for solution in solutions],
            np.concatenate([solution.x_star for solution in solutions]), table,
        )
    except UnboundedSubproblemError as exc:
        # the fused batch holds the batch's users once per algorithm
        k, user = batch.locate_user(exc.user % batch.n)
        with _naming_trial(config, trial_ids[k]):
            raise UnboundedSubproblemError.at(user, exc.price) from exc
    for trace in traces:
        trace.write_csv(trial_trace_path(config.output_dir, trace.trial_id, trace.algorithm))
    return traces


def run_trials(config: ExperimentConfig, trial_ids) -> tuple[list[dict], list[TrialTrace]]:
    """Run a block of trials as one batch, in this process.

    Prepares each trial, runs the selected algorithms together over the
    batch, then writes one CSV per (trial, algorithm) under the output
    directory.
    Returns the trials' manifest entries and their traces.
    """
    prepared = _prepare_trials(config, trial_ids)
    return [meta for *_, meta in prepared], _price_block(config, prepared, None)


def run_trial(config: ExperimentConfig, trial_id: int) -> tuple[dict, list[TrialTrace]]:
    """One trial as a batch of one: its manifest entry and its traces."""
    metas, traces = run_trials(config, [trial_id])
    return metas[0], traces


def trial_blocks(trials: int, workers: int) -> list[range]:
    """Contiguous blocks of trial ids, one per worker, sizes within one of each other."""
    workers = max(1, min(workers, trials))
    bounds = [trials * k // workers for k in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


_forked_work = None  # set in each forked worker, by _install, to its fan_out's work


def _install(work) -> None:
    global _forked_work
    _forked_work = work


def _run_forked(item) -> None:
    _forked_work(item)


def fan_out(work, items) -> None:
    """Run work(item) for each item: the caller runs the first item while
    len(items) - 1 forked workers run the others.

    `work` reaches the workers through fork, not pickle, so it may close over
    memory that they share with the caller; only the items are pickled, and
    whatever work returns is dropped.  A failure is raised in item order.
    """
    if len(items) == 1:
        work(items[0])
        return
    with ProcessPoolExecutor(
        max_workers=len(items) - 1, mp_context=multiprocessing.get_context("fork"),
        initializer=_install, initargs=(work,),
    ) as pool:
        futures = [pool.submit(_run_forked, item) for item in items[1:]]
        work(items[0])
        for future in futures:
            future.result()


def _shared_table(config: ExperimentConfig, trials: int) -> np.ndarray:
    """An unfilled (metric, round, algorithm, trial) trace table in anonymous
    shared memory: what forked workers write into it, the caller reads."""
    shape = (len(METRIC_COLUMNS), config.horizon, len(config.algorithms), trials)
    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * max(1, math.prod(shape))))


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
        trial_ids = sorted(summary.regret_scaled_final)
        with open(os.path.join(config.output_dir, "sdgm_regret_scaled.csv"), "w") as fh:
            fh.write("trial_id,regret_final_over_sqrt_horizon\n")
            write_rows(fh, "", trial_ids, [[summary.regret_scaled_final[k] for k in trial_ids]])


def run_experiment(config: ExperimentConfig) -> SummaryStats:
    """Run the full ensemble and write traces, summary, and manifest."""
    config.check()
    os.makedirs(os.path.join(config.output_dir, "traces"), exist_ok=True)
    os.makedirs(os.path.join(config.output_dir, "oracle_cache"), exist_ok=True)
    prepared = _prepare_trials(config, range(config.trials))
    table = _shared_table(config, config.trials)
    blocks = trial_blocks(config.trials, config.workers)

    def price(block) -> None:
        _price_block(config, prepared[block.start:block.stop], table[..., block.start:block.stop])

    fan_out(price, blocks)
    metas = [meta for *_, meta in prepared]
    traces = table_traces(table, config.algorithms, range(config.trials))
    summary = aggregate(traces, config.algorithms, config.horizon)
    _write_artifacts(config, metas, summary)
    return summary


def report(output_dir: str) -> SummaryStats:
    """Re-aggregate the traces of the run that `manifest.json` records, read
    by as many processes as that run priced them with."""
    with open(os.path.join(output_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    config = ExperimentConfig.from_dict(manifest["config"])
    trial_ids = [meta["trial_id"] for meta in manifest["trials"]]
    table = _shared_table(config, len(trial_ids))

    def parse(block) -> None:
        for k in block:
            for a, alg in enumerate(config.algorithms):
                path = trial_trace_path(output_dir, trial_ids[k], alg)
                if not os.path.exists(path):
                    raise TraceMismatchError(f"missing trace {path}")
                trace = read_trace_csv(path)
                if trace.horizon != config.horizon:
                    raise TraceMismatchError(
                        f"{path} has {trace.horizon} rounds, the manifest {config.horizon}"
                    )
                table[:, :, a, k] = [*trace.metrics().values()]

    fan_out(parse, trial_blocks(len(trial_ids), config.workers))
    traces = table_traces(table, config.algorithms, trial_ids)
    summary = aggregate(traces, config.algorithms, config.horizon)
    summary.write_csv(os.path.join(output_dir, "summary.csv"))
    return summary
