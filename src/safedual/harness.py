"""End-to-end experiment runner: ensembles, metrics, CSV artifacts.

A run generates an ensemble of random networks, solves each to optimality,
runs the selected algorithms for a fixed horizon, and writes its trace
table, one trace CSV per (trial, algorithm) and an aggregate summary.  The
calling process prepares every trial, solving each reference optimum afresh
and storing it under oracle_cache/.  A run then works in two phases, price
then write.  Pricing splits the trials into contiguous blocks: the caller
prices the first block itself while forked workers price the others, each
running every selected algorithm over its block in one loop, over a
ProblemBatch that holds the block once per algorithm.  Every block records
its traces into one shared (metric, round, algorithm, trial) table, which
the caller saves as traces.npy and reduces to the summary.  Writing deals
the files over the workers again: each trace CSV and each algorithm's
section of summary.csv is one unit, dealt by its cost; the sections go to
part files that the caller joins behind the header.  `report` loads
traces.npy, not the CSVs, then reduces it and writes its sections the same
way.  A run and `report` each work out their worker count once, the caller
included: the CPUs in the process's affinity mask (limit it with `taskset
-c`), or 1 where processes cannot fork.  Everything is a pure function of
the master seed, regardless of worker count and batch size.
"""
from __future__ import annotations

import json
import math
import mmap
import multiprocessing
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import zip_longest

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
    read_trace_csv,  # unused here; kept as a wrap point of bench/tracer.py
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
    """An experiment config document is not a JSON object, or names a field the
    config does not have."""


class TraceMismatchError(ValueError):
    """A run's trace table or trial list is missing or does not match its manifest."""


def _from_fields(cls, doc: dict):
    """Build dataclass `cls` from a JSON document; JSON lists become tuples."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a {cls.__name__} must be a JSON object, got {doc!r}")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def available_workers() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork workers."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
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

    def check(self):
        for name, least in (("trials", 1), ("horizon", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        self.generator.check()  # after master_seed, which --seed also sets as its seed
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
        if self.gamma is not None and not (is_real(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        if self.gamma is not None and "SDGM" not in self.algorithms:
            raise ValueError(
                f"gamma is the base step of SDGM, which {list(self.algorithms)} leaves out"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        config = _from_fields(cls, doc)
        return replace(config, generator=_from_fields(GeneratorConfig, doc.get("generator", {})))


@dataclass
class SummaryStats:
    """Across-trial mean and standard deviation of every metric at every t,
    over `trials` trials."""

    algorithms: tuple[str, ...]
    horizon: int
    trials: int
    mean: dict  # (algorithm, metric) -> array over t
    std: dict

    STATS = ("mean", "std")

    def header(self) -> str:
        names = (f"{metric}_{stat}" for metric in METRIC_COLUMNS for stat in self.STATS)
        return ",".join(["algorithm", "t", *names]) + "\n"

    def write_section(self, fh, algorithm: str) -> None:
        """The rows of one algorithm, t = 1 to horizon."""
        columns = [
            getattr(self, stat)[(algorithm, metric)] for metric in METRIC_COLUMNS for stat in self.STATS
        ]
        write_rows(fh, f"{algorithm},", np.arange(1, self.horizon + 1), columns)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.header())
            for alg in self.algorithms:
                self.write_section(fh, alg)


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Splittable per-trial seed; stable no matter how trials are scheduled."""
    state = np.random.SeedSequence([int(master_seed), int(index)]).generate_state(1, np.uint64)
    return int(state[0])


def trial_trace_path(output_dir: str, trial_id: int, algorithm: str) -> str:
    return os.path.join(output_dir, "traces", f"trial_{trial_id:04d}_{algorithm}.csv")


def _fuse(starts, m: int, n: int):
    """One start dual and one update from the starts of several algorithms
    over one batch of m rows and n users: the a-th owns rows a*m to (a+1)*m
    and users a*n to (a+1)*n of the fused batch."""
    parts = [
        (update, slice(a * m, (a + 1) * m), slice(a * n, (a + 1) * n))
        for a, (_, update) in enumerate(starts)
    ]

    def update(lam, x, load, t):
        return np.concatenate([step(lam[rows], x[users], load[rows], t) for step, rows, users in parts])

    return np.concatenate([lam for lam, _ in starts]), update


def run_batch(
    algorithms: tuple[str, ...], batch: ProblemBatch, constants, horizon: int, gammas,
    trial_ids, f_stars, x_star, table=None,
) -> list[TrialTrace]:
    """Run registered algorithms over a batch; one trace per (algorithm, trial),
    algorithm by algorithm.

    One loop prices the batch once per algorithm, so each round makes one
    demand call and one A x for all of them, and each algorithm updates its
    own slice of the duals.  An UnboundedSubproblemError names a user of
    that fused batch.  `constants`, `gammas`, `trial_ids` and `f_stars` hold
    one entry per trial; `x_star` is the trials' reference optima,
    concatenated.  The traces are views of `table`, the (metric, round,
    algorithm, trial) array they are recorded into; a fresh one if None.
    """
    starts = [STARTS[alg](batch, constants, gammas) for alg in algorithms]
    copies = len(algorithms)
    if table is None:
        table = np.empty((len(METRIC_COLUMNS), horizon, copies, batch.size))
    fused = ProblemBatch(batch.problems * copies)
    record = TraceRecorder(fused, table, np.tile(x_star, copies), np.tile(f_stars, copies))
    sdgm.run_pricing(fused, *_fuse(starts, batch.m, batch.n), horizon, record)
    return record.traces(algorithms, trial_ids)


def run_algorithm(
    algorithm: str, problem, constants, horizon: int, gamma=None,
    trial_id: int = 0, *, f_star: float, x_star,
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


def _write_whole(path: str, mode: str, write) -> None:
    """write(file) into `path`, opened in `mode`, under a temporary name that
    then replaces it: a run cut short or a failed write leaves none half
    written."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def _prepare_trial(config: ExperimentConfig, trial_id: int):
    """Generate one trial, derive its constants, solve its reference optimum
    and store that in oracle_cache/, which no run reads back; the file is
    written whole.  The manifest entry holds the optimum too, x* and lambda*
    as the file does."""
    seed = derive_trial_seed(config.master_seed, trial_id)
    problem = generate_random(replace(config.generator, seed=seed))
    constants = compute_constants(problem)
    solution = oracle.solve_optimal(problem)
    optimum = solution.to_dict()
    path = os.path.join(config.output_dir, "oracle_cache", f"{problem_hash(problem)}.json")
    _write_whole(path, "w", partial(json.dump, optimum))
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
        "x_star": optimum["x_star"],
        "lambda_star": optimum["lambda_star"],
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
    """Price a block of prepared trials as one batch and record their traces
    into `table`, its (metric, round, algorithm, trial) slice."""
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
    return traces


def run_trial(config: ExperimentConfig, trial_id: int) -> tuple[dict, list[TrialTrace]]:
    """One trial as a batch of one, in this process: its manifest entry and
    its traces, each also written as its CSV under the output directory."""
    prepared = _prepare_trials(config, [trial_id])
    traces = _price_block(config, prepared, None)
    for trace in traces:
        trace.write_csv(trial_trace_path(config.output_dir, trace.trial_id, trace.algorithm))
    return prepared[0][-1], traces


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

    A run calls it twice: once to price its trial blocks, once to write the
    files those blocks recorded (`report`: once, to write).  `work`
    reaches the workers through fork, not pickle, so it may close over
    memory that they share with the caller, such as the trace table and the
    summary; only the items are pickled, and whatever work returns is
    dropped.  A failure is raised in item order.
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


def deal(costs, hands: int) -> list[list[int]]:
    """The indices of `costs`, dealt into min(hands, len(costs)) hands (at
    least one): largest cost first, ties in index order, each to the hand
    with the least cost so far, the first such.  No two hands' totals then
    differ by more than the largest cost."""
    hands = max(1, min(hands, len(costs)))
    dealt, loads = [[] for _ in range(hands)], [0] * hands
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        h = loads.index(min(loads))
        dealt[h].append(i)
        loads[h] += costs[i]
    return dealt


def _write_tables(output_dir: str, summary: SummaryStats, workers: int, table=None) -> None:
    """Write summary.csv and, given a compare run's (metric, round,
    algorithm, trial) table, whose trial ids are its trial indices, one CSV
    per trace in it, dealt over `workers` processes.

    A unit is one trace CSV or one algorithm's section of the summary,
    costing its rows times the values in a row; a trace is viewed from the
    table only when its unit is written.  Each section goes to a part file;
    the caller then writes the header and appends the parts in algorithm
    order.  No part file outlives the call, whether it ends normally or a
    unit fails."""
    path = os.path.join(output_dir, "summary.csv")
    parts = {alg: f"{path}.{alg}.part" for alg in summary.algorithms}

    def write_section(alg) -> None:
        with open(parts[alg], "w") as fh:
            summary.write_section(fh, alg)

    def write_trace(a, trial_id) -> None:
        trace = TrialTrace(trial_id, summary.algorithms[a], *table[:, :, a, trial_id])
        trace.write_csv(trial_trace_path(output_dir, trial_id, trace.algorithm))

    writes = [] if table is None else [partial(write_trace, a, k) for a, k in np.ndindex(table.shape[2:])]
    costs = [summary.horizon * (1 + len(METRIC_COLUMNS))] * len(writes)
    writes += [partial(write_section, alg) for alg in summary.algorithms]
    costs += [summary.horizon * (1 + len(summary.STATS) * len(METRIC_COLUMNS))] * len(parts)

    def write(hand) -> None:
        for i in hand:
            writes[i]()

    try:
        fan_out(write, deal(costs, workers))
        with open(path, "w") as out:
            out.write(summary.header())
        with open(path, "ab") as out:
            for alg in summary.algorithms:
                with open(parts[alg], "rb") as part:
                    shutil.copyfileobj(part, out)
    finally:
        for part in parts.values():
            with suppress(FileNotFoundError):
                os.remove(part)


def _shared_table(config: ExperimentConfig) -> np.ndarray:
    """An unfilled (metric, round, algorithm, trial) trace table in anonymous
    shared memory: what forked workers write into it, the caller reads."""
    shape = (len(METRIC_COLUMNS), config.horizon, len(config.algorithms), config.trials)
    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * max(1, math.prod(shape))))


def aggregate(table: np.ndarray, algorithms) -> SummaryStats:
    """Across-trial statistics of a (metric, round, algorithm, trial) table,
    summed in the order of its trial axis.

    Each (metric, algorithm) block is copied to a contiguous (trial, round)
    array before it is reduced, so its sums run in one order, and give the
    same bits, whatever the table's strides.
    """
    horizon = table.shape[1]
    mean, std = {}, {}
    for a, alg in enumerate(algorithms):
        for i, metric in enumerate(METRIC_COLUMNS):
            block = np.ascontiguousarray(table[i, :, a].T)
            mean[(alg, metric)] = block.mean(axis=0)
            std[(alg, metric)] = block.std(axis=0)
    return SummaryStats(tuple(algorithms), horizon, table.shape[-1], mean, std)


def _write_artifacts(config: ExperimentConfig, metas, table: np.ndarray) -> None:
    manifest = {"config": config.to_dict(), "trials": metas}
    with open(os.path.join(config.output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if "SDGM" in config.algorithms:
        regret = table[METRIC_COLUMNS.index("regret_cum"), -1, config.algorithms.index("SDGM")]
        with open(os.path.join(config.output_dir, "sdgm_regret_scaled.csv"), "w") as fh:
            fh.write("trial_id,regret_final_over_sqrt_horizon\n")
            write_rows(fh, "", range(config.trials), [regret / np.sqrt(config.horizon)])


def run_experiment(config: ExperimentConfig) -> SummaryStats:
    """Run the full ensemble and write its trace table, traces, summary, and manifest."""
    config.check()
    os.makedirs(os.path.join(config.output_dir, "traces"), exist_ok=True)
    os.makedirs(os.path.join(config.output_dir, "oracle_cache"), exist_ok=True)
    prepared = _prepare_trials(config, range(config.trials))
    table = _shared_table(config)
    workers = available_workers()

    def price(block) -> None:
        _price_block(config, prepared[block.start:block.stop], table[..., block.start:block.stop])

    fan_out(price, trial_blocks(config.trials, workers))
    _write_whole(os.path.join(config.output_dir, "traces.npy"), "wb", partial(np.save, arr=table))
    summary = aggregate(table, config.algorithms)
    _write_tables(config.output_dir, summary, workers, table)
    _write_artifacts(config, [meta for *_, meta in prepared], table)
    return summary


def report(output_dir: str) -> SummaryStats:
    """Re-aggregate the trace table of the run that `manifest.json` records,
    read from traces.npy alone, and write summary.csv with as many processes
    as this machine can run.  Refused before the table is read: a manifest
    whose config `compare` would refuse, that lists a trial id that is not a
    non-negative integer, or whose ids are not each of 0 to config.trials -
    1 once.  Refused after: a missing table, or one not of native float64
    in the config's (metric, round, algorithm, trial) shape."""
    manifest_path = os.path.join(output_dir, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    config = ExperimentConfig.from_dict(manifest["config"])
    config.check()
    trial_ids = [meta["trial_id"] for meta in manifest["trials"]]
    for trial_id in trial_ids:
        if not (is_integer(trial_id) and trial_id >= 0):
            raise TraceMismatchError(
                f"{manifest_path} lists trial id {trial_id!r}, not a non-negative integer"
            )
    trial_ids.sort()
    for k, (listed, expected) in enumerate(zip_longest(trial_ids, range(config.trials))):
        if listed is not None and listed < k:
            raise TraceMismatchError(f"{manifest_path} lists trial {listed} more than once")
        if expected is None:
            raise TraceMismatchError(
                f"{manifest_path} lists trial {listed}, beyond its {config.trials} trials"
            )
        if listed != expected:
            raise TraceMismatchError(f"{manifest_path} lacks trial {expected}")
    path = os.path.join(output_dir, "traces.npy")
    try:
        table = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise TraceMismatchError(f"missing trace table {path}, which compare writes") from None
    shape = (len(METRIC_COLUMNS), config.horizon, len(config.algorithms), config.trials)
    if table.shape != shape:
        raise TraceMismatchError(f"{path} holds a {table.shape} table, the manifest {shape}")
    if table.dtype != np.float64:
        raise TraceMismatchError(f"{path} holds {table.dtype.str} values, not native float64")
    summary = aggregate(table, config.algorithms)
    _write_tables(output_dir, summary, available_workers())
    return summary
