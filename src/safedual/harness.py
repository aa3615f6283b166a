"""End-to-end experiment runner: ensembles, metrics, CSV artifacts.

A run generates an ensemble of random networks, solves each to optimality,
runs the selected algorithms for a fixed horizon, and writes its trace
table, traces.npy, one trace CSV per (trial, algorithm), the files derived
from the table alone (_write_views) and, last, its manifest, once it has
removed each name in OWNED and nothing else.  The calling process prepares
every trial, storing each reference optimum under oracle_cache/; fan_out
then spreads the pricing, and later the summary, over the CPUs the process
may use, forking a child for each block but the caller's own.  Every block
records its rounds in a window that _record sizes, and reaches the table
by position through the caller's one descriptor (_slab_reader).  `report`
rebuilds the derived files from traces.npy through the same function.
Everything is a pure function of the master seed, regardless of worker
count and batch size.
"""
from __future__ import annotations

import json
import math
import os
import pickle
import shutil
import signal
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields, replace
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
    CHUNK,
    CSV_HEADER,
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
# All that a run writes, and so removes, in its output directory: the manifest first.
OWNED = ("manifest.json", "traces.npy", "summary.csv", "sdgm_regret_scaled.csv", "traces", "oracle_cache")
# The values, 1 MiB of float64, that bound a pricing block's window of rounds (see _record).
WINDOW_VALUES = 1 << 17


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
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
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
    """The summary of a run's trace table: `trials` trials of `algorithms`
    over `horizon` rounds, and the across-trial mean of every metric at the
    last round, as an (algorithm, metric) array.  summary.csv, which
    write_csv writes, holds the mean and standard deviation at every round."""

    algorithms: tuple[str, ...]
    trials: int
    horizon: int
    final_mean: np.ndarray

    STATS = ("mean", "std")

    def header(self) -> str:
        names = (f"{metric}_{stat}" for metric in METRIC_COLUMNS for stat in self.STATS)
        return ",".join(["algorithm", "t", *names]) + "\n"

    def write_csv(self, path, table) -> None:
        """Replace summary.csv at `path` whole, from `table` (as _slab_reader
        gives it): fan_out's blocks of algorithms reduce each of theirs
        through aggregate and write its rows to a part file, a window of
        CHUNK rounds at a time.  The caller joins the parts behind the
        header, in algorithm order, through _write_whole.  No part file
        outlives the call, whether it ends normally or a write fails.  A part
        is named as _write_whole names its temporary, with the section's
        index after the pid, so a rerun removes the parts of a run killed
        here."""
        parts = [f"{path}.tmp.{os.getpid()}{a}" for a in range(len(self.algorithms))]

        def write(block) -> None:
            for a in block:
                with open(parts[a], "w") as out:
                    for start in range(0, self.horizon, CHUNK):
                        stop = min(start + CHUNK, self.horizon)
                        stats = aggregate(table, a, range(start, stop))
                        columns = [stat[:, i] for i in range(len(METRIC_COLUMNS)) for stat in stats]
                        write_rows(out, f"{self.algorithms[a]},", range(start + 1, stop + 1), columns)

        def join(out) -> None:
            out.write(self.header())
            out.flush()
            for part in parts:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out.buffer)

        try:
            fan_out(write, len(parts))
            _write_whole(path, "w", join)
        finally:
            for part in parts:
                with suppress(FileNotFoundError):
                    os.remove(part)


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


def _record(
    algorithms: tuple[str, ...], batch: ProblemBatch, constants, horizon: int, gammas,
    f_stars, x_star, table=None, write=None,
) -> TraceRecorder:
    """Run registered algorithms over a batch, recording the traces of every
    (algorithm, trial) through a TraceRecorder, flushed after the last round.

    One loop prices the batch once per algorithm, so each round makes one
    demand call and one A x for all of them, and each algorithm updates its
    own slice of the duals.  `constants`, `gammas` and `f_stars` hold one
    entry per trial; `x_star` is the trials' reference optima, concatenated.
    An UnboundedSubproblemError names a user of `batch` by its flat index.
    The recorder fills `table`, a (metric, round, algorithm, trial) array,
    fresh and Fortran-ordered if None: of every round or, given `write`, a
    window of the most whole chunks of run_pricing over the fused batch
    whose values fit in WINDOW_VALUES, at least one chunk, cut to the horizon.
    """
    starts = [STARTS[alg](batch, constants, gammas) for alg in algorithms]
    copies = len(algorithms)
    fused = ProblemBatch(batch.problems * copies)
    rounds = horizon
    if write is not None:
        chunk = sdgm.chunk_rounds(max(fused.n, fused.m), horizon)
        rounds = min(horizon, chunk * max(1, WINDOW_VALUES // (chunk * len(METRIC_COLUMNS) * fused.size)))
    if table is None:
        table = np.empty((len(METRIC_COLUMNS), rounds, copies, batch.size), order="F")
    record = TraceRecorder(fused, table, np.tile(x_star, copies), np.tile(f_stars, copies), write)
    try:
        sdgm.run_pricing(fused, *_fuse(starts, batch.m, batch.n), horizon, record)
    except UnboundedSubproblemError as exc:  # the fused batch holds the batch's users once per algorithm
        raise UnboundedSubproblemError.at(exc.user % batch.n, exc.price) from exc
    record.flush()
    return record


def run_batch(
    algorithms: tuple[str, ...], batch: ProblemBatch, constants, horizon: int, gammas,
    trial_ids, f_stars, x_star, table=None,
) -> list[TrialTrace]:
    """Run registered algorithms over a batch (see _record, which records
    into `table`); one trace per (algorithm, trial), algorithm by
    algorithm, each a view of the table.  `trial_ids` holds one entry per
    trial."""
    record = _record(algorithms, batch, constants, horizon, gammas, f_stars, x_star, table)
    return record.traces(algorithms, trial_ids)


def run_algorithm(
    algorithm: str, problem, constants, horizon: int, gamma=None, *, f_star: float, x_star,
) -> TrialTrace:
    """Run one registered algorithm on one instance, as a batch of one; its
    trace is trial 0's."""
    return run_batch(
        (algorithm,), ProblemBatch([problem]), [constants], horizon, [gamma], [0], [f_star], x_star,
    )[0]


@contextmanager
def _naming_trial(config: ExperimentConfig, trial_id: int):
    """Re-raise any failure as one that names the trial and its seed, for replay."""
    try:
        yield
    except Exception as exc:
        seed = derive_trial_seed(config.master_seed, trial_id)
        raise RuntimeError(f"trial {trial_id} (seed {seed}) failed: {exc}") from exc


def _write_whole(path: str, mode: str, write):
    """write(file) into `path`, opened in `mode`, under a temporary name that
    then replaces it: a run cut short or a failed write leaves none half
    written.  Returns what write returns."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            result = write(fh)
        os.replace(tmp, path)
        return result
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def _prepare_trial(config: ExperimentConfig, trial_id: int):
    """Generate one trial, derive its constants, solve its reference optimum
    and store that in oracle_cache/, which no run reads back; the file is
    written whole.  The manifest entry holds the optimum too, x* and lambda*
    as the file does.  A failure is raised naming the trial and its seed."""
    with _naming_trial(config, trial_id):
        seed = derive_trial_seed(config.master_seed, trial_id)
        problem = generate_random(replace(config.generator, seed=seed))
        constants = compute_constants(problem)
        gamma = config.gamma if config.gamma is not None else sdgm.default_gamma(constants, problem)
        if "SDGM" in config.algorithms:  # a default step can underflow to 0
            sdgm.SdgmParams.from_constants(constants, gamma)
        solution = oracle.solve_optimal(problem)
        optimum = solution.to_dict()
        path = os.path.join(config.output_dir, "oracle_cache", f"{problem_hash(problem)}.json")
        _write_whole(path, "w", lambda fh: fh.write(json.dumps(optimum)))
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


def _price_into(config: ExperimentConfig, prepared, table, first: int) -> None:
    """Price a block of prepared trials, trial `first` on, into `table`,
    the run's trace table as _slab_reader gives it, and write each of their
    traces as its CSV under the output directory.  Each full window of
    rounds (see _record) goes to each (trial, algorithm) slab's rows in one
    positioned write; each slab is then read back CHUNK rounds at a time for
    its CSV.  A failure to price names the trial and its seed."""
    _, read, write = table
    problems, constants, solutions, metas = zip(*prepared)
    batch = ProblemBatch(problems)

    def record(start: int, rows: np.ndarray) -> None:
        for k in range(rows.shape[3]):
            for a in range(rows.shape[2]):  # (round, metric): contiguous, as in the file
                write(a, first + k, start - 1, rows[:, :, a, k].T)

    try:
        _record(
            config.algorithms, batch, constants, config.horizon,
            [meta["gamma"] for meta in metas], [solution.f_star for solution in solutions],
            np.concatenate([solution.x_star for solution in solutions]), write=record,
        )
    except UnboundedSubproblemError as exc:
        k, user = batch.locate_user(exc.user)
        with _naming_trial(config, first + k):
            raise UnboundedSubproblemError.at(user, exc.price) from exc
    for k in range(first, first + len(prepared)):
        for a, algorithm in enumerate(config.algorithms):
            with open(trial_trace_path(config.output_dir, k, algorithm), "w") as out:
                out.write(CSV_HEADER + "\n")
                for start in range(0, config.horizon, CHUNK):
                    rounds = range(start, min(start + CHUNK, config.horizon))
                    write_rows(out, f"{k},{algorithm},", range(start + 1, rounds.stop + 1), read(a, k, rounds).T)


def run_trial(config: ExperimentConfig, trial_id: int) -> tuple[dict, list[TrialTrace]]:
    """One trial as a batch of one, in this process, through run_batch: its
    manifest entry and its traces, each also written as its CSV under the
    output directory.  A failure names the trial and its seed."""
    problem, constants, solution, meta = _prepare_trial(config, trial_id)
    with _naming_trial(config, trial_id):
        traces = run_batch(config.algorithms, ProblemBatch([problem]), [constants], config.horizon,
                           [meta["gamma"]], [trial_id], [solution.f_star], solution.x_star)
    for trace in traces:
        trace.write_csv(trial_trace_path(config.output_dir, trace.trial_id, trace.algorithm))
    return meta, traces


def blocks(count: int, workers: int) -> list[range]:
    """range(count) as contiguous blocks, one per worker, sizes within one of each other."""
    workers = max(1, min(workers, count))
    bounds = [count * k // workers for k in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def fan_out(work, count: int) -> None:
    """Run work(block) for each of blocks(count, available_workers()): the
    caller forks a child for each block but the first, runs the first
    itself, then reads each child's pipe and reaps it, in block order, even
    after its own block failed.  `work` reaches the children through fork,
    so it may close over memory they share with the caller, such as the
    prepared trials; what it returns is dropped.  A child ends in os._exit.
    The first failure in block order is raised: the caller's own, the
    exception a child pipes back, or a RuntimeError naming the child's block
    where that cannot be pickled and rebuilt, or where the child sends none
    and exits other than 0, as when a signal kills it."""
    items, children = blocks(count, available_workers()), []
    try:
        for item in items[1:]:
            read_end, write_end = os.pipe()
            with open(write_end, "wb") as pipe:  # the caller's copy closes on every path
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    raise
                if pid == 0:
                    try:
                        work(item)
                        os._exit(0)
                    except BaseException as exc:
                        try:
                            pickle.loads(sent := pickle.dumps(exc))
                        except Exception:
                            sent = pickle.dumps(RuntimeError(f"block {item} failed: {type(exc).__name__}: {exc}"))
                        pipe.write(sent)
                        pipe.flush()
                    finally:
                        os._exit(1)
            children.append((item, pid, read_end))
        work(items[0])
    finally:
        ended = []  # (block, what its child sent, its exit code)
        for item, pid, read_end in children:
            with open(read_end, "rb") as pipe:
                ended.append((item, pipe.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for item, sent, code in ended:
        if sent:
            raise pickle.loads(sent)
        if code:
            how = f"signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"status {code}"
            raise RuntimeError(f"the child process of block {item} ended by {how}")


def _slab_reader(fh):
    """(shape, read, write) of the trace table in the .npy file open as
    binary `fh`, from its header, parsed once: the (metric, round,
    algorithm, trial) shape; read(a, k, rounds), the rows `rounds` (a range,
    round 1 being row 0) of the (round, metric) slab of trial k under
    algorithm a, in one read into a fresh array; write(a, k, start, values),
    C-contiguous (round, metric) `values` into that slab from row `start`, a
    short write retried from where it stopped.  Both are positional: neither
    moves the offset, so forked blocks share `fh`, and none maps the table.
    Refused with a TraceMismatchError naming the file: one that is not a
    whole .npy file (a zip archive among them), or whose table is not 4-D,
    not native float64 or not in Fortran order, as traces.npy was before
    compare wrote that order; such a run must be made again with compare."""
    fmt = np.lib.format
    fh.seek(0)
    try:
        version = fmt.read_magic(fh)
        read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, fortran_order, dtype = read_header(fh)
    except (ValueError, EOFError) as exc:
        raise TraceMismatchError(f"unreadable trace table {fh.name}: {exc}") from None
    if len(shape) != 4:
        raise TraceMismatchError(f"{fh.name} holds a {shape} table, not a 4-D one")
    if dtype != np.float64:
        raise TraceMismatchError(f"{fh.name} holds {dtype.str} values, not native float64")
    if not fortran_order:
        raise TraceMismatchError(
            f"{fh.name} holds its table in C order, not the Fortran order compare writes;"
            " make the run again with compare"
        )
    metrics, horizon, count, trials = shape
    row = metrics * dtype.itemsize
    offset, fd = fh.tell(), fh.fileno()
    if os.fstat(fd).st_size < offset + trials * count * horizon * row:
        raise TraceMismatchError(f"unreadable trace table {fh.name}: it ends before its {shape} table")

    def position(a, k, start):
        return offset + ((k * count + a) * horizon + start) * row

    def read(a, k, rounds):
        rows = np.empty((len(rounds), metrics))
        if os.preadv(fd, [rows], position(a, k, rounds.start)) != rows.nbytes:
            raise TraceMismatchError(f"{fh.name} ends inside the slab of trial {k}")
        return rows

    def write(a, k, start, values):
        data, pos = memoryview(values).cast("B"), position(a, k, start)
        while data:
            written = os.pwrite(fd, data, pos)
            data, pos = data[written:], pos + written

    return shape, read, write


def aggregate(table, a: int, rounds: range) -> tuple[np.ndarray, np.ndarray]:
    """Across-trial mean and standard deviation, as two (round, metric)
    arrays, of the rows `rounds` of algorithm a in `table`, a trace table as
    _slab_reader gives it.

    The rows are read one trial at a time, twice: every entry is summed
    from +0.0 in ascending trial order, once for the mean and once for the
    squared deviations from it.  That is the order in which np.mean and
    np.std sum a contiguous (trial, round) array of two rounds or more, so
    the bits are theirs, whichever rows are reduced together.  (Over one
    round they sum 8 or more trials pairwise.)
    """
    (metrics, _, _, trials), read, _ = table
    total = np.zeros((len(rounds), metrics))
    for k in range(trials):
        total += read(a, k, rounds)
    mean = total / trials
    total[...] = 0.0
    for k in range(trials):
        deviation = read(a, k, rounds)
        deviation -= mean
        deviation *= deviation
        total += deviation
    total /= trials
    return mean, np.sqrt(total, out=total)


def _write_views(output_dir: str, config: ExperimentConfig, table) -> SummaryStats:
    """Write into `output_dir` every file derived from `table` (as
    _slab_reader gives it) alone: summary.csv, through
    SummaryStats.write_csv, and, when SDGM ran, sdgm_regret_scaled.csv.
    The last-round means, summed from +0.0 in trial order as aggregate sums,
    and SDGM's regret come from one read of each slab's last row."""
    _, read, _ = table
    last = range(config.horizon - 1, config.horizon)
    rows = [  # per trial, its last round's (algorithm, metric) values
        np.concatenate([read(a, k, last) for a in range(len(config.algorithms))])
        for k in range(config.trials)
    ]
    final_mean = sum(rows, np.zeros_like(rows[0])) / config.trials
    summary = SummaryStats(config.algorithms, config.trials, config.horizon, final_mean)
    summary.write_csv(os.path.join(output_dir, "summary.csv"), table)
    if "SDGM" in config.algorithms:
        a, i = config.algorithms.index("SDGM"), METRIC_COLUMNS.index("regret_cum")
        regret = np.array([row[a, i] for row in rows])

        def write_regret(out) -> None:
            out.write("trial_id,regret_final_over_sqrt_horizon\n")
            write_rows(out, "", range(config.trials), [regret / np.sqrt(config.horizon)])

        _write_whole(os.path.join(output_dir, "sdgm_regret_scaled.csv"), "w", write_regret)
    return summary


def run_experiment(config: ExperimentConfig) -> SummaryStats:
    """Run the full ensemble: remove each name in OWNED, the manifest first;
    fill the trace table in traces.npy's temporary, writing the traces and
    the files derived from it; write, last, the manifest."""
    config.check()
    for name in OWNED:  # a directory without a manifest holds no run
        path = os.path.join(config.output_dir, name)
        with suppress(FileNotFoundError):
            os.remove(path) if "." in name else shutil.rmtree(path)
        if "." not in name:  # a directory the run fills, recreated empty
            os.makedirs(path)
    for name in os.listdir(config.output_dir):  # a killed run's temporaries of owned files
        stem, _, pid = name.rpartition(".tmp.")
        path = os.path.join(config.output_dir, name)
        if stem in OWNED and "." in stem and pid.isdigit() and os.path.isfile(path):
            os.remove(path)
    prepared = [_prepare_trial(config, trial_id) for trial_id in range(config.trials)]
    shape = (len(METRIC_COLUMNS), config.horizon, len(config.algorithms), config.trials)

    def fill(fh) -> SummaryStats:
        fmt = np.lib.format
        header = {"descr": fmt.dtype_to_descr(np.dtype(float)), "fortran_order": True, "shape": shape}
        fmt.write_array_header_1_0(fh, header)
        end = fh.tell() + math.prod(shape) * np.dtype(float).itemsize
        fh.truncate(end)
        # a full disk: an OSError here; without posix_fallocate (macOS), from a block's write
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(fh.fileno(), 0, end)
        table = _slab_reader(fh)
        fan_out(lambda b: _price_into(config, prepared[b.start:b.stop], table, b.start), config.trials)
        return _write_views(config.output_dir, config, table)

    summary = _write_whole(os.path.join(config.output_dir, "traces.npy"), "w+b", fill)
    manifest = {"config": config.to_dict(), "trials": [meta for *_, meta in prepared]}
    _write_whole(os.path.join(config.output_dir, "manifest.json"), "w",
                 lambda fh: fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"))
    return summary


def report(output_dir: str) -> SummaryStats:
    """Rebuild, through _write_views, the files that `compare` derives from
    the trace table of the run that `manifest.json` records, reading
    traces.npy alone.  Refused before the table is read: a manifest that is
    not a JSON object holding a config that `compare` accepts and a list of
    trial objects whose ids are each of 0 to config.trials - 1 once.
    Refused after: a missing table, one that _slab_reader refuses, or one
    not in the config's (metric, round, algorithm, trial) shape."""
    manifest_path = os.path.join(output_dir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise TraceMismatchError(f"{manifest_path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise TraceMismatchError(f"{manifest_path} is not a JSON object")
    if not isinstance(manifest.get("config"), dict):
        raise ConfigError(f'{manifest_path} has no "config" object')
    config = ExperimentConfig.from_dict(manifest["config"])
    config.check()
    trials = manifest.get("trials")
    if not (isinstance(trials, list) and all(isinstance(meta, dict) for meta in trials)):
        raise TraceMismatchError(f'{manifest_path} has no "trials" list of objects')
    trial_ids = [meta.get("trial_id") for meta in trials]
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
        fh = open(path, "rb")
    except FileNotFoundError:
        raise TraceMismatchError(f"missing trace table {path}, which compare writes") from None
    with fh:
        table = _slab_reader(fh)
        shape = (len(METRIC_COLUMNS), config.horizon, len(config.algorithms), config.trials)
        if table[0] != shape:
            raise TraceMismatchError(f"{path} holds a {table[0]} table, the manifest {shape}")
        return _write_views(output_dir, config, table)
