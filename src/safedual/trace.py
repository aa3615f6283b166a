"""Per-trial iteration records, the per-round metrics that fill them, and their CSV form.

A run records every trial's metrics into one (metric, round, algorithm,
trial) table; a TrialTrace is one (algorithm, trial) column of it, and the
run's summary reduces the table itself.  The pricing loop hands the
recorder one round per call, record(t, x, lam, load), before its update;
the recorder alone decides how many rounds a run holds in memory.
write_trace alone writes the trace CSV format.  Each trace is measured
against its trial's optimum: ||x_t - x*|| and sum f* - f(x_t).
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .numtext import rows_text
from .problem import NumProblem, ProblemBatch

# Rows that write_trace and the summary take from the table at a time, so
# the values they hold at once stay this size whatever the file's length.
CHUNK = 1024
# Values that write_rows formats at a time.  numtext.rows_text's temporaries
# take about 300 bytes a value, so a call peaks near 0.6 MiB whatever the
# columns' count.  At 3072 it would peak near 0.9 MiB, close to the 1 MiB
# that a trace CSV's writing may take in all.
VALUES = 2048


def write_rows(fh, prefix: str, index, columns) -> None:
    """One CSV row per entry of `index`, a non-negative integer: `prefix` as
    it stands, the entry in `%d`, then that entry's value of each column,
    as a float64, in `%.17g`, which reads back to the same float.  The text
    is numtext.rows_text's, byte for byte that of `%`: a numpy kernel finds
    each value's 17 digits, and Python's own `%.17g` writes only nan, inf,
    the values beyond 1e-280 to 1e280 and those within 1e-6 of a tie at the
    17th digit.  Rows are formatted and written VALUES // len(columns) at a
    time."""
    step = max(1, VALUES // max(1, len(columns)))
    for start in range(0, len(index), step):
        part = index[start:start + step]
        rows = np.arange(part.start, part.stop, part.step) if isinstance(part, range) else np.asarray(part, np.int64)
        values = np.empty((len(rows), len(columns)))
        for j, column in enumerate(columns):
            values[:, j] = column[start:start + step]
        fh.write(rows_text(prefix, rows, values))


def write_trace(fh, trial_id: int, algorithm: str, horizon: int, rows) -> None:
    """The trace CSV of `algorithm` on trial `trial_id` into `fh`: the
    header, then rounds 1 to `horizon`, one row each, CHUNK rounds at a
    time; rows(rounds) gives the metric columns of `rounds`, a range in
    which round 1 is 0."""
    fh.write(CSV_HEADER + "\n")
    for start in range(0, horizon, CHUNK):
        rounds = range(start, min(start + CHUNK, horizon))
        write_rows(fh, f"{trial_id},{algorithm},", range(start + 1, rounds.stop + 1), rows(rounds))


@dataclass
class TrialTrace:
    """One algorithm's run on one instance, one row per iteration."""

    trial_id: int
    algorithm: str
    objective: np.ndarray
    regret_cum: np.ndarray
    infeasibility: np.ndarray
    distance_to_opt: np.ndarray
    max_lambda: np.ndarray
    min_slack: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.objective)

    def metrics(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in METRIC_COLUMNS}

    def write_csv(self, path_or_file) -> None:
        to_stream = hasattr(path_or_file, "write")
        columns = self.metrics().values()
        with nullcontext(path_or_file) if to_stream else open(path_or_file, "w") as fh:
            write_trace(fh, self.trial_id, self.algorithm, self.horizon,
                        lambda rounds: [column[rounds.start:rounds.stop] for column in columns])


METRIC_COLUMNS = tuple(f.name for f in fields(TrialTrace))[2:]
CSV_HEADER = ",".join(("trial_id", "algorithm", "t", *METRIC_COLUMNS))


# A recorder reduces as many rounds at a time as fit in this many values at
# its batch's width (its users or its rows, whichever are more), and at least
# one.  So unless one round is wider, no chunk of raw iterates or temporary of
# a reduction passes 128 KiB (16 Ki float64), glibc's default threshold from
# which malloc maps each allocation afresh.
BUFFER_VALUES = 1 << 14
# The values, 1 MiB of float64, that bound a recorder's window of rounds.
WINDOW_VALUES = 1 << 17


class TraceRecorder:
    """The trace columns of a batch, one round at a time: the `record` of
    sdgm.run_pricing.

    The batch holds its trials `algorithms` times, algorithm by
    algorithm; `x_star` is their reference optima, concatenated, and
    `f_star` their values.  The recorder holds a chunk of raw iterates, as
    many rounds as BUFFER_VALUES allows, and reduces each full chunk into
    `table`, a window of rounds: a Fortran-ordered (metric, round,
    algorithm, trial) array, one entry per METRIC_COLUMNS, the most whole
    chunks whose values fit in WINDOW_VALUES, at least one, cut to the
    horizon.  Each time the window is full, and at flush(), it hands
    write(first, rows) the rows it holds, rounds `first` on, and fills it
    again from its start.  No value depends on the chunk or window size.
    """

    def __init__(self, batch: ProblemBatch, algorithms: int, horizon: int, x_star, f_star, write):
        self.batch = batch
        self.x_star = np.asarray(x_star, float)
        self.f_star = np.asarray(f_star, float)
        self.write = write
        chunk = max(1, min(horizon, BUFFER_VALUES // max(batch.n, batch.m)))
        self.xs = np.empty((chunk, batch.n))
        self.lams, self.loads = np.empty((chunk, batch.m)), np.empty((chunk, batch.m))
        rounds = min(horizon, chunk * max(1, WINDOW_VALUES // (chunk * len(METRIC_COLUMNS) * batch.size)))
        shape = (len(METRIC_COLUMNS), rounds, algorithms, batch.size // algorithms)
        self.table = np.empty(shape, order="F")
        self.regret = None  # the last reduced round's cumulative regret, per trial
        self.recorded = self.reduced = self.written = 0  # rounds recorded, reduced, handed to `write`

    def __call__(self, t: int, x: np.ndarray, lam: np.ndarray, load: np.ndarray) -> None:
        """Record round t, the next, from its demand x, posted duals `lam`
        and load A x, copied: the caller may reuse them once this returns."""
        i = t - 1 - self.reduced
        self.xs[i], self.lams[i], self.loads[i] = x, lam, load
        self.recorded = t
        if i + 1 == len(self.xs):
            self._reduce()
            if self.recorded - self.written == self.table.shape[1]:
                self.flush()

    def _reduce(self) -> None:
        """Reduce the rounds held into the window, every metric in
        METRIC_COLUMNS order; a round's regret is the previous round's plus
        its own f_star - objective."""
        rounds = self.recorded - self.reduced
        batch, x, lam, load = self.batch, self.xs[:rounds], self.lams[:rounds], self.loads[:rounds]
        slack = batch.capacities - load
        excess = np.maximum(-slack, 0.0)
        gap = x - self.x_star
        objective = batch.user_sums(batch.theta * np.log(x + batch.shift))
        regret = self.f_star - objective
        if self.regret is not None:
            regret[0] += self.regret
        np.add.accumulate(regret, out=regret)
        self.regret = regret[-1].copy()
        start = self.reduced - self.written
        rows = self.table[:, start:start + rounds]
        rows[...] = np.reshape([
            objective,
            regret,
            np.sqrt(batch.row_sums(excess * excess)),
            np.sqrt(batch.user_sums(gap * gap)),
            batch.row_max(lam),
            batch.row_min(slack),
        ], rows.shape)
        self.reduced = self.recorded

    def flush(self) -> None:
        """Reduce the rounds held, then hand `write` the rounds recorded
        since it was last handed any."""
        if self.recorded > self.reduced:
            self._reduce()
        if self.recorded > self.written:
            self.write(self.written + 1, self.table[:, :self.recorded - self.written])
            self.written = self.recorded


def whole_table(algorithms: int, horizon: int, trials: int):
    """A fresh Fortran-ordered (metric, round, algorithm, trial) array of
    every round, and a TraceRecorder `write` that copies each window into it."""
    table = np.empty((len(METRIC_COLUMNS), horizon, algorithms, trials), order="F")
    return table, lambda first, rows: np.copyto(table[:, first - 1:first - 1 + rows.shape[1]], rows)


def build_trace(
    problem: NumProblem,
    algorithm: str,
    x_hist: np.ndarray,
    lam_hist: np.ndarray,
    trial_id: int = 0,
    *,
    f_star: float,
    x_star: np.ndarray,
) -> TrialTrace:
    """Assemble the metric columns from raw iterates, recorded round by
    round by a TraceRecorder, against the reference optimum f_star at x_star."""
    batch = ProblemBatch([problem])
    table, write = whole_table(1, len(x_hist), 1)
    record = TraceRecorder(batch, 1, len(x_hist), x_star, [f_star], write)
    for t, (x, lam) in enumerate(zip(np.asarray(x_hist, float), np.asarray(lam_hist, float)), start=1):
        record(t, x, lam, batch.a_matrix @ x)
    record.flush()
    return TrialTrace(trial_id, algorithm, *table[:, :, 0, 0])


def read_trace_csv(path) -> TrialTrace:
    """Load the metric columns of a trace CSV (raw iterates are not stored);
    its trial id and algorithm come from the first row."""
    with open(path) as fh:
        if fh.readline().strip() != CSV_HEADER:
            raise ValueError(f"unexpected trace header in {path}")
        first = fh.readline().split(",", 2)
        if len(first) < 3:
            raise ValueError(f"empty trace file {path}")
        fh.seek(0)
        data = np.loadtxt(
            fh, delimiter=",", skiprows=1, usecols=range(3, 3 + len(METRIC_COLUMNS)),
            comments=None, ndmin=2,
        )
    return TrialTrace(
        trial_id=int(first[0]),
        algorithm=first[1],
        **dict(zip(METRIC_COLUMNS, data.T)),
    )
