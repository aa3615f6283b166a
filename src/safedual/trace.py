"""Per-trial iteration records, the per-round metrics that fill them, and their CSV form.

A run records every trial's metrics into one (metric, round, algorithm,
trial) table; a TrialTrace is one (algorithm, trial) column of it, and the
run's summary reduces the table itself.  The pricing loop hands the
recorder its rounds a chunk at a time, and the recorder reduces each chunk
into a window of rounds that it hands on whenever the window is full.
write_trace alone writes the trace CSV format.  Each trace is measured
against its trial's optimum: ||x_t - x*|| and sum f* - f(x_t).
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .problem import NumProblem, ProblemBatch

# Rows that write_rows formats at a time, so the values and text it holds at
# once stay this size whatever the file's length.
CHUNK = 1024


def write_rows(fh, prefix: str, index, columns) -> None:
    """One CSV row per entry of `index`: `prefix` as it stands, the entry as
    an integer, then that entry's value of each column in `%.17g`, which
    reads back to the same float.  Rows are formatted and written CHUNK at a
    time."""
    row = prefix.replace("%", "%%") + "%d" + ",%.17g" * len(columns) + "\n"
    full = row * CHUNK
    for start in range(0, len(index), CHUNK):
        chunk = [index[start:start + CHUNK], *(column[start:start + CHUNK] for column in columns)]
        length = len(chunk[0])
        values = np.column_stack(chunk).ravel().tolist()
        fh.write((full if length == CHUNK else row * length) % tuple(values))


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

    def iterations(self) -> np.ndarray:
        return np.arange(1, self.horizon + 1)

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


class TraceRecorder:
    """The trace columns of a batch, reduced a chunk of rounds at a time
    into a window that is handed on whenever it is full.

    `table` is the window: a (metric, round, algorithm, trial) array, one
    entry per METRIC_COLUMNS, whose end no chunk of rounds crosses.  The
    batch holds its trials once per algorithm, algorithm by algorithm;
    `x_star` is their reference optima, concatenated, and `f_star` their
    values.  The recorder is a `record` of sdgm.run_pricing, handed chunks
    in order from round 1: it holds no iterate, only the last round's
    cumulative regret, and its values do not depend on the chunk size.
    Each time the window is full, and at flush(), it hands write(first,
    rows) the rows it holds, rounds `first` on, and fills the window again
    from its start.
    """

    def __init__(self, batch: ProblemBatch, table: np.ndarray, x_star: np.ndarray, f_star, write):
        self.batch = batch
        self.table = table
        self.x_star = np.asarray(x_star, float)
        self.f_star = np.asarray(f_star, float)
        self.write = write
        self.regret = None  # the last recorded round's cumulative regret, per trial
        self.recorded = self.written = 0  # rounds recorded, and those handed to `write`

    def __call__(self, first: int, x: np.ndarray, lam: np.ndarray, load: np.ndarray) -> None:
        """Record rounds `first` to first + len(x) - 1 from their demands x,
        duals and loads A x, one row per round, every metric in
        METRIC_COLUMNS order; a round's regret is the previous round's plus
        its own f_star - objective.  The arrays belong to the caller, which
        may reuse them for the next chunk once this call returns."""
        batch = self.batch
        slack = batch.capacities - load
        excess = np.maximum(-slack, 0.0)
        gap = x - self.x_star
        objective = batch.user_sums(batch.theta * np.log(x + batch.shift))
        regret = self.f_star - objective
        if first > 1:
            regret[0] += self.regret
        np.add.accumulate(regret, out=regret)
        self.regret = regret[-1].copy()
        start = first - 1 - self.written
        rows = self.table[:, start:start + len(x)]
        rows[...] = np.reshape([
            objective,
            regret,
            np.sqrt(batch.row_sums(excess * excess)),
            np.sqrt(batch.user_sums(gap * gap)),
            batch.row_max(lam),
            batch.row_min(slack),
        ], rows.shape)
        self.recorded = first - 1 + len(x)
        if self.recorded - self.written == self.table.shape[1]:
            self.flush()

    def flush(self) -> None:
        """Hand `write` the rounds recorded since it was last handed any."""
        if self.recorded > self.written:
            self.write(self.written + 1, self.table[:, :self.recorded - self.written])
            self.written = self.recorded


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
    """Assemble the metric columns from raw iterates, recorded as one chunk
    by a TraceRecorder, against the reference optimum f_star at x_star."""
    x_hist = np.asarray(x_hist, float)
    lam_hist = np.asarray(lam_hist, float)
    batch = ProblemBatch([problem])
    table = np.empty((len(METRIC_COLUMNS), len(x_hist), 1, 1))  # a window of the whole history
    record = TraceRecorder(batch, table, x_star, [f_star], lambda first, rows: None)
    load = np.reshape([batch.a_matrix @ x for x in x_hist], (len(x_hist), batch.m))
    record(1, x_hist, lam_hist, load)
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
