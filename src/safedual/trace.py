"""Per-trial iteration records, the per-round metrics that fill them, and their CSV form.

A run records every trial's metrics into one (metric, round, algorithm,
trial) table; a TrialTrace is one (algorithm, trial) column of it, viewed
for its CSV file, and the run's summary reduces the table itself.  Each
trace is measured against its trial's optimum: ||x_t - x*|| and sum f* - f(x_t).
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .problem import NumProblem, ProblemBatch

CSV_COLUMNS = (
    "trial_id",
    "algorithm",
    "t",
    "objective",
    "regret_cum",
    "infeasibility",
    "distance_to_opt",
    "max_lambda",
    "min_slack",
)
CSV_HEADER = ",".join(CSV_COLUMNS)
METRIC_COLUMNS = CSV_COLUMNS[3:]
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
        with nullcontext(path_or_file) if to_stream else open(path_or_file, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            prefix = f"{self.trial_id},{self.algorithm},"
            write_rows(fh, prefix, self.iterations(), self.metrics().values())


def round_metrics(
    batch: ProblemBatch, x: np.ndarray, lam: np.ndarray, load: np.ndarray, x_star: np.ndarray
):
    """Each trial's objective, infeasibility, distance to x_star, max dual and
    min slack in one round, from the demand x, its load A x and the duals."""
    slack = batch.capacities - load
    excess = np.maximum(-slack, 0.0)
    gap = x - x_star
    return (
        batch.user_sums(batch.theta * np.log(x + batch.shift)),
        np.sqrt(batch.row_sums(excess * excess)),
        np.sqrt(batch.user_sums(gap * gap)),
        batch.row_max(lam),
        batch.row_min(slack),
    )


class TraceRecorder:
    """The trace columns of a batch, filled in place one round at a time.

    `table` is a (metric, round, algorithm, trial) array, or a slice of one,
    with one entry per METRIC_COLUMNS; the batch holds its trials once per
    algorithm, algorithm by algorithm.  Holds no iterates.  `x_star` is the
    batch's reference optima, concatenated.
    """

    COLUMNS = ("objective", "infeasibility", "distance_to_opt", "max_lambda", "min_slack")

    def __init__(self, batch: ProblemBatch, table: np.ndarray, x_star: np.ndarray):
        self.batch = batch
        self.table = table
        self.x_star = np.asarray(x_star, float)
        self.columns = [table[METRIC_COLUMNS.index(name)] for name in self.COLUMNS]

    def __call__(self, t: int, x: np.ndarray, lam: np.ndarray, load: np.ndarray) -> None:
        metrics = round_metrics(self.batch, x, lam, load, self.x_star)
        for column, values in zip(self.columns, metrics):
            column[t - 1] = values.reshape(column.shape[1:])

    def traces(self, algorithms, trial_ids, f_stars) -> list[TrialTrace]:
        """Fill the regret column, the running sum of each trial's f_star -
        objective, and view the table as one trace per (algorithm, trial),
        algorithm by algorithm; their columns are views of the table."""
        objective = self.table[METRIC_COLUMNS.index("objective")]
        regret = self.table[METRIC_COLUMNS.index("regret_cum")]
        np.subtract(np.asarray(f_stars, float), objective, out=regret)
        np.cumsum(regret, axis=0, out=regret)
        return [
            TrialTrace(trial_id, algorithm, *self.table[:, :, a, k])
            for a, algorithm in enumerate(algorithms)
            for k, trial_id in enumerate(trial_ids)
        ]


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
    """Assemble the metric columns from raw iterates, replayed round by round
    through a TraceRecorder, against the reference optimum f_star at x_star."""
    x_hist = np.asarray(x_hist, float)
    lam_hist = np.asarray(lam_hist, float)
    batch = ProblemBatch([problem])
    record = TraceRecorder(batch, np.empty((len(METRIC_COLUMNS), len(x_hist), 1, 1)), x_star)
    for t, (x, lam) in enumerate(zip(x_hist, lam_hist), start=1):
        record(t, x, lam, batch.a_matrix @ x)
    return record.traces([algorithm], [trial_id], [f_star])[0]


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
            fh, delimiter=",", skiprows=1, usecols=range(3, 9), comments=None, ndmin=2
        )
    return TrialTrace(
        trial_id=int(first[0]),
        algorithm=first[1],
        **dict(zip(METRIC_COLUMNS, data.T)),
    )
