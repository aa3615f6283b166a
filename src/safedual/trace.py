"""Per-trial iteration records, the per-round metrics that fill them, and their CSV form."""
from __future__ import annotations

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


def regret_series(objectives: np.ndarray, f_star: float) -> np.ndarray:
    """Cumulative sum of per-iteration suboptimality gaps."""
    return np.cumsum(f_star - np.asarray(objectives, float))


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
        if hasattr(path_or_file, "write"):
            self._write_rows(path_or_file)
        else:
            with open(path_or_file, "w") as fh:
                self._write_rows(fh)

    def _write_rows(self, fh) -> None:
        prefix = f"{self.trial_id},{self.algorithm},".replace("%", "%%")
        row = prefix + "%d" + ",%.17g" * len(METRIC_COLUMNS) + "\n"
        values = np.column_stack([self.iterations(), *self.metrics().values()])
        fh.write(CSV_HEADER + "\n")
        fh.write(row * self.horizon % tuple(values.ravel().tolist()))


def round_metrics(
    batch: ProblemBatch, x: np.ndarray, lam: np.ndarray, load: np.ndarray, x_star=None
):
    """Each trial's objective, infeasibility, distance to x_star, max dual and
    min slack in one round, from the demand x, its load A x and the duals;
    the distance is NaN without x_star."""
    slack = batch.capacities - load
    excess = np.maximum(-slack, 0.0)
    if x_star is None:
        distance = np.full(batch.size, np.nan)
    else:
        gap = x - x_star
        distance = np.sqrt(batch.user_sums(gap * gap))
    return (
        batch.user_sums(batch.theta * np.log(x + batch.shift)),
        np.sqrt(batch.row_sums(excess * excess)),
        distance,
        batch.row_max(lam),
        batch.row_min(slack),
    )


class TraceRecorder:
    """The trace columns of a batch, filled in one round at a time.

    Holds one (horizon, trials) array per metric, never the iterates.
    `x_star` is the trials' reference optima, concatenated, or None.
    """

    COLUMNS = ("objective", "infeasibility", "distance_to_opt", "max_lambda", "min_slack")

    def __init__(self, batch: ProblemBatch, horizon: int, x_star=None):
        self.batch = batch
        self.x_star = None if x_star is None else np.asarray(x_star, float)
        self.columns = [np.empty((horizon, batch.size)) for _ in self.COLUMNS]

    def __call__(self, t: int, x: np.ndarray, lam: np.ndarray, load: np.ndarray) -> None:
        metrics = round_metrics(self.batch, x, lam, load, self.x_star)
        for column, values in zip(self.columns, metrics):
            column[t - 1] = values

    def traces(self, algorithm: str, trial_ids, f_stars, first: int = 0) -> list[TrialTrace]:
        """One trace per trial, from the batch's trials at positions first,
        first + 1, ...; regret is the running sum of f_star - objective."""
        traces = []
        for k, (trial_id, f_star) in enumerate(zip(trial_ids, f_stars), start=first):
            columns = {name: column[:, k] for name, column in zip(self.COLUMNS, self.columns)}
            columns["regret_cum"] = regret_series(columns["objective"], f_star)
            traces.append(TrialTrace(trial_id=trial_id, algorithm=algorithm, **columns))
        return traces


def build_trace(
    problem: NumProblem,
    algorithm: str,
    x_hist: np.ndarray,
    lam_hist: np.ndarray,
    trial_id: int = 0,
    f_star: float = np.nan,
    x_star: np.ndarray | None = None,
) -> TrialTrace:
    """Assemble the metric columns from raw iterates, replayed round by round
    through a TraceRecorder.

    Regret and distance columns are NaN when no reference optimum is given.
    """
    x_hist = np.asarray(x_hist, float)
    lam_hist = np.asarray(lam_hist, float)
    batch = ProblemBatch([problem])
    record = TraceRecorder(batch, len(x_hist), x_star)
    for t, (x, lam) in enumerate(zip(x_hist, lam_hist), start=1):
        record(t, x, lam, batch.a_matrix @ x)
    return record.traces(algorithm, [trial_id], [f_star])[0]


def read_trace_csv(path) -> TrialTrace:
    """Load the metric columns of a trace CSV (raw iterates are not stored)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected trace header in {path}")
        rows = fh.read().split()
    if not rows:
        raise ValueError(f"empty trace file {path}")
    cells = np.array(",".join(rows).split(","), dtype=object)
    cells = cells.reshape(len(rows), len(CSV_COLUMNS))
    data = cells[:, 3:].astype(float)
    return TrialTrace(
        trial_id=int(cells[0, 0]),
        algorithm=str(cells[0, 1]),
        objective=data[:, 0],
        regret_cum=data[:, 1],
        infeasibility=data[:, 2],
        distance_to_opt=data[:, 3],
        max_lambda=data[:, 4],
        min_slack=data[:, 5],
    )
