"""Problem instances for price-based allocation under hard capacity limits.

A problem couples n users, each with a strictly increasing strongly concave
utility on a box domain, through binary capacity constraints A x <= c.
This module owns instance construction, structural validation, random
generation of test networks, the derived constants the solvers need, and
batches that price many instances in one round.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SLATER_EPS = 1e-6
RESAMPLE_CAP = 10_000


def is_integer(value) -> bool:
    """Whether a setting is an int proper: a bool or a float of integral value is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether a setting is a finite real number: an int or a float, not a bool
    or a string, and no inf, no NaN and no int too large for a float."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class UtilitySpec:
    """One user's shifted-log utility theta * log(x + shift) on the box
    [lower, upper], as agents.best_response takes it.

    Strictly increasing, and strongly concave on any bounded interval of its
    domain.  The shift keeps the utility finite at x = 0.
    """

    theta: float
    shift: float = 0.1
    lower: float = 0.0
    upper: float = math.inf

    @property
    def unbounded_above(self) -> bool:
        return math.isinf(self.upper)


@dataclass(frozen=True, eq=False)
class NumProblem:
    """A utility-maximization instance: max sum_i f_i(x_i) s.t. A x <= c.

    User i's utility is theta[i] * log(x_i + shift[i]) on [lower[i], upper[i]]:
    four float arrays of n entries each.  A single number given for shift,
    lower or upper is every user's; the defaults are UtilitySpec's.  A matrix
    of binary entries is held as int64; any other keeps its values, as
    floats, for `validate` to refuse.  `unbounded_above` marks the users
    whose upper is infinite.
    """

    a_matrix: np.ndarray
    capacities: np.ndarray
    theta: np.ndarray
    shift: np.ndarray = UtilitySpec.shift
    lower: np.ndarray = UtilitySpec.lower
    upper: np.ndarray = UtilitySpec.upper
    seed: int | None = None

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        object.__setattr__(self, "a_matrix", a.astype(np.int64) if np.isin(a, (0, 1)).all() else a)
        object.__setattr__(self, "capacities", np.asarray(self.capacities, dtype=float))
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        for name in ("shift", "lower", "upper"):
            values = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, values if values.ndim else np.full(theta.shape, values))
        object.__setattr__(self, "unbounded_above", np.isinf(self.upper))

    @property
    def m(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.a_matrix.shape[1]

    @property
    def row_peers(self) -> int:
        """m - 1, the other rows of each row's network (per row in a batch)."""
        return self.m - 1

    def objective(self, x: np.ndarray) -> float:
        return float(np.sum(self.theta * np.log(np.asarray(x, float) + self.shift)))


@dataclass(frozen=True)
class GeneratorConfig:
    """Ranges for random network generation; ranges are inclusive."""

    n_range: tuple[int, int] = (10, 40)
    m_range: tuple[int, int] = (5, 25)
    theta_range: tuple[float, float] = (10.0, 30.0)
    capacity_value: float = 1.0
    bernoulli_p: float = 0.5
    seed: int | None = 0

    def check(self):
        if self.seed is not None and not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be None or a non-negative integer, got {self.seed!r}")
        for name in ("n_range", "m_range", "theta_range"):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list)) and len(value) == 2):
                raise ValueError(f"{name} must be a pair, got {value!r}")
        reals = {"theta_range": self.theta_range, "bernoulli_p": [self.bernoulli_p],
                 "capacity_value": [self.capacity_value]}
        for name, values in reals.items():
            if not all(map(is_real, values)):
                raise ValueError(f"{name} must hold finite reals, got {getattr(self, name)!r}")
        for name in ("n_range", "m_range"):
            low, high = getattr(self, name)
            # rng.integers draws the sizes as int64
            if not (is_integer(low) and is_integer(high)) or low < 1 or high >= 2**63:
                raise ValueError(f"{name} must hold int64s from 1 up, not {low!r}..{high!r}")
            if low > high:
                raise ValueError(f"{name} {low}..{high} is empty")
        if not self.theta_range[0] > 0:
            raise ValueError(f"theta_range must start above 0, not {self.theta_range[0]}")
        if self.theta_range[0] > self.theta_range[1]:
            raise ValueError("theta_range is empty")
        if not 0.0 < self.bernoulli_p < 1.0:
            raise ValueError("bernoulli_p must lie strictly in (0, 1)")
        if not self.capacity_value > 0:
            raise ValueError("capacity_value must be positive")


@dataclass(frozen=True, eq=False)
class ProblemConstants:
    """Derived quantities shared by all solvers.

    mu               global strong-concavity lower bound over the enclosing box
    spectral         spectral radius of A^T A, taken from the m x m matrix A A^T,
                     which has the same nonzero eigenvalues
    dual_smoothness  spectral / mu, the smoothness constant of the dual
    lambda_bar       uniform dual cap: a dual at lambda_bar keeps its row feasible
    row_weights      A A^T applied to the all-ones vector, in exact integers
    c_l1             ||c||_1, the sum of the capacities' magnitudes
    """

    mu: float
    spectral: float
    dual_smoothness: float
    lambda_bar: float
    row_weights: np.ndarray
    c_l1: float


def validate(problem: NumProblem) -> list[str]:
    """Return the names of every violated structural invariant (empty if valid)."""
    violations = []
    a = problem.a_matrix
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        return ["malformed constraint matrix"]
    if problem.capacities.shape != (problem.m,):
        violations.append("capacity dimension mismatch")
        return violations
    users = (problem.theta, problem.shift, problem.lower, problem.upper)
    if any(values.shape != (problem.n,) for values in users):
        violations.append("utility dimension mismatch")
        return violations
    if not np.isin(a, (0, 1)).all():
        violations.append("non-binary entry")
    if (a.sum(axis=1) == 0).any():
        violations.append("zero row")
    if (a.sum(axis=0) == 0).any():
        violations.append("zero column")
    if (problem.capacities <= 0).any():
        violations.append("non-positive capacity")
    if not np.isfinite(problem.capacities).all():
        violations.append("non-finite capacity")
    if not (np.isfinite(problem.theta).all() and np.isfinite(problem.shift).all()):
        violations.append("non-finite utility parameter")
    if (problem.theta <= 0).any() or (problem.shift <= 0).any():
        violations.append("non-positive utility parameter")
    if (problem.lower < 0).any() or not (problem.lower < problem.upper).all():
        violations.append("invalid domain bounds")
    if not violations:
        interior = problem.lower + SLATER_EPS
        if (interior >= problem.upper).any() or not (a @ interior < problem.capacities).all():
            violations.append("no slater point")
    return violations


def generate_random(config: GeneratorConfig) -> NumProblem:
    """Draw a random instance; deterministic given config.seed.

    The whole matrix is resampled until it has no zero row or column.  If
    RESAMPLE_CAP draws all have one, the last is repaired: each zero row gets
    a 1 at a drawn column, then each zero column a 1 at a drawn row.
    """
    config.check()
    rng = np.random.default_rng(config.seed)
    n = int(rng.integers(config.n_range[0], config.n_range[1] + 1))
    m = int(rng.integers(config.m_range[0], config.m_range[1] + 1))
    for _ in range(RESAMPLE_CAP):
        a = (rng.random((m, n)) < config.bernoulli_p).astype(np.int64)
        if (a.sum(axis=1) > 0).all() and (a.sum(axis=0) > 0).all():
            break
    else:
        rows = np.flatnonzero(a.sum(axis=1) == 0)
        a[rows, rng.integers(n, size=len(rows))] = 1
        cols = np.flatnonzero(a.sum(axis=0) == 0)
        a[rng.integers(m, size=len(cols)), cols] = 1
    theta = rng.uniform(config.theta_range[0], config.theta_range[1], size=n)
    capacities = np.full(m, float(config.capacity_value))
    return NumProblem(a, capacities, theta, seed=config.seed)


def compute_constants(problem: NumProblem) -> ProblemConstants:
    """Derive the curvature, smoothness, dual cap, and margin weights."""
    c_max = float(problem.capacities.max())
    mu = float(np.min(problem.theta / (c_max + problem.shift) ** 2))
    gram = problem.a_matrix @ problem.a_matrix.T
    spectral = float(np.linalg.eigvalsh(gram)[-1])
    lambda_bar = float(np.max(problem.theta / (problem.lower + problem.shift)))
    row_weights = gram.sum(axis=1)
    return ProblemConstants(
        mu=mu,
        spectral=spectral,
        dual_smoothness=spectral / mu,
        lambda_bar=lambda_bar,
        row_weights=row_weights,
        c_l1=float(np.abs(problem.capacities).sum()),
    )


# --- batches ---------------------------------------------------------------

class BlockRows:
    """Block-diagonal binary matrix held as its nonzeros, sorted by (block, row, column).

    Products are bincounts over the nonzeros.  bincount adds in input order,
    so the entries of one block do not depend on the blocks around it.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        self.rows = rows
        self.cols = cols
        self.shape = shape

    @cached_property
    def T(self) -> "BlockRows":
        return BlockRows(self.cols, self.rows, self.shape[::-1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=v[self.cols], minlength=self.shape[0])


class ProblemBatch:
    """Several instances side by side, priced as one problem.

    The users and the constraint rows of every trial are concatenated, and
    `a_matrix` is block diagonal, so a batch has every attribute of a
    NumProblem that demand, dual updates and trace metrics read.  Each
    trial's numbers are the same whatever the batch's size and the trial's
    position in it.
    """

    def __init__(self, problems):
        self.problems = tuple(problems)
        n_sizes = [p.n for p in self.problems]
        self.m_sizes = np.array([p.m for p in self.problems])
        self.user_start = np.concatenate(([0], np.cumsum(n_sizes)))
        self.row_start = np.concatenate(([0], np.cumsum(self.m_sizes)))
        trials = np.arange(self.size)
        self.user_trial = np.repeat(trials, n_sizes)
        self.row_trial = np.repeat(trials, self.m_sizes)
        self.row_m = np.repeat(self.m_sizes, self.m_sizes)
        self.row_peers = self.row_m - 1.0
        nonzeros = [np.nonzero(p.a_matrix) for p in self.problems]
        self.a_matrix = BlockRows(
            np.concatenate([rows + r0 for (rows, _), r0 in zip(nonzeros, self.row_start)]),
            np.concatenate([cols + u0 for (_, cols), u0 in zip(nonzeros, self.user_start)]),
            (int(self.row_start[-1]), int(self.user_start[-1])),
        )
        self.capacities = np.concatenate([p.capacities for p in self.problems])
        self.theta = np.concatenate([p.theta for p in self.problems])
        self.shift = np.concatenate([p.shift for p in self.problems])
        self.lower = np.concatenate([p.lower for p in self.problems])
        self.upper = np.concatenate([p.upper for p in self.problems])
        self.unbounded_above = np.isinf(self.upper)

    @property
    def size(self) -> int:
        return len(self.problems)

    @property
    def m(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def n(self) -> int:
        return self.a_matrix.shape[1]

    def per_row(self, values) -> np.ndarray:
        """One value per trial, repeated over that trial's constraint rows."""
        return np.repeat(np.asarray(values, dtype=float), self.m_sizes)

    # The per-trial reductions below reduce the last axis of `values`, one
    # entry per user or per constraint row; any leading axis is kept.  The
    # sums are bincounts, which add each trial's entries in input order, so a
    # trial's sum is the same whatever the leading axes.

    def user_sums(self, values: np.ndarray) -> np.ndarray:
        return self._trial_sums(self.user_trial, values)

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        return self._trial_sums(self.row_trial, values)

    def row_max(self, values: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(values, self.row_start[:-1], axis=-1)

    def row_min(self, values: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(values, self.row_start[:-1], axis=-1)

    def _trial_sums(self, owner: np.ndarray, values: np.ndarray) -> np.ndarray:
        lead = values.shape[:-1]
        cells = math.prod(lead)
        bins = (np.arange(cells)[:, None] * self.size + owner).ravel()
        sums = np.bincount(bins, weights=values.ravel(), minlength=cells * self.size)
        return sums.reshape(*lead, self.size)

    def locate_user(self, user: int) -> tuple[int, int]:
        """(trial position, user index within that trial) of a flat user index."""
        k = int(np.searchsorted(self.user_start, user, side="right")) - 1
        return k, int(user - self.user_start[k])


# --- serialization ---------------------------------------------------------

def problem_to_dict(problem: NumProblem) -> dict:
    shifts = problem.shift
    upper = ["inf" if math.isinf(u) else float(u) for u in problem.upper]
    return {
        "n": problem.n,
        "m": problem.m,
        "A": problem.a_matrix.tolist(),
        "c": problem.capacities.tolist(),
        "theta": problem.theta.tolist(),
        "shift": float(shifts[0]) if np.all(shifts == shifts[0]) else shifts.tolist(),
        "lower": problem.lower.tolist(),
        "upper": upper,
        "seed": problem.seed,
    }


def problem_from_dict(doc: dict) -> NumProblem:
    """The problem a document holds, as written: `validate` refuses a
    per-user list that does not hold n entries, or a matrix entry other than
    0 or 1.  A single number stands for every user's value, and the string
    "inf" reads as infinity.  An `n` or `m` the document gives must be its
    matrix's column or row count."""
    problem = NumProblem(
        doc["A"], doc["c"], doc["theta"], doc["shift"], doc["lower"], doc["upper"],
        seed=doc.get("seed"),
    )
    for key, count in zip("mn", problem.a_matrix.shape):
        if key in doc and not (is_integer(doc[key]) and doc[key] == count):
            raise ValueError(f"the document gives {key} = {doc[key]!r}, its matrix {count}")
    return problem


def save_problem(problem: NumProblem, path_or_file) -> None:
    """The problem document, as json.dumps indents it, then a newline, into
    a path or an open text stream."""
    to_stream = hasattr(path_or_file, "write")
    with nullcontext(path_or_file) if to_stream else open(path_or_file, "w") as fh:
        fh.write(json.dumps(problem_to_dict(problem), indent=2) + "\n")


def load_problem(path) -> NumProblem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


def problem_hash(problem: NumProblem) -> str:
    """Content hash of the mathematical instance (seed excluded)."""
    doc = problem_to_dict(problem)
    doc.pop("seed", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
