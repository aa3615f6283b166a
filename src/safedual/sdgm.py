"""Safe dual gradient method.

The dual update moves by fixed amounts whose sign is decided by the
margin-shifted constraints: a diminishing per-constraint safety margin makes
duals rise before a constraint becomes tight, and the asymmetric step pair
(gamma_plus = (m - 1) * gamma_minus) caps how much any price can fall in one
round.  Together these keep every realized demand profile feasible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agents import best_response_profile
from .problem import NumProblem, ProblemBatch, ProblemConstants, as_batch
from .trace import build_trace  # unused here; kept as a wrap point of bench/tracer.py


@dataclass(frozen=True, eq=False)
class SdgmParams:
    """Base step size, dual cap, and precomputed margin weights.

    Over a ProblemBatch, gamma and lambda_bar hold one entry per constraint
    row, each from the trial that owns the row.
    """

    gamma: float | np.ndarray
    lambda_bar: float | np.ndarray
    margin_scale: np.ndarray  # row_weights / mu, one entry per constraint

    @classmethod
    def from_constants(cls, constants: ProblemConstants, gamma: float) -> "SdgmParams":
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {gamma}")
        return cls(
            gamma=float(gamma),
            lambda_bar=constants.lambda_bar,
            margin_scale=constants.row_weights / constants.mu,
        )

    @classmethod
    def stack(cls, batch: ProblemBatch, params: list["SdgmParams"]) -> "SdgmParams":
        """The params of a batch, from the params of each of its trials."""
        return cls(
            gamma=batch.per_row([p.gamma for p in params]),
            lambda_bar=batch.per_row([p.lambda_bar for p in params]),
            margin_scale=np.concatenate([p.margin_scale for p in params]),
        )


@dataclass
class DualState:
    """Current dual vector and iteration index (1-based)."""

    lam: np.ndarray
    t: int = 1


def step_sizes(params: SdgmParams, t: int, m: int) -> tuple[float, float]:
    """Downward and upward step sizes at iteration t."""
    gamma_minus = params.gamma / math.sqrt(t)
    return gamma_minus, (m - 1) * gamma_minus


def safety_margin(params: SdgmParams, t: int) -> np.ndarray:
    """Per-constraint buffer added to the constraint test at iteration t."""
    return params.margin_scale * (params.gamma / math.sqrt(t))


def dual_step(
    state: DualState, x: np.ndarray, problem: NumProblem, params: SdgmParams
) -> DualState:
    """One sign-based dual update given the realized demand at state.lam.

    Only the sign of A x + margin - c enters; a tie takes the upward branch.
    `problem` may be a ProblemBatch with params from SdgmParams.stack.
    """
    gamma_minus, gamma_plus = step_sizes(params, state.t, problem.row_m)
    shifted = problem.a_matrix @ x + safety_margin(params, state.t) - problem.capacities
    down = np.maximum(0.0, state.lam - gamma_minus)
    up = np.minimum(params.lambda_bar, state.lam + gamma_plus)
    return DualState(lam=np.where(shifted < 0, down, up), t=state.t + 1)


def regret_constant(constants: ProblemConstants, problem: NumProblem) -> float:
    """The constant C entering the regret bound and the optimal base step."""
    col_norm_sq = float(constants.row_weights.sum())  # ||A^T 1||^2 = 1^T A A^T 1
    m = problem.m
    c_l1 = float(np.abs(problem.capacities).sum())
    return c_l1 + constants.lambda_bar * m * (
        col_norm_sq + constants.spectral * (m - 1) ** 2 / constants.mu
    ) / constants.mu


def default_gamma(constants: ProblemConstants, problem: NumProblem) -> float:
    """Base step minimizing the worst-case regret bound."""
    c_l1 = float(np.abs(problem.capacities).sum())
    big_c = regret_constant(constants, problem)
    return math.sqrt(constants.lambda_bar**2 * c_l1 / (2.0 * big_c))


def regret_bound(
    horizon: int, gamma: float, lambda_bar: float, c_l1: float, constant: float
) -> float:
    """Worst-case cumulative regret after `horizon` iterations."""
    root = math.sqrt(horizon)
    return lambda_bar**2 * c_l1 * root / gamma + 2.0 * constant * gamma * root


def run_pricing(batch: ProblemBatch, lam: np.ndarray, update, horizon: int, record=None):
    """Post prices for `horizon` rounds: the one round loop every method shares.

    Every trial of the batch moves in the same round.  Round t (1-based)
    posts the dual `lam`, hands it and the demand it realizes to
    `record(t, x, lam)`, then moves to `update(lam, x, t)`.  Without a
    `record`, the batch must hold one instance, and the loop keeps its raw
    iterates and returns them as (x_hist, lam_hist).
    """
    history = None
    if record is None:
        if batch.size != 1:
            raise ValueError("a batch of several trials needs a record for its rounds")
        history = np.empty((horizon, batch.n)), np.empty((horizon, batch.m))

        def record(t, x, lam):
            history[0][t - 1] = x
            history[1][t - 1] = lam

    for t in range(1, horizon + 1):
        x = best_response_profile(batch, lam)
        record(t, x, lam)
        lam = update(lam, x, t)
    return history


def run_sdgm(
    problem: NumProblem | ProblemBatch,
    constants,
    horizon: int,
    gamma=None,
    record=None,
):
    """Run the method for `horizon` rounds on one instance or on a batch.

    For a batch, `constants` and `gamma` hold one entry per trial (a None
    gamma is the trial's default_gamma), and each round goes to `record`
    (see run_pricing).  For one instance, returns (x_hist, lam_hist, params):
    x_hist[t] is the demand realized at the prices posted in round t + 1,
    recorded before the dual update.
    """
    batch, constants = as_batch(problem, constants)
    if gamma is None or not isinstance(problem, ProblemBatch):
        gamma = [gamma] * batch.size
    each = [
        SdgmParams.from_constants(c, default_gamma(c, p) if g is None else g)
        for p, c, g in zip(batch.problems, constants, gamma)
    ]
    params = SdgmParams.stack(batch, each)
    history = run_pricing(
        batch,
        params.lambda_bar,
        lambda lam, x, t: dual_step(DualState(lam=lam, t=t), x, batch, params).lam,
        horizon,
        record,
    )
    return None if history is None else (*history, each[0])
