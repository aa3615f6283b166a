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
from .problem import NumProblem, ProblemConstants
from .trace import build_trace  # unused here; kept as a wrap point of bench/tracer.py


@dataclass(frozen=True, eq=False)
class SdgmParams:
    """Base step size, horizon, dual cap, and precomputed margin weights."""

    gamma: float
    horizon: int
    lambda_bar: float
    margin_scale: np.ndarray  # row_weights / mu, one entry per constraint

    @classmethod
    def from_constants(
        cls, constants: ProblemConstants, gamma: float, horizon: int
    ) -> "SdgmParams":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return cls(
            gamma=float(gamma),
            horizon=int(horizon),
            lambda_bar=constants.lambda_bar,
            margin_scale=constants.row_weights / constants.mu,
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
    """
    gamma_minus, gamma_plus = step_sizes(params, state.t, problem.m)
    shifted = problem.a_matrix @ x + safety_margin(params, state.t) - problem.capacities
    down = np.maximum(0.0, state.lam - gamma_minus)
    up = np.minimum(params.lambda_bar, state.lam + gamma_plus)
    return DualState(lam=np.where(shifted < 0, down, up), t=state.t + 1)


def regret_constant(constants: ProblemConstants, problem: NumProblem) -> float:
    """The constant C entering the regret bound and the optimal base step."""
    col_sums = problem.a_matrix.sum(axis=0).astype(float)
    col_norm_sq = float(col_sums @ col_sums)
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


def run_pricing(problem: NumProblem, lam: np.ndarray, update, horizon: int):
    """Post prices for `horizon` rounds: the one round loop every method shares.

    Round t (1-based) posts the dual `lam`, records it with the demand it
    realizes, then moves to `update(lam, x, t)`.  Returns (x_hist, lam_hist).
    """
    x_hist = np.empty((horizon, problem.n))
    lam_hist = np.empty((horizon, problem.m))
    for t in range(1, horizon + 1):
        x = best_response_profile(problem, lam)
        x_hist[t - 1] = x
        lam_hist[t - 1] = lam
        lam = update(lam, x, t)
    return x_hist, lam_hist


def run_sdgm(
    problem: NumProblem,
    constants: ProblemConstants,
    horizon: int,
    gamma: float | None = None,
) -> tuple[np.ndarray, np.ndarray, SdgmParams]:
    """Run the method for `horizon` rounds; returns raw primal/dual iterates.

    x_hist[t] is the demand realized at the prices posted in round t + 1,
    recorded before the dual update.
    """
    if gamma is None:
        gamma = default_gamma(constants, problem)
    params = SdgmParams.from_constants(constants, gamma, horizon)
    x_hist, lam_hist = run_pricing(
        problem,
        np.full(problem.m, params.lambda_bar),
        lambda lam, x, t: dual_step(DualState(lam=lam, t=t), x, problem, params).lam,
        horizon,
    )
    return x_hist, lam_hist, params
