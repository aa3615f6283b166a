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
from .problem import NumProblem, ProblemBatch, ProblemConstants, is_real
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
        if not (is_real(gamma) and gamma > 0):
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


def safe_step(
    lam: np.ndarray, load: np.ndarray, t: int, problem: NumProblem, params: SdgmParams
) -> np.ndarray:
    """The duals after round t, from the load A x that the posted duals `lam` realized.

    Only the sign of load + margin - c enters; a tie takes the upward branch.
    `problem` may be a ProblemBatch with params from SdgmParams.stack.
    """
    gamma_minus = params.gamma / math.sqrt(t)
    gamma_plus = problem.row_peers * gamma_minus
    shifted = load + params.margin_scale * gamma_minus - problem.capacities
    down = np.maximum(0.0, lam - gamma_minus)
    up = np.minimum(params.lambda_bar, lam + gamma_plus)
    return np.where(shifted < 0, down, up)


def dual_step(
    state: DualState, x: np.ndarray, problem: NumProblem, params: SdgmParams
) -> DualState:
    """One sign-based dual update given the realized demand at state.lam (see safe_step)."""
    lam = safe_step(state.lam, problem.a_matrix @ x, state.t, problem, params)
    return DualState(lam=lam, t=state.t + 1)


def regret_constant(constants: ProblemConstants, problem: NumProblem) -> float:
    """The constant C entering the regret bound and the optimal base step."""
    col_norm_sq = float(constants.row_weights.sum())  # ||A^T 1||^2 = 1^T A A^T 1
    m = problem.m
    return constants.c_l1 + constants.lambda_bar * m * (
        col_norm_sq + constants.spectral * (m - 1) ** 2 / constants.mu
    ) / constants.mu


def default_gamma(constants: ProblemConstants, problem: NumProblem) -> float:
    """Base step minimizing the worst-case regret bound."""
    big_c = regret_constant(constants, problem)
    return math.sqrt(constants.lambda_bar**2 * constants.c_l1 / (2.0 * big_c))


def regret_bound(
    horizon: int, gamma: float, lambda_bar: float, c_l1: float, constant: float
) -> float:
    """Worst-case cumulative regret after `horizon` iterations."""
    root = math.sqrt(horizon)
    return lambda_bar**2 * c_l1 * root / gamma + 2.0 * constant * gamma * root


def run_pricing(batch: ProblemBatch, lam: np.ndarray, update, horizon: int, record) -> None:
    """Post prices for `horizon` rounds: the one round loop every method shares.

    Every trial of the batch moves in the same round.  Round t (1-based)
    posts the dual `lam`, realizes demand x and its load A x, hands them to
    `record(t, x, lam, load)`, then moves to `update(lam, x, load, t)`.
    """
    for t in range(1, horizon + 1):
        x = best_response_profile(batch, lam)
        load = batch.a_matrix @ x
        record(t, x, lam, load)
        lam = update(lam, x, load, t)


def iterates(batch: ProblemBatch, lam: np.ndarray, update, horizon: int):
    """The raw iterates of run_pricing, each round copied: (x_hist,
    lam_hist), one row per round, the batch's trials side by side."""
    x_hist, lam_hist = np.empty((horizon, batch.n)), np.empty((horizon, batch.m))

    def record(t, x, lam, load):
        x_hist[t - 1], lam_hist[t - 1] = x, lam

    run_pricing(batch, lam, update, horizon, record)
    return x_hist, lam_hist


def _trial_params(batch: ProblemBatch, constants, gammas) -> list[SdgmParams]:
    return [
        SdgmParams.from_constants(c, default_gamma(c, p) if g is None else g)
        for p, c, g in zip(batch.problems, constants, gammas)
    ]


def start_sdgm(batch: ProblemBatch, constants, gammas):
    """The start dual and the update of the method over a batch, for run_pricing.

    `constants` and `gammas` hold one entry per trial; a None gamma is the
    trial's default_gamma.  The duals start at their cap.
    """
    params = SdgmParams.stack(batch, _trial_params(batch, constants, gammas))
    return params.lambda_bar, lambda lam, x, load, t: safe_step(lam, load, t, batch, params)


def run_sdgm(problem: NumProblem, constants: ProblemConstants, horizon: int, gamma=None):
    """Run the method for `horizon` rounds on one instance (a None gamma is
    its default_gamma).

    Returns (x_hist, lam_hist, params): x_hist[t] is the demand realized at
    the prices posted in round t + 1, recorded before the dual update.
    """
    batch = ProblemBatch([problem])
    params = _trial_params(batch, [constants], [gamma])[0]
    x_hist, lam_hist = iterates(batch, *start_sdgm(batch, [constants], [params.gamma]), horizon)
    return x_hist, lam_hist, params
