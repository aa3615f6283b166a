"""Comparison algorithms: plain, accelerated, and diagonally scaled dual ascent.

None of these guard primal feasibility; they are the reference curves the
safe method is measured against.  The accelerated and scaled variants are
reconstructions of the standard recipes, not line-by-line ports of any
particular reference implementation.  Each runner takes one instance and
returns its iterates, or a ProblemBatch and a per-round `record`, as
sdgm.run_sdgm does.
"""
from __future__ import annotations

import numpy as np

from .agents import best_response_profile  # unused here; kept as a wrap point of bench/tracer.py
from .problem import NumProblem, ProblemBatch, as_batch
from .sdgm import run_pricing
from .trace import build_trace  # unused here; kept as a wrap point of bench/tracer.py

NDGM_EPSILON = 1e-6
# Damping for the diagonally scaled update.  The undamped Newton-style step
# overshoots so hard on cold starts that entire price columns collapse to
# zero and the user subproblems become unbounded; 0.2 is stable across the
# random ensemble while keeping the fast convergence.
NDGM_DAMPING = 0.2


def scaled_step(
    lam: np.ndarray, x: np.ndarray, problem: NumProblem, scale
) -> np.ndarray:
    """Projected dual ascent step with scalar or per-constraint scaling."""
    gradient = problem.a_matrix @ x - problem.capacities
    return np.maximum(0.0, lam + scale * gradient)


def run_dgm(
    problem: NumProblem | ProblemBatch,
    constants,
    horizon: int,
    step=None,
    lam_init: np.ndarray | None = None,
    record=None,
):
    """Plain dual subgradient with constant step (default 1/L).

    Starts from the all-ones dual vector, the usual cold start for pricing
    iterations; the early rounds overshoot capacity before the duals climb.
    """
    batch, constants = as_batch(problem, constants)
    if step is None:
        step = batch.per_row([1.0 / c.dual_smoothness for c in constants])
    lam = np.ones(batch.m) if lam_init is None else np.asarray(lam_init, float).copy()
    return run_pricing(
        batch, lam, lambda lam, x, t: scaled_step(lam, x, batch, step), horizon, record
    )


def run_fdgm(problem: NumProblem | ProblemBatch, constants, horizon: int, record=None):
    """Accelerated projected gradient on the dual with step 1/L.

    Demand is evaluated at the extrapolation point, which is clamped to the
    non-negative orthant so prices stay valid.
    """
    batch, constants = as_batch(problem, constants)
    inv_l = batch.per_row([1.0 / c.dual_smoothness for c in constants])
    lam = batch.per_row([c.lambda_bar for c in constants])

    def extrapolate(y, x, t):
        nonlocal lam
        lam_next = scaled_step(y, x, batch, inv_l)
        y = np.maximum(0.0, lam_next + (t - 1) / (t + 2) * (lam_next - lam))
        lam = lam_next
        return y

    return run_pricing(batch, lam, extrapolate, horizon, record)


def diagonal_scaling(
    problem: NumProblem, x: np.ndarray, epsilon_reg: float = NDGM_EPSILON
) -> np.ndarray:
    """Inverse of the per-constraint curvature estimate at the current demand.

    The estimate sums, over the users in each row, the reciprocal curvature
    of their utility at the realized demand; the regularizer caps the scaling
    when that sum degenerates.
    """
    inv_curvature = (np.asarray(x, float) + problem.shift) ** 2 / problem.theta
    h = problem.a_matrix @ inv_curvature
    return 1.0 / np.maximum(epsilon_reg, h)


def run_ndgm(problem: NumProblem | ProblemBatch, constants, horizon: int, record=None):
    """Damped diagonally scaled dual ascent from the capped dual start."""
    batch, constants = as_batch(problem, constants)

    def step(lam, x, t):
        scale = NDGM_DAMPING * diagonal_scaling(batch, x)
        # never cut a dual below half its value in one move: the curvature
        # estimate is unreliable while demands sit on their box boundary, and
        # an unchecked step can zero out every price a user sees
        return np.maximum(0.5 * lam, scaled_step(lam, x, batch, scale))

    lam = batch.per_row([c.lambda_bar for c in constants])
    return run_pricing(batch, lam, step, horizon, record)
