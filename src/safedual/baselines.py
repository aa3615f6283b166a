"""Comparison algorithms: plain, accelerated, and diagonally scaled dual ascent.

None of these guard primal feasibility; they are the reference curves the
safe method is measured against.  The accelerated and scaled variants are
reconstructions of the standard recipes, not line-by-line ports of any
particular reference implementation.  Each method is a start function,
which gives its start dual and its update over a batch for
sdgm.run_pricing, and a runner, which prices one instance and returns its
iterates, as sdgm.run_sdgm does.  harness.run_batch prices batches.  Steps
and starts follow from the constants; a variant is built on run_pricing.
"""
from __future__ import annotations

import numpy as np

from .agents import best_response_profile  # unused here; kept as a wrap point of bench/tracer.py
from .problem import NumProblem, ProblemBatch, ProblemConstants
from .sdgm import iterates
from .trace import build_trace  # unused here; kept as a wrap point of bench/tracer.py

NDGM_EPSILON = 1e-6
# Damping for the diagonally scaled update.  The undamped Newton-style step
# overshoots so hard on cold starts that entire price columns collapse to
# zero and the user subproblems become unbounded; 0.2 is stable across the
# random ensemble while keeping the fast convergence.
NDGM_DAMPING = 0.2


def ascent_step(lam: np.ndarray, load: np.ndarray, problem: NumProblem, scale) -> np.ndarray:
    """Projected dual ascent from the load A x that the duals `lam` realized,
    with scalar or per-constraint scaling."""
    return np.maximum(0.0, lam + scale * (load - problem.capacities))


def start_dgm(batch: ProblemBatch, constants):
    """Start dual and update of plain dual subgradient with each trial's
    constant step 1/L, for run_pricing.

    Starts from the all-ones dual vector, the usual cold start for pricing
    iterations; the early rounds overshoot capacity before the duals climb.
    """
    step = batch.per_row([1.0 / c.dual_smoothness for c in constants])
    return np.ones(batch.m), lambda lam, x, load, t: ascent_step(lam, load, batch, step)


def run_dgm(problem: NumProblem, constants: ProblemConstants, horizon: int):
    """Plain dual subgradient with constant step 1/L; see start_dgm."""
    batch = ProblemBatch([problem])
    return iterates(batch, *start_dgm(batch, [constants]), horizon)


def start_fdgm(batch: ProblemBatch, constants):
    """Start dual and update of accelerated projected gradient on the dual
    with step 1/L, for run_pricing.

    Demand is evaluated at the extrapolation point, which is floored at half
    the last posted dual, as NDGM's step is: a clamp at zero alone can zero
    every price a user sees.  The update keeps the last iterate, so each
    start serves one run.
    """
    inv_l = batch.per_row([1.0 / c.dual_smoothness for c in constants])
    lam = batch.per_row([c.lambda_bar for c in constants])

    def extrapolate(y, x, load, t):
        nonlocal lam
        lam_next = ascent_step(y, load, batch, inv_l)
        y = np.maximum(0.5 * y, lam_next + (t - 1) / (t + 2) * (lam_next - lam))
        lam = lam_next
        return y

    return lam, extrapolate


def run_fdgm(problem: NumProblem, constants: ProblemConstants, horizon: int):
    """Accelerated projected gradient on the dual with step 1/L; see start_fdgm."""
    batch = ProblemBatch([problem])
    return iterates(batch, *start_fdgm(batch, [constants]), horizon)


def diagonal_scaling(problem: NumProblem, x: np.ndarray) -> np.ndarray:
    """Inverse of the per-constraint curvature estimate at the current demand.

    The estimate sums, over the users in each row, the reciprocal curvature
    of their utility at the realized demand; NDGM_EPSILON caps the scaling
    at 1 / NDGM_EPSILON when that sum degenerates.
    """
    inv_curvature = (np.asarray(x, float) + problem.shift) ** 2 / problem.theta
    h = problem.a_matrix @ inv_curvature
    return 1.0 / np.maximum(NDGM_EPSILON, h)


def start_ndgm(batch: ProblemBatch, constants):
    """Start dual and update of damped diagonally scaled dual ascent from the
    capped dual start, for run_pricing."""

    def step(lam, x, load, t):
        scale = NDGM_DAMPING * diagonal_scaling(batch, x)
        # never cut a dual below half its value in one move: the curvature
        # estimate is unreliable while demands sit on their box boundary, and
        # an unchecked step can zero out every price a user sees
        return np.maximum(0.5 * lam, ascent_step(lam, load, batch, scale))

    return batch.per_row([c.lambda_bar for c in constants]), step


def run_ndgm(problem: NumProblem, constants: ProblemConstants, horizon: int):
    """Damped diagonally scaled dual ascent from the capped dual start; see start_ndgm."""
    batch = ProblemBatch([problem])
    return iterates(batch, *start_ndgm(batch, [constants]), horizon)
