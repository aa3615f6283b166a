"""Ground-truth optimum and its certification.

The reference solver is a primal-dual interior-point method run to a tight
tolerance; it certifies its result through the first-order optimality
residual, so every regret and distance metric has a trustworthy anchor.
It takes no options: its tolerance and its step cap are the module
constants DEFAULT_TOLERANCE and MAX_ITERATIONS.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import best_response_profile
from .problem import NumProblem
from .problem import compute_constants  # unused here; kept as a wrap point of bench/tracer.py

DEFAULT_TOLERANCE = 1e-8
MAX_ITERATIONS = 200
# The duals are certified only once the mean complementarity is this small.
CERTIFY_MU = 1e-4 * DEFAULT_TOLERANCE
SIGMA = 0.1  # centering: each Newton step aims at SIGMA times the current complementarity


class OracleConvergenceError(RuntimeError):
    """Reference solver hit its iteration cap.

    `residual` is the best KKT residual over the certified steps, which
    always include the last one; `iterations` is the cap.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(
            f"{message} (best certified residual {residual:.3e} after {iterations} iterations)"
        )
        self.residual = residual
        self.iterations = iterations


@dataclass
class OptimalSolution:
    x_star: np.ndarray
    f_star: float
    lambda_star: np.ndarray
    kkt_residual: float
    iterations_used: int

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star.tolist(),
            "f_star": self.f_star,
            "lambda_star": self.lambda_star.tolist(),
            "kkt_residual": self.kkt_residual,
            "iterations_used": self.iterations_used,
        }


def kkt_residual(problem: NumProblem, x: np.ndarray, lam: np.ndarray) -> float:
    """First-order optimality residual of a primal/dual pair.

    Maximum of primal infeasibility, dual infeasibility, the box-projected
    stationarity gap of each user subproblem, and complementary slackness.
    """
    x = np.asarray(x, float)
    lam = np.asarray(lam, float)
    slack = problem.capacities - problem.a_matrix @ x
    primal = float(np.max(np.maximum(-slack, 0.0), initial=0.0))
    dual = float(np.max(np.maximum(-lam, 0.0), initial=0.0))
    prices = problem.a_matrix.T @ lam
    grad = problem.theta / (x + problem.shift) - prices
    at_lower = x <= problem.lower
    at_upper = x >= problem.upper
    projected = np.abs(grad)
    projected = np.where(at_lower, np.maximum(grad, 0.0), projected)
    projected = np.where(at_upper, np.maximum(-grad, 0.0), projected)
    stationarity = float(projected.max())
    complementarity = float(np.abs(lam * slack).max())
    return max(primal, dual, stationarity, complementarity)


def solve_optimal(problem: NumProblem) -> OptimalSolution:
    """Primal-dual interior-point method, run to certification.

    Minimizes -sum theta log(x + shift) over G x <= h, where G stacks the
    capacity rows A, the lower bounds -I and the finite upper bounds I
    (Boyd & Vandenberghe, Convex Optimization, 11.7).  It starts strictly
    inside the feasible set and stays there: each Newton step toward the
    centering target sigma * mu solves one n x n system and goes 0.99 of the
    way to the boundary.  The capacity duals are certified through the
    users' own best responses only once the mean complementarity mu is below
    CERTIFY_MU (1e-12), and at step MAX_ITERATIONS, the last allowed; the
    solver returns at the first certified step whose optimality residual is
    below DEFAULT_TOLERANCE, and raises OracleConvergenceError if none is.
    """
    finite = np.isfinite(problem.upper)
    eye = np.eye(problem.n)
    g = np.vstack([problem.a_matrix, -eye, eye[finite]])
    h = np.concatenate([problem.capacities, -problem.lower, problem.upper[finite]])
    room = (problem.capacities - problem.a_matrix @ problem.lower) / problem.a_matrix.sum(axis=1)
    x = problem.lower + 0.5 * min(room.min(), np.min(problem.upper - problem.lower))
    z = np.ones(len(h))
    best_residual = np.inf
    slack = h - g @ x
    mu = float(z @ slack) / len(h)
    for k in range(1, MAX_ITERATIONS + 1):
        shifted = x + problem.shift
        gradient = problem.theta / shifted
        hessian = np.diag(gradient / shifted) + g.T @ ((z / slack)[:, None] * g)
        dx = np.linalg.solve(hessian, gradient - SIGMA * mu * (g.T @ (1.0 / slack)))
        dslack = -g @ dx
        dz = SIGMA * mu / slack - z - z * dslack / slack
        v, dv = np.concatenate([z, slack]), np.concatenate([dz, dslack])
        shrinking = dv < 0
        step = min(1.0, 0.99 * float(np.min(-v[shrinking] / dv[shrinking], initial=np.inf)))
        x = x + step * dx
        z = z + step * dz
        slack = h - g @ x
        mu = float(z @ slack) / len(h)
        if mu > CERTIFY_MU and k < MAX_ITERATIONS:
            continue
        lam = z[:problem.m]
        x_cand = best_response_profile(problem, lam)
        residual = kkt_residual(problem, x_cand, lam)
        best_residual = min(best_residual, residual)
        if mu <= CERTIFY_MU and residual <= DEFAULT_TOLERANCE:
            return OptimalSolution(
                x_star=x_cand,
                f_star=problem.objective(x_cand),
                lambda_star=lam,
                kkt_residual=residual,
                iterations_used=k,
            )
    raise OracleConvergenceError("reference solver did not converge", best_residual, MAX_ITERATIONS)
