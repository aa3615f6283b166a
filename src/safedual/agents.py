"""Per-user demand responses to posted prices.

Each user maximizes f_i(x_i) - p_i * x_i over its own box, which the
shifted-log family solves in closed form.  The coordinator never sees the
utilities, only the demand that comes back.
"""
from __future__ import annotations

import numpy as np

from .problem import NumProblem, UtilitySpec


class UnboundedSubproblemError(ValueError):
    """The posted price admits no finite demand maximizer.

    Raised for a demand profile, it names the `user` and its `price`.
    """

    def __init__(self, message: str, user: int | None = None, price: float | None = None):
        super().__init__(message)
        self.user = user
        self.price = price

    @classmethod
    def at(cls, user: int, price: float) -> "UnboundedSubproblemError":
        return cls(f"user {user} faces price {price} on an unbounded domain", user, price)


def best_response(utility: UtilitySpec, price: float) -> float:
    """Unique maximizer of f(x) - price * x over [lower, upper].

    Interior solutions satisfy f'(x) == price; otherwise the stationary point
    is clamped to the nearer box edge.  This is demand_at_prices for one user.
    """
    if price < 0:
        raise ValueError(f"negative price {price}")
    return float(demand_at_prices(utility, [price])[0])


def prices_from_duals(problem: NumProblem, lam: np.ndarray) -> np.ndarray:
    """Per-user prices A^T lam."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.m,):
        raise ValueError(f"dual vector has shape {lam.shape}, expected ({problem.m},)")
    if (lam < 0).any():
        raise ValueError("negative dual variable")
    return problem.a_matrix.T @ lam


def demand_at_prices(problem: NumProblem | UtilitySpec, prices: np.ndarray) -> np.ndarray:
    """Vectorized closed-form best responses for all users at once.

    A UtilitySpec stands for users that all share its utility.
    """
    prices = np.asarray(prices, dtype=float)
    unbounded = (prices <= 0) & np.isinf(problem.upper)
    if unbounded.any():
        idx = int(np.argmax(unbounded))
        raise UnboundedSubproblemError.at(idx, prices[idx])
    positive = prices > 0
    interior = problem.theta / np.where(positive, prices, np.inf) - problem.shift
    x = np.where(positive, interior, problem.upper)
    return np.minimum(np.maximum(x, problem.lower), problem.upper)


def best_response_profile(problem: NumProblem, lam: np.ndarray) -> np.ndarray:
    """Demand of every user at the prices induced by the dual vector."""
    return demand_at_prices(problem, prices_from_duals(problem, lam))
