import math
import os

import numpy as np
import pytest

from safedual.agents import best_response_profile, prices_from_duals
from safedual.oracle import solve_optimal
from safedual.problem import NumProblem, UtilitySpec, compute_constants


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Every child process a test starts is reaped before the test ends:
    this process has no child left, running or a zombie."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived its test: waitpid gave {left}")


@pytest.fixture(scope="session")
def tiny():
    """Two users sharing one unit-capacity link, unit utility scale."""
    return NumProblem([[1, 1]], [1.0], [1.0, 1.0])


def user_specs(problem):
    """Each user's utility, one UtilitySpec per user, in user order."""
    return tuple(
        UtilitySpec(*values)
        for values in zip(problem.theta, problem.shift, problem.lower, problem.upper)
    )


@pytest.fixture(scope="session")
def tiny_constants(tiny):
    return compute_constants(tiny)


@pytest.fixture(scope="session")
def tiny_solution(tiny):
    return solve_optimal(tiny)


def step_sizes(params, t, m):
    """The safe method's downward and upward step sizes at iteration t."""
    gamma_minus = params.gamma / math.sqrt(t)
    return gamma_minus, (m - 1) * gamma_minus


def safety_margin(params, t):
    """The safe method's per-constraint buffer, added to the constraint test at iteration t."""
    return params.margin_scale * (params.gamma / math.sqrt(t))


def dual_value(problem, lam):
    """Value of the dual function at lam: best-response Lagrangian plus lam.c."""
    lam = np.asarray(lam, float)
    prices = prices_from_duals(problem, lam)
    x = best_response_profile(problem, lam)
    return float(problem.objective(x) - prices @ x + lam @ problem.capacities)


def grid_search_optimum(problem, rounds=6, points=33):
    """Independent brute-force reference for small instances (n <= 3).

    Nested grid refinement over the enclosing box; valid because the
    objective is concave and the feasible set convex, so the incumbent cell
    always brackets the optimum.
    """
    n = problem.n
    assert n <= 3, "grid oracle is exponential in n"
    c_max = float(problem.capacities.max())
    lo = problem.lower.copy()
    hi = np.minimum(problem.upper, c_max)
    best_x, best_f = None, -np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        feasible = (pts @ problem.a_matrix.T <= problem.capacities + 1e-12).all(axis=1)
        pts = pts[feasible]
        values = np.sum(problem.theta * np.log(pts + problem.shift), axis=1)
        k = int(np.argmax(values))
        if values[k] > best_f:
            best_f = float(values[k])
            best_x = pts[k]
        cell = (hi - lo) / (points - 1)
        lo = np.maximum(problem.lower, best_x - 3 * cell)
        hi = np.minimum(np.minimum(problem.upper, c_max), best_x + 3 * cell)
    return best_x, best_f


def charpoly_eigen_max(matrix):
    """Largest eigenvalue via Faddeev-LeVerrier characteristic polynomial.

    Deliberately avoids any symmetric eigenvalue routine so it can serve as
    an independent oracle for compute_constants' spectral radius.
    """
    a = np.asarray(matrix, float)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-8 * max(1.0, np.abs(roots).max())].real
    return float(real.max())


def sdgm_dual_floor(problem, constants, t):
    """Per-row lower bound on the safe method's duals through round t.

    Holds for every base step gamma when the run starts at the cap
    lambda_bar.  Row j moves down only when its margin
    row_weights_j * gamma / (mu * sqrt(s)) is below c_j (demand is
    non-negative), i.e. only once sqrt(s) > r_j * gamma with
    r_j = row_weights_j / (mu * c_j), and each such step gamma / sqrt(s) is
    then below 1 / r_j.  Upward steps and the clip at zero never lower a
    dual, so the total fall is below
    1 / r_j + 2 * gamma * (sqrt(t) - r_j * gamma) <= 1 / r_j + t / (2 * r_j),
    the last bound being the maximum over gamma (at r_j * gamma = sqrt(t) / 2).
    """
    rates = constants.row_weights / (constants.mu * problem.capacities)
    return constants.lambda_bar - t / (2.0 * rates) - 1.0 / rates


def sdgm_shut_off_through(problem, constants, horizon):
    """True if the safe method's demand is provably at the lower bounds for
    every round up to `horizon`, whatever the base step.

    A user's best response is clamped to `lower` once its price reaches
    theta / (lower + shift); the price A^T lam is bounded below through the
    non-negative part of the dual floor, which only decreases with t.
    """
    floor = np.maximum(0.0, sdgm_dual_floor(problem, constants, horizon))
    price_floor = problem.a_matrix.T @ floor
    return bool((price_floor >= problem.theta / (problem.lower + problem.shift)).all())


def gate_problem(trial_id):
    """Instance `trial_id` of the acceptance gate's ensemble (master seed 0)."""
    from safedual.harness import derive_trial_seed
    from safedual.problem import GeneratorConfig, generate_random

    return generate_random(GeneratorConfig(seed=derive_trial_seed(0, trial_id)))


def random_valid_problem(seed, n_range=(3, 12), m_range=(2, 8)):
    """Small random instance with the generator's default utility family."""
    from safedual.problem import GeneratorConfig, generate_random

    return generate_random(
        GeneratorConfig(n_range=n_range, m_range=m_range, seed=seed)
    )
