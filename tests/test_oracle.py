import math

import numpy as np
import pytest

from conftest import dual_value, grid_search_optimum, random_valid_problem
from safedual import oracle
from safedual.harness import derive_trial_seed
from safedual.oracle import (
    MAX_ITERATIONS,
    OracleConvergenceError,
    kkt_residual,
    solve_optimal,
)
from safedual.problem import GeneratorConfig, NumProblem, generate_random


def grid_case(case):
    """Small instance for the grid reference: generator seed `case`, or, for
    "box<k>" and "lower<k>", seed k with finite upper bounds or positive lower
    bounds (and mixed shifts) drawn on top."""
    if isinstance(case, int):
        return random_valid_problem(case, n_range=(2, 3), m_range=(1, 2))
    kind, seed = case[:-1], int(case[-1])
    base = random_valid_problem(seed, n_range=(2, 3), m_range=(1, 2))
    rng = np.random.default_rng(seed)
    if kind == "box":
        bounds = dict(upper=rng.uniform(0.15, 0.6, base.n))
    else:
        bounds = dict(lower=rng.uniform(0.05, 0.25, base.n), shift=rng.uniform(0.01, 1.0, base.n))
    return NumProblem(base.a_matrix, base.capacities, base.theta, **bounds)


class TestTinySolution:
    def test_frozen_optimum(self, tiny_solution):
        assert tiny_solution.x_star == pytest.approx([0.5, 0.5], abs=1e-6)
        assert tiny_solution.lambda_star == pytest.approx([5.0 / 3.0], abs=1e-6)
        assert tiny_solution.f_star == pytest.approx(2.0 * math.log(0.6), abs=1e-8)

    def test_certified(self, tiny_solution):
        assert tiny_solution.kkt_residual <= 1e-8
        assert tiny_solution.iterations_used >= 1


class TestDualValue:
    def test_at_cap(self, tiny):
        # demand shuts off: 2 log(0.1) + 10 * 1
        expected = 2.0 * math.log(0.1) + 10.0
        assert dual_value(tiny, [10.0]) == pytest.approx(expected, rel=1e-12)

    def test_at_optimum_equals_primal(self, tiny):
        assert dual_value(tiny, [5.0 / 3.0]) == pytest.approx(
            2.0 * math.log(0.6), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_weak_duality(self, tiny, tiny_solution, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.05, 10.0, size=1)
        assert dual_value(tiny, lam) >= tiny_solution.f_star - 1e-6


class TestKktResidual:
    def test_zero_at_exact_optimum(self, tiny):
        assert kkt_residual(tiny, np.array([0.5, 0.5]), np.array([5.0 / 3.0])) <= 1e-12

    def test_flags_infeasible_point(self, tiny):
        residual = kkt_residual(tiny, np.array([1.0, 1.0]), np.array([5.0 / 3.0]))
        assert residual >= 1.0  # load 2 on capacity 1

    def test_flags_complementarity_gap(self, tiny):
        # strictly slack primal point with a strictly positive dual
        residual = kkt_residual(tiny, np.array([0.1, 0.1]), np.array([2.0]))
        assert residual >= 2.0 * 0.8 - 1e-12

    def test_respects_active_lower_bound(self, tiny):
        # overpriced user at x = 0: gradient negative is fine at the boundary
        x = np.array([0.0, 0.0])
        lam = np.array([10.0])
        slack_term = 10.0 * 1.0  # complementarity dominates here
        assert kkt_residual(tiny, x, lam) == pytest.approx(slack_term)


class TestSolveOptimal:
    @pytest.mark.parametrize(
        "case", [*range(12), *(f"box{k}" for k in range(4)), *(f"lower{k}" for k in range(4))]
    )
    def test_matches_grid_reference_on_small_instances(self, case):
        problem = grid_case(case)
        solution = solve_optimal(problem)
        _, f_grid = grid_search_optimum(problem)
        assert solution.kkt_residual <= 1e-8
        assert solution.f_star == pytest.approx(f_grid, abs=1e-3)
        assert solution.f_star >= f_grid - 1e-9  # grid point is feasible

    @pytest.mark.parametrize("seed", range(5))
    def test_certifies_on_ensemble_sized_instances(self, seed):
        problem = random_valid_problem(seed + 60, n_range=(10, 40), m_range=(5, 25))
        solution = solve_optimal(problem)
        assert solution.kkt_residual <= 1e-8
        loads = problem.a_matrix @ solution.x_star
        assert (loads <= problem.capacities + 1e-8).all()

    @pytest.mark.parametrize("config", [
        GeneratorConfig(capacity_value=0.05, seed=53),
        GeneratorConfig(theta_range=(0.01, 100.0), seed=33),
    ], ids=["capacity-0.05-seed-53", "theta-0.01-100-seed-33"])
    def test_certifies_hard_networks_within_the_cap(self, config):
        solution = solve_optimal(generate_random(config))
        assert solution.kkt_residual <= 1e-8
        assert solution.iterations_used <= MAX_ITERATIONS

    def test_iteration_cap_raises(self, tiny, monkeypatch):
        """The last allowed step is certified even though mu is still large."""
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 2)
        with pytest.raises(OracleConvergenceError) as caught:
            solve_optimal(tiny)
        assert math.isfinite(caught.value.residual)
        assert caught.value.iterations == 2

    def test_certifies_once_per_solve(self, monkeypatch):
        """Only the step that returns is certified on the seed-0 gate networks."""
        calls = []

        def counted(*args):
            calls.append(None)
            return kkt_residual(*args)

        monkeypatch.setattr(oracle, "kkt_residual", counted)
        for trial in range(20):
            solve_optimal(generate_random(GeneratorConfig(seed=derive_trial_seed(0, trial))))
        assert len(calls) == 20

    def test_options_are_keyword_only(self, tiny, tiny_constants):
        with pytest.raises(TypeError):
            solve_optimal(tiny, tiny_constants)
