import math

import numpy as np
import pytest

from conftest import user_specs
from safedual.agents import (
    UnboundedSubproblemError,
    best_response,
    best_response_profile,
    demand_at_prices,
    prices_from_duals,
)
from safedual.problem import UtilitySpec


class TestBestResponse:
    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            best_response(UtilitySpec(1.0), -0.5)

    def test_zero_price_unbounded(self):
        with pytest.raises(UnboundedSubproblemError):
            best_response(UtilitySpec(1.0), 0.0)

    def test_zero_price_bounded_domain(self):
        assert best_response(UtilitySpec(1.0, upper=3.0), 0.0) == 3.0

    def test_interior_solution(self):
        # theta / price - shift = 1/2 - 0.1
        assert best_response(UtilitySpec(1.0), 2.0) == pytest.approx(0.4, rel=1e-15)

    def test_clamped_at_lower(self):
        assert best_response(UtilitySpec(1.0), 100.0) == 0.0

    def test_clamped_at_upper(self):
        assert best_response(UtilitySpec(10.0, upper=1.0), 0.5) == 1.0

    def test_stationarity_at_interior_point(self):
        util = UtilitySpec(3.0, shift=0.2)
        price = 1.7
        x = best_response(util, price)
        assert util.theta / (x + util.shift) == pytest.approx(price, rel=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_grid_maximum(self, seed):
        rng = np.random.default_rng(seed)
        util = UtilitySpec(
            theta=float(rng.uniform(0.5, 30.0)),
            shift=float(rng.uniform(0.05, 0.5)),
            lower=0.0,
            upper=float(rng.uniform(0.5, 3.0)),
        )
        price = float(rng.uniform(0.1, 40.0))
        grid = np.linspace(util.lower, util.upper, 200_001)
        values = util.theta * np.log(grid + util.shift) - price * grid
        x_grid = grid[int(np.argmax(values))]
        assert best_response(util, price) == pytest.approx(x_grid, abs=2e-5)


class TestPricesFromDuals:
    def test_tiny_values(self, tiny):
        assert np.array_equal(prices_from_duals(tiny, [2.5]), [2.5, 2.5])

    def test_shape_mismatch(self, tiny):
        with pytest.raises(ValueError):
            prices_from_duals(tiny, [1.0, 1.0])

    def test_negative_dual(self, tiny):
        with pytest.raises(ValueError):
            prices_from_duals(tiny, [-0.1])


class TestDemandAtPrices:
    def test_matches_scalar_responses(self, tiny):
        prices = np.array([2.0, 5.0])
        expected = [best_response(u, p) for u, p in zip(user_specs(tiny), prices)]
        assert demand_at_prices(tiny, prices) == pytest.approx(expected, rel=1e-15)

    def test_zero_price_unbounded_raises(self, tiny):
        with pytest.raises(UnboundedSubproblemError):
            demand_at_prices(tiny, [0.0, 1.0])

    def test_random_consistency(self):
        from conftest import random_valid_problem

        problem = random_valid_problem(seed=3)
        rng = np.random.default_rng(3)
        prices = rng.uniform(0.5, 20.0, size=problem.n)
        expected = [best_response(u, p) for u, p in zip(user_specs(problem), prices)]
        assert demand_at_prices(problem, prices) == pytest.approx(expected, rel=1e-14)


class TestBestResponseProfile:
    def test_capped_duals_shut_off_demand(self, tiny):
        # price 10 gives theta/price = shift exactly, so demand hits zero
        assert np.array_equal(best_response_profile(tiny, [10.0]), [0.0, 0.0])

    def test_optimal_dual_recovers_optimal_split(self, tiny):
        x = best_response_profile(tiny, [5.0 / 3.0])
        assert x == pytest.approx([0.5, 0.5], rel=1e-14)

    def test_zero_dual_is_unbounded(self, tiny):
        with pytest.raises(UnboundedSubproblemError):
            best_response_profile(tiny, [0.0])
