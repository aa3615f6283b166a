import numpy as np
import pytest

from conftest import random_valid_problem
from safedual import compute_constants, run_dgm, run_fdgm, run_ndgm
from safedual.baselines import diagonal_scaling, scaled_step
from safedual.oracle import dual_value


class TestDgm:
    def test_step_is_projected(self, tiny):
        lam = scaled_step(np.array([0.05]), np.array([0.0, 0.0]), tiny, 1.0)
        assert lam[0] == 0.0  # gradient is -1, projection clips at zero

    def test_step_moves_along_violation(self, tiny):
        # load 1.5 exceeds capacity 1 -> dual rises by step * 0.5
        lam = scaled_step(np.array([2.0]), np.array([1.0, 0.5]), tiny, 0.2)
        assert lam[0] == pytest.approx(2.1, rel=1e-15)

    def test_converges_on_tiny(self, tiny, tiny_constants, tiny_solution):
        x_hist, lam_hist = run_dgm(tiny, tiny_constants, horizon=500)
        assert lam_hist[-1] == pytest.approx([5.0 / 3.0], abs=1e-4)
        assert x_hist[-1] == pytest.approx(tiny_solution.x_star, abs=1e-4)

    def test_cold_start_overshoots_capacity(self, tiny):
        constants = compute_constants(tiny)
        x_hist, lam_hist = run_dgm(tiny, constants, horizon=100)
        assert np.array_equal(lam_hist[0], [1.0])
        loads = x_hist @ tiny.a_matrix.T
        assert (loads > tiny.capacities + 1e-6).any()

    def test_averaged_iterate_infeasibility_shrinks_with_horizon(self):
        """With step 1/sqrt(T), the running-average violation decays in T."""
        problem = random_valid_problem(seed=7)
        constants = compute_constants(problem)
        norms = []
        for horizon in (100, 400, 1600):
            x_hist, _ = run_dgm(
                problem, constants, horizon, step=1.0 / np.sqrt(horizon)
            )
            x_bar = x_hist.mean(axis=0)
            excess = np.maximum(problem.a_matrix @ x_bar - problem.capacities, 0.0)
            norms.append(float(np.linalg.norm(excess)))
        assert norms[0] > norms[1] > norms[2]


class TestFdgm:
    def test_starts_at_cap(self, tiny, tiny_constants):
        _, lam_hist = run_fdgm(tiny, tiny_constants, horizon=10)
        assert np.array_equal(lam_hist[0], [tiny_constants.lambda_bar])

    def test_converges_faster_than_dgm(self, tiny, tiny_constants, tiny_solution):
        horizon = 40
        x_f, lam_f = run_fdgm(tiny, tiny_constants, horizon)
        x_d, lam_d = run_dgm(
            tiny,
            tiny_constants,
            horizon,
            lam_init=np.full(tiny.m, tiny_constants.lambda_bar),
        )
        err_f = abs(lam_f[-1][0] - 5.0 / 3.0)
        err_d = abs(lam_d[-1][0] - 5.0 / 3.0)
        assert err_f < err_d
        assert err_f < 1e-3

    def test_dual_value_trend(self, tiny, tiny_constants):
        """Acceleration ends at least as low on the dual as the plain method.

        The dual value along the extrapolated points is not monotone
        step-by-step, so the check is trend-based.
        """
        horizon = 100
        _, lam_f = run_fdgm(tiny, tiny_constants, horizon)
        _, lam_d = run_dgm(
            tiny,
            tiny_constants,
            horizon,
            lam_init=np.full(tiny.m, tiny_constants.lambda_bar),
        )
        q_f_end = dual_value(tiny, lam_f[-1])
        assert q_f_end < dual_value(tiny, lam_f[4])
        assert q_f_end <= dual_value(tiny, lam_d[-1]) + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_violates_then_outconverges_on_random_instances(self, seed):
        problem = random_valid_problem(seed + 20)
        constants = compute_constants(problem)
        horizon = 400
        x_f, lam_f = run_fdgm(problem, constants, horizon)
        x_d, lam_d = run_dgm(problem, constants, horizon)
        loads = x_f @ problem.a_matrix.T
        assert (loads > problem.capacities + 1e-6).any()
        gap_f = dual_value(problem, lam_f[-1])
        gap_d = dual_value(problem, lam_d[-1])
        # both are near-converged; allow a small relative slack on the tail
        assert gap_f <= gap_d + 1e-6 + 1e-7 * abs(gap_d)


class TestNdgm:
    def test_diagonal_scaling_formula(self, tiny):
        x = np.array([0.4, 0.9])
        # single row covering both users: h = sum (x_i + 0.1)^2 / theta_i
        expected_h = 0.5**2 / 1.0 + 1.0**2 / 1.0
        assert diagonal_scaling(tiny, x) == pytest.approx([1.0 / expected_h])

    def test_scaling_regularizer_caps_blowup(self, tiny):
        scale = diagonal_scaling(tiny, np.array([0.0, 0.0]), epsilon_reg=0.5)
        assert scale[0] == 2.0  # h = 0.02 would give 50 without the cap

    def test_scaled_step_vector_scale(self, tiny):
        lam = scaled_step(
            np.array([1.0]), np.array([1.0, 0.5]), tiny, np.array([2.0])
        )
        assert lam[0] == pytest.approx(2.0)  # 1 + 2 * (1.5 - 1)

    def test_halving_safeguard(self, tiny, tiny_constants):
        _, lam_hist = run_ndgm(tiny, tiny_constants, horizon=50)
        ratios = lam_hist[1:] / np.maximum(lam_hist[:-1], 1e-300)
        assert (ratios >= 0.5 - 1e-12).all()

    def test_converges_in_fewer_iterations_than_dgm(self, tiny, tiny_constants):
        horizon = 200
        lam_star = 5.0 / 3.0
        _, lam_n = run_ndgm(tiny, tiny_constants, horizon)
        # same capped start for a like-for-like iteration count
        _, lam_d = run_dgm(
            tiny,
            tiny_constants,
            horizon,
            lam_init=np.full(tiny.m, tiny_constants.lambda_bar),
        )

        def first_hit(lam_hist):
            close = np.abs(lam_hist[:, 0] - lam_star) <= 1e-4
            return int(np.argmax(close)) if close.any() else horizon

        assert first_hit(lam_n) < first_hit(lam_d)

    @pytest.mark.parametrize("seed", range(5))
    def test_converges_and_violates_on_random_instances(self, seed):
        problem = random_valid_problem(seed + 40)
        constants = compute_constants(problem)
        x_hist, lam_hist = run_ndgm(problem, constants, horizon=400)
        loads = x_hist @ problem.a_matrix.T
        assert (loads > problem.capacities + 1e-6).any()
        final_excess = np.maximum(loads[-1] - problem.capacities, 0.0)
        assert np.linalg.norm(final_excess) < 1e-4
