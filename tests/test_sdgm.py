import math

import numpy as np
import pytest

from conftest import (
    gate_problem,
    random_valid_problem,
    sdgm_dual_floor,
    sdgm_shut_off_through,
)
from safedual import (
    DualState,
    NumProblem,
    SdgmParams,
    UtilitySpec,
    best_response_profile,
    compute_constants,
    default_gamma,
    dual_step,
    regret_bound,
    regret_constant,
    run_sdgm,
    safety_margin,
    step_sizes,
)
from safedual.harness import run_algorithm


def flat_params(gamma, lambda_bar, m):
    """Params with zero safety margin, for exercising the branch logic."""
    return SdgmParams(gamma=gamma, lambda_bar=lambda_bar, margin_scale=np.zeros(m))


class TestStepSizes:
    def test_decay_and_asymmetry(self, tiny_constants):
        params = SdgmParams.from_constants(tiny_constants, gamma=2.0)
        down1, up1 = step_sizes(params, 1, m=3)
        down4, up4 = step_sizes(params, 4, m=3)
        assert down1 == 2.0
        assert up1 == 4.0  # (m - 1) times the downward step
        assert down4 == 1.0
        assert up4 == 2.0

    def test_single_constraint_never_steps_up(self, tiny_constants):
        params = SdgmParams.from_constants(tiny_constants, gamma=1.0)
        _, up = step_sizes(params, 7, m=1)
        assert up == 0.0

    def test_rejects_non_positive_gamma(self, tiny_constants):
        with pytest.raises(ValueError):
            SdgmParams.from_constants(tiny_constants, gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, tiny_constants, gamma):
        with pytest.raises(ValueError):
            SdgmParams.from_constants(tiny_constants, gamma=gamma)


class TestSafetyMargin:
    def test_tiny_value(self, tiny_constants):
        params = SdgmParams.from_constants(tiny_constants, gamma=1.0)
        # row weight 2 divided by curvature floor 1/1.21
        assert safety_margin(params, 1) == pytest.approx([2.42], rel=1e-12)
        assert safety_margin(params, 4) == pytest.approx([1.21], rel=1e-12)

    def test_scales_with_gamma(self, tiny_constants):
        small = SdgmParams.from_constants(tiny_constants, gamma=0.5)
        large = SdgmParams.from_constants(tiny_constants, gamma=1.5)
        assert safety_margin(large, 9) == pytest.approx(3 * safety_margin(small, 9))


class TestDualStep:
    def test_sign_branches_and_tie(self):
        problem = NumProblem(
            [[1, 1], [1, 0]], [1.0, 1.0], (UtilitySpec(1.0), UtilitySpec(1.0))
        )
        params = flat_params(gamma=1.0, lambda_bar=10.0, m=2)
        state = DualState(lam=np.array([5.0, 5.0]), t=1)
        # first row is exactly tight (tie -> upward), second strictly slack
        nxt = dual_step(state, np.array([0.5, 0.5]), problem, params)
        assert np.array_equal(nxt.lam, [6.0, 4.0])
        assert nxt.t == 2

    def test_projection_onto_box(self):
        problem = NumProblem(
            [[1, 1], [1, 0]], [1.0, 1.0], (UtilitySpec(1.0), UtilitySpec(1.0))
        )
        params = flat_params(gamma=1.0, lambda_bar=10.0, m=2)
        state = DualState(lam=np.array([10.0, 0.5]), t=1)
        nxt = dual_step(state, np.array([0.5, 0.5]), problem, params)
        assert nxt.lam[0] == 10.0  # capped at lambda_bar
        assert nxt.lam[1] == 0.0  # floored at zero

    def test_step_shrinks_with_t(self, tiny):
        params = flat_params(gamma=1.0, lambda_bar=10.0, m=1)
        x = np.array([0.1, 0.1])  # strictly feasible -> downward branch
        early = dual_step(DualState(lam=np.array([5.0]), t=1), x, tiny, params)
        late = dual_step(DualState(lam=np.array([5.0]), t=4), x, tiny, params)
        assert early.lam[0] == 4.0
        assert late.lam[0] == 4.5


class TestConstants:
    def test_regret_constant_tiny(self, tiny, tiny_constants):
        assert regret_constant(tiny_constants, tiny) == pytest.approx(25.2, rel=1e-12)

    def test_default_gamma_tiny(self, tiny, tiny_constants):
        expected = math.sqrt(100.0 * 1.0 / (2.0 * 25.2))
        assert default_gamma(tiny_constants, tiny) == pytest.approx(expected, rel=1e-12)

    def test_default_gamma_minimizes_bound(self, tiny, tiny_constants):
        gamma = default_gamma(tiny_constants, tiny)
        big_c = regret_constant(tiny_constants, tiny)
        best = regret_bound(100, gamma, 10.0, 1.0, big_c)
        for factor in (0.5, 0.9, 1.1, 2.0):
            assert best <= regret_bound(100, factor * gamma, 10.0, 1.0, big_c)

    def test_regret_bound_frozen_value(self):
        # 100 * 2 / 1 + 2 * 25.2 * 1 * 2
        assert regret_bound(4, 1.0, 10.0, 1.0, 25.2) == pytest.approx(300.8)

    def test_scaled_step_target_grows_linearly_in_cap(self, tiny, tiny_constants):
        # doubling the dual cap doubles lambda_bar^2 / C in the step formula
        from dataclasses import replace

        doubled = replace(tiny_constants, lambda_bar=2 * tiny_constants.lambda_bar)
        ratio_base = tiny_constants.lambda_bar**2 / regret_constant(tiny_constants, tiny)
        ratio_doubled = doubled.lambda_bar**2 / regret_constant(doubled, tiny)
        assert ratio_doubled / ratio_base == pytest.approx(2.0, rel=0.25)


class TestRunSdgm:
    def test_starts_at_cap_and_stays_in_box(self, tiny, tiny_constants):
        x_hist, lam_hist, params = run_sdgm(tiny, tiny_constants, horizon=50)
        assert np.array_equal(lam_hist[0], [tiny_constants.lambda_bar])
        assert (lam_hist >= 0).all()
        assert (lam_hist <= tiny_constants.lambda_bar + 1e-15).all()
        assert x_hist.shape == (50, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_iterate_feasible(self, seed):
        problem = random_valid_problem(seed)
        constants = compute_constants(problem)
        x_hist, _, _ = run_sdgm(problem, constants, horizon=300)
        loads = x_hist @ problem.a_matrix.T
        assert (loads <= problem.capacities + 1e-9).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_feasibility_is_inductive(self, seed):
        """From any feasible response state, one update stays feasible."""
        problem = random_valid_problem(seed)
        constants = compute_constants(problem)
        gamma = default_gamma(constants, problem)
        params = SdgmParams.from_constants(constants, gamma)
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 50:
            lam = rng.uniform(0.0, constants.lambda_bar, size=problem.m)
            t = int(rng.integers(1, 1000))
            try:
                x = best_response_profile(problem, lam)
            except Exception:
                continue
            if (problem.a_matrix @ x > problem.capacities + 1e-9).any():
                continue  # precondition: start from a feasible state
            nxt = dual_step(DualState(lam=lam, t=t), x, problem, params)
            x_next = best_response_profile(problem, nxt.lam)
            assert (problem.a_matrix @ x_next <= problem.capacities + 1e-9).all()
            checked += 1

    def test_run_trial_metrics(self, tiny, tiny_constants, tiny_solution):
        trace = run_algorithm(
            "SDGM",
            tiny,
            tiny_constants,
            horizon=40,
            trial_id=7,
            f_star=tiny_solution.f_star,
            x_star=tiny_solution.x_star,
        )
        assert trace.trial_id == 7
        assert trace.algorithm == "SDGM"
        assert trace.horizon == 40
        assert (trace.min_slack >= -1e-9).all()
        assert (trace.infeasibility <= 1e-9).all()
        # regret accumulates the per-round optimality gap
        gaps = tiny_solution.f_star - trace.objective
        assert trace.regret_cum == pytest.approx(np.cumsum(gaps), rel=1e-12)

    def test_regret_within_theoretical_bound(self, tiny, tiny_constants):
        gamma = default_gamma(tiny_constants, tiny)
        big_c = regret_constant(tiny_constants, tiny)
        f_star = 2.0 * math.log(0.6)
        trace = run_algorithm("SDGM", tiny, tiny_constants, horizon=200, f_star=f_star)
        for t in (10, 100, 200):
            bound = regret_bound(t, gamma, 10.0, 1.0, big_c)
            assert trace.regret_cum[t - 1] <= bound * (1 + 1e-9)


class TestShutOffAtGateHorizon:
    """Why the scaled-regret plateau (acceptance criterion 3) cannot appear.

    On the gate's ensemble the safe method's prices provably cannot fall far
    enough from the cap to admit any demand within 1000 rounds, whatever the
    base step.
    """

    HORIZON = 1000

    @pytest.mark.parametrize("factor", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_duals_stay_above_travel_floor(self, factor):
        rounds = np.arange(1, self.HORIZON + 1)[:, None]
        for trial_id in range(3):
            problem = gate_problem(trial_id)
            constants = compute_constants(problem)
            gamma = factor * default_gamma(constants, problem)
            x_hist, lam_hist, _ = run_sdgm(problem, constants, self.HORIZON, gamma=gamma)
            assert (lam_hist >= sdgm_dual_floor(problem, constants, rounds)).all()
            if sdgm_shut_off_through(problem, constants, self.HORIZON):
                assert np.array_equal(x_hist, np.broadcast_to(problem.lower, x_hist.shape))

    def test_gate_instances_shut_off_from_constants(self):
        shut_off = 0
        for trial_id in range(100):
            problem = gate_problem(trial_id)
            shut_off += sdgm_shut_off_through(problem, compute_constants(problem), self.HORIZON)
        assert shut_off >= 89
