"""Acceptance gate: the eight release criteria, each printing PASS or FAIL.

Criteria 1-5 run against the full comparative ensemble (100 random networks,
horizon 1000, all four algorithms, master seed 0).  Criteria 6-8 certify the
reference solver, the core analytical properties, and reproducibility.
"""
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    dual_value,
    grid_search_optimum,
    random_valid_problem,
    safety_margin,
    sdgm_shut_off_through,
    step_sizes,
)
from safedual import harness
from safedual.agents import best_response, best_response_profile
from safedual.harness import ExperimentConfig, run_experiment, trial_trace_path
from safedual.oracle import solve_optimal
from safedual.problem import (
    GeneratorConfig,
    ProblemBatch,
    UtilitySpec,
    compute_constants,
    generate_random,
)
from safedual.sdgm import (
    DualState,
    SdgmParams,
    default_gamma,
    dual_step,
    regret_bound,
    run_sdgm,
)
from safedual.trace import read_trace_csv

TRIALS = 100
HORIZON = 1000
MASTER_SEED = 0


def verdict(capsys, criterion: int, ok: bool, detail: str = "") -> None:
    """Emit the per-criterion line on the uncaptured stdout, then assert."""
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def ensemble(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ensemble"))
    config = ExperimentConfig(
        trials=TRIALS,
        horizon=HORIZON,
        master_seed=MASTER_SEED,
        output_dir=out,
    )
    summary = run_experiment(config)
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    return {"config": config, "summary": summary, "manifest": manifest, "out": out}


def load_traces(ensemble, algorithm):
    out = ensemble["out"]
    return [
        read_trace_csv(trial_trace_path(out, k, algorithm)) for k in range(TRIALS)
    ]


def test_criterion_1_all_iterate_feasibility(ensemble, capsys):
    """The safe method never lets realized demand exceed any capacity."""
    worst = min(trace.min_slack.min() for trace in load_traces(ensemble, "SDGM"))
    verdict(capsys, 1, worst >= -1e-9, f"worst slack {worst:.3e}")


def test_criterion_2_regret_bound(ensemble, capsys):
    """Cumulative regret stays under the theoretical sqrt-horizon envelope."""
    traces = {tr.trial_id: tr for tr in load_traces(ensemble, "SDGM")}
    worst_margin = -math.inf
    ok = True
    for meta in ensemble["manifest"]["trials"]:
        trace = traces[meta["trial_id"]]
        for t in (10, 100, 1000):
            bound = regret_bound(
                t, meta["gamma"], meta["lambda_bar"], meta["c_l1"], meta["regret_constant"]
            )
            margin = trace.regret_cum[t - 1] / bound - 1.0
            worst_margin = max(worst_margin, margin)
            if margin > 1e-6:
                ok = False
    verdict(capsys, 2, ok, f"worst regret/bound - 1 = {worst_margin:.3e}")


def test_criterion_3_scaled_regret_plateau(ensemble, capsys):
    """R(t)/sqrt(t) should stabilize between t = 500 and t = 1000.

    Known red, and not a defect of anything the method promises (criterion
    2 checks the promised sqrt-horizon envelope).  The safety margin
    outlasts this horizon: a row's dual can move down only once its margin
    row_weights_j * gamma / (mu * sqrt(t)) is below c_j, so by round T it
    has fallen less than T / (2 r_j) + 1 / r_j below the cap, with
    r_j = row_weights_j / (mu * c_j), for every base step gamma (see
    conftest.sdgm_dual_floor).  A larger gamma only makes the shutdown
    last longer.  On 89 of these 100 networks that floor keeps every
    user's price at or above theta / (lower + shift) through t = 1000, so
    demand is zero in every round, R(t) is linear, and the ratio is
    sqrt(2).  R is non-decreasing, so every other trial gives at least
    1 / sqrt(2), and the mean ratio is at least
    (89 * sqrt(2) + 11 / sqrt(2)) / 100 ~ 1.34 for every gamma.  The
    message reports the count of provably shut-off trials.
    """
    ratios = []
    for trace in load_traces(ensemble, "SDGM"):
        scaled_1000 = trace.regret_cum[999] / math.sqrt(1000)
        scaled_500 = trace.regret_cum[499] / math.sqrt(500)
        ratios.append(scaled_1000 / scaled_500)
    mean_ratio = float(np.mean(ratios))
    config = ensemble["config"]
    shut_off = 0
    for meta in ensemble["manifest"]["trials"]:
        problem = generate_random(replace(config.generator, seed=meta["seed"]))
        shut_off += sdgm_shut_off_through(problem, compute_constants(problem), HORIZON)
    verdict(
        capsys, 3, mean_ratio < 1.05,
        f"mean ratio {mean_ratio:.4f}; demand provably zero through t = {HORIZON} "
        f"for every base step on {shut_off}/{TRIALS} trials",
    )


def test_criterion_4_distance_ordering(ensemble, capsys):
    """Median final distance to optimum: every unsafe baseline ends at least
    as close as the safe method (FDGM, NDGM, DGM <= SDGM).

    This is the documented trade-off: the baselines converge faster but
    transiently violate capacity (criterion 5), while the safe method's
    margin holds its prices at the cap on these networks (criterion 3).
    An ordering with SDGM ahead of DGM cannot hold together with criteria
    1, 5 and 7: DGM started at the cap instead of the all-ones dual ends
    exactly where the safe method does, but then never violates capacity.
    """
    finals = {
        alg: np.median([tr.distance_to_opt[-1] for tr in load_traces(ensemble, alg)])
        for alg in ("SDGM", "DGM", "FDGM", "NDGM")
    }
    legs = {
        "FDGM<=SDGM": finals["FDGM"] <= finals["SDGM"],
        "NDGM<=SDGM": finals["NDGM"] <= finals["SDGM"],
        "DGM<=SDGM": finals["DGM"] <= finals["SDGM"],
    }
    detail = ", ".join(f"{name}: {'ok' if ok else 'violated'}" for name, ok in legs.items())
    medians = ", ".join(f"{alg} {value:.3g}" for alg, value in finals.items())
    verdict(capsys, 4, all(legs.values()), f"{detail}; medians {medians}")


def test_criterion_5_baselines_are_unsafe(ensemble, capsys):
    """Each baseline violates capacity on most trials; the safe method never."""
    share = {}
    for alg in ("DGM", "FDGM", "NDGM"):
        violating = sum(
            (tr.infeasibility > 1e-6).any() for tr in load_traces(ensemble, alg)
        )
        share[alg] = violating / TRIALS
    sdgm_violations = sum(
        (tr.infeasibility > 1e-6).any() for tr in load_traces(ensemble, "SDGM")
    )
    ok = all(s >= 0.6 for s in share.values()) and sdgm_violations == 0
    detail = ", ".join(f"{alg} {s:.0%}" for alg, s in share.items())
    verdict(capsys, 5, ok, f"{detail}; safe method violations {sdgm_violations}")


def test_criterion_6_oracle_certification(ensemble, capsys):
    """Every reference optimum is certified, and matches a brute-force check."""
    residuals = [meta["kkt_residual"] for meta in ensemble["manifest"]["trials"]]
    ok = max(residuals) <= 1e-8
    worst_gap = 0.0
    for seed in range(20):
        problem = random_valid_problem(seed, n_range=(2, 3), m_range=(1, 2))
        solution = solve_optimal(problem)
        _, f_grid = grid_search_optimum(problem)
        gap = abs(solution.f_star - f_grid)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-3 or solution.kkt_residual > 1e-8:
            ok = False
    verdict(
        capsys, 6, ok,
        f"max ensemble residual {max(residuals):.2e}, worst brute-force gap {worst_gap:.2e}",
    )


def _check_best_response_grid() -> bool:
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, 2.0, 200_001)
    for _ in range(1000):
        util = UtilitySpec(
            theta=float(rng.uniform(0.5, 30.0)),
            shift=float(rng.uniform(0.05, 0.5)),
            lower=0.0,
            upper=2.0,
        )
        price = float(rng.uniform(0.3, 50.0))
        values = util.theta * np.log(grid + util.shift) - price * grid
        x_grid = grid[int(np.argmax(values))]
        if abs(best_response(util, price) - x_grid) > 2e-5:
            return False
    return True


def _check_dual_gradient() -> bool:
    rng = np.random.default_rng(7)
    problem = random_valid_problem(seed=11)
    h = 1e-6
    for _ in range(100):
        lam = rng.uniform(0.2, 5.0, size=problem.m)
        x = best_response_profile(problem, lam)
        analytic = problem.capacities - problem.a_matrix @ x
        for j in rng.choice(problem.m, size=min(3, problem.m), replace=False):
            e = np.zeros(problem.m)
            e[j] = h
            fd = (dual_value(problem, lam + e) - dual_value(problem, lam - e)) / (2 * h)
            scale = max(1.0, abs(analytic[j]))
            if abs(fd - analytic[j]) > 1e-5 * scale:
                return False
    return True


def _check_weak_duality(ensemble) -> bool:
    config = ensemble["config"]
    for meta in ensemble["manifest"]["trials"][:10]:
        problem = generate_random(replace(config.generator, seed=meta["seed"]))
        constants = compute_constants(problem)
        _, lam_hist, _ = run_sdgm(problem, constants, HORIZON, gamma=meta["gamma"])
        values = np.array([dual_value(problem, lam) for lam in lam_hist])
        if (values < meta["f_star"] - 1e-6).any():
            return False
    return True


def _one_step_feasibility(problem, params, cap, rng, tries=50):
    """Feasible states checked from random duals below `cap`; None on a break.

    `problem` may be a ProblemBatch, whose states count as feasible only when
    every trial's demand is.
    """
    checked = 0
    for _ in range(tries):
        lam = rng.uniform(0.0, cap)
        t = int(rng.integers(1, HORIZON))
        try:
            x = best_response_profile(problem, lam)
        except Exception:
            continue
        if (problem.a_matrix @ x > problem.capacities + 1e-9).any():
            continue
        nxt = dual_step(DualState(lam=lam, t=t), x, problem, params)
        x_next = best_response_profile(problem, nxt.lam)
        if (problem.a_matrix @ x_next > problem.capacities + 1e-9).any():
            return None
        checked += 1
    return checked


def _check_inductive_feasibility() -> bool:
    """One update from a feasible state stays feasible, for single problems
    and for batches of three, through the dual_step the pricing loop runs."""
    rng = np.random.default_rng(99)
    checked = 0
    seed = 0
    while checked < 1000:
        problem = random_valid_problem(300 + seed)
        seed += 1
        constants = compute_constants(problem)
        params = SdgmParams.from_constants(constants, default_gamma(constants, problem))
        cap = np.full(problem.m, constants.lambda_bar)
        count = _one_step_feasibility(problem, params, cap, rng)
        if count is None:
            return False
        checked += count
    checked = 0
    while checked < 300:
        problems = [random_valid_problem(300 + seed + k) for k in range(3)]
        seed += 3
        batch = ProblemBatch(problems)
        constants = [compute_constants(p) for p in problems]
        params = SdgmParams.stack(batch, [
            SdgmParams.from_constants(c, default_gamma(c, p))
            for p, c in zip(problems, constants)
        ])
        count = _one_step_feasibility(batch, params, params.lambda_bar, rng)
        if count is None:
            return False
        checked += count
    return True


def _check_step_identities() -> bool:
    rng = np.random.default_rng(5)
    for seed in range(20):
        problem = random_valid_problem(500 + seed)
        constants = compute_constants(problem)
        gamma = float(rng.uniform(0.1, 5.0))
        params = SdgmParams.from_constants(constants, gamma)
        for t in (1, 2, 17, 400, HORIZON):
            down, up = step_sizes(params, t, problem.m)
            if up != (problem.m - 1) * down:
                return False
            expected_down = gamma / math.sqrt(t)
            if not math.isclose(down, expected_down, rel_tol=1e-12):
                return False
            margin = safety_margin(params, t)
            expected = constants.row_weights / constants.mu * expected_down
            if not np.allclose(margin, expected, rtol=1e-12, atol=0.0):
                return False
    return True


def test_criterion_7_analytical_properties(ensemble, capsys):
    """Closed-form responses, dual gradient, duality, and update identities."""
    checks = {
        "best-response vs grid": _check_best_response_grid(),
        "dual gradient vs finite differences": _check_dual_gradient(),
        "weak duality along safe trajectories": _check_weak_duality(ensemble),
        "one-step feasibility induction": _check_inductive_feasibility(),
        "step and margin identities": _check_step_identities(),
    }
    detail = ", ".join(f"{name}: {'ok' if ok else 'violated'}" for name, ok in checks.items())
    verdict(capsys, 7, all(checks.values()), detail)


def test_criterion_8_reproducibility(tmp_path, capsys, monkeypatch):
    """Identical seeds give byte-identical artifacts across worker counts."""

    def run(subdir, workers):
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        config = ExperimentConfig(
            generator=GeneratorConfig(n_range=(4, 10), m_range=(2, 5)),
            trials=4,
            horizon=50,
            master_seed=123,
            output_dir=str(tmp_path / subdir),
        )
        run_experiment(config)
        out = config.output_dir
        blobs = {"summary.csv": Path(out, "summary.csv").read_text()}
        trace_dir = os.path.join(out, "traces")
        for name in sorted(os.listdir(trace_dir)):
            blobs[name] = Path(trace_dir, name).read_text()
        return blobs

    first = run("serial", workers=1)
    second = run("again", workers=1)
    third = run("parallel", workers=2)
    ok = first == second == third
    verdict(capsys, 8, ok, f"{len(first)} artifacts compared across 3 runs")
