"""Safe dual gradient method for network utility maximization.

Price-based resource allocation where the posted prices must never induce a
demand profile that violates the capacity constraints.  Ships the safe
method, three unsafe first-order baselines, a certified reference solver,
and a reproducible experiment harness.
"""
from .agents import (
    UnboundedSubproblemError,
    best_response,
    best_response_profile,
    demand_at_prices,
    prices_from_duals,
)
from .baselines import run_dgm, run_fdgm, run_ndgm
from .harness import ALGORITHMS, ExperimentConfig, SummaryStats, run_algorithm, run_experiment
from .oracle import OptimalSolution, dual_value, kkt_residual, solve_optimal
from .problem import (
    GeneratorConfig,
    NumProblem,
    ProblemBatch,
    ProblemConstants,
    UtilitySpec,
    compute_constants,
    generate_random,
    load_problem,
    problem_hash,
    save_problem,
    validate,
)
from .sdgm import (
    DualState,
    SdgmParams,
    default_gamma,
    dual_step,
    regret_bound,
    regret_constant,
    run_pricing,
    run_sdgm,
    safety_margin,
    step_sizes,
)
from .trace import TrialTrace, build_trace, regret_series

__version__ = "0.1.0"
