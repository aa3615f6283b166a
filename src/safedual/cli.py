"""Command line interface.

Subcommands: generate (emit a problem document), solve (reference optimum),
run (one algorithm on one problem), compare (full ensemble experiment),
report (re-aggregate existing traces).  Failures exit nonzero with a
machine-readable JSON error on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness, oracle
from .problem import (
    GeneratorConfig,
    compute_constants,
    generate_random,
    load_problem,
    save_problem,
    validate,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safedual")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = GeneratorConfig()
    gen = sub.add_parser("generate", help="emit a random problem document")
    gen.add_argument("--seed", type=int, default=defaults.seed)
    gen.add_argument("--out", help="output path (stdout if omitted)")
    gen.add_argument("--n-range", type=int, nargs=2, default=defaults.n_range)
    gen.add_argument("--m-range", type=int, nargs=2, default=defaults.m_range)
    gen.add_argument("--theta-range", type=float, nargs=2, default=defaults.theta_range)
    gen.add_argument("--capacity", type=float, default=defaults.capacity_value)
    gen.add_argument("--bernoulli-p", type=float, default=defaults.bernoulli_p)

    slv = sub.add_parser("solve", help="reference optimum of a problem file")
    slv.add_argument("problem")
    slv.add_argument("--tolerance", type=float, default=oracle.DEFAULT_TOLERANCE)

    run = sub.add_parser("run", help="one algorithm on one problem")
    run.add_argument("--problem", required=True)
    run.add_argument("--algorithm", default="SDGM", choices=harness.ALGORITHMS)
    run.add_argument("--horizon", type=int, default=1000)
    run.add_argument("--gamma", type=float, help="base step override (safe method)")
    run.add_argument("--out", help="trace CSV path (stdout if omitted)")

    cmp_ = sub.add_parser("compare", help="full ensemble experiment")
    cmp_.add_argument("--config", help="JSON experiment config file")
    cmp_.add_argument("--seed", type=int, help="master seed override")
    cmp_.add_argument("--trials", type=int)
    cmp_.add_argument("--horizon", type=int)
    cmp_.add_argument("--gamma", type=float)
    cmp_.add_argument("--algorithms", help="comma-separated subset, e.g. SDGM,DGM")
    cmp_.add_argument("--out", help="output directory")
    cmp_.add_argument("--workers", type=int)

    rep = sub.add_parser("report", help="re-aggregate existing traces")
    rep.add_argument("--out", required=True, help="experiment output directory")
    return parser


def _cmd_generate(args) -> None:
    config = GeneratorConfig(
        n_range=tuple(args.n_range),
        m_range=tuple(args.m_range),
        theta_range=tuple(args.theta_range),
        capacity_value=args.capacity,
        bernoulli_p=args.bernoulli_p,
        seed=args.seed,
    )
    problem = generate_random(config)
    violations = validate(problem)
    if violations:
        raise RuntimeError(f"generated problem is invalid: {violations}")
    if args.out:
        save_problem(problem, args.out)
    else:
        from .problem import problem_to_dict

        json.dump(problem_to_dict(problem), sys.stdout, indent=2)
        sys.stdout.write("\n")


def _load_valid_problem(path):
    problem = load_problem(path)
    violations = validate(problem)
    if violations:
        raise RuntimeError(f"invalid problem: {violations}")
    return problem


def _cmd_solve(args) -> None:
    problem = _load_valid_problem(args.problem)
    solution = oracle.solve_optimal(problem, tolerance=args.tolerance)
    json.dump(solution.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_run(args) -> None:
    if args.horizon < 1:
        raise ValueError("horizon must be at least 1")
    problem = _load_valid_problem(args.problem)
    constants = compute_constants(problem)
    solution = oracle.solve_optimal(problem)
    trace = harness.run_algorithm(
        args.algorithm, problem, constants, args.horizon, args.gamma,
        f_star=solution.f_star, x_star=solution.x_star,
    )
    trace.write_csv(args.out if args.out else sys.stdout)


def _cmd_compare(args) -> None:
    if args.config:
        with open(args.config) as fh:
            config = harness.ExperimentConfig.from_dict(json.load(fh))
    else:
        config = harness.ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
        overrides["generator"] = replace(config.generator, seed=args.seed)
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.algorithms is not None:
        overrides["algorithms"] = tuple(args.algorithms.split(","))
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    config = replace(config, **overrides)
    summary = harness.run_experiment(config)
    final = {
        alg: float(summary.mean[(alg, "distance_to_opt")][-1]) for alg in config.algorithms
    }
    print(json.dumps({"trials": summary.trials, "final_mean_distance": final}, indent=2))


def _cmd_report(args) -> None:
    summary = harness.report(args.out)
    print(json.dumps({"algorithms": list(summary.algorithms), "trials": summary.trials}))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "report": _cmd_report,
    }
    try:
        handlers[args.command](args)
    except Exception as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
