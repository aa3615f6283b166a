"""Command line interface.

Subcommands: generate (emit a problem document), solve (reference optimum),
run (one algorithm on one problem), compare (full ensemble experiment),
report (re-aggregate a run's trace table).  Failures exit nonzero with a
machine-readable JSON error on stderr.  Only run, compare and report import
the experiment harness; generate and solve load the problem, agent and
oracle layers alone.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, replace

from . import oracle
from .problem import (
    GeneratorConfig,
    compute_constants,
    generate_random,
    load_problem,
    problem_to_dict,
    save_problem,
    validate,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: every parse makes a
    fresh namespace, and every default is immutable."""
    parser = argparse.ArgumentParser(prog="safedual")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a random problem document")
    gen.set_defaults(handler=_cmd_generate)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", help="output path (stdout if omitted)")
    gen.add_argument("--n-range", type=int, nargs=2)
    gen.add_argument("--m-range", type=int, nargs=2)
    gen.add_argument("--theta-range", type=float, nargs=2)
    gen.add_argument("--capacity", dest="capacity_value", type=float)
    gen.add_argument("--bernoulli-p", type=float)

    slv = sub.add_parser("solve", help="reference optimum of a problem file")
    slv.set_defaults(handler=_cmd_solve)
    slv.add_argument("problem")

    run = sub.add_parser("run", help="one algorithm on one problem")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("--problem", required=True)
    run.add_argument("--algorithm", default="SDGM")
    run.add_argument("--horizon", type=int)
    run.add_argument("--gamma", type=float, help="base step override (safe method)")
    run.add_argument("--out", help="trace CSV path (stdout if omitted)")

    cmp_ = sub.add_parser("compare", help="full ensemble experiment")
    cmp_.set_defaults(handler=_cmd_compare)
    cmp_.add_argument("--config", help="JSON experiment config file")
    cmp_.add_argument("--seed", dest="master_seed", type=int, help="master seed override")
    cmp_.add_argument("--trials", type=int)
    cmp_.add_argument("--horizon", type=int)
    cmp_.add_argument("--gamma", type=float)
    cmp_.add_argument("--algorithms", type=lambda names: tuple(names.split(",")),
                      help="comma-separated subset, e.g. SDGM,DGM")
    cmp_.add_argument("--out", dest="output_dir", help="output directory")

    rep = sub.add_parser("report", help="re-aggregate a run's trace table, traces.npy")
    rep.set_defaults(handler=_cmd_report)
    rep.add_argument("--out", required=True, help="experiment output directory")
    return parser


def _settings(args, cls) -> dict:
    """The flags given on the command line that are named after a field of `cls`;
    the pairs that `nargs=2` reads as lists become tuples."""
    names = {f.name for f in fields(cls)}
    return {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in vars(args).items() if k in names and v is not None
    }


def _cmd_generate(args) -> None:
    problem = _valid(generate_random(GeneratorConfig(**_settings(args, GeneratorConfig))))
    if args.out:
        save_problem(problem, args.out)
    else:
        print(json.dumps(problem_to_dict(problem), indent=2))


def _valid(problem):
    violations = validate(problem)
    if violations:
        raise RuntimeError(f"invalid problem: {violations}")
    return problem


def _cmd_solve(args) -> None:
    solution = oracle.solve_optimal(_valid(load_problem(args.problem)))
    print(json.dumps(solution.to_dict(), indent=2))


def _cmd_run(args) -> None:
    """One algorithm on one problem; its horizon and gamma default and are
    refused as compare's are, before the oracle runs."""
    from . import harness

    settings = _settings(args, harness.ExperimentConfig)
    config = harness.ExperimentConfig(algorithms=(args.algorithm,), **settings)
    config.check()
    problem = _valid(load_problem(args.problem))
    constants = compute_constants(problem)
    solution = oracle.solve_optimal(problem)
    trace = harness.run_algorithm(
        args.algorithm, problem, constants, config.horizon, config.gamma,
        f_star=solution.f_star, x_star=solution.x_star,
    )
    trace.write_csv(args.out if args.out else sys.stdout)


def _cmd_compare(args) -> None:
    from . import harness

    config = harness.ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            config = harness.ExperimentConfig.from_dict(json.load(fh))
    settings = _settings(args, harness.ExperimentConfig)
    if "master_seed" in settings:
        settings["generator"] = replace(config.generator, seed=settings["master_seed"])
    config = replace(config, **settings)
    summary = harness.run_experiment(config)
    final = {
        alg: float(summary.mean[(alg, "distance_to_opt")][-1]) for alg in config.algorithms
    }
    print(json.dumps({"trials": summary.trials, "final_mean_distance": final}, indent=2))


def _cmd_report(args) -> None:
    from . import harness

    summary = harness.report(args.out)
    print(json.dumps({"algorithms": list(summary.algorithms), "trials": summary.trials}))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except Exception as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
