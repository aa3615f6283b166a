"""The benchmark's correctness checks accept real outputs and reject broken ones.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import checks  # noqa: E402
from safedual import cli  # noqa: E402
from safedual.problem import GeneratorConfig, generate_random, problem_to_dict  # noqa: E402
from workloads import ALGORITHMS  # noqa: E402

TRIALS, HORIZON = 3, 200


def run_cli(*argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main([str(a) for a in argv]) == 0
    return stdout.getvalue()


def regenerate(seed):
    return problem_to_dict(generate_random(GeneratorConfig(seed=seed)))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("experiment") / "out")
    compare = json.loads(run_cli("compare", "--out", out, "--trials", TRIALS, "--horizon", HORIZON))
    with open(os.path.join(out, "summary.csv"), "rb") as fh:
        summary = fh.read()
    report = json.loads(run_cli("report", "--out", out))
    return out, compare, report, summary


@pytest.fixture
def experiment(pristine, tmp_path):
    """A private copy of the outputs, free to break."""
    out, compare, report, summary = pristine
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    return {"out": copy, "compare": dict(compare), "report": dict(report), "summary": summary}


def check(outputs, trials=TRIALS):
    return checks.check_experiment(
        outputs["out"], trials, HORIZON, ALGORITHMS, outputs["compare"],
        outputs["report"], outputs["summary"], regenerate,
    )


def rewrite(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_real_outputs_pass(experiment):
    assert check(experiment) == []


def test_negative_slack_is_rejected(experiment):
    def negative_slack(lines):
        cells = lines[50].split(",")
        cells[-1] = "-1e-06"
        lines[50] = ",".join(cells)

    rewrite(os.path.join(experiment["out"], "traces", "trial_0001_SDGM.csv"), negative_slack)
    faults = check(experiment)
    assert any("trial 1 SDGM: slack -1.000e-06" in fault for fault in faults), faults


def test_summary_mean_off_the_traces_is_rejected(experiment):
    path = os.path.join(experiment["out"], "summary.csv")

    def shift_mean(lines):
        cells = lines[10].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6))
        lines[10] = ",".join(cells)

    rewrite(path, shift_mean)
    with open(path, "rb") as fh:
        experiment["summary"] = fh.read()  # as if compare itself had written it
    faults = check(experiment)
    assert any("summary: SDGM objective_mean at t=10" in fault for fault in faults), faults


def test_report_summary_differing_from_compare_is_rejected(experiment):
    experiment["summary"] = experiment["summary"].replace(b"SDGM,1,", b"SDGM,1,1", 1)
    assert "report's summary.csv differs from the one compare wrote" in check(experiment)


def test_optimum_off_its_kkt_point_is_rejected(experiment):
    cache = os.path.join(experiment["out"], "oracle_cache")
    path = os.path.join(cache, sorted(os.listdir(cache))[0])
    with open(path) as fh:
        solution = json.load(fh)
    solution["lambda_star"][0] += 1e-6
    with open(path, "w") as fh:
        json.dump(solution, fh)
    faults = check(experiment)
    assert any("optimum: KKT residual" in fault for fault in faults), faults


def test_fewer_trials_than_configured_is_rejected(experiment):
    experiment["compare"]["trials"] = TRIALS - 1
    assert check(experiment) == [f"compare reports {TRIALS - 1} trials, configured {TRIALS}"]


def test_stale_trial_in_the_directory_is_rejected(experiment):
    assert check(experiment, trials=TRIALS - 1)


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("certify") / "problem.json")
    run_cli("generate", "--seed", 7, "--out", path)
    with open(path) as fh:
        problem = checks.problem_arrays(json.load(fh))
    return problem, json.loads(run_cli("solve", path))


def test_solve_output_passes(certified):
    problem, solution = certified
    assert checks.check_optimum(problem, solution, "p") == []


@pytest.mark.parametrize("field,index,delta,fault", [
    ("x_star", 0, 1e-6, "KKT residual"),
    ("lambda_star", 1, 1e-6, "KKT residual"),
    ("f_star", None, 1e-6, "is not f(x_star)"),
])
def test_solve_output_moved_off_its_optimum_is_rejected(certified, field, index, delta, fault):
    problem, solution = certified
    moved = json.loads(json.dumps(solution))
    if index is None:
        moved[field] += delta
    else:
        moved[field][index] += delta
    faults = checks.check_optimum(problem, moved, "p")
    assert any(fault in f for f in faults), faults


def sdgm_case(pristine):
    out, _, _, _ = pristine
    with open(os.path.join(out, "manifest.json")) as fh:
        meta = json.load(fh)["trials"][0]
    return checks.read_trace(os.path.join(out, "traces", "trial_0000_SDGM.csv")), meta


def test_decreasing_regret_is_rejected(pristine):
    trace, meta = sdgm_case(pristine)
    regret = trace["regret_cum"]
    regret[100:] -= regret[100] - regret[99] + 1e-3
    faults = checks.check_sdgm_trace(trace, meta, "x")
    assert faults == ["x: cumulative regret decreases by 1.000e-03 at t=101"]


def test_regret_above_the_envelope_is_rejected(pristine):
    trace, meta = sdgm_case(pristine)
    envelope = checks.regret_envelope(np.array([HORIZON]), meta)[0]
    trace["regret_cum"][-1] = 2 * envelope
    faults = checks.check_sdgm_trace(trace, meta, "x")
    assert any("above the O(sqrt T) envelope" in f and f"t={HORIZON}" in f for f in faults), faults
