"""Properties of `compare` and `report` over drawn settings.

Each draw is a generator setting that `validate`-style checks accept, a
master seed, 1-3 trials and a horizon of 1-50, run in one process.  A run
either finishes, or stops with a failure that names its trial and seed and
is caused by one of the program's typed errors.  Whatever finishes keeps the
safe method feasible in every round, and `report` rewrites its summary.csv
byte for byte.

A finished run's manifest, mutated one drawn way, makes `report` either
refuse it with a typed error or rewrite the same summary.csv.
"""
import copy
import json
import os
import re
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedual import harness
from safedual.agents import UnboundedSubproblemError
from safedual.harness import (
    ConfigError,
    ExperimentConfig,
    TraceMismatchError,
    report,
    run_experiment,
    trial_trace_path,
)
from safedual.oracle import OracleConvergenceError
from safedual.problem import GeneratorConfig
from safedual.trace import read_trace_csv

SLACK_FLOOR = -1e-9
NAMED_FAILURE = re.compile(r"^trial \d+ \(seed \d+\) failed: ")


@st.composite
def size_ranges(draw, most):
    low = draw(st.integers(1, most))
    return low, draw(st.integers(low, most))


@st.composite
def generators(draw):
    theta_low = draw(st.floats(0.5, 40.0))
    return GeneratorConfig(
        n_range=draw(size_ranges(12)),
        m_range=draw(size_ranges(8)),
        theta_range=(theta_low, theta_low + draw(st.floats(0.0, 40.0))),
        capacity_value=draw(st.floats(0.05, 20.0)),
        bernoulli_p=draw(st.floats(0.05, 0.95)),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    generator=generators(),
    master_seed=st.integers(0, 2**64),
    trials=st.integers(1, 3),
    horizon=st.integers(1, 50),
)
def test_compare_finishes_safe_or_names_a_typed_failure(generator, master_seed, trials, horizon):
    with tempfile.TemporaryDirectory() as out, mock.patch.object(
        harness, "available_workers", return_value=1
    ):
        config = ExperimentConfig(
            generator=generator, horizon=horizon, trials=trials, master_seed=master_seed,
            output_dir=out,
        )
        try:
            run_experiment(config)
        except RuntimeError as exc:
            assert NAMED_FAILURE.match(str(exc)), exc
            assert isinstance(exc.__cause__, (UnboundedSubproblemError, OracleConvergenceError))
            return
        for trial_id in range(trials):
            trace = read_trace_csv(trial_trace_path(out, trial_id, "SDGM"))
            assert trace.min_slack.min() >= SLACK_FLOOR, trial_id
        with open(os.path.join(out, "summary.csv"), "rb") as fh:
            summary = fh.read()
        report(out)
        with open(os.path.join(out, "summary.csv"), "rb") as fh:
            assert fh.read() == summary


COMPARED = ExperimentConfig(trials=3, horizon=20)
# JSON values of every type but a non-negative integer
NOT_COUNTS = st.one_of(
    st.floats(), st.text(max_size=3), st.booleans(), st.none(), st.integers(max_value=-1)
)


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """A finished compare run, with one worker: its directory, manifest and summary.csv."""
    out = str(tmp_path_factory.mktemp("compared"))
    with mock.patch.object(harness, "available_workers", return_value=1):
        run_experiment(replace(COMPARED, output_dir=out))
    manifest = json.loads(Path(out, "manifest.json").read_text())
    return out, manifest, Path(out, "summary.csv").read_bytes()


def _drop(manifest, k):
    del manifest["trials"][k]


def _repeat(manifest, k):
    manifest["trials"].insert(k, copy.deepcopy(manifest["trials"][k]))


def _reorder(manifest, order):
    manifest["trials"] = [manifest["trials"][k] for k in order]


def _retype(manifest, k, trial_id):
    manifest["trials"][k]["trial_id"] = trial_id


def _set(manifest, value, *, name):
    manifest["config"][name] = value


TRIAL = st.integers(0, COMPARED.trials - 1)
MUTATIONS = st.one_of(
    st.tuples(st.just(_drop), TRIAL),
    st.tuples(st.just(_repeat), TRIAL),
    st.tuples(st.just(_reorder), st.permutations(range(COMPARED.trials))),
    st.tuples(st.just(_retype), TRIAL, NOT_COUNTS),
    *(
        st.tuples(st.just(partial(_set, name=name)), st.integers(0, most) | NOT_COUNTS)
        for name, most in (
            ("trials", 2 * COMPARED.trials),
            ("horizon", 2 * COMPARED.horizon),
            ("master_seed", 2**64),
        )
    ),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(mutation=MUTATIONS)
def test_report_refuses_a_mutated_manifest_or_rewrites_the_same_summary(compared, mutation):
    out, manifest, summary = compared
    mutate, *args = mutation
    mutated = copy.deepcopy(manifest)
    mutate(mutated, *args)
    Path(out, "manifest.json").write_text(json.dumps(mutated))
    with mock.patch.object(harness, "available_workers", return_value=1):
        try:
            report(out)
        except (TraceMismatchError, ConfigError, ValueError):
            pass
    assert Path(out, "summary.csv").read_bytes() == summary
