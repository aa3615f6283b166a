"""Properties of `compare` and `report` over drawn settings.

Each draw is a generator setting that `validate`-style checks accept, a
master seed, 1-3 trials and a horizon of 1-50, run in one process.  A run
either finishes, or stops with a failure that names its trial and seed and
is caused by one of the program's typed errors.  Whatever finishes keeps the
safe method feasible in every round, and `report` rewrites its summary.csv
byte for byte.
"""
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from safedual.agents import UnboundedSubproblemError
from safedual.harness import ExperimentConfig, report, run_experiment, trial_trace_path
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
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(
            generator=generator, horizon=horizon, trials=trials, master_seed=master_seed,
            output_dir=out, workers=1,
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
