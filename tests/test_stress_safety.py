"""Safety where the margin binds: a frozen stress ensemble outside the gate.

On the gate's networks the safe method's prices hold at the cap, so
criterion 1 passes there even with the safety margin deleted.  On small
networks (n 5-10, m 2-5) demand is positive and the margin binds: the safe
method must stay feasible in every round while DGM, the same dual ascent
without the margin and the sign-based steps, violates capacity.  The
ensemble runs through run_experiment, so the fused, windowed path is the
one tested.  Its settings and seed were fixed before any mutation was run
against it; only the trial count was widened after, from 40, at which a
halved margin stayed feasible.
"""
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from safedual.harness import ExperimentConfig, run_experiment
from safedual.problem import GeneratorConfig
from safedual.trace import METRIC_COLUMNS

STRESS = ExperimentConfig(
    generator=GeneratorConfig(n_range=(5, 10), m_range=(2, 5)),
    trials=200,
    horizon=4000,
    algorithms=("SDGM", "DGM"),
    master_seed=0,
)


@pytest.fixture(scope="module")
def stress(tmp_path_factory):
    """Per trial, SDGM's worst slack and whether DGM ever exceeds a capacity
    by more than 1e-6.  The run's 200 MB of trace CSVs are removed."""
    out = str(tmp_path_factory.mktemp("stress"))
    try:
        run_experiment(replace(STRESS, output_dir=out))
        table = np.load(os.path.join(out, "traces.npy"), mmap_mode="r")  # (metric, round, algorithm, trial)
        sdgm, dgm = STRESS.algorithms.index("SDGM"), STRESS.algorithms.index("DGM")
        return {
            "slack": table[METRIC_COLUMNS.index("min_slack"), :, sdgm].min(axis=0),
            "violates": (table[METRIC_COLUMNS.index("infeasibility"), :, dgm] > 1e-6).any(axis=0),
        }
    finally:
        shutil.rmtree(out)


def test_safe_method_is_feasible_in_every_round(stress):
    """Criterion 1's test: no round of any trial has negative slack."""
    assert stress["slack"].min() >= -1e-9, stress["slack"].min()


def test_dgm_violates_capacity(stress):
    """Criterion 5's test for DGM, which shows that the ensemble binds: it
    exceeds some capacity by more than 1e-6 on at least 60% of the trials."""
    assert stress["violates"].mean() >= 0.6
