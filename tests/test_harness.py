import io
import json
import multiprocessing
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import gate_problem
from safedual import (
    ExperimentConfig,
    GeneratorConfig,
    ProblemBatch,
    baselines,
    compute_constants,
    generate_random,
    problem_hash,
    run_experiment,
    solve_optimal,
)
from safedual.harness import (
    ALGORITHMS,
    STARTS,
    ConfigError,
    TraceMismatchError,
    aggregate,
    derive_trial_seed,
    report,
    run_algorithm,
    run_batch,
    run_trial,
    run_trials,
    trial_blocks,
    trial_trace_path,
)
from safedual.trace import METRIC_COLUMNS, read_trace_csv

SMALL_GENERATOR = GeneratorConfig(n_range=(4, 8), m_range=(2, 4))


def small_config(tmp_path, **overrides):
    defaults = dict(
        generator=SMALL_GENERATOR,
        horizon=30,
        trials=3,
        master_seed=5,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def read_all(output_dir):
    trace_dir = os.path.join(output_dir, "traces")
    return {
        name: open(os.path.join(trace_dir, name)).read()
        for name in sorted(os.listdir(trace_dir))
    }


class TestSeeds:
    def test_deterministic(self):
        assert derive_trial_seed(0, 3) == derive_trial_seed(0, 3)

    def test_distinct_across_trials_and_masters(self):
        seeds = {derive_trial_seed(ms, k) for ms in range(3) for k in range(20)}
        assert len(seeds) == 60


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = small_config(tmp_path, gamma=0.7, workers=2)
        doc = json.loads(json.dumps(config.to_dict()))  # tuples come back as lists
        assert ExperimentConfig.from_dict(doc) == config

    @pytest.mark.parametrize(
        "doc", [{"horizn": 10}, {"generator": {"n_range": [3, 5], "capacity": 2.0}}]
    )
    def test_from_dict_rejects_unknown_field(self, doc):
        with pytest.raises(ConfigError, match="horizn|capacity"):
            ExperimentConfig.from_dict(doc)

    def test_check_rejects_unknown_algorithm(self, tmp_path):
        config = small_config(tmp_path, algorithms=("SDGM", "BOGUS"))
        with pytest.raises(ValueError):
            config.check()

    def test_check_rejects_empty_algorithms(self, tmp_path):
        with pytest.raises(ValueError, match="no algorithms"):
            small_config(tmp_path, algorithms=()).check()

    def test_check_rejects_zero_trials(self, tmp_path):
        with pytest.raises(ValueError):
            small_config(tmp_path, trials=0).check()

    def test_workers_default_to_the_usable_cpus(self):
        assert ExperimentConfig().workers == len(os.sched_getaffinity(0))

    def test_check_refuses_workers_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert ExperimentConfig().workers == 1
        small_config(tmp_path, workers=1).check()
        with pytest.raises(ValueError, match="workers"):
            small_config(tmp_path, workers=2).check()


class TestRunTrial:
    def test_artifacts_and_metadata(self, tmp_path):
        config = small_config(tmp_path)
        os.makedirs(os.path.join(config.output_dir, "traces"))
        os.makedirs(os.path.join(config.output_dir, "oracle_cache"))
        meta, traces = run_trial(config, 1)
        assert meta["trial_id"] == 1
        assert meta["seed"] == derive_trial_seed(5, 1)
        assert meta["kkt_residual"] <= 1e-8
        assert meta["gamma"] > 0
        assert {tr.algorithm for tr in traces} == set(ALGORITHMS)
        for alg in ALGORITHMS:
            path = trial_trace_path(config.output_dir, 1, alg)
            assert os.path.exists(path)
            assert read_trace_csv(path).horizon == config.horizon
        assert os.listdir(os.path.join(config.output_dir, "oracle_cache"))


class TestRegistry:
    def test_algorithms_are_the_registry_keys(self):
        assert ALGORITHMS == tuple(STARTS) == ("SDGM", "DGM", "FDGM", "NDGM")

    def test_runners_look_loops_up_at_call_time(self, tiny, tiny_constants, monkeypatch):
        """Each registry entry finds its start function on its module when called."""
        calls = []
        start_dgm = baselines.start_dgm

        def recording(batch, constants, *args, **kwargs):
            calls.append(batch.size)
            return start_dgm(batch, constants, *args, **kwargs)

        monkeypatch.setattr(baselines, "start_dgm", recording)
        trace = run_algorithm("DGM", tiny, tiny_constants, 7)
        assert calls == [1]
        assert trace.algorithm == "DGM" and trace.horizon == 7


class TestBatching:
    """Trials priced together give the bytes they give when priced alone."""

    HORIZON = 200
    TRIALS = 100

    @pytest.fixture(scope="class")
    def gate_trials(self):
        problems = [gate_problem(k) for k in range(self.TRIALS)]
        constants = [compute_constants(p) for p in problems]
        # a stand-in reference optimum: the oracle is not what is under test
        x_stars = [np.full(p.n, 0.05) for p in problems]
        f_stars = [p.objective(x) for p, x in zip(problems, x_stars)]
        return problems, constants, x_stars, f_stars

    def trace_texts(self, algorithms, gate_trials, size):
        """(algorithm, trial id) -> trace CSV text, pricing `size` trials a batch."""
        problems, constants, x_stars, f_stars = gate_trials
        texts = {}
        for start in range(0, self.TRIALS, size):
            ids = list(range(start, min(start + size, self.TRIALS)))
            traces = run_batch(
                algorithms,
                ProblemBatch([problems[k] for k in ids]),
                [constants[k] for k in ids],
                self.HORIZON,
                [None] * len(ids),
                ids,
                [f_stars[k] for k in ids],
                np.concatenate([x_stars[k] for k in ids]),
            )
            for trace in traces:
                buffer = io.StringIO()
                trace.write_csv(buffer)
                texts[trace.algorithm, trace.trial_id] = buffer.getvalue()
        return texts

    def test_traces_are_views_of_the_table_they_fill(self, tiny, tiny_constants):
        """run_batch records into the table it is given, in place: no trace keeps a copy."""
        table = np.full((len(METRIC_COLUMNS), 5, 2, 1), np.nan)
        traces = run_batch(
            ("SDGM", "DGM"), ProblemBatch([tiny]), [tiny_constants], 5, [None], [7], [0.0],
            np.zeros(tiny.n), table,
        )
        assert not np.isnan(table).any()
        assert [(trace.algorithm, trace.trial_id) for trace in traces] == [("SDGM", 7), ("DGM", 7)]
        for a, trace in enumerate(traces):
            for m, column in enumerate(trace.metrics().values()):
                assert np.shares_memory(column, table[m, :, a, 0])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_traces_do_not_depend_on_batch_size(self, algorithm, gate_trials):
        alone = self.trace_texts((algorithm,), gate_trials, 1)
        assert len(alone) == self.TRIALS
        assert self.trace_texts((algorithm,), gate_trials, 7) == alone
        assert self.trace_texts((algorithm,), gate_trials, self.TRIALS) == alone

    @pytest.fixture(scope="class")
    def priced_alone(self, gate_trials):
        """Every trace with each trial and each algorithm priced on its own."""
        texts = {}
        for algorithm in ALGORITHMS:
            texts |= self.trace_texts((algorithm,), gate_trials, 1)
        return texts

    @pytest.mark.parametrize("size", [1, 7, TRIALS])
    def test_algorithms_priced_together_match_priced_alone(
        self, size, gate_trials, priced_alone
    ):
        together = self.trace_texts(ALGORITHMS, gate_trials, size)
        assert len(together) == len(ALGORITHMS) * self.TRIALS
        for key, text in priced_alone.items():
            assert together[key] == text, key

    def test_subset_in_any_order_writes_the_bytes_of_the_full_compare(self, tmp_path):
        full = small_config(tmp_path / "full")
        subset = small_config(tmp_path / "subset", algorithms=("NDGM", "SDGM"))
        run_experiment(full)
        run_experiment(subset)
        texts, full_texts = read_all(subset.output_dir), read_all(full.output_dir)
        assert sorted(texts) == [
            f"trial_{k:04d}_{alg}.csv" for k in range(full.trials) for alg in ("NDGM", "SDGM")
        ]
        assert texts == {name: full_texts[name] for name in texts}

    def test_failing_trial_is_named_inside_a_batch(self, tmp_path):
        config = ExperimentConfig(
            master_seed=1, algorithms=("FDGM",), output_dir=str(tmp_path)
        )
        os.makedirs(tmp_path / "traces")
        os.makedirs(tmp_path / "oracle_cache")
        expected = r"^trial 32 \(seed 5418039791164437117\) failed: user 0 faces price 0.0 "
        with pytest.raises(RuntimeError, match=expected):
            run_trials(config, range(31, 34))

    def test_failing_trial_is_named_inside_a_fused_batch(self, tmp_path):
        config = ExperimentConfig(master_seed=1, output_dir=str(tmp_path))
        os.makedirs(tmp_path / "traces")
        os.makedirs(tmp_path / "oracle_cache")
        expected = r"^trial 32 \(seed 5418039791164437117\) failed: user 0 faces price 0.0 "
        with pytest.raises(RuntimeError, match=expected):
            run_trials(config, range(31, 34))

    def test_failing_trial_is_named_inside_a_forked_block(self, tmp_path):
        """Trial 32 fails in the second of two blocks, which a forked worker prices."""
        config = ExperimentConfig(
            master_seed=1, algorithms=("FDGM",), trials=34, workers=2, output_dir=str(tmp_path)
        )
        assert 32 in trial_blocks(config.trials, config.workers)[1]
        expected = r"^trial 32 \(seed 5418039791164437117\) failed: user 0 faces price 0.0 "
        with pytest.raises(RuntimeError, match=expected):
            run_experiment(config)

    def test_blocks_are_contiguous_and_balanced(self):
        assert trial_blocks(10, 3) == [range(0, 3), range(3, 6), range(6, 10)]
        assert trial_blocks(2, 4) == [range(0, 1), range(1, 2)]
        assert trial_blocks(5, 1) == trial_blocks(5, 0) == [range(0, 5)]


class TestRunExperiment:
    def test_full_small_run(self, tmp_path):
        config = small_config(tmp_path)
        summary = run_experiment(config)
        assert summary.trials == config.trials
        assert summary.algorithms == ALGORITHMS
        for alg in ALGORITHMS:
            for metric in METRIC_COLUMNS:
                assert summary.mean[(alg, metric)].shape == (config.horizon,)
                assert (summary.std[(alg, metric)] >= 0).all()
        assert set(summary.regret_scaled_final) == {0, 1, 2}

        out = config.output_dir
        assert os.path.exists(os.path.join(out, "summary.csv"))
        assert os.path.exists(os.path.join(out, "sdgm_regret_scaled.csv"))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["master_seed"] == 5
        assert [m["trial_id"] for m in manifest["trials"]] == [0, 1, 2]
        assert len(os.listdir(os.path.join(out, "traces"))) == 3 * len(ALGORITHMS)

    def test_regret_scaled_rows(self, tmp_path):
        """One row per trial, in trial order: SDGM's R(T)/sqrt(T) from its trace."""
        config = small_config(tmp_path, workers=2)
        run_experiment(config)
        expected = ["trial_id,regret_final_over_sqrt_horizon"]
        for trial_id in range(config.trials):
            trace = read_trace_csv(trial_trace_path(config.output_dir, trial_id, "SDGM"))
            expected.append(f"{trial_id},{trace.regret_cum[-1] / np.sqrt(config.horizon):.17g}")
        with open(os.path.join(config.output_dir, "sdgm_regret_scaled.csv")) as fh:
            assert fh.read().splitlines() == expected

    def test_safe_traces_never_violate(self, tmp_path):
        config = small_config(tmp_path)
        run_experiment(config)
        for trial_id in range(config.trials):
            trace = read_trace_csv(trial_trace_path(config.output_dir, trial_id, "SDGM"))
            assert (trace.min_slack >= -1e-9).all()
            assert (trace.infeasibility == 0.0).all()

    def test_subset_of_algorithms(self, tmp_path):
        config = small_config(tmp_path, algorithms=("SDGM", "DGM"), trials=2)
        summary = run_experiment(config)
        assert summary.algorithms == ("SDGM", "DGM")
        assert len(os.listdir(os.path.join(config.output_dir, "traces"))) == 4

    def test_serial_and_parallel_runs_are_byte_identical(self, tmp_path):
        serial = small_config(tmp_path / "a")
        parallel = small_config(tmp_path / "b", workers=2)
        run_experiment(serial)
        run_experiment(parallel)
        assert read_all(serial.output_dir) == read_all(parallel.output_dir)
        summary_a = open(os.path.join(serial.output_dir, "summary.csv")).read()
        summary_b = open(os.path.join(parallel.output_dir, "summary.csv")).read()
        assert summary_a == summary_b

    def test_repeat_run_reuses_oracle_cache(self, tmp_path):
        config = small_config(tmp_path, trials=2)
        run_experiment(config)
        cache_dir = os.path.join(config.output_dir, "oracle_cache")
        before = {
            name: os.path.getmtime(os.path.join(cache_dir, name))
            for name in os.listdir(cache_dir)
        }
        traces_before = read_all(config.output_dir)
        run_experiment(config)
        after = {
            name: os.path.getmtime(os.path.join(cache_dir, name))
            for name in os.listdir(cache_dir)
        }
        assert after == before  # cache hits, no rewrites
        assert read_all(config.output_dir) == traces_before

    def test_oracle_cache_ignores_optima_of_another_solver(self, tmp_path):
        """A cache file under the bare problem hash, as an older solver wrote it,
        is never read: the cache file name names the solver."""
        config = small_config(tmp_path, trials=1)
        problem = generate_random(replace(config.generator, seed=derive_trial_seed(5, 0)))
        cache_dir = os.path.join(config.output_dir, "oracle_cache")
        os.makedirs(cache_dir)
        solution = solve_optimal(problem)
        with open(os.path.join(cache_dir, f"{problem_hash(problem)}.json"), "w") as fh:
            json.dump(solution.to_dict() | {"f_star": -12345.0}, fh)
        run_experiment(config)
        manifest = json.load(open(os.path.join(config.output_dir, "manifest.json")))
        assert manifest["trials"][0]["f_star"] == solution.f_star


class TestAggregateAndReport:
    def test_aggregate_matches_manual_stats(self, tmp_path):
        config = small_config(tmp_path, algorithms=("DGM",), trials=3)
        run_experiment(config)
        traces = [
            read_trace_csv(trial_trace_path(config.output_dir, k, "DGM"))
            for k in range(3)
        ]
        summary = aggregate(traces, ("DGM",), config.horizon)
        stacked = np.vstack([tr.objective for tr in traces])
        assert np.array_equal(summary.mean[("DGM", "objective")], stacked.mean(axis=0))
        assert np.array_equal(summary.std[("DGM", "objective")], stacked.std(axis=0))

    def test_report_rebuilds_summary(self, tmp_path):
        config = small_config(tmp_path)
        run_experiment(config)
        summary_path = os.path.join(config.output_dir, "summary.csv")
        original = open(summary_path).read()
        os.remove(summary_path)
        summary = report(config.output_dir)
        assert summary.trials == config.trials
        assert open(summary_path).read() == original

    def test_report_summary_does_not_depend_on_recorded_workers(self, tmp_path):
        config = small_config(tmp_path, trials=5, workers=1)
        run_experiment(config)
        manifest_path = os.path.join(config.output_dir, "manifest.json")
        summary_path = os.path.join(config.output_dir, "summary.csv")
        compared = open(summary_path).read()
        manifest = json.load(open(manifest_path))
        for workers in (1, 2):
            manifest["config"]["workers"] = workers
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh)
            os.remove(summary_path)
            assert report(config.output_dir).trials == 5
            assert open(summary_path).read() == compared

    def test_report_reads_only_the_recorded_run(self, tmp_path):
        run_experiment(small_config(tmp_path, trials=5))
        config = small_config(tmp_path, trials=3)
        run_experiment(config)
        summary_path = os.path.join(config.output_dir, "summary.csv")
        compared = open(summary_path).read()
        summary = report(config.output_dir)
        assert summary.trials == 3
        assert open(summary_path).read() == compared

    def test_report_names_missing_trace(self, tmp_path):
        config = small_config(tmp_path, trials=2)
        run_experiment(config)
        path = trial_trace_path(config.output_dir, 1, "FDGM")
        os.remove(path)
        with pytest.raises(TraceMismatchError, match=re.escape(path)):
            report(config.output_dir)

    def test_report_names_trace_of_other_horizon(self, tmp_path):
        config = small_config(tmp_path, trials=2)
        run_experiment(config)
        path = trial_trace_path(config.output_dir, 0, "NDGM")
        lines = open(path).readlines()
        open(path, "w").writelines(lines[:-1])
        with pytest.raises(TraceMismatchError, match=re.escape(path)):
            report(config.output_dir)

    def test_report_without_traces_fails(self, tmp_path):
        os.makedirs(tmp_path / "empty" / "traces")
        with pytest.raises(FileNotFoundError):
            report(str(tmp_path / "empty"))
