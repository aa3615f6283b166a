import io
import json
import multiprocessing
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import gate_problem
from safedual import baselines, harness
from safedual.harness import (
    ALGORITHMS,
    STARTS,
    ConfigError,
    ExperimentConfig,
    TraceMismatchError,
    aggregate,
    available_workers,
    deal,
    derive_trial_seed,
    report,
    run_algorithm,
    run_batch,
    run_experiment,
    run_trial,
    trial_blocks,
    trial_trace_path,
)
from safedual.oracle import kkt_residual, solve_optimal
from safedual.problem import (
    GeneratorConfig,
    ProblemBatch,
    compute_constants,
    generate_random,
    problem_hash,
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
        name: Path(trace_dir, name).read_text()
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
        config = small_config(tmp_path, gamma=0.7)
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
        assert available_workers() == len(os.sched_getaffinity(0))

    def test_check_refuses_workers_without_fork(self, tmp_path, monkeypatch):
        # Without fork the count falls to one process; a good config still passes check(),
        # and a document that tries to set a worker count is refused by name.
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert available_workers() == 1
        config = small_config(tmp_path)
        config.check()
        with pytest.raises(ConfigError, match="workers"):
            ExperimentConfig.from_dict({**config.to_dict(), "workers": 2})


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
        trace = run_algorithm("DGM", tiny, tiny_constants, 7, f_star=0.0, x_star=np.zeros(tiny.n))
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

    @pytest.fixture
    def zeroing_fdgm(self, monkeypatch):
        """FDGM whose update zeroes the duals of the trial seeded
        derive_trial_seed(1, 32), so from round 2 its user 0 faces price 0."""
        doomed = derive_trial_seed(1, 32)
        start_fdgm = baselines.start_fdgm

        def zeroing(batch, constants):
            lam, update = start_fdgm(batch, constants)
            rows = np.array([problem.seed == doomed for problem in batch.problems])[batch.row_trial]

            def step(lam, x, load, t):
                lam_next = update(lam, x, load, t)
                lam_next[rows] = 0.0
                return lam_next

            return lam, step

        monkeypatch.setattr(baselines, "start_fdgm", zeroing)

    def test_failing_trial_is_named_inside_a_batch(self, tmp_path, zeroing_fdgm, monkeypatch):
        """Trial 32 fails inside the one block of 34 trials, which the caller prices."""
        monkeypatch.setattr(harness, "available_workers", lambda: 1)
        config = ExperimentConfig(
            master_seed=1, algorithms=("FDGM",), trials=34, output_dir=str(tmp_path)
        )
        expected = r"^trial 32 \(seed 5418039791164437117\) failed: user 0 faces price 0.0 "
        with pytest.raises(RuntimeError, match=expected):
            run_experiment(config)

    def test_failing_trial_is_named_inside_a_fused_batch(self, tmp_path, zeroing_fdgm, monkeypatch):
        """As above, with every algorithm priced in one fused batch."""
        monkeypatch.setattr(harness, "available_workers", lambda: 1)
        config = ExperimentConfig(master_seed=1, trials=34, output_dir=str(tmp_path))
        expected = r"^trial 32 \(seed 5418039791164437117\) failed: user 0 faces price 0.0 "
        with pytest.raises(RuntimeError, match=expected):
            run_experiment(config)

    def test_failing_trial_is_named_inside_a_forked_block(self, tmp_path, zeroing_fdgm, monkeypatch):
        """Trial 32 fails in the second of two blocks, which a forked worker prices."""
        monkeypatch.setattr(harness, "available_workers", lambda: 2)
        config = ExperimentConfig(
            master_seed=1, algorithms=("FDGM",), trials=34, output_dir=str(tmp_path)
        )
        assert 32 in trial_blocks(config.trials, 2)[1]
        expected = r"^trial 32 \(seed 5418039791164437117\) failed: user 0 faces price 0.0 "
        with pytest.raises(RuntimeError, match=expected):
            run_experiment(config)

    def test_blocks_are_contiguous_and_balanced(self):
        assert trial_blocks(10, 3) == [range(0, 3), range(3, 6), range(6, 10)]
        assert trial_blocks(2, 4) == [range(0, 1), range(1, 2)]
        assert trial_blocks(5, 1) == trial_blocks(5, 0) == [range(0, 5)]

    def test_deal_hands_out_every_unit_once_and_balanced(self):
        rng = np.random.default_rng(0)
        for size, hands in ((1, 1), (3, 2), (12, 2), (16, 3), (400, 2), (37, 5)):
            costs = rng.integers(1, 10_000, size).tolist()
            dealt = deal(costs, hands)
            assert dealt == deal(costs, hands)
            assert len(dealt) == min(size, hands) and all(dealt)
            assert sorted(i for hand in dealt for i in hand) == list(range(size))
            loads = [sum(costs[i] for i in hand) for hand in dealt]
            assert max(loads) - min(loads) <= max(costs)
        assert deal([5, 5, 5, 5], 2) == [[0, 2], [1, 3]]
        assert deal([], 3) == [[]]


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

        out = config.output_dir
        assert os.path.exists(os.path.join(out, "summary.csv"))
        assert os.path.exists(os.path.join(out, "sdgm_regret_scaled.csv"))
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 5
        assert [m["trial_id"] for m in manifest["trials"]] == [0, 1, 2]
        assert len(os.listdir(os.path.join(out, "traces"))) == 3 * len(ALGORITHMS)

    def test_regret_scaled_rows(self, tmp_path, monkeypatch):
        """One row per trial, in trial order: SDGM's R(T)/sqrt(T) from its trace."""
        monkeypatch.setattr(harness, "available_workers", lambda: 2)
        config = small_config(tmp_path)
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

    def test_serial_and_parallel_runs_are_byte_identical(self, tmp_path, monkeypatch):
        serial = small_config(tmp_path / "a")
        parallel = small_config(tmp_path / "b")
        monkeypatch.setattr(harness, "available_workers", lambda: 1)
        run_experiment(serial)
        monkeypatch.setattr(harness, "available_workers", lambda: 2)
        run_experiment(parallel)
        assert read_all(serial.output_dir) == read_all(parallel.output_dir)
        summary_a = Path(serial.output_dir, "summary.csv").read_text()
        summary_b = Path(parallel.output_dir, "summary.csv").read_text()
        assert summary_a == summary_b

    def test_failed_table_save_leaves_no_table_file(self, tmp_path, monkeypatch):
        """A save of traces.npy that fails part way is raised, and leaves
        neither the table nor its temporary file."""
        config = small_config(tmp_path)

        def full_disk(fh, arr):
            fh.write(b"\x93NUMPY")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "save", full_disk)
        with pytest.raises(OSError, match="no space left"):
            run_experiment(config)
        assert [name for name in os.listdir(config.output_dir) if name.startswith("traces.npy")] == []

    def test_manifest_records_each_certified_optimum(self, tmp_path):
        """Each manifest entry holds the optimum its cache file holds, and that
        x* and lambda* certify on the network regenerated from its seed."""
        config = small_config(tmp_path)
        run_experiment(config)
        manifest = json.loads(Path(config.output_dir, "manifest.json").read_text())
        for meta in manifest["trials"]:
            problem = generate_random(replace(config.generator, seed=meta["seed"]))
            x_star, lambda_star = np.array(meta["x_star"]), np.array(meta["lambda_star"])
            assert kkt_residual(problem, x_star, lambda_star) <= 1e-8
            cached = json.loads(Path(
                config.output_dir, "oracle_cache", f"{problem_hash(problem)}.json"
            ).read_text())
            assert (meta["x_star"], meta["lambda_star"]) == (
                cached["x_star"], cached["lambda_star"]
            )

    def test_repeat_run_rewrites_the_same_optima(self, tmp_path):
        """A rerun into the same directory solves every optimum again and
        writes the same optimum files, under the same names, and the same traces."""
        config = small_config(tmp_path, trials=2)
        cache_dir = os.path.join(config.output_dir, "oracle_cache")

        def optima():
            return {
                name: Path(cache_dir, name).read_text() for name in os.listdir(cache_dir)
            }

        run_experiment(config)
        before, traces_before = optima(), read_all(config.output_dir)
        assert len(before) == 2
        run_experiment(config)
        assert optima() == before
        assert read_all(config.output_dir) == traces_before

    def test_planted_optimum_file_is_never_read(self, tmp_path):
        """An optimum file planted under the very name the run writes, holding
        a wrong f_star, is never read: the run solves the optimum and
        overwrites the file with it."""
        config = small_config(tmp_path, trials=1)
        problem = generate_random(replace(config.generator, seed=derive_trial_seed(5, 0)))
        cache_dir = os.path.join(config.output_dir, "oracle_cache")
        os.makedirs(cache_dir)
        solution = solve_optimal(problem)
        path = os.path.join(cache_dir, f"{problem_hash(problem)}.json")
        with open(path, "w") as fh:
            json.dump(solution.to_dict() | {"f_star": -12345.0}, fh)
        run_experiment(config)
        manifest = json.loads(Path(config.output_dir, "manifest.json").read_text())
        assert manifest["trials"][0]["f_star"] == solution.f_star
        assert os.listdir(cache_dir) == [os.path.basename(path)]
        assert json.loads(Path(path).read_text()) == solution.to_dict()


class TestAggregateAndReport:
    def test_aggregate_matches_manual_stats(self, tmp_path):
        config = small_config(tmp_path, algorithms=("DGM",), trials=3)
        run_experiment(config)
        traces = [
            read_trace_csv(trial_trace_path(config.output_dir, k, "DGM"))
            for k in range(3)
        ]
        # (metric, round, algorithm, trial), as a run records it
        table = np.array([[[*tr.metrics().values()] for tr in traces]]).transpose(2, 3, 0, 1)
        summary = aggregate(table, ("DGM",))
        stacked = np.vstack([tr.objective for tr in traces])
        assert np.array_equal(summary.mean[("DGM", "objective")], stacked.mean(axis=0))
        assert np.array_equal(summary.std[("DGM", "objective")], stacked.std(axis=0))

        # Wider tables, whose trial axis a strided reduction would sum in
        # another order: 8 and 12 trials, and a strided slice of 8 of them.
        algorithms = ("SDGM", "DGM")
        larger = np.random.default_rng(0).lognormal(0.0, 3.0, (len(METRIC_COLUMNS), 40, 2, 12))
        for table, trials in ((larger[..., :8], 8), (larger, 12), (larger[..., 1:9], 8)):
            summary = aggregate(table, algorithms)
            assert summary.trials == trials
            for a, alg in enumerate(algorithms):
                for i, metric in enumerate(METRIC_COLUMNS):
                    stacked = np.vstack([table[i, :, a, k] for k in range(trials)])
                    assert np.array_equal(summary.mean[(alg, metric)], stacked.mean(axis=0))
                    assert np.array_equal(summary.std[(alg, metric)], stacked.std(axis=0))

    def test_report_rebuilds_summary(self, tmp_path):
        config = small_config(tmp_path)
        run_experiment(config)
        summary_path = os.path.join(config.output_dir, "summary.csv")
        original = Path(summary_path).read_text()
        os.remove(summary_path)
        summary = report(config.output_dir)
        assert summary.trials == config.trials
        assert Path(summary_path).read_text() == original

    def test_report_sums_in_trial_order_whatever_the_manifest_order(self, tmp_path):
        config = small_config(tmp_path, trials=20)
        run_experiment(config)
        manifest_path = os.path.join(config.output_dir, "manifest.json")
        summary_path = os.path.join(config.output_dir, "summary.csv")
        compared = Path(summary_path).read_text()
        manifest = json.loads(Path(manifest_path).read_text())
        manifest["trials"].reverse()
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        os.remove(summary_path)
        assert report(config.output_dir).trials == 20
        assert Path(summary_path).read_text() == compared

    def _refusal(self, tmp_path, monkeypatch, edit, trials=2):
        """What `report` raises on the manifest that `edit` leaves of a run of
        `trials` trials, and the manifest's path.  It must raise before it
        reads the trace table or starts a worker, and write no summary.csv."""
        monkeypatch.setattr(harness, "available_workers", lambda: 2)
        config = small_config(tmp_path, trials=trials)
        run_experiment(config)
        manifest_path = os.path.join(config.output_dir, "manifest.json")
        summary_path = os.path.join(config.output_dir, "summary.csv")
        manifest = json.loads(Path(manifest_path).read_text())
        edit(manifest)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        os.remove(summary_path)

        def refused(*args, **kwargs):
            raise AssertionError("report read the trace table or started a worker")

        monkeypatch.setattr(np, "load", refused)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", refused)
        with pytest.raises(Exception) as raised:
            report(config.output_dir)
        assert not os.path.exists(summary_path)
        return raised.value, manifest_path

    def test_report_refuses_manifest_without_trials(self, tmp_path, monkeypatch):
        error, manifest_path = self._refusal(tmp_path, monkeypatch, lambda m: m["trials"].clear())
        assert type(error) is TraceMismatchError
        assert re.search(re.escape(manifest_path), str(error))

    def test_report_refuses_manifest_with_repeated_trial(self, tmp_path, monkeypatch):
        def repeat(manifest):
            manifest["trials"].append(manifest["trials"][1])

        error, manifest_path = self._refusal(tmp_path, monkeypatch, repeat, trials=3)
        assert type(error) is TraceMismatchError
        assert re.match(rf"^{re.escape(manifest_path)} .*trial 1\b", str(error))

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m["trials"].pop(1), 1),
        (lambda m: m["trials"].pop(), 2),
        (lambda m: m["trials"].append({**m["trials"][0], "trial_id": 3}), 3),
    ], ids=["lost-middle", "lost-last", "extra"])
    def test_report_refuses_manifest_whose_trials_are_not_its_config_trials(
        self, tmp_path, monkeypatch, edit, named
    ):
        """A manifest must list trials 0 to trials - 1, as `compare` writes
        them; the error names the first trial missing or extra."""
        error, manifest_path = self._refusal(tmp_path, monkeypatch, edit, trials=3)
        assert type(error) is TraceMismatchError
        assert re.match(rf"^{re.escape(manifest_path)} .*trial {named}\b", str(error))

    @pytest.mark.parametrize("settings, error_type, message", [
        ({"algorithms": []}, ValueError, "no algorithms"),
        ({"algorithms": ["SDGM", "SDGM"]}, ValueError, "repeated algorithms"),
        ({"horizon": "30"}, ValueError, "horizon"),
        ({"workers": 2}, ConfigError, "workers"),
    ], ids=["no-algorithms", "repeated-algorithm", "str-horizon", "recorded-workers"])
    def test_report_refuses_manifest_with_bad_setting(
        self, tmp_path, monkeypatch, settings, error_type, message
    ):
        """A config that `compare` refuses, or one that names a field the
        config does not have, such as the worker count older manifests record."""
        error, _ = self._refusal(tmp_path, monkeypatch, lambda m: m["config"].update(settings))
        assert type(error) is error_type and message in str(error)

    @pytest.mark.parametrize("trial_id", [0.0, "0", -1, True, None],
                             ids=["float", "str", "negative", "bool", "null"])
    def test_report_refuses_manifest_with_bad_trial_id(self, tmp_path, monkeypatch, trial_id):
        def replace_first(manifest):
            manifest["trials"][0]["trial_id"] = trial_id

        error, manifest_path = self._refusal(tmp_path, monkeypatch, replace_first)
        assert type(error) is TraceMismatchError
        assert str(error).startswith(f"{manifest_path} lists trial id {trial_id!r}")

    def test_report_forks_no_more_workers_than_this_machine_runs(self, tmp_path, monkeypatch):
        config = small_config(tmp_path, trials=8)
        run_experiment(config)
        summary_path = os.path.join(config.output_dir, "summary.csv")
        compared = Path(summary_path).read_text()
        pools = []

        class RecordingPool(harness.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        os.remove(summary_path)
        assert report(config.output_dir).trials == 8
        assert all(workers <= available_workers() - 1 for workers in pools)
        assert Path(summary_path).read_text() == compared

    def test_report_reads_in_process_without_fork(self, tmp_path, monkeypatch):
        """As on a platform without fork: one process."""
        config = small_config(tmp_path)
        run_experiment(config)
        summary_path = os.path.join(config.output_dir, "summary.csv")
        compared = Path(summary_path).read_text()

        def no_pool(*args, **kwargs):
            raise AssertionError("report started a worker process")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        os.remove(summary_path)
        assert report(config.output_dir).trials == 3
        assert Path(summary_path).read_text() == compared

    def test_report_reads_only_the_recorded_run(self, tmp_path):
        run_experiment(small_config(tmp_path, trials=5))
        config = small_config(tmp_path, trials=3)
        run_experiment(config)
        summary_path = os.path.join(config.output_dir, "summary.csv")
        compared = Path(summary_path).read_text()
        summary = report(config.output_dir)
        assert summary.trials == 3
        assert Path(summary_path).read_text() == compared

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_summary_part_file_outlives_a_run(self, tmp_path, monkeypatch, workers):
        """Neither compare nor report leaves a part file of summary.csv, whether
        it ends normally or writing a section fails."""
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        config = small_config(tmp_path)

        def parts():
            return [name for name in os.listdir(config.output_dir) if name.startswith("summary.csv.")]

        run_experiment(config)
        assert parts() == []
        report(config.output_dir)
        assert parts() == []
        summary_path = os.path.join(config.output_dir, "summary.csv")
        written = Path(summary_path).read_text()

        def full_disk(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(harness, "write_rows", full_disk)
        with pytest.raises(OSError, match="no space left"):
            run_experiment(config)
        assert parts() == []
        with pytest.raises(OSError, match="no space left"):
            report(config.output_dir)
        assert parts() == []
        assert Path(summary_path).read_text() == written

    def test_summary_header_and_sections_end_lines_alike(self, tmp_path, monkeypatch):
        """As where text files end lines with \\r\\n: the header and the joined
        sections of summary.csv all do."""
        monkeypatch.setattr(harness, "available_workers", lambda: 2)
        config = small_config(tmp_path)
        run_experiment(config)
        path = Path(config.output_dir, "summary.csv")
        written = path.read_bytes()

        def crlf_open(file, mode="r", *args, **kwargs):
            if "w" in mode and "b" not in mode:
                kwargs["newline"] = "\r\n"
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(harness, "open", crlf_open, raising=False)
        report(config.output_dir)
        assert path.read_bytes() == written.replace(b"\n", b"\r\n")

    def test_report_names_missing_table(self, tmp_path):
        """A run directory without traces.npy, such as one written before
        `compare` saved its table, is refused by the table's name."""
        config = small_config(tmp_path, trials=2)
        run_experiment(config)
        path = os.path.join(config.output_dir, "traces.npy")
        os.remove(path)
        with pytest.raises(TraceMismatchError, match=re.escape(path)):
            report(config.output_dir)

    @pytest.mark.parametrize("edit", [
        lambda table: table[:, :-1],
        lambda table: table[..., :-1],
        lambda table: table[:, :, :-1],
        lambda table: table.astype(np.float32),
        lambda table: table.astype(table.dtype.newbyteorder()),
    ], ids=["round", "trial", "algorithm", "float32", "byte-swapped"])
    def test_report_names_mismatched_table(self, tmp_path, edit):
        """A table saved with one round, trial or algorithm fewer than the
        manifest's config, or in any type but native float64, is refused by
        name, and no summary.csv is written."""
        config = small_config(tmp_path, trials=2)
        run_experiment(config)
        path = os.path.join(config.output_dir, "traces.npy")
        np.save(path, edit(np.load(path)))
        summary_path = os.path.join(config.output_dir, "summary.csv")
        os.remove(summary_path)
        with pytest.raises(TraceMismatchError, match=re.escape(path)):
            report(config.output_dir)
        assert not os.path.exists(summary_path)

    def test_report_without_traces_fails(self, tmp_path):
        os.makedirs(tmp_path / "empty" / "traces")
        with pytest.raises(FileNotFoundError):
            report(str(tmp_path / "empty"))
