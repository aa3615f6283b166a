import errno
import io
import json
import mmap
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import gate_problem
from safedual import baselines, cli, harness
from safedual import trace as trace_module
from safedual.agents import UnboundedSubproblemError
from safedual.harness import (
    ALGORITHMS,
    STARTS,
    ConfigError,
    ExperimentConfig,
    TraceMismatchError,
    aggregate,
    available_workers,
    blocks,
    derive_trial_seed,
    report,
    run_algorithm,
    run_batch,
    run_experiment,
    run_trial,
    trial_trace_path,
)
from safedual.oracle import OracleConvergenceError, kkt_residual, solve_optimal
from safedual.problem import (
    GeneratorConfig,
    ProblemBatch,
    compute_constants,
    generate_random,
    problem_hash,
)
from safedual.trace import METRIC_COLUMNS, TrialTrace, read_trace_csv

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


def npz_archive(table) -> bytes:
    """`table` saved as np.savez saves it: a zip archive, not a .npy file."""
    buffer = io.BytesIO()
    np.savez(buffer, table=table)
    return buffer.getvalue()


def run_files(output_dir):
    """The bytes of every file a run derives from its pricing, by name:
    traces.npy, summary.csv, sdgm_regret_scaled.csv and each trace CSV."""
    names = ["traces.npy", "summary.csv", "sdgm_regret_scaled.csv"]
    names += [os.path.join("traces", name) for name in os.listdir(os.path.join(output_dir, "traces"))]
    return {name: Path(output_dir, name).read_bytes() for name in names}


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
        monkeypatch.delattr(os, "fork")
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
        """run_batch records into one table of every round: no trace keeps a copy."""
        traces = run_batch(
            ("SDGM", "DGM"), ProblemBatch([tiny]), [tiny_constants], 5, [None], [7], [0.0],
            np.zeros(tiny.n),
        )
        table = traces[0].objective.base
        assert table.shape == (len(METRIC_COLUMNS), 5, 2, 1)
        assert not np.isnan(table).any()
        assert [(trace.algorithm, trace.trial_id) for trace in traces] == [("SDGM", 7), ("DGM", 7)]
        for a, trace in enumerate(traces):
            for m, column in enumerate(trace.metrics().values()):
                assert np.shares_memory(column, table[m, :, a, 0])

    def test_unbounded_user_is_named_by_its_index_in_the_batch(self, tiny, tiny_constants, monkeypatch):
        """DGM, priced after SDGM in one fused batch of two trials, posts zero
        duals to the second trial: its user 0, user 6 of the fused batch, is
        user 2 of the batch, and the error names user 2."""
        start_dgm = baselines.start_dgm

        def zeroing(batch, constants):
            lam, update = start_dgm(batch, constants)
            return np.where(batch.row_trial == 1, 0.0, lam), update

        monkeypatch.setattr(baselines, "start_dgm", zeroing)
        with pytest.raises(UnboundedSubproblemError, match=r"^user 2 faces price 0.0 ") as raised:
            run_batch(
                ("SDGM", "DGM"), ProblemBatch([tiny, tiny]), [tiny_constants] * 2, 5, [None] * 2,
                [0, 1], [0.0] * 2, np.zeros(2 * tiny.n),
            )
        assert (raised.value.user, raised.value.price) == (2, 0.0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_traces_do_not_depend_on_batch_size(self, algorithm, gate_trials, monkeypatch):
        """Nor on the window: with short chunks and windows of at most 1000
        values, run_batch copies 2 to 200 windows into its table."""
        alone = self.trace_texts((algorithm,), gate_trials, 1)
        assert len(alone) == self.TRIALS
        assert self.trace_texts((algorithm,), gate_trials, 7) == alone
        assert self.trace_texts((algorithm,), gate_trials, self.TRIALS) == alone
        monkeypatch.setattr(trace_module, "BUFFER_VALUES", 256)
        monkeypatch.setattr(trace_module, "WINDOW_VALUES", 1000)
        for size in (1, 7, self.TRIALS):
            assert self.trace_texts((algorithm,), gate_trials, size) == alone, size

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
        assert 32 in blocks(config.trials, 2)[1]
        expected = r"^trial 32 \(seed 5418039791164437117\) failed: user 0 faces price 0.0 "
        with pytest.raises(RuntimeError, match=expected):
            run_experiment(config)

    def test_blocks_are_contiguous_and_balanced(self):
        assert blocks(10, 3) == [range(0, 3), range(3, 6), range(6, 10)]
        assert blocks(2, 4) == [range(0, 1), range(1, 2)]
        assert blocks(5, 1) == blocks(5, 0) == [range(0, 5)]


class TestRunExperiment:
    def test_full_small_run(self, tmp_path):
        config = small_config(tmp_path)
        summary = run_experiment(config)
        assert summary.trials == config.trials
        assert summary.algorithms == ALGORITHMS

        out = config.output_dir
        header, *rows = [row.split(",") for row in Path(out, "summary.csv").read_text().splitlines()]
        stds = [j for j, name in enumerate(header) if name.endswith("_std")]
        assert len(stds) == len(METRIC_COLUMNS)
        for alg in ALGORITHMS:
            section = [row for row in rows if row[0] == alg]
            assert [int(row[1]) for row in section] == list(range(1, config.horizon + 1))
            assert all(float(row[j]) >= 0 for row in section for j in stds)
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
        """A table whose disk blocks cannot be reserved is raised, and leaves
        neither the table nor its temporary file."""
        config = small_config(tmp_path)

        def full_disk(fd, offset, length):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full_disk, raising=False)
        with pytest.raises(OSError, match="no space left"):
            run_experiment(config)
        assert [name for name in os.listdir(config.output_dir) if name.startswith("traces.npy")] == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_disk_is_raised_from_the_table_write(self, tmp_path, monkeypatch, workers):
        """Without posix_fallocate, as on macOS, the table file stays sparse,
        and a write to it that finds the disk full, in the caller's block or
        in a forked one, raises that OSError: the run leaves no traces.npy,
        no temporary of it and no summary.csv or temporary of it, and `report`
        refuses the directory."""
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
        config = small_config(tmp_path)
        assert 2 in blocks(config.trials, workers)[-1]
        trial_bytes = len(config.algorithms) * config.horizon * len(METRIC_COLUMNS) * 8
        pwrite = os.pwrite

        def full_disk(fd, data, pos):
            if pos >= os.fstat(fd).st_size - trial_bytes:  # the slabs of trial 2, the last
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return pwrite(fd, data, pos)

        monkeypatch.setattr(os, "pwrite", full_disk)
        with pytest.raises(OSError) as raised:
            run_experiment(config)
        assert raised.value.errno == errno.ENOSPC
        assert [
            name for name in os.listdir(config.output_dir)
            if name.startswith(("traces.npy", "summary.csv"))
        ] == []
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            report(config.output_dir)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_short_writes_to_the_table_are_retried(self, tmp_path, monkeypatch, workers):
        """A write to the table that stops short, here after at most 5 bytes,
        in the caller's block or in a forked one, is retried from where it
        stopped: the table and the trace CSVs are a default run's."""
        default = small_config(tmp_path / "default")
        run_experiment(default)
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        pwrite = os.pwrite
        monkeypatch.setattr(os, "pwrite", lambda fd, data, pos: pwrite(fd, data[:5], pos))
        config = small_config(tmp_path / "short")
        run_experiment(config)
        traces = sorted(os.listdir(os.path.join(config.output_dir, "traces")))
        assert len(traces) == config.trials * len(config.algorithms)
        for name in ["traces.npy", *(os.path.join("traces", trace) for trace in traces)]:
            assert Path(config.output_dir, name).read_bytes() == Path(default.output_dir, name).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_process_maps_the_table(self, tmp_path, monkeypatch, workers):
        """compare and report, the forked blocks included, fill and read the
        table with plain file writes and reads: with every map refused, they
        write the bytes of a run that may map."""
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        mapped = small_config(tmp_path / "mapped")
        run_experiment(mapped)

        def no_map(*args, **kwargs):
            raise AssertionError("a process mapped a file")

        monkeypatch.setattr(mmap, "mmap", no_map)
        monkeypatch.setattr(np, "memmap", no_map)
        config = small_config(tmp_path / "unmapped")
        run_experiment(config)
        assert run_files(config.output_dir) == run_files(mapped.output_dir)
        os.remove(os.path.join(config.output_dir, "summary.csv"))
        report(config.output_dir)
        assert run_files(config.output_dir) == run_files(mapped.output_dir)

    @pytest.mark.parametrize("window_values", [1, 1000, 1 << 30])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bytes_do_not_depend_on_the_window(self, tmp_path, monkeypatch, workers, window_values):
        """A block's window of rounds one pricing chunk long, several chunks
        long, or longer than the horizon, which is a multiple of neither,
        gives the table and trace CSVs of a default run."""
        default = small_config(tmp_path / "default", horizon=101)
        run_experiment(default)
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        monkeypatch.setattr(trace_module, "BUFFER_VALUES", 256)  # chunks of 2 to 16 rounds
        monkeypatch.setattr(trace_module, "WINDOW_VALUES", window_values)
        written = []  # the rounds of each write of the caller's block
        flush = trace_module.TraceRecorder.flush

        def spy(record):
            written.append(record.recorded - record.written)
            flush(record)

        monkeypatch.setattr(trace_module.TraceRecorder, "flush", spy)
        config = replace(default, output_dir=str(tmp_path / "windowed"))
        run_experiment(config)
        assert run_files(config.output_dir) == run_files(default.output_dir)
        written = [rounds for rounds in written if rounds]
        assert sum(written) == config.horizon
        if window_values < 1 << 30:  # full windows, then the shorter rest
            assert len(set(written[:-1])) == 1 and written[-1] < written[0], written
        else:
            assert written == [config.horizon]

    @pytest.mark.parametrize("algorithms, trials, horizon, window_values, window", [
        (("DGM",), 1, 100, 400, 64),  # narrow: chunks of 32 rounds, 192 values; two fit
        (ALGORITHMS, 3, 100, 100, 2),  # wide: chunks of 2 rounds, 144 values; one alone holds more
        (("DGM",), 1, 50, 400, 50),  # two chunks would fit, but the horizon is shorter
    ])
    def test_window_is_the_most_whole_chunks_that_fit(
        self, tiny, tiny_constants, monkeypatch, algorithms, trials, horizon, window_values, window
    ):
        """A block's window is a whole multiple of the recorder's chunk, or the
        horizon, and at most the horizon; it is Fortran-ordered and holds at
        most WINDOW_VALUES values unless one chunk alone holds more; one
        chunk more would break a bound.  Each round is handed on once."""
        monkeypatch.setattr(trace_module, "BUFFER_VALUES", 64)
        monkeypatch.setattr(trace_module, "WINDOW_VALUES", window_values)
        written = []
        record = harness._record(
            algorithms, ProblemBatch([tiny] * trials), [tiny_constants] * trials, horizon,
            [None] * trials, [0.0] * trials, np.zeros(trials * tiny.n),
            write=lambda first, rows: written.append((first, rows.shape[1])),
        )
        table, chunk = record.table, len(record.xs)
        per_round = table.size // table.shape[1]
        assert table.flags.f_contiguous and table.shape[1] == window
        assert window <= horizon and (window % chunk == 0 or window == horizon)
        assert window * per_round <= window_values or window == chunk
        assert window == horizon or (window + chunk) * per_round > window_values
        assert [first for first, _ in written] == list(range(1, horizon + 1, window))
        assert sum(rounds for _, rounds in written) == horizon

    def test_table_file_is_what_np_save_writes(self, tmp_path, monkeypatch):
        """The table that the blocks fill in place, one of them forked, has the
        bytes that np.save writes of it: its header and its values.  It is in
        Fortran order, so each block's trials are one byte range of it."""
        monkeypatch.setattr(harness, "available_workers", lambda: 2)
        config = small_config(tmp_path, trials=2)
        run_experiment(config)
        path = Path(config.output_dir, "traces.npy")
        saved = io.BytesIO()
        np.save(saved, np.load(path))
        assert path.read_bytes() == saved.getvalue()
        assert np.load(path, mmap_mode="r").flags.f_contiguous

    def test_rerun_removes_a_killed_runs_temporary_table(self, tmp_path, monkeypatch):
        """A temporary table that a killed run left, named as _write_whole
        names it, and a temporary of summary.csv named as the parts of an
        older run's summary were, with digits after the pid, are removed by
        the next run into that directory, even one of other algorithms.  A
        file the run does not own is kept, and so is a file or directory
        named as a temporary of an owned directory, which _write_whole never
        makes, and a directory named as a temporary of an owned file."""
        config = small_config(tmp_path, trials=2)
        with monkeypatch.context() as killed:
            killed.setattr(os, "remove", lambda path: None)
            run_experiment(config)
        kept_dirs = ("traces.tmp.7", "summary.csv.tmp.5")
        for name in kept_dirs:
            os.makedirs(os.path.join(config.output_dir, name))
        kept = ("traces.npy.tmp.notes", "notes.txt", "oracle_cache.tmp.42")
        for name in ("traces.npy.tmp.99999", "summary.csv.tmp.999990", *kept):
            Path(config.output_dir, name).write_text("kept?")
        run_experiment(replace(config, algorithms=("DGM",)))
        left = set(os.listdir(config.output_dir)) - set(harness.OWNED)
        assert left == {*kept, *kept_dirs}
        for name in kept:
            assert Path(config.output_dir, name).read_text() == "kept?"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_trace_write_leaves_no_table(self, tmp_path, monkeypatch, workers):
        """A trace CSV whose write fails, in the caller's block or in a forked
        one, is raised before the table or the summary is written: the run
        leaves no traces.npy, no temporary of it and no summary.csv or
        temporary of it, and `report` refuses the directory."""
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        config = small_config(tmp_path)
        assert 2 in blocks(config.trials, workers)[-1]
        write_rows = trace_module.write_rows

        def full_disk(fh, prefix, *args):
            if prefix.startswith("2,"):
                raise OSError("no space left on device")
            write_rows(fh, prefix, *args)

        monkeypatch.setattr(trace_module, "write_rows", full_disk)  # where write_trace writes the CSVs
        with pytest.raises(OSError, match="no space left"):
            run_experiment(config)
        assert [
            name for name in os.listdir(config.output_dir)
            if name.startswith(("traces.npy", "summary.csv"))
        ] == []
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            report(config.output_dir)

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

    def test_rerun_leaves_only_its_own_files(self, tmp_path):
        """A rerun into the same directory, over fewer trials and more
        algorithms, leaves the trace CSVs and optima of its own trials only."""
        out = str(tmp_path / "out")
        common = ["--horizon", "3", "--out", out]
        assert cli.main(["compare", "--trials", "5", "--algorithms", "NDGM,SDGM", *common]) == 0
        assert cli.main(["compare", "--trials", "2", *common]) == 0
        assert sorted(os.listdir(os.path.join(out, "traces"))) == sorted(
            os.path.basename(trial_trace_path(out, k, alg)) for k in range(2) for alg in ALGORITHMS
        )
        manifest = json.loads(Path(out, "manifest.json").read_text())
        config = ExperimentConfig.from_dict(manifest["config"])
        assert sorted(os.listdir(os.path.join(out, "oracle_cache"))) == sorted(
            f"{problem_hash(generate_random(replace(config.generator, seed=meta['seed'])))}.json"
            for meta in manifest["trials"]
        )

    def test_rerun_without_sdgm_leaves_no_sdgm_file(self, tmp_path):
        """A rerun that leaves SDGM out leaves no sdgm_regret_scaled.csv of the
        earlier run, and neither run touches a file of the user's own."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine\n")
        assert cli.main(["compare", "--trials", "2", "--horizon", "5", "--out", str(out)]) == 0
        assert (out / "sdgm_regret_scaled.csv").exists()
        assert cli.main(
            ["compare", "--trials", "3", "--horizon", "5", "--algorithms", "DGM", "--out", str(out)]
        ) == 0
        assert not (out / "sdgm_regret_scaled.csv").exists()
        assert (out / "notes.txt").read_text() == "mine\n"
        assert report(str(out)).trials == 3
        assert not (out / "sdgm_regret_scaled.csv").exists()

    def test_default_step_that_underflows_is_refused_by_trial(self, tmp_path):
        """Utilities this small pass the generator's checks, but the default
        SDGM base step underflows to 0: a run with SDGM is refused while it
        prepares trial 0, naming the trial and its seed, before any optimum is
        solved.  A run without SDGM takes no step and completes."""
        generator = replace(SMALL_GENERATOR, theta_range=(1e-300, 1e-300))
        config = small_config(tmp_path, generator=generator, trials=4, horizon=3)
        seed = derive_trial_seed(config.master_seed, 0)
        with pytest.raises(RuntimeError, match=rf"^trial 0 \(seed {seed}\) failed: gamma must be positive"):
            run_experiment(config)
        assert os.listdir(os.path.join(config.output_dir, "oracle_cache")) == []
        assert run_experiment(replace(config, algorithms=("DGM", "NDGM"))).trials == 4

    def test_failed_rerun_leaves_no_run(self, tmp_path, monkeypatch):
        """A rerun whose pricing fails is raised, and leaves none of the earlier
        run's manifest, table, summary or SDGM file: `report` refuses the
        directory rather than re-read the earlier run."""
        run_experiment(small_config(tmp_path, trials=3, horizon=20))

        def broken(*args, **kwargs):
            raise RuntimeError("pricing failed")

        monkeypatch.setattr(harness, "_record", broken)
        with pytest.raises(RuntimeError, match="pricing failed"):
            run_experiment(small_config(tmp_path, trials=2, horizon=7, algorithms=("DGM",)))
        out = tmp_path / "out"
        for name in ("manifest.json", "traces.npy", "summary.csv", "sdgm_regret_scaled.csv"):
            assert not (out / name).exists(), name
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            report(str(out))

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
        assert Path(path).read_text() == json.dumps(solution.to_dict())

    def test_trace_csvs_hold_no_slab_as_long_as_the_horizon(self, tmp_path, monkeypatch):
        """compare on one worker writes a 65 536-round trace CSV from the
        table CHUNK rounds at a time: once its block is priced, its
        allocations peak under 1 MiB until the summary starts, where the
        slab read back whole would take 3.1 MB.  The CSV has the bytes that
        TrialTrace.write_csv writes of the same values."""
        monkeypatch.setattr(harness, "available_workers", lambda: 1)
        config = ExperimentConfig(
            horizon=1 << 16, trials=1, algorithms=("DGM",), output_dir=str(tmp_path / "out")
        )
        values = np.random.default_rng(0).random((len(METRIC_COLUMNS), config.horizon, 1, 1))
        peaks = []

        def priced(*args, write):  # the block's one window, then trace the CSV phase
            write(1, np.asfortranarray(values))
            tracemalloc.start()

        write_views = harness._write_views

        def views(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            return write_views(*args)

        monkeypatch.setattr(harness, "_record", priced)
        monkeypatch.setattr(harness, "_write_views", views)
        try:
            run_experiment(config)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < 1 << 20, peaks
        expected = io.StringIO()
        TrialTrace(0, "DGM", *values[:, :, 0, 0]).write_csv(expected)
        assert Path(trial_trace_path(config.output_dir, 0, "DGM")).read_text() == expected.getvalue()


def aggregate_saved(tmp_path, table, algorithms):
    """aggregate of every round of each of `algorithms` in `table`, saved in
    Fortran order as compare writes traces.npy: its (metric, round,
    algorithm) arrays of mean and std."""
    path = tmp_path / "table.npy"
    np.save(path, np.asfortranarray(table))
    with open(path, "rb") as fh:
        saved = harness._slab_reader(fh)
        stats = [aggregate(saved, a, range(table.shape[1])) for a in range(len(algorithms))]
    return [np.stack([stat[j].T for stat in stats], axis=2) for j in range(2)]


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
        mean, std = aggregate_saved(tmp_path, table, ("DGM",))
        stacked = np.vstack([tr.objective for tr in traces])
        objective = METRIC_COLUMNS.index("objective")
        assert np.array_equal(mean[objective, :, 0], stacked.mean(axis=0))
        assert np.array_equal(std[objective, :, 0], stacked.std(axis=0))

        # Wider tables, whose trial axis a strided reduction would sum in
        # another order: 8 and 12 trials, and a strided slice of 8 of them;
        # and entries of +0.0 and -0.0, whose sums keep their sign bits only
        # if they start from +0.0.
        algorithms = ("SDGM", "DGM")
        larger = np.random.default_rng(0).lognormal(0.0, 3.0, (len(METRIC_COLUMNS), 40, 2, 12))
        signed = larger.copy()
        signed[0, ::2] = -0.0
        signed[1, ::2, :, ::2] = 0.0
        signed[1, ::2, :, 1::2] = -0.0
        signed[2:, :, :, 5:] *= -1.0
        for table, trials in ((larger[..., :8], 8), (larger, 12), (larger[..., 1:9], 8), (signed, 12)):
            mean, std = aggregate_saved(tmp_path, table, algorithms)
            for a, alg in enumerate(algorithms):
                for i, metric in enumerate(METRIC_COLUMNS):
                    stacked = np.vstack([table[i, :, a, k] for k in range(trials)])
                    assert mean[i, :, a].tobytes() == stacked.mean(axis=0).tobytes()
                    assert std[i, :, a].tobytes() == stacked.std(axis=0).tobytes()

    @pytest.mark.parametrize("save", [
        lambda path, table: np.save(path, np.asfortranarray(table, dtype=np.float32)),
        lambda path, table: np.save(path, np.asfortranarray(table, dtype=">f8")),
        lambda path, table: np.save(path, np.ascontiguousarray(table)),
        lambda path, table: np.save(path, np.asfortranarray(table[0])),
    ], ids=["float32", "byte-swapped", "c-order", "3-d"])
    def test_aggregate_refuses_a_table_it_cannot_read(self, tmp_path, save):
        """A table whose slabs are not native float64 byte ranges is refused
        by a TraceMismatchError that names its file."""
        path = tmp_path / "table.npy"
        save(path, np.random.default_rng(0).random((len(METRIC_COLUMNS), 4, 2, 3)))
        with open(path, "rb") as fh, pytest.raises(TraceMismatchError, match=re.escape(str(path))):
            aggregate(harness._slab_reader(fh), 0, range(4))

    def test_report_holds_no_array_as_long_as_the_horizon(self, tmp_path, monkeypatch):
        """`report` on one worker reduces and writes a 50 000-round table a
        window of rounds at a time: its allocations peak under 4 MiB, where
        the table's whole (metric, round, algorithm) mean and std would take
        4.8 MB each."""
        monkeypatch.setattr(harness, "available_workers", lambda: 1)
        shape = (len(METRIC_COLUMNS), 50_000, 2, 3)
        config = ExperimentConfig(
            horizon=shape[1], trials=shape[3], algorithms=("SDGM", "DGM"), output_dir=str(tmp_path)
        )
        np.save(tmp_path / "traces.npy", np.asfortranarray(np.random.default_rng(0).random(shape)))
        manifest = {"config": config.to_dict(), "trials": [{"trial_id": k} for k in range(shape[3])]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        tracemalloc.start()
        try:
            report(str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert len((tmp_path / "summary.csv").read_text().splitlines()) == 1 + 2 * shape[1]

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
        `trials` trials, and the manifest's path; `edit` edits the manifest in
        place, or is the document to write in its stead.  `report` must raise
        before it reads the trace table or starts a worker, and write no
        summary.csv."""
        monkeypatch.setattr(harness, "available_workers", lambda: 2)
        config = small_config(tmp_path, trials=trials)
        run_experiment(config)
        manifest_path = os.path.join(config.output_dir, "manifest.json")
        summary_path = os.path.join(config.output_dir, "summary.csv")
        manifest = json.loads(Path(manifest_path).read_text())
        if callable(edit):
            edit(manifest)
        else:
            manifest = edit
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        os.remove(summary_path)

        def refused(*args, **kwargs):
            raise AssertionError("report read the trace table or started a worker")

        monkeypatch.setattr(np, "load", refused)
        monkeypatch.setattr(os, "preadv", refused)  # how _slab_reader reads the table
        monkeypatch.setattr(os, "fork", refused)
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
        (lambda m: m["trials"].pop(1), "lacks trial 1"),
        (lambda m: m["trials"].pop(), "lacks trial 2"),
        (lambda m: m["trials"].append({**m["trials"][0], "trial_id": 3}), "lists trial 3, beyond"),
        (lambda m: m["config"].update(trials=10**12), "lacks trial 3"),
    ], ids=["lost-middle", "lost-last", "extra", "claims-more"])
    def test_report_refuses_manifest_whose_trials_are_not_its_config_trials(
        self, tmp_path, monkeypatch, edit, named
    ):
        """A manifest must list trials 0 to trials - 1, as `compare` writes
        them; the error names the first trial missing or extra.  One that
        claims 10**12 trials is refused at its first missing trial, without
        a walk over the trials it claims."""
        error, manifest_path = self._refusal(tmp_path, monkeypatch, edit, trials=3)
        assert type(error) is TraceMismatchError
        assert re.match(rf"^{re.escape(manifest_path)} .*{named}\b", str(error))

    @pytest.mark.parametrize("edit, error_type, key", [
        ([], TraceMismatchError, None),
        (lambda m: m.pop("config"), ConfigError, "config"),
        (lambda m: m.update(trials="01"), TraceMismatchError, "trials"),
        (lambda m: m["trials"].append(7), TraceMismatchError, "trials"),
        (lambda m: m["trials"][0].pop("trial_id"), TraceMismatchError, None),
    ], ids=["list", "no-config", "str-trials", "int-trial", "no-trial-id"])
    def test_report_refuses_malformed_manifest(self, tmp_path, monkeypatch, edit, error_type, key):
        """A manifest that is not an object, that lacks its config, or whose
        trials are not a list of objects with ids, is refused by a typed error
        that names the manifest and the key it lacks."""
        error, manifest_path = self._refusal(tmp_path, monkeypatch, edit)
        assert type(error) is error_type
        assert str(error).startswith(f"{manifest_path} ")
        assert key is None or f'"{key}"' in str(error)

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

    @pytest.mark.parametrize("name, spoil", [
        ("traces.npy", lambda data: data[:200]),
        ("traces.npy", lambda data: b""),
        ("traces.npy", lambda data: b"not a table\n"),
        ("traces.npy", lambda data: npz_archive(np.load(io.BytesIO(data)))),
        ("manifest.json", lambda data: data[:len(data) // 2]),
        ("manifest.json", lambda data: b"\xff" + data),
    ], ids=["truncated", "empty", "not-npy", "npz", "manifest-not-json", "manifest-not-utf8"])
    def test_report_refuses_unreadable_file(self, tmp_path, name, spoil):
        """A trace table or manifest that cannot be read is refused by a
        TraceMismatchError that names it, and no summary.csv is written."""
        config = small_config(tmp_path)
        run_experiment(config)
        path = Path(config.output_dir) / name
        path.write_bytes(spoil(path.read_bytes()))
        summary_path = Path(config.output_dir) / "summary.csv"
        summary_path.unlink()
        with pytest.raises(TraceMismatchError) as raised:
            report(config.output_dir)
        assert str(path) in str(raised.value)
        assert not summary_path.exists()

    def test_report_forks_no_more_workers_than_this_machine_runs(self, tmp_path, monkeypatch):
        """`report` runs in one process, with two CPUs or three, and writes
        the summary `compare` wrote."""
        config = small_config(tmp_path, trials=8)
        run_experiment(config)
        summary_path = os.path.join(config.output_dir, "summary.csv")
        compared = Path(summary_path).read_text()

        def no_fork(*args, **kwargs):
            raise AssertionError("report forked")

        monkeypatch.setattr(os, "fork", no_fork)
        for workers in (2, 3):
            monkeypatch.setattr(harness, "available_workers", lambda: workers)
            os.remove(summary_path)
            assert report(config.output_dir).trials == 8
            assert Path(summary_path).read_text() == compared

    def test_report_reads_in_process_without_fork(self, tmp_path, monkeypatch):
        """As on a platform without fork: one process."""
        config = small_config(tmp_path)
        run_experiment(config)
        summary_path = os.path.join(config.output_dir, "summary.csv")
        compared = Path(summary_path).read_text()

        monkeypatch.delattr(os, "fork")
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
    def test_no_temporary_of_summary_csv_outlives_a_run(self, tmp_path, monkeypatch, workers):
        """Neither compare nor report leaves a temporary of summary.csv, whether
        it ends normally or its write fails; a report whose write fails
        part-way leaves the summary compare wrote, whole."""
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        config = small_config(tmp_path)

        def temporaries():
            return [name for name in os.listdir(config.output_dir) if name.startswith("summary.csv.")]

        run_experiment(config)
        assert temporaries() == []
        report(config.output_dir)
        assert temporaries() == []
        summary_path = os.path.join(config.output_dir, "summary.csv")
        written = Path(summary_path).read_text()

        write_rows, calls = harness.write_rows, []

        def full_disk(*args):  # from the second call on: part-way into report's summary
            calls.append(args)
            if len(calls) > 1:
                raise OSError("no space left on device")
            write_rows(*args)

        monkeypatch.setattr(harness, "write_rows", full_disk)
        with pytest.raises(OSError, match="no space left"):
            report(config.output_dir)
        assert temporaries() == []
        assert Path(summary_path).read_text() == written
        with pytest.raises(OSError, match="no space left"):
            run_experiment(config)
        assert temporaries() == []
        assert not os.path.exists(os.path.join(config.output_dir, "manifest.json"))

    def test_summary_header_and_sections_end_lines_alike(self, tmp_path, monkeypatch):
        """As where text files end lines with \\r\\n: the header and every
        algorithm's rows of summary.csv all do."""
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
        np.ascontiguousarray,
    ], ids=["round", "trial", "algorithm", "float32", "byte-swapped", "c-order"])
    def test_report_names_mismatched_table(self, tmp_path, edit):
        """A table saved with one round, trial or algorithm fewer than the
        manifest's config, in any type but native float64, or in C order, as
        compare wrote it before it wrote Fortran order, is refused by name,
        and no summary.csv is written."""
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


class TestFanOut:
    """fan_out's failure paths at 2 and 3 workers, one block per worker.  On
    each, every child is reaped and the caller's descriptors are as they
    were, and a `compare` that fails this way prints its JSON error once,
    and nothing on stdout, where its children inherit an unflushed stdout."""

    @staticmethod
    def raised(monkeypatch, workers, work):
        """What fan_out(work, workers) raises, once it has reaped every child
        and closed every pipe it opened."""
        monkeypatch.setattr(harness, "available_workers", lambda: workers)
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BaseException) as raised:
            harness.fan_out(work, workers)
        assert len(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return raised.value

    @staticmethod
    def in_last_child(workers, fail):
        """A work that runs fail() in the child of the last block alone."""
        caller = os.getpid()

        def work(block):
            if block.start == workers - 1 and os.getpid() != caller:
                fail()

        return work

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("end, how", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal 9 ({signal.strsignal(9)})"),
        (lambda: os._exit(3), "status 3"),
    ], ids=["sigkill", "exit-3"])
    def test_a_child_that_dies_is_named_by_its_block(self, monkeypatch, workers, end, how):
        error = self.raised(monkeypatch, workers, self.in_last_child(workers, end))
        assert type(error) is RuntimeError
        assert str(error) == f"the child process of block {range(workers - 1, workers)} ended by {how}"

    @pytest.mark.parametrize("workers", [2, 3])
    def test_an_exception_that_cannot_be_pickled_is_named(self, monkeypatch, workers):
        def fail():
            class Local(Exception):
                pass

            raise Local("lost in transit")

        error = self.raised(monkeypatch, workers, self.in_last_child(workers, fail))
        assert type(error) is RuntimeError
        assert str(error) == f"block {range(workers - 1, workers)} failed: Local: lost in transit"

    @pytest.mark.parametrize("workers", [2, 3])
    def test_an_exception_that_cannot_be_rebuilt_is_named(self, monkeypatch, workers):
        """OracleConvergenceError pickles, but its constructor takes three
        arguments, so unpickling it fails."""
        def fail():
            raise OracleConvergenceError("no certificate", 1e-3, 7)

        error = self.raised(monkeypatch, workers, self.in_last_child(workers, fail))
        assert type(error) is RuntimeError
        assert str(error) == (
            f"block {range(workers - 1, workers)} failed: OracleConvergenceError: no certificate"
            " (best certified residual 1.000e-03 after 7 iterations)"
        )

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("failure", [ValueError, KeyboardInterrupt])
    def test_the_callers_failure_is_raised_before_a_childs(self, monkeypatch, workers, failure):
        caller = os.getpid()

        def work(block):
            if os.getpid() == caller:
                raise failure(f"block {block.start}, the caller's")
            raise ValueError(f"block {block.start}, a child's")

        error = self.raised(monkeypatch, workers, work)
        assert type(error) is failure and str(error) == "block 0, the caller's"

    def test_childrens_failures_are_raised_in_block_order(self, monkeypatch):
        def work(block):
            if block.start:
                raise ValueError(f"block {block.start}")

        error = self.raised(monkeypatch, 3, work)
        assert type(error) is ValueError and str(error) == "block 1"

    def test_a_fork_that_fails_is_raised_once_the_forked_child_is_reaped(self, monkeypatch):
        """At 3 workers the second fork fails: its OSError is raised, the
        first child is reaped, and neither pipe stays open."""
        fork, forks = os.fork, []

        def failing_fork():
            forks.append(len(forks))
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        error = self.raised(monkeypatch, 3, lambda block: None)
        assert type(error) is BlockingIOError and error.errno == errno.EAGAIN
        assert len(forks) == 2

    @pytest.mark.parametrize("workers", [2, 3])
    def test_compare_prints_its_result_once_whatever_its_children_do(self, tmp_path, workers):
        """In one process with stdout piped, so block-buffered: a compare that
        succeeds, then one that fails on each path above.  stdout holds the
        first one's JSON once, and stderr one JSON error per failure."""
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import os, signal, sys\n"
            "from safedual import cli, harness\n"
            "from safedual.oracle import OracleConvergenceError\n"
            "workers, out = int(sys.argv[1]), sys.argv[2]\n"
            "harness.available_workers = lambda: workers\n"
            "caller, last = os.getpid(), harness.blocks(3, workers)[-1].start\n"
            "price_into = harness._price_into\n"
            "def unpicklable():\n"
            "    class Local(Exception):\n"
            "        pass\n"
            "    raise Local('lost in transit')\n"
            "def unrebuildable():\n"
            "    raise OracleConvergenceError('no certificate', 1e-3, 7)\n"
            "def child_and_caller():\n"
            "    raise ValueError(\"the child's block\")\n"
            "def failing(fail):\n"
            "    def price(config, prepared, table, first):\n"
            "        if os.getpid() == caller and fail is child_and_caller:\n"
            "            raise ValueError(\"the caller's block\")\n"
            "        if os.getpid() != caller and first == last:\n"
            "            fail()\n"
            "        price_into(config, prepared, table, first)\n"
            "    return price\n"
            "argv = ['compare', '--trials', '3', '--horizon', '5', '--out']\n"
            "assert cli.main(argv + [os.path.join(out, 'ok')]) == 0\n"
            "for fail in (lambda: os.kill(os.getpid(), signal.SIGKILL), unpicklable, unrebuildable,\n"
            "             child_and_caller):\n"
            "    harness._price_into = failing(fail)\n"
            "    assert cli.main(argv + [os.path.join(out, 'failed')]) == 1\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(workers), str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        printed = json.loads(result.stdout)
        assert printed["trials"] == 3 and list(printed["final_mean_distance"]) == list(ALGORITHMS)
        assert result.stdout.count("final_mean_distance") == 1
        errors = [json.loads(line) for line in result.stderr.splitlines()]
        last = harness.blocks(3, workers)[-1]
        assert [error["error"] for error in errors] == ["RuntimeError"] * 3 + ["ValueError"]
        assert errors[0]["message"] == f"the child process of block {last} ended by signal 9 ({signal.strsignal(9)})"
        assert errors[1]["message"] == f"block {last} failed: Local: lost in transit"
        assert errors[2]["message"].startswith(f"block {last} failed: OracleConvergenceError: no certificate")
        assert errors[3]["message"] == "the caller's block"
