import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from safedual import harness
from safedual.cli import _build_parser, main
from safedual.harness import ALGORITHMS, ExperimentConfig, derive_trial_seed, trial_trace_path
from safedual.problem import GeneratorConfig, load_problem
from safedual.trace import CHUNK, CSV_HEADER, METRIC_COLUMNS, read_trace_csv


TWO_USERS = {"n": 2, "m": 2, "A": [[1, 1], [1, 0]], "c": [1.0, 1.0], "theta": [1.0, 2.0],
             "shift": 0.1, "lower": [0.0, 0.0], "upper": ["inf", "inf"]}


def generate_args(path, seed=0):
    return [
        "generate",
        "--seed", str(seed),
        "--n-range", "3", "5",
        "--m-range", "2", "3",
        "--out", str(path),
    ]


class TestGenerate:
    def test_writes_valid_problem_file(self, tmp_path):
        path = tmp_path / "problem.json"
        assert main(generate_args(path)) == 0
        problem = load_problem(path)
        assert 3 <= problem.n <= 5
        assert 2 <= problem.m <= 3

    def test_stdout_mode_emits_json(self, capsys, tmp_path):
        assert main(["generate", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert "A" in doc and doc["n"] == len(doc["theta"])
        assert main(["generate", "--seed", "1", "--out", str(tmp_path / "problem.json")]) == 0
        assert out == (tmp_path / "problem.json").read_text()

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(generate_args(a, seed=9))
        main(generate_args(b, seed=9))
        assert a.read_text() == b.read_text()

    def test_refuses_range_without_users(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        assert main(["generate", "--n-range", "0", "0", "--out", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "n_range" in err["message"]
        assert not path.exists()

    def test_reused_parser_keeps_its_defaults(self, tmp_path, capsys):
        assert main(generate_args(tmp_path / "small.json")) == 0
        assert main(["generate", "--seed", "1"]) == 0
        assert 10 <= json.loads(capsys.readouterr().out)["n"] <= 40
        assert main(["generate", "--seed", "2", "--out", str(tmp_path / "again.json")]) == 0
        assert _build_parser.cache_info().misses == 1


def test_flags_are_named_after_config_fields():
    """`compare` and `generate` hand each flag to the config field its dest names."""
    parser = _build_parser()
    compare = set(vars(parser.parse_args(["compare"]))) - {"command", "handler", "config"}
    assert compare <= {f.name for f in fields(ExperimentConfig)}
    generate = set(vars(parser.parse_args(["generate"]))) - {"command", "handler", "out"}
    assert generate <= {f.name for f in fields(GeneratorConfig)}


class TestSolve:
    def test_outputs_certified_solution(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        main(generate_args(path))
        capsys.readouterr()
        assert main(["solve", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kkt_residual"] <= 1e-8
        assert len(doc["x_star"]) == load_problem(path).n
        assert math.isfinite(doc["f_star"])

    @pytest.mark.parametrize("change, violation", [
        ({"A": [[0, 1], [0, 1]]}, "zero column"),
        ({"lower": [0.0, 2.0], "upper": ["inf", 1.0]}, "invalid domain bounds"),
        ({"c": [math.inf, 1.0]}, "non-finite capacity"),
        ({"theta": [math.nan, 2.0]}, "non-finite utility parameter"),
        ({"theta": [1.0, math.inf]}, "non-finite utility parameter"),
        ({"shift": math.nan}, "non-finite utility parameter"),
    ], ids=["zero-column", "lower-above-upper", "inf-capacity", "nan-theta", "inf-theta",
            "nan-shift"])
    def test_refuses_invalid_problem(self, tmp_path, capsys, change, violation):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(TWO_USERS | change))
        assert main(["solve", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert violation in err["message"]

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "message" in err and "error" in err

    def test_tolerance_is_not_an_option(self, tmp_path):
        """The oracle certifies at DEFAULT_TOLERANCE only; a looser one returned
        an infeasible point as the optimum."""
        path = tmp_path / "problem.json"
        main(generate_args(path))
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", str(path), "--tolerance", "1e9"])
        assert exit_info.value.code == 2


class TestRun:
    def test_safe_method_trace_to_file(self, tmp_path, capsys):
        problem_path = tmp_path / "problem.json"
        trace_path = tmp_path / "trace.csv"
        main(generate_args(problem_path))
        code = main([
            "run",
            "--problem", str(problem_path),
            "--algorithm", "SDGM",
            "--horizon", "25",
            "--out", str(trace_path),
        ])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 26
        min_slack = [float(line.split(",")[-1]) for line in lines[1:]]
        assert min(min_slack) >= -1e-9

    @pytest.mark.parametrize("flags, m", [
        (["--gamma", "nan"], "2"),
        (["--gamma", "inf"], "1"),
        (["--horizon", "0"], "2"),
        (["--horizon", "-5"], "2"),
        (["--gamma", "5", "--algorithm", "DGM"], "2"),
        (["--gamma", "nan", "--algorithm", "NDGM"], "2"),
        (["--algorithm", "BOGUS"], "2"),
    ], ids=["gamma-nan", "gamma-inf-one-row", "horizon-0", "horizon-negative",
            "gamma-for-baseline", "gamma-nan-for-baseline", "unknown-algorithm"])
    def test_refuses_bad_setting(self, tmp_path, capsys, flags, m):
        problem_path = tmp_path / "problem.json"
        main(["generate", "--n-range", "3", "5", "--m-range", m, m, "--out", str(problem_path)])
        assert main(["run", "--problem", str(problem_path), "--horizon", "10", *flags]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and flags[0][2:] in err["message"]

    def test_baseline_trace_to_stdout(self, tmp_path, capsys):
        problem_path = tmp_path / "problem.json"
        main(generate_args(problem_path))
        capsys.readouterr()
        code = main([
            "run", "--problem", str(problem_path),
            "--algorithm", "DGM", "--horizon", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        assert len(out) == 11


@pytest.mark.parametrize("change, violation", [
    ({"A": [[1.5, 1], [1, 0]]}, "non-binary entry"),
    ({"A": [[1, 1], [1, 0.5]]}, "non-binary entry"),
    ({"lower": [0.0, 0.0, 0.0], "shift": [0.1, 0.1, -3.0]}, "utility dimension mismatch"),
    ({"shift": [0.1, 0.1, -3.0]}, "utility dimension mismatch"),
    ({"theta": [1.0, 2.0, 3.0]}, "utility dimension mismatch"),
    ({"upper": ["inf", "inf", 1.0]}, "utility dimension mismatch"),
], ids=["entry-1.5", "entry-0.5", "long-lower-and-shift", "long-shift", "long-theta",
        "long-upper"])
@pytest.mark.parametrize("command", [["solve"], ["run", "--horizon", "3", "--problem"]],
                         ids=["solve", "run"])
def test_refuses_what_loading_once_truncated(tmp_path, capsys, command, change, violation):
    """A fractional matrix entry, or a per-user list past n entries, reaches
    validate as written; each once loaded as a valid network."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TWO_USERS | change))
    assert main([*command, str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RuntimeError" and violation in err["message"]


@pytest.mark.parametrize("key, value", [("n", 5), ("m", 9)])
@pytest.mark.parametrize("command", [["solve"], ["run", "--horizon", "3", "--problem"]],
                         ids=["solve", "run"])
def test_refuses_counts_other_than_the_matrix(tmp_path, capsys, command, key, value):
    """A document's n and m, where it gives them, must be its matrix's
    column and row counts; the error names the key."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(TWO_USERS | {key: value}))
    assert main([*command, str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and f"{key} = {value}" in err["message"]


def test_document_without_counts_loads(tmp_path):
    doc = {key: value for key, value in TWO_USERS.items() if key not in ("n", "m")}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 0


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """`compare` on one network of master seed 3, at 30 rounds and at CHUNK + 6,
    whose CSVs cross a chunk boundary and end on a partial chunk: the output
    directory of each horizon, and that network as a file."""
    root = tmp_path_factory.mktemp("run_vs_compare")
    out_dirs = {horizon: str(root / f"exp_{horizon}") for horizon in (30, CHUNK + 6)}
    for horizon, out_dir in out_dirs.items():
        assert main(["compare", "--seed", "3", "--trials", "1", "--horizon", str(horizon),
                     "--out", out_dir]) == 0
    problem_path = str(root / "problem.json")
    assert main(["generate", "--seed", str(derive_trial_seed(3, 0)), "--out", problem_path]) == 0
    return out_dirs, problem_path


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_matches_compare_trace(compared, algorithm, tmp_path, capsys):
    out_dirs, problem_path = compared
    trace_path = tmp_path / "trace.csv"
    for horizon, out_dir in out_dirs.items():
        assert main(["run", "--problem", problem_path, "--algorithm", algorithm,
                     "--horizon", str(horizon), "--out", str(trace_path)]) == 0
        with open(trial_trace_path(out_dir, 0, algorithm), "rb") as fh:
            assert trace_path.read_bytes() == fh.read(), horizon


class TestCompareAndReport:
    def test_end_to_end(self, tmp_path, capsys):
        out_dir = tmp_path / "exp"
        config = {
            "generator": {"n_range": [3, 5], "m_range": [2, 3]},
            "horizon": 20,
            "trials": 2,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = main([
            "compare",
            "--config", str(config_path),
            "--out", str(out_dir),
            "--seed", "4",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 2
        assert set(doc["final_mean_distance"]) == {"SDGM", "DGM", "FDGM", "NDGM"}
        assert os.path.exists(out_dir / "manifest.json")

        assert main(["report", "--out", str(out_dir)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["trials"] == 2

    def test_flag_overrides_without_config(self, tmp_path, capsys):
        out_dir = tmp_path / "exp2"
        code = main([
            "compare",
            "--trials", "1",
            "--horizon", "10",
            "--algorithms", "SDGM,FDGM",
            "--seed", "2",
            "--out", str(out_dir),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["final_mean_distance"]) == {"SDGM", "FDGM"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["trials"] == 1
        assert manifest["config"]["master_seed"] == 2
        assert manifest["config"]["generator"]["seed"] == 2
        assert manifest["config"]["algorithms"] == ["SDGM", "FDGM"]


@pytest.mark.parametrize("flags, settings, field", [
    (["--gamma", "nan"], {}, "gamma"),
    (["--gamma", "inf"], {}, "gamma"),
    (["--gamma", "-1"], {}, "gamma"),
    (["--algorithms", "SDGM,SDGM"], {}, "algorithms"),
    (["--gamma", "5", "--algorithms", "DGM,FDGM,NDGM"], {}, "gamma"),
    (["--seed", "-1"], {}, "master_seed"),
    ([], {"trials": 2.5}, "trials"),
    ([], {"trials": True}, "trials"),
    ([], {"horizon": 10.5, "trials": 1}, "horizon"),
    ([], {"master_seed": 1.5}, "master_seed"),
    ([], {"gamma": "0.5"}, "gamma"),
    ([], {"gamma": True}, "gamma"),
    ([], {"algorithms": "SDGM"}, "algorithms"),
    ([], {"gamma": 10**400}, "gamma"),
], ids=["gamma-nan", "gamma-inf", "gamma-negative", "repeated-algorithm", "gamma-without-sdgm",
        "negative-seed", "float-trials", "bool-trials", "float-horizon",
        "float-master-seed", "str-gamma", "bool-gamma", "str-algorithms", "huge-gamma"])
def test_compare_refuses_bad_setting_before_any_trial(tmp_path, capsys, flags, settings, field):
    """A setting given as a flag or in the --config document is refused, naming
    its field, before the output directory is made."""
    config_path = tmp_path / "config.json"
    base = {"trials": 2, "horizon": 10, "algorithms": ["SDGM"]}
    config_path.write_text(json.dumps(base | settings))
    out_dir = tmp_path / "exp"
    assert main(["compare", "--config", str(config_path), "--out", str(out_dir), *flags]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert field in err["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("field, value", [
    ("bernoulli_p", 1.5),
    ("n_range", [0, 0]),
    ("m_range", [0, 0]),
    ("theta_range", [-5, -1]),
    ("n_range", [3.5, 5]),
    ("m_range", [2, 4.5]),
    ("bernoulli_p", "0.5"),
    ("capacity_value", "1"),
    ("theta_range", ["10", 30]),
    ("theta_range", [10, True]),
    ("seed", 1.5),
    ("seed", -1),
    ("capacity_value", math.inf),
    ("capacity_value", math.nan),
    ("theta_range", [10, math.inf]),
    ("theta_range", [10, math.nan]),
    ("theta_range", [10, 10**400]),
    ("n_range", 5),
    ("m_range", [2, 3, 4]),
    ("theta_range", [10]),
    ("n_range", [1, 10**30]),
], ids=["bernoulli_p", "n_range", "m_range", "theta_range", "float-n_range", "float-m_range",
        "str-bernoulli_p", "str-capacity_value", "str-theta_range", "bool-theta_range",
        "float-seed", "negative-seed", "inf-capacity_value", "nan-capacity_value",
        "inf-theta_range", "nan-theta_range", "huge-theta_range", "scalar-n_range",
        "triple-m_range", "single-theta_range", "huge-n_range"])
def test_compare_refuses_bad_generator_setting_before_any_trial(tmp_path, capsys, field, value):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"generator": {field: value}}))
    out_dir = tmp_path / "exp"
    assert main(["compare", "--config", str(config_path), "--trials", "2", "--horizon", "10",
                 "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert field in err["message"]
    assert not out_dir.exists()


@pytest.mark.parametrize("doc", [5, [1, 2], {"generator": 5}, {"generator": [10, 40]}],
                         ids=["number", "list", "number-generator", "list-generator"])
def test_compare_refuses_config_that_is_not_an_object(tmp_path, capsys, doc):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "exp"
    assert main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "JSON object" in err["message"]
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def compared_long(tmp_path_factory):
    """`compare` on 2 trials of CHUNK + 6 rounds, whose CSVs end on a partial chunk."""
    out_dir = tmp_path_factory.mktemp("long") / "exp"
    assert main(["compare", "--seed", "3", "--trials", "2", "--horizon", str(CHUNK + 6),
                 "--out", str(out_dir)]) == 0
    return out_dir


def test_trace_csvs_hold_the_table_bits(compared_long):
    """Every metric column of every trace CSV reads back to the bits of its
    column of traces.npy, the (metric, round, algorithm, trial) table."""
    table = np.load(compared_long / "traces.npy")
    assert table.shape == (len(METRIC_COLUMNS), CHUNK + 6, len(ALGORITHMS), 2)
    for a, algorithm in enumerate(ALGORITHMS):
        for trial_id in range(2):
            trace = read_trace_csv(trial_trace_path(str(compared_long), trial_id, algorithm))
            for i, column in enumerate(trace.metrics().values()):
                assert column.tobytes() == table[i, :, a, trial_id].tobytes()


def test_report_reads_the_table_not_the_csvs(compared_long, tmp_path, capsys):
    """With traces/ gone, `report` still rewrites compare's summary.csv and
    sdgm_regret_scaled.csv byte for byte."""
    out_dir = tmp_path / "exp"
    shutil.copytree(compared_long, out_dir)
    shutil.rmtree(out_dir / "traces")
    for name in ("summary.csv", "sdgm_regret_scaled.csv"):
        (out_dir / name).unlink()
    assert main(["report", "--out", str(out_dir)]) == 0
    for name in ("summary.csv", "sdgm_regret_scaled.csv"):
        assert (out_dir / name).read_bytes() == (compared_long / name).read_bytes(), name


def compare_and_report(out_dir, capsys, trials=2, horizon=20):
    """Every file but the manifest that `compare` then `report` leave, the
    manifest without its output directory, and their stdout."""
    assert main(["compare", "--seed", "3", "--trials", str(trials), "--horizon", str(horizon),
                 "--out", str(out_dir)]) == 0
    assert main(["report", "--out", str(out_dir)]) == 0
    files = {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in out_dir.rglob("*") if path.is_file() and path.name != "manifest.json"
    }
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"].pop("output_dir") == str(out_dir)
    return files, manifest, capsys.readouterr().out


def test_compare_and_report_write_the_same_bytes_for_any_workers(tmp_path, capsys, monkeypatch):
    """Every file and stdout of `compare` then `report` is the same whether the
    caller prices and writes alone or with one or two forked workers; the
    manifest differs only in its output directory.  One trial prices as one
    block but writes on every worker, and a horizon of CHUNK + 6 rounds ends
    each CSV on a partial chunk of rows."""
    for trials, horizon in ((7, 40), (1, 40), (2, CHUNK + 6)):
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(harness, "available_workers", lambda: workers)
            out_dir = tmp_path / f"trials{trials}_horizon{horizon}_workers{workers}"
            runs.append(compare_and_report(out_dir, capsys, trials, horizon))
        # trace CSVs, optima, traces.npy, summary.csv and sdgm_regret_scaled.csv
        assert len(runs[0][0]) == trials * len(ALGORITHMS) + trials + 3
        assert "workers" not in runs[0][1]["config"]
        assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("trials, horizon", [(3, 101), (12, 1)])
def test_summary_bytes_do_not_depend_on_its_window(tmp_path, capsys, monkeypatch, trials, horizon):
    """Every file and stdout of `compare` then `report` is a default run's
    whether the summary is reduced one round at a time, 7 rounds at a time
    (which divides neither horizon) or in one window longer than the
    horizon, on one worker or two.  Twelve trials at a horizon of 1 is the
    width at which numpy's own mean would sum the trials pairwise."""
    default = compare_and_report(tmp_path / "default", capsys, trials, horizon)
    for window in (1, 7, 200):
        monkeypatch.setattr(harness, "CHUNK", window)
        for workers in (1, 2):
            monkeypatch.setattr(harness, "available_workers", lambda: workers)
            out_dir = tmp_path / f"window{window}_workers{workers}"
            assert compare_and_report(out_dir, capsys, trials, horizon) == default


@pytest.mark.parametrize("seed, trials, horizon", [(3, 3, 20), (6, 12, 1)])
@pytest.mark.parametrize("workers", [1, 2])
def test_printed_final_means_are_the_summary_last_rows(
    tmp_path, capsys, monkeypatch, workers, seed, trials, horizon,
):
    """The final mean distance that `compare` prints for each algorithm has
    the bits of that algorithm's last distance_to_opt_mean in summary.csv,
    on one worker or two.  Twelve trials at a horizon of 1 is the width at
    which numpy's own mean would sum the trials pairwise; under seed 6 that
    sum differs from the summary's in the last bit."""
    monkeypatch.setattr(harness, "available_workers", lambda: workers)
    out_dir = tmp_path / "exp"
    assert main(["compare", "--seed", str(seed), "--trials", str(trials), "--horizon", str(horizon),
                 "--out", str(out_dir)]) == 0
    printed = json.loads(capsys.readouterr().out)["final_mean_distance"]
    header, *rows = (out_dir / "summary.csv").read_text().splitlines()
    column = header.split(",").index("distance_to_opt_mean")
    last = {}
    for row in rows:  # t ascending, so each algorithm's last row is kept
        values = row.split(",")
        last[values[0]] = float(values[column])
    assert list(printed) == list(last) == list(ALGORITHMS)
    for algorithm, value in printed.items():
        assert value.hex() == last[algorithm].hex(), algorithm


def test_compare_and_report_on_one_cpu_run_in_one_process(tmp_path, capsys, monkeypatch):
    """With one CPU in the affinity mask, as under `taskset -c 0`, `compare`
    and `report` start no worker and write the bytes of a default run."""
    default = compare_and_report(tmp_path / "default", capsys)

    def no_fork(*args, **kwargs):
        raise AssertionError("started a worker process")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert compare_and_report(tmp_path / "one_cpu", capsys) == default


def test_compare_refuses_config_that_sets_workers(tmp_path, capsys):
    """The worker count is worked out from the machine, never set: a config
    document that holds one is refused, naming it."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"trials": 2, "horizon": 10, "workers": 1}))
    out_dir = tmp_path / "exp"
    assert main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "workers" in err["message"]
    assert not out_dir.exists()


def test_cli_imports_no_heavy_dependency(tmp_path):
    """Every command starts by importing the CLI; scipy or pandas would slow that
    down.  `generate` and `solve` handle one network, so they load neither the
    ensemble harness nor the pricing loops, the traces or a process pool.
    `compare` and `report` fork their blocks themselves, so they load no
    process pool either: neither multiprocessing nor concurrent.futures."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from safedual import cli\n"
        "pool = {'multiprocessing', 'concurrent.futures'}\n"
        "heavy = {'safedual.harness', 'safedual.sdgm', 'safedual.baselines', 'safedual.trace', *pool}\n"
        "def loaded(names):\n"
        "    return sorted(name for name in sys.modules\n"
        "                  if name in names or name.split('.')[0] in {'scipy', 'pandas'})\n"
        "for argv in (['generate', '--out', sys.argv[1]], ['solve', sys.argv[1]]):\n"
        "    assert cli.main(argv) == 0\n"
        "single = loaded(heavy)\n"
        "for argv in (['compare', '--trials', '3', '--horizon', '5', '--out', sys.argv[2]],\n"
        "             ['report', '--out', sys.argv[2]]):\n"
        "    assert cli.main(argv) == 0\n"
        "print(single)\n"
        "print(loaded(pool))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "problem.json"), str(tmp_path / "run")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines()[-2:] == ["[]", "[]"]
