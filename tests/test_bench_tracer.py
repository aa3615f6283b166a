"""The benchmark's tracer wraps names of the package; they must keep existing.

`bench/tracer.py` replaces module attributes after import and fails on a
missing one, and it reads each pricing loop's horizon from its third
positional argument.  These tests load it by path, as `bench/run.py` does not
install it, and check both against the package, then run it over a small
traced `compare`.
"""
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, attribute):
    owner = importlib.import_module(f"safedual.{module_name}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_resolves(tracer):
    for module_name, attribute, _ in tracer.SPANS:
        assert callable(resolve(module_name, attribute)), f"{module_name}.{attribute}"


def test_loops_take_horizon_third(tracer):
    for span in tracer.LOOPS:
        module_name, attribute = span.split(".")
        params = list(inspect.signature(resolve(module_name, attribute)).parameters.values())
        assert params[2].name == "horizon", span
        assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, span


def test_compare_makes_one_demand_call_per_round(tmp_path):
    """Traced `compare` over 3 trials and 4 algorithms: every layer reads a
    finite value, and one demand evaluation serves every algorithm and trial
    of a round.  It runs in a subprocess, so the wrappers do not leak."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    code = (
        "import importlib.util, json\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracer', {TRACER_PATH!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "tracer = module.Tracer()\n"
        "tracer.install()\n"
        "from safedual import cli\n"
        f"argv = ['compare', '--trials', '3', '--horizon', '20', '--out', {str(tmp_path)!r}]\n"
        "assert cli.main(argv) == 0\n"
        "print(json.dumps({name: value for name, (value, _) in tracer.layers().items()}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
    ))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    layers = json.loads(result.stdout.splitlines()[-1])
    assert all(math.isfinite(value) for value in layers.values()), layers
    assert layers["agents.demand_calls"] == 20
