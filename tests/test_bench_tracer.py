"""The benchmark's tracer wraps names of the package; they must keep existing.

`bench/tracer.py` replaces module attributes after import and fails on a
missing one, and it reads each pricing loop's horizon from its third
positional argument.  These tests load it by path, as `bench/run.py` does not
install it, and check both against the package.
"""
import importlib
import importlib.util
import inspect
import os

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
