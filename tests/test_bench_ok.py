import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_ok", ROOT / "tools" / "bench_ok.py")
bench_ok = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ok)

METRICS = '"metrics": {"wall_s": {"value": 1.2, "unit": "s"}}'


@pytest.mark.parametrize("line, status", [
    ('{"correct": true, "attempted": 2, "failed": 0, ' + METRICS + "}", 0),
    ('{"correct": false, "attempted": 2, "failed": 0, ' + METRICS + "}", 1),
    ('{"correct": true, "attempted": 2, "failed": 1, ' + METRICS + "}", 1),
    ('{"correct": "true", "attempted": 2, "failed": 0}', 1),  # a string is not true
    ('{"correct": 1, "attempted": 2, "failed": 0}', 1),
    ('{"correct": true, "attempted": 2}', 1),  # no count of failures
    ('{"failed": 0}', 1),
    ("[true, 0]", 1),
    ("CHECK FAILED: summary.csv", 1),  # a run's stderr, not its result line
    ("", 1),
])
def test_passes_only_a_correct_run_without_failures(line, status):
    assert bench_ok.main([line]) == status


def test_wants_exactly_one_line():
    good = '{"correct": true, "failed": 0}'
    assert bench_ok.main([good]) == 0
    assert bench_ok.main([]) == 1
    assert bench_ok.main([good, good]) == 1
