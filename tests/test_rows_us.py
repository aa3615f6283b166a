import importlib.util
import json
import os
from pathlib import Path

import pytest

from safedual.trace import CHUNK, METRIC_COLUMNS

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("rows_us", ROOT / "tools" / "rows_us.py")
rows_us = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rows_us)


def test_times_each_whole_chunk_of_every_slab(capsys):
    """One trial at CHUNK + 6 rounds gives one whole chunk per algorithm; the
    line names the module timed and a positive figure per pass."""
    assert rows_us.main(["--trials", "1", "--horizon", str(CHUNK + 6), "--passes", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["chunks"] == 4 and result["rows"] == CHUNK and result["columns"] == len(METRIC_COLUMNS)
    assert len(result["passes"]) == 2 and all(us > 0 for us in result["passes"])
    assert result["min_us_per_chunk"] <= result["us_per_chunk"]
    assert os.path.samefile(result["module"], ROOT / "src" / "safedual" / "__init__.py")


def test_refuses_a_horizon_without_a_whole_chunk(capsys):
    with pytest.raises(SystemExit, match="no whole chunk"):
        rows_us.main(["--trials", "1", "--horizon", str(CHUNK - 1), "--passes", "1"])
