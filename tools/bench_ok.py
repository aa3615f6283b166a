"""Verdict on the result line that bench/run.py prints last.

    python3 tools/bench_ok.py LINE

Exits 0 only when LINE is a JSON object whose "correct" is true and whose
"failed" is 0, else 1.  The standard library alone, so it runs before any
install.
"""
from __future__ import annotations

import json
import sys


def ok(line: str) -> bool:
    """Whether `line` is a run that checked its outputs and failed no operation."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and result.get("correct") is True and result.get("failed") == 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    return 0 if len(args) == 1 and ok(args[0]) else 1


if __name__ == "__main__":
    sys.exit(main())
