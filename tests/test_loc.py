import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SOURCE = '''"""A module docstring
over two lines."""
# a comment alone

import os  # a comment after code


def f():
    """One line."""
    text = """a string
in code"""
    return text


class C:
    """A docstring

    with a blank line."""
'''


def test_counts_each_kind_of_line(tmp_path, capsys):
    """Docstrings, their blank lines included, count apart from code; a
    multi-line string in code counts on every line; a comment after code is
    a code line; the four kinds add up to the lines."""
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    expected = {"lines": 18, "code": 6, "docstring": 6, "comment": 1, "blank": 5}
    assert loc.count(SOURCE) == expected
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", *loc.KINDS]
    assert rows[1] == [str(path), *map(str, expected.values())]
    assert rows[2] == ["total", *map(str, expected.values())]
