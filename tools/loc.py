"""Line counts of Python sources: lines, code, docstring, comment-only and blank.

    python3 tools/loc.py [PATH ...]    # default: src

Each PATH is a .py file or a directory searched for them.  A line is a
docstring line when it lies in the string that opens a module, class or
function body (found with `ast`); else a code line when it holds a token
other than a comment (found with `tokenize`; a multi-line string counts on
every line it spans); else comment-only when it holds a comment; else blank.
The four counts add up to the lines.  One row per file, then the total.
"""
from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

KINDS = ("lines", "code", "docstring", "comment", "blank")
LAYOUT = tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING


def docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The counts of KINDS in `source`."""
    docstrings, code, comments = docstring_lines(source), set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstrings
    comments -= docstrings | code
    total = len(source.splitlines())
    return {
        "lines": total, "code": len(code), "docstring": len(docstrings), "comment": len(comments),
        "blank": total - len(code) - len(docstrings) - len(comments),
    }


def sources(paths) -> list[str]:
    """The .py files named in `paths` or found under them, in sorted order."""
    found = []
    for path in paths:
        if os.path.isdir(path):
            found += [os.path.join(root, name) for root, _, names in os.walk(path) for name in names if name.endswith(".py")]
        else:
            found.append(path)
    return sorted(found)


def main(argv=None) -> int:
    files = sources((argv if argv is not None else sys.argv[1:]) or ["src"])
    width = max([len("total"), *map(len, files)])
    print(f"{'file':<{width}}" + "".join(f"{kind:>10}" for kind in KINDS))
    total = dict.fromkeys(KINDS, 0)
    for path in files:
        with open(path, encoding="utf-8") as fh:
            counts = count(fh.read())
        total = {kind: total[kind] + counts[kind] for kind in KINDS}
        print(f"{path:<{width}}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    print(f"{'total':<{width}}" + "".join(f"{total[kind]:>10}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
