#!/usr/bin/env python3
"""Count the lines and the lines of code of each module of the package.

    python3 benchmarks/code_lines.py [DIR]

DIR defaults to ``src/diraclab`` of the checkout holding this script.  For
each ``*.py`` file of DIR, in name order, one line gives its lines and its
code lines, and a last line gives the totals.  A code line is a line that
is not blank, not a comment alone and not part of a docstring: the string
that opens a module, class or function body.  A line that holds code and a
comment counts as code.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_DIR = os.path.join(os.path.dirname(HERE), "src", "diraclab")


def docstring_lines(tree) -> set:
    """The line numbers that the docstrings of ``tree`` span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(text: str) -> tuple:
    """(lines, code lines) of the Python source ``text``."""
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    root = (argv if argv is not None else sys.argv[1:]) or [DEFAULT_DIR]
    if len(root) != 1:
        print("usage: code_lines.py [DIR]", file=sys.stderr)
        return 2
    total = [0, 0]
    print(f"{'file':20s} {'lines':>6s} {'code':>6s}")
    for name in sorted(os.listdir(root[0])):
        if name.endswith(".py"):
            with open(os.path.join(root[0], name)) as fh:
                lines, code = count(fh.read())
            total[0] += lines
            total[1] += code
            print(f"{name:20s} {lines:6d} {code:6d}")
    print(f"{'total':20s} {total[0]:6d} {total[1]:6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
