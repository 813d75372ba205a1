"""The line counter: lines and code lines per module, and their totals."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                      "code_lines.py")

#: 19 lines, of which 6 are code: 4 (an import with a comment), 8 (def),
#: 11 and 12 (one statement), 15 (class) and 19 (a string that is no
#: docstring).  Lines 1-2, 9 and 16-18 are docstrings, 7 a comment.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment alone
def f(x):
    """One-line docstring."""

    return (x +
            1)


class C:
    """Class docstring
    over two lines.
    """
    y = "a string that is code"
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert _load().count(FIXTURE) == (19, 6)


def test_each_module_and_the_totals_are_printed(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert _load().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["file", "lines", "code"], ["a.py", "2", "1"],
                    ["b.py", "19", "6"], ["total", "21", "7"]]
