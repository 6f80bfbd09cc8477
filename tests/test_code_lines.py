"""tools/code_lines.py counts the lines that hold code: no comments,
docstrings or blank lines, and every line of a statement or a string
spread over several."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# A comment line.


def f(x):
    """Function docstring."""
    text = """a string
    that is not a docstring"""
    return math.sqrt(
        x
    )


class C:
    "One-line docstring."

    y = "not a docstring"
    "a string that is a whole statement counts as a docstring"
'''


def test_counts_code_lines_only():
    # import, def, text (2 lines), return (3 lines), class, y.
    assert code_lines.code_lines(SOURCE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{tmp_path / 'a.py'}\t2",
        f"{tmp_path / 'b.py'}\t1",
        "total\t3",
    ]
