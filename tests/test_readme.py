"""The README's library quick start runs as written, so the documented API
cannot drift from the code."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # One value per eps of the grid from each bound, each in [2^-10, 1]:
    # the truth is 2^-10 at every eps of the grid.
    for line in lines[:2]:
        values = ast.literal_eval(line)
        assert len(values) == 3
        assert all(2.0**-10 <= v <= 1.0 for v in values)
    assert lines[2].startswith("EmpiricalEstimate(")
