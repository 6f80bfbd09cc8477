"""`smalldev bound` on the analytic bundled configs against pinned CSVs.

tests/golden/bound_<config>.csv holds the output of
`smalldev bound --config <bundled config>`.  A change that claims the same
results must keep every row: epsilon and bound name as written, value,
raw_value and theta_star within 1e-12 relative, and valid exactly.
"""

import csv
import math
from pathlib import Path

import pytest

from smalldev.cli import demo_config_path, main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, want: str) -> bool:
    if got == "" or want == "":
        return got == want
    return math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0)


@pytest.mark.parametrize("name", ["bernoulli_diagonal", "exponential_series"])
def test_bound_csv_matches_golden(tmp_path, name):
    out = tmp_path / "bounds.csv"
    assert main(["bound", "--config", demo_config_path(name), "--csv", str(out)]) == 0
    got, want = _rows(out), _rows(GOLDEN / f"bound_{name}.csv")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        where = f"eps={w['epsilon']} bound={w['bound']}"
        assert (g["epsilon"], g["bound"]) == (w["epsilon"], w["bound"]), where
        for key in ("value", "raw_value", "theta_star"):
            assert _close(g[key], w[key]), f"{where} {key}: {g[key]} != {w[key]}"
        assert g["valid"] == w["valid"], where
