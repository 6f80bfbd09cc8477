"""`smalldev bound` on the bundled configs against pinned reports.

tests/golden/bound_<config>.csv holds the output of
`smalldev bound --config <bundled config>` for the two analytic configs.
A change that claims the same results must keep every row: epsilon and
bound name as written, value, raw_value and theta_star within 1e-12
relative, and valid exactly.

tests/golden/details_<config>.json holds the epsilon, bound name and
`details` of rows of `smalldev bound --config <bundled config> --json`:
every row of the two analytic configs, and the rows that need no mgf
(g_theta, negative_moment, chernoff_*) of the two empirical ones.  The
details must keep their keys, their flags exactly and their numbers
within 1e-12 relative.

tests/golden/simulate_<config>.csv holds the output of
`smalldev simulate --config <bundled config> --samples 20000` for the
four bundled configs.  The Monte Carlo draws are fixed by the seed, so a
change to how a sum is sampled, screened or scored must keep every row
exactly: the same hits and the same bits of ci_low and ci_high.
"""

import csv
import json
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


# Bounds whose value rests on an mgf snapshot in empirical mode.
_MGF_BOUNDS = {"single", "master", "log_mean", "product"}


@pytest.mark.parametrize(
    "name, analytic",
    [("bernoulli_diagonal", True), ("exponential_series", True),
     ("bounded_rank_one", False), ("wishart_empirical_mgf", False)],
)
def test_bound_details_match_golden(tmp_path, name, analytic):
    out = tmp_path / "bounds.json"
    assert main(["bound", "--config", demo_config_path(name), "--json", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    got = [r for r in rows if analytic or r["bound"] not in _MGF_BOUNDS]
    want = json.loads((GOLDEN / f"details_{name}.json").read_text(encoding="utf-8"))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        where = f"eps={w['epsilon']} bound={w['bound']}"
        assert (g["epsilon"], g["bound"]) == (w["epsilon"], w["bound"]), where
        assert sorted(g["details"]) == sorted(w["details"]), where
        for key, value in w["details"].items():
            if isinstance(value, bool):
                assert g["details"][key] is value, f"{where} {key}"
            else:
                assert math.isclose(g["details"][key], value, rel_tol=REL_TOL, abs_tol=0.0), (
                    f"{where} {key}: {g['details'][key]} != {value}"
                )


@pytest.mark.parametrize(
    "name", ["bernoulli_diagonal", "bounded_rank_one", "exponential_series", "wishart_empirical_mgf"]
)
def test_simulate_csv_matches_golden(tmp_path, name):
    out = tmp_path / "simulate.csv"
    argv = ["simulate", "--config", demo_config_path(name), "--samples", "20000"]
    assert main([*argv, "--csv", str(out)]) == 0
    got, want = _rows(out), _rows(GOLDEN / f"simulate_{name}.csv")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        where = f"eps={w['epsilon']}"
        assert (g["epsilon"], g["n"], g["hits"]) == (w["epsilon"], w["n"], w["hits"]), where
        for key in ("ci_low", "ci_high"):
            # Written with 17 significant digits, which read back to the bits.
            assert float(g[key]).hex() == float(w[key]).hex(), f"{where} {key}"
