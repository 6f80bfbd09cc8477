"""Tests of the benchmark itself, on reduced runs of bernoulli-analytic.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

# Per-layer metrics the traced run prints for bernoulli-analytic, beyond the
# last line's list: the per-bound times and the times it leaves at 0.
TRACED_TABLE_ONLY = [
    "bounds.master_s",
    "bounds.log_mean_s",
    "bounds.product_s",
    "bounds.g_theta_s",
    "bounds.negative_moment_s",
    "bounds.chernoff_sum_s",
    "bounds.chernoff_product_s",
    "bounds.objective_self_s",
    "optimizer.minimize_self_s",
    "ensembles.mgf_eval_s",
    "ensembles.snapshot_draw_s",
    "linalg.spectral_decompose_s",
]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc


def last_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_high_percentile_leaves_ten_samples_above():
    assert run.high_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = run.high_percentile(list(range(100)))
    assert (label, value) == ("p90", 89)
    assert sum(v > value for v in range(100)) == 10


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(trace):
    proc = bench("--workload", "bernoulli-analytic", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    names = list(run.PER_LAYER) if trace else list(run.END_TO_END)
    assert list(line["metrics"]) == names
    for name, metric in line["metrics"].items():
        assert metric["unit"] == run.unit_of(name)
        assert isinstance(metric["value"], (int, float))
    assert "env {" in proc.stdout
    if trace:
        m = {k: v["value"] for k, v in line["metrics"].items()}
        assert m["optimizer.evals_per_minimize"] == 237
        assert m["optimizer.objective_evals.master"] == 2370
        for name in TRACED_TABLE_ONLY:
            assert f"  {name} " in proc.stdout
    else:
        for name in ("bound_s", "simulate_s", "mean_log10_bound", "failed_frac"):
            assert f"  {name} " in proc.stdout


def test_scaled_bounds_are_counted_as_failures():
    proc = bench("--workload", "bernoulli-analytic", "--seconds", "1", "--scale-bounds", "0.0")
    assert proc.returncode != 0
    line = last_line(proc)
    assert line["correct"] is False
    assert line["failed"] / line["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "wishart-mc", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
