"""smalldev benchmark: closed-loop `smalldev compare` runs on one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root; the program is imported from ./src.  One
compare process runs at a time (a closed loop with one client), its
threads capped at nproc through SMALLDEV_THREADS and the BLAS thread
variables.  A run first starts probes (see MIN_PROBES), then repeats
whole compare processes until the next one would end after --seconds (at
least one).  Every compare report goes through the correctness gate.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of traced compares with --trace 1.
Timings are medians over the run's samples.  The exit code is 1 when any
check failed, 2 when the program cannot be found.

--all runs every workload untraced and traced, prints every end-to-end
metric with unit, sample count, median and high percentile, the per-bound
times and objective evaluations, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, input_seed, make_config, reference_checked  # noqa: E402

# Names and units; these lists are BENCHMARK.json's end_to_end and per_layer.
# bound_s, simulate_s, mean_log10_bound and failed_frac are printed but not
# in the list: see README.md, "End-to-end metrics".
END_TO_END = {
    "compare_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bound_ratio": "ratio",
}
# Per-layer metrics for the last line: every count and ratio, and the
# times of layers that all three workloads exercise.  The traced run's
# table also prints the times some workloads leave at 0 (bounds.<name>_s,
# self times, mgf evaluation, snapshot draws, spectral_decompose).
PER_LAYER = [
    "cli.load_config_s",
    "cli.build_model_s",
    "cli.validate_requests_s",
    "cli.evaluate_bounds_s",
    "optimizer.minimize_calls",
    "optimizer.objective_evals",
    "optimizer.evals_per_minimize",
    "optimizer.at_boundary",
    "optimizer.objective_evals.single",
    "optimizer.objective_evals.master",
    "optimizer.objective_evals.log_mean",
    "optimizer.objective_evals.product",
    "optimizer.objective_evals.g_theta",
    "ensembles.mgf_evals",
    "ensembles.mgf_distinct_ratio",
    "ensembles.snapshots",
    "ensembles.snapshot_bytes",
    "ensembles.sample_calls",
    "ensembles.sample_s",
    "linalg.spectral_decompose_calls",
    "linalg.hermitian_constructions",
    "montecarlo.estimate_s",
    "montecarlo.chunks",
    "montecarlo.draws_per_s",
    "montecarlo.worker_busy_frac",
    "montecarlo.clopper_pearson_calls",
    "montecarlo.clopper_pearson_s",
    "montecarlo.informative_frac",
]

# Probes: compare processes that skip bound evaluation and stop after the
# simulation, so that setup_s and simulate_s get several samples even in a
# run with one compare.  At least MIN_PROBES, then more while they have
# taken less than PROBE_SHARE of --seconds, up to MAX_PROBES.
MIN_PROBES = 1
MAX_PROBES = 6
PROBE_SHARE = 0.15
DEADLINE_S = 170.0
REL_TOL = 1e-9
THREAD_VARS = (
    "SMALLDEV_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == "mean_log10_bound":
        return "log10"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("evals_per_minimize"):
        return "evals/call"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 prints only
        buf = io.StringIO()
        with redirect_stdout(buf):
            numpy.show_config()
        blas = buf.getvalue()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_caps": {v: str(nproc()) for v in THREAD_VARS},
        "seed": seed,
        "input_seed": input_seed(seed),
    }


def high_percentile(values: list) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, or the
    maximum when there are too few samples for one."""
    vals = sorted(values)
    n = len(vals)
    if n <= 10:
        return "max", vals[-1]
    return f"p{math.floor(100 * (n - 10) / n)}", vals[n - 11]


def _is_probability(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0


def _log10(v: float) -> float:
    return math.log10(v) if v > 0 else -math.inf


class Gate:
    """Counts operations (compare runs and (bound, eps) rows) and the
    ones that failed a check."""

    def __init__(self, cfg: dict, reference: dict, value_floor: float | None) -> None:
        seed = str(cfg["simulation"]["seed"])
        self.eps = reference["eps_grid"]
        self.bounds = [b["name"] for b in cfg["bounds"]]
        self.checked = set(reference_checked(cfg))
        self.hits = reference["hits"][seed]
        # Every row's value at the seed commit for this input seed.
        self.ref = {**reference["values"], **reference.get("seed_values", {}).get(seed, {})}
        self.value_floor = value_floor
        self.probes = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        # log10 of each value of the last report, and of value / reference.
        self.log10_values: list = []
        self.log10_ratios: list = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def probe(self, code: int) -> None:
        self.probes += 1
        self.attempted += 1
        if code != 0:
            self.fail(f"set-up probe exit code {code}")

    def compare(self, code: int, report_path: Path) -> None:
        self.attempted += 1 + len(self.eps) * len(self.bounds)
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            rows = {(r["epsilon"], r["bound_name"]): r for r in report["rows"]}
            n = int(report["config_echo"]["simulation"]["n"])
            grid_ok = report["config_echo"]["eps_grid"] == self.eps
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(f"compare exit code {code}, no readable report: {exc}")
            for _ in range(len(self.eps) * len(self.bounds)):
                self.fail("row missing")
            return
        if code != 0 or not grid_ok:
            self.fail(f"compare exit code {code}, eps grid as referenced: {grid_ok}")
        self.log10_values, self.log10_ratios = [], []
        for i, eps in enumerate(self.eps):
            for name in self.bounds:
                row = rows.get((eps, name))
                reasons = self._row_reasons(row, i, name, n)
                if reasons:
                    self.fail(f"eps={eps!r} {name}: " + "; ".join(reasons))
                if row is not None and _is_probability(row["bound_value"]):
                    v, ref = row["bound_value"], self.ref[name][i]
                    self.log10_values.append(_log10(v))
                    self.log10_ratios.append(0.0 if v == ref else _log10(v) - _log10(ref))

    def _row_reasons(self, row, i: int, name: str, n: int) -> list:
        if row is None:
            return ["row missing"]
        v = row["bound_value"]
        if not _is_probability(v):
            return [f"value {v!r} not finite in [0, 1]"]
        out = []
        if not v >= row["ci_low"]:
            out.append(f"value {v!r} below ci_low {row['ci_low']!r}")
        if self.value_floor is not None and v < self.value_floor:
            out.append(f"value {v!r} below the exact probability {self.value_floor!r}")
        if name in self.checked:
            ref = self.ref[name][i]
            if abs(v - ref) > REL_TOL * abs(ref):
                out.append(f"value {v!r} differs from reference {ref!r}")
        hits = round(row["p_hat"] * n)
        if hits != self.hits[i]:
            out.append(f"hits {hits} differ from reference {self.hits[i]}")
        return out


def _launch(args: list, env: dict, out: Path, timeout: float) -> tuple[int, float, dict]:
    """Run launch.py once; returns (exit code, wall seconds, phases)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "launch.py"), "--out", str(out), *args]
    with open(out / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
        wall = time.perf_counter() - t0
    try:
        phases = json.loads((out / "phases.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        phases = {}
    return code, wall, phases


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale_bounds: float | None = None
) -> dict:
    start = time.perf_counter()
    work = OUT / f"{name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(ROOT, name, seed)
    report_path = work / "report.json"
    cfg["output"] = {"json": str(report_path), "csv": str(work / "report.csv")}
    config_path = work / "config.yaml"
    config_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")  # JSON is YAML
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    gate = Gate(cfg, reference["workloads"][name], WORKLOADS[name].get("value_floor"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({v: str(nproc()) for v in THREAD_VARS})
    compare_args = ["--", "--config", str(config_path)]
    if scale_bounds is not None:
        compare_args += ["--scale-bounds", repr(scale_bounds)]

    samples: dict = {k: [] for k in ("compare_s", "setup_s", "bound_s", "simulate_s", "peak_rss_mb")}
    layers: list = []
    for i in range(MAX_PROBES):
        elapsed = time.perf_counter() - start
        if i >= MIN_PROBES and elapsed > PROBE_SHARE * seconds:
            break
        code, _, phases = _launch(["--probe", *compare_args], env, work / f"probe{i}", DEADLINE_S - elapsed)
        gate.probe(code)
        for key in ("setup_s", "simulate_s"):
            if phases.get(key) is not None:
                samples[key].append(phases[key])
    trace_args = ["--trace"] if trace else []
    while True:
        report_path.unlink(missing_ok=True)
        remaining = DEADLINE_S - (time.perf_counter() - start)
        i = len(samples["compare_s"])
        code, wall, phases = _launch([*trace_args, *compare_args], env, work / f"compare{i}", remaining)
        gate.compare(code, report_path)
        samples["compare_s"].append(wall)
        for key in ("setup_s", "bound_s", "simulate_s", "peak_rss_mb"):
            if phases.get(key) is not None:
                samples[key].append(phases[key])
        if "layers" in phases:
            layers.append(phases["layers"])
        elapsed = time.perf_counter() - start
        if code != 0 or elapsed + statistics.median(samples["compare_s"]) > seconds:
            break

    layer_samples = {}
    for sample in layers:
        for key, val in sample.items():
            layer_samples.setdefault(key, []).append(val)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "samples": samples,
        "layer_samples": layer_samples,
        # Deterministic for a given input seed, so one value per run.
        "quality": {
            "bound_ratio": 10.0 ** _mean(gate.log10_ratios),
            "mean_log10_bound": _mean(gate.log10_values),
            "failed_frac": gate.failed / gate.attempted,
        },
        "gate": gate,
        "elapsed_s": time.perf_counter() - start,
        "probes": gate.probes,
    }


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else -math.inf


def end_to_end(result: dict) -> dict:
    m = {k: _median(v) for k, v in result["samples"].items()}
    m.update(result["quality"])
    return {k: m[k] for k in END_TO_END}


def per_layer(result: dict) -> dict:
    return {k: _median(result["layer_samples"].get(k, [])) for k in PER_LAYER}


def _table(rows: list) -> str:
    lines = [f"  {'metric':<40} {'unit':<10} {'n':>3} {'median':>14} {'high':>14}"]
    for name, values in rows:
        label, high = high_percentile(values)
        lines.append(
            f"  {name:<40} {unit_of(name):<10} {len(values):>3} "
            f"{statistics.median(values):>14.6g} {high:>14.6g} ({label})"
        )
    return "\n".join(lines)


def _verdict(gate: Gate) -> str:
    frac = gate.failed / gate.attempted if gate.attempted else 0.0
    lines = [
        f"  correct: {gate.failed == 0}  attempted={gate.attempted} "
        f"failed={gate.failed} failed_frac={frac:.6g}"
    ]
    lines += [f"  FAILED {r}" for r in gate.reasons]
    return "\n".join(lines)


def describe(result: dict) -> str:
    s = result["samples"]
    gate = result["gate"]
    rows = list(s.items()) + [(k, [v]) for k, v in result["quality"].items()]
    head = (
        f"workload={result['workload']} seed={result['seed']} "
        f"input_seed={input_seed(result['seed'])} trace={int(result['trace'])} "
        f"compares={len(s['compare_s'])} probes={result['probes']} "
        f"elapsed_s={result['elapsed_s']:.1f}"
    )
    out = [head, _table(rows)]
    if result["trace"]:
        out.append(_table(sorted(result["layer_samples"].items())))
    out.append(_verdict(gate))
    return "\n".join(out)


def run_all(seed: int, seconds: float) -> int:
    print("env " + json.dumps(environment(seed), sort_keys=True))
    failed = 0
    overhead = {}
    per_bound = {}
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, trace=False)
        traced = run_workload(name, seed, seconds, trace=True)
        for result in (plain, traced):
            print(describe(result), flush=True)
            failed += result["gate"].failed
        overhead[name] = (
            _median(traced["samples"]["compare_s"]) - _median(plain["samples"]["compare_s"])
        )
        per_bound[name] = {
            k: _median(v)
            for k, v in traced["layer_samples"].items()
            if k.startswith(("bounds.", "optimizer.objective_evals."))
            and k != "bounds.objective_self_s"
        }
    print("per-bound times and objective evaluations (traced):")
    for name, table in per_bound.items():
        for key, val in table.items():
            print(f"  {name:<20} {key:<40} {val:.6g} {unit_of(key)}")
    print("tracing overhead, traced minus untraced compare_s:")
    for name, delta in overhead.items():
        print(f"  {name:<20} {delta:+.3f} s")
    print(f"verdict: {'all checks passed' if failed == 0 else f'{failed} failed operations'}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale-bounds",
        type=float,
        default=None,
        help="debug: passed to compare, to show the gate catching bad values",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "smalldev" / "__init__.py").is_file():
        print(f"no smalldev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale_bounds)
    gate = result["gate"]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(describe(result))
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result)
    line = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
