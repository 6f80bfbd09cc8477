"""One `smalldev compare` process, as the benchmark launches it.

    python3 perfbench/launch.py --out DIR [--trace] [--probe] -- COMPARE_ARGS...

Runs `smalldev.cli.main(["compare", *COMPARE_ARGS])` from the src/ tree
next to this directory, with the hooks of spans.py installed, and writes
DIR/phases.json: set-up seconds (process start to the start of bound
evaluation), bound and simulation seconds, peak RSS, and with --trace the
per-layer metrics (the spans go to DIR/spans.jsonl).  A --probe skips
bound evaluation and stops after the simulation, writing no report.  The
exit code is the compare exit code.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("compare_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    compare_args = args.compare_args
    if compare_args[:1] == ["--"]:
        compare_args = compare_args[1:]

    sys.path.insert(0, str(SRC))
    from smalldev import bounds, cli, ensembles, linalg, montecarlo

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"smalldev imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from spans import ProbeDone, Tracer, instrument, layer_metrics, write_spans

    tracer = Tracer(full=args.trace, probe=args.probe)
    instrument(tracer, cli, bounds, ensembles, linalg, montecarlo)
    try:
        code = cli.main(["compare", *compare_args])
    except ProbeDone:
        code = 0

    phases = {
        "setup_s": None if tracer.setup_end is None else tracer.setup_end - _T0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, key in (("cli.evaluate_bounds", "bound_s"), ("montecarlo.estimate", "simulate_s")):
        phases[key] = sum(t1 - t0 for _, _, n, t0, t1, _ in tracer.spans if n == name)
    out = Path(args.out)
    if args.trace:
        phases["layers"] = layer_metrics(tracer)
        write_spans(tracer, out / "spans.jsonl", trace_id=out.name)
    (out / "phases.json").write_text(json.dumps(phases), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
