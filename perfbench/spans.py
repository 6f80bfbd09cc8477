"""Spans and counts around calls into smalldev's public functions.

Everything is recorded from the benchmark's side: `instrument` replaces the
module and class attributes that smalldev looks up at call time, so no
file of the package changes.  Spans are kept in memory, turned into
per-layer metrics by `layer_metrics` and written out by `write_spans` when
the compare process ends.

A span is (id, parent id, name, start, end, attrs).  Spans opened on a
Monte Carlo worker thread take the enclosing `montecarlo.estimate` span as
parent.  A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class ProbeDone(Exception):
    """Raised by a probe once montecarlo.estimate has returned."""


class Tracer:
    def __init__(self, full: bool, probe: bool = False) -> None:
        self.full = full
        self.probe = probe
        self.setup_end = None
        self.spans: list = []
        self.threads = 1
        self.mgf_pairs: set = set()
        self.snapshot_sources: set = set()
        self._ids = itertools.count(1)
        self._hermitian = itertools.count()
        self._local = threading.local()
        self._thread_parent = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Open a span; yields its attrs dict so the body can add to it."""
        stack = self._stack()
        parent = stack[-1] if stack else self._thread_parent
        sid = next(self._ids)
        attrs: dict = {}
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, attrs or None))

    def wrap(self, name: str, fn, on_return=None):
        """fn with a span around every call.  on_return(args, result), if
        given, returns the span's attrs.  Kept lean: it runs on hot paths."""
        stack_of = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self._thread_parent
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, t0, clock(), None))
                raise
            finally:
                stack.pop()
            t1 = clock()
            attrs = on_return(args, result) if on_return is not None else None
            spans.append((sid, parent, name, t0, t1, attrs))
            return result

        return wrapper

    def hermitian_constructions(self) -> int:
        return next(self._hermitian)


def instrument(tracer: Tracer, cli, bounds, ensembles, linalg, montecarlo) -> None:
    """Install the hooks.  Without `tracer.full` only the end-to-end phases
    are timed: the start of bound evaluation (end of set-up), the
    `cli.evaluate_bounds` call and the `montecarlo.estimate` call.  A probe
    skips bound evaluation and stops once the simulation has returned."""
    full = tracer.full
    orig_evaluate_bounds = cli.evaluate_bounds

    def evaluate_bounds(requests, model, mgf, eps_grid, opt_cfg):
        tracer.setup_end = time.perf_counter()
        if tracer.probe:
            return {}
        with tracer.span("cli.evaluate_bounds"):
            names = [r["name"] for r in requests]
            if not full or len(set(names)) != len(names):
                return orig_evaluate_bounds(requests, model, mgf, eps_grid, opt_cfg)
            # One request at a time, so that each bound gets its own span.
            out = {}
            for req in requests:
                with tracer.span("bounds.request") as attrs:
                    attrs["bound"] = req["name"]
                    out.update(orig_evaluate_bounds([req], model, mgf, eps_grid, opt_cfg))
            return out

    cli.evaluate_bounds = evaluate_bounds

    orig_estimate = montecarlo.estimate

    def estimate(*args, **kwargs):
        tracer.threads = montecarlo.worker_count(kwargs.get("threads"))
        with tracer.span("montecarlo.estimate") as attrs:
            tracer._thread_parent = tracer._stack()[-1]
            try:
                out = orig_estimate(*args, **kwargs)
            finally:
                tracer._thread_parent = None
            attrs["rows"] = len(out)
            attrs["informative"] = sum(1 for e in out if 0 < e.hits < e.n)
        if tracer.probe:
            raise ProbeDone
        return out

    montecarlo.estimate = estimate

    if not full:
        return

    for name in ("load_config", "resolve_config", "build_model", "validate_requests"):
        setattr(cli, name, tracer.wrap(f"cli.{name}", getattr(cli, name)))

    orig_minimize = bounds.minimize

    def minimize(f, *args, **kwargs):
        return orig_minimize(tracer.wrap("bounds.objective", f), *args, **kwargs)

    bounds.minimize = tracer.wrap(
        "optimizer.minimize", minimize, lambda _a, res: {"at_boundary": bool(res.at_boundary)}
    )

    def mgf_attrs(args, _result):
        mgf, source, theta = args
        tracer.mgf_pairs.add((id(mgf), id(source), theta))
        key = (id(mgf), id(source))
        if mgf.mode != "empirical" or key in tracer.snapshot_sources:
            return None
        tracer.snapshot_sources.add(key)
        return {"snapshot_bytes": mgf.n_samples * source.dim**2 * 16}

    ensembles.MgfModel.evaluate = tracer.wrap(
        "ensembles.mgf_evaluate", ensembles.MgfModel.evaluate, mgf_attrs
    )

    decompose = tracer.wrap("linalg.spectral_decompose", linalg.spectral_decompose)
    for mod in (bounds, ensembles, linalg):
        mod.spectral_decompose = decompose

    montecarlo.sample_sum_batch = tracer.wrap(
        "ensembles.sample_sum_batch",
        montecarlo.sample_sum_batch,
        lambda _a, batch: {"draws": int(batch.shape[0])},
    )
    montecarlo.clopper_pearson = tracer.wrap(
        "montecarlo.clopper_pearson", montecarlo.clopper_pearson
    )

    orig_init = linalg.HermitianMatrix.__init__
    hermitian = tracer._hermitian

    def init(self, entries):
        next(hermitian)
        orig_init(self, entries)

    linalg.HermitianMatrix.__init__ = init


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced compare process, by name."""
    parent_of = {}
    name_of = {}
    child_time = defaultdict(float)
    for sid, parent, name, t0, t1, _attrs in tracer.spans:
        parent_of[sid] = parent
        name_of[sid] = name
        if parent is not None:
            child_time[parent] += t1 - t0

    def request_of(sid):
        while sid is not None and name_of.get(sid) != "bounds.request":
            sid = parent_of.get(sid)
        return sid

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    bound_span = {}
    evals_in = Counter()
    at_boundary = 0
    draw_s = 0.0
    snapshot_bytes = 0
    draws = 0
    estimate = {"rows": 0, "informative": 0}
    for sid, _parent, name, t0, t1, attrs in tracer.spans:
        dur = t1 - t0
        total[name] += dur
        self_time[name] += dur - child_time[sid]
        calls[name] += 1
        if name == "bounds.request":
            bound_span[sid] = (attrs["bound"], dur)
        elif name == "bounds.objective":
            evals_in[request_of(sid)] += 1
        elif name == "optimizer.minimize":
            at_boundary += attrs["at_boundary"]
        elif name == "ensembles.mgf_evaluate" and attrs:
            draw_s += dur
            snapshot_bytes += attrs["snapshot_bytes"]
        elif name == "ensembles.sample_sum_batch":
            draws += attrs["draws"]
        elif name == "montecarlo.estimate":
            estimate = attrs

    mgf_evals = calls["ensembles.mgf_evaluate"]
    minimize_calls = calls["optimizer.minimize"]
    evals = calls["bounds.objective"]
    estimate_s = total["montecarlo.estimate"]
    sample_s = total["ensembles.sample_sum_batch"]
    m = {
        "cli.load_config_s": total["cli.load_config"] + total["cli.resolve_config"],
        "cli.build_model_s": total["cli.build_model"],
        "cli.validate_requests_s": total["cli.validate_requests"],
        "cli.evaluate_bounds_s": total["cli.evaluate_bounds"],
        "bounds.objective_self_s": self_time["bounds.objective"],
        "optimizer.minimize_calls": minimize_calls,
        "optimizer.objective_evals": evals,
        "optimizer.evals_per_minimize": _ratio(evals, minimize_calls),
        "optimizer.at_boundary": at_boundary,
        "optimizer.minimize_self_s": self_time["optimizer.minimize"],
        "ensembles.mgf_evals": mgf_evals,
        # Disjoint from snapshot_draw_s: the calls that drew no snapshot.
        "ensembles.mgf_eval_s": total["ensembles.mgf_evaluate"] - draw_s,
        "ensembles.mgf_distinct_ratio": _ratio(len(tracer.mgf_pairs), mgf_evals),
        "ensembles.snapshots": len(tracer.snapshot_sources),
        "ensembles.snapshot_draw_s": draw_s,
        "ensembles.snapshot_bytes": snapshot_bytes,
        "ensembles.sample_calls": calls["ensembles.sample_sum_batch"],
        "ensembles.sample_s": sample_s,
        "linalg.spectral_decompose_calls": calls["linalg.spectral_decompose"],
        "linalg.spectral_decompose_s": total["linalg.spectral_decompose"],
        "linalg.hermitian_constructions": tracer.hermitian_constructions(),
        "montecarlo.estimate_s": estimate_s,
        "montecarlo.chunks": calls["ensembles.sample_sum_batch"],
        "montecarlo.draws_per_s": _ratio(draws, estimate_s),
        "montecarlo.worker_busy_frac": _ratio(sample_s, estimate_s * tracer.threads),
        "montecarlo.clopper_pearson_calls": calls["montecarlo.clopper_pearson"],
        "montecarlo.clopper_pearson_s": total["montecarlo.clopper_pearson"],
        "montecarlo.informative_frac": _ratio(estimate["informative"], estimate["rows"]),
    }
    for sid, (name, dur) in bound_span.items():
        m[f"bounds.{name}_s"] = dur
        m[f"optimizer.objective_evals.{name}"] = evals_in[sid]
    return m


def write_spans(tracer: Tracer, path, trace_id: str) -> None:
    """One JSON object per line; spans of one compare share `trace`."""
    head = '{"trace": %s, ' % json.dumps(trace_id)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1, attrs in tracer.spans:
            extra = ", " + json.dumps(attrs)[1:-1] if attrs else ""
            parent = "null" if parent is None else parent
            fh.write(
                f'{head}"id": {sid}, "parent": {parent}, "name": "{name}", '
                f'"start": {t0!r}, "end": {t1!r}{extra}}}\n'
            )
