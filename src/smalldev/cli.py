"""Command-line front end.

Commands:
  bound     evaluate the requested bounds over the eps grid, write CSV/JSON
  simulate  Monte Carlo estimates with exact confidence intervals, write CSV/JSON
  compare   run both pipelines and emit a domination report (exit 1 on any
            violation)
  demo      run the bundled demo experiments end to end

Experiments are described by YAML config files; see the README for the
schema and the bundled configs under smalldev/configs/ for working
examples.  All randomness flows from the single config seed.  Exit codes:
0 success (and domination holds), 1 domination violation, 2 config error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import bounds as bd
from . import montecarlo as mc
from .ensembles import (
    DEFAULT_MGF_SAMPLES,
    Bernoulli,
    BoundedRankOne,
    Gamma,
    MgfModel,
    ScaledFixed,
    SumModel,
    Uniform,
    Wishart,
    bernoulli_diagonal,
)
from .errors import ConfigError, SmallDevError
from .linalg import HermitianMatrix
from .optimizer import OptimizerConfig

# ---------------------------------------------------------------------------
# Config loading and resolution
# ---------------------------------------------------------------------------


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 1e5 and 1.0e2,
    which YAML 1.1 (and so PyYAML) takes for strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


def _mapping(value, keys, where: str) -> dict:
    """value, which must be a mapping whose every key is one of keys."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in value:
        if key not in keys:
            raise ConfigError(
                f"{where}: unknown key {key!r}; expected one of " + ", ".join(keys)
            )
    return value


def _real(value) -> float:
    """float() that refuses a YAML boolean, which would read as 1 or 0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _reals(value) -> np.ndarray:
    """The float array of a nested list, refusing a boolean entry as _real does."""
    return np.vectorize(_real, otypes=[float])(np.asarray(value, dtype=object))


def _integer(value) -> int:
    """int() that refuses a boolean and refuses to truncate: 4000 and 4000.0
    pass, true and 100.9 raise."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _path(value) -> str | None:
    """An output path; None means stdout."""
    if value is not None and not isinstance(value, str):
        raise TypeError(f"{value!r} is not a path")
    return value


_CAST_NAMES = {_integer: "an integer", _path: "a path"}


def _cast(value, where: str, key: str, cast):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{where}.{key} must be {_CAST_NAMES.get(cast, 'a number')}, got {value!r}"
        ) from exc


def _field(section: dict, where: str, key: str, cast, default):
    return _cast(section.get(key, default), where, key, cast)


_OPTIMIZER = OptimizerConfig()

# {section: {key: (cast, default, cli_flag)}}.  The flag, where there is
# one, overrides the config value.
_SCHEMA = {
    "simulation": {
        "n": (_integer, 100_000, "--samples"),
        "confidence": (_real, 0.99, "--confidence"),
        "seed": (_integer, 0, "--seed"),
    },
    "mgf": {
        "mode": (str, "analytic", None),
        "n_samples": (_integer, DEFAULT_MGF_SAMPLES, None),
    },
    "optimizer": {
        "theta_min": (_real, _OPTIMIZER.theta_min, "--theta-min"),
        "theta_max": (_real, _OPTIMIZER.theta_max, "--theta-max"),
        "coarse_points": (_integer, _OPTIMIZER.coarse_points, "--coarse-points"),
        "refine_tol": (_real, _OPTIMIZER.refine_tol, None),
        "max_refine_iters": (_integer, _OPTIMIZER.max_refine_iters, None),
    },
    "output": {
        "csv": (_path, None, "--csv"),
        "json": (_path, None, "--json"),
    },
}


def resolve_config(raw: dict, args: argparse.Namespace | None = None) -> dict:
    """Fill defaults and apply CLI overrides; the result is echoed verbatim
    into JSON reports so a run is reproducible from its own artifact."""
    _mapping(raw, ("experiment", "ensemble", "bounds", "eps_grid", *_SCHEMA), "config")
    cfg = {
        "experiment": str(raw.get("experiment", "experiment")),
        "ensemble": _require(raw, "ensemble", "config"),
        "bounds": raw.get("bounds", []),
        "eps_grid": _resolve_eps_grid(_require(raw, "eps_grid", "config")),
    }
    for name, fields in _SCHEMA.items():
        section = raw.get(name)
        section = {} if section is None else _mapping(section, fields, name)
        cfg[name] = {}
        for key, (cast, default, flag) in fields.items():
            value = getattr(args, flag[2:].replace("-", "_"), None) if flag else None
            if value is None:
                value = section.get(key, default)
            cfg[name][key] = _cast(value, name, key, cast)
    scale = getattr(args, "scale_bounds", None)
    cfg["scale_bounds"] = 1.0 if scale is None else float(scale)
    if not 0.0 <= cfg["scale_bounds"] < math.inf:
        raise ConfigError(f"--scale-bounds must be finite and non-negative, got {scale!r}")
    return cfg


def _resolve_eps_grid(spec) -> list:
    if isinstance(spec, (list, tuple)):
        try:
            grid = [_real(x) for x in spec]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"eps_grid values must be numbers: {exc}") from exc
    elif isinstance(spec, dict):
        _mapping(spec, ("start", "stop", "count", "spacing"), "eps_grid")
        start = _field(spec, "eps_grid", "start", _real, None)
        stop = _field(spec, "eps_grid", "stop", _real, None)
        count = _field(spec, "eps_grid", "count", _integer, None)
        spacing = spec.get("spacing", "linear")
        if count < 1:
            raise ConfigError("eps_grid count must be at least 1")
        # Checked before numpy builds the grid, which warns or raises on
        # endpoints that are not positive and finite.
        if not (0 < start < math.inf and 0 < stop < math.inf):
            raise ConfigError("eps_grid start and stop must be positive and finite")
        if spacing == "linear":
            grid = np.linspace(start, stop, count).tolist()
        elif spacing == "log":
            grid = np.geomspace(start, stop, count).tolist()
        else:
            raise ConfigError(f"unknown eps_grid spacing {spacing!r}")
    else:
        raise ConfigError("eps_grid must be a list or a start/stop/count mapping")
    if len(grid) == 0:
        raise ConfigError("eps_grid must be non-empty")
    if not all(0 < e < math.inf for e in grid):
        raise ConfigError("eps_grid values must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("eps_grid must be strictly ascending")
    return grid


# ---------------------------------------------------------------------------
# Model building
# ---------------------------------------------------------------------------


_MATRIX_KEYS = ("identity", "diagonal", "dense", "imag")


def _matrix(spec: dict) -> HermitianMatrix:
    """Exactly one of {identity: d}, {diagonal: [..]} or {dense: [[..]]};
    dense takes an optional imag: [[..]] of its shape, and the two must
    form a Hermitian matrix up to roundoff."""
    if sum(key in spec for key in ("identity", "diagonal", "dense")) != 1:
        raise ValueError("matrix needs exactly one of identity, diagonal or dense")
    if "imag" in spec and "dense" not in spec:
        raise ValueError("matrix imag is only allowed with dense")
    if "identity" in spec:
        return HermitianMatrix.identity(_integer(spec["identity"]))
    if "diagonal" in spec:
        return HermitianMatrix.diagonal([_real(x) for x in spec["diagonal"]])
    entries = _reals(spec["dense"])
    imag = _reals(spec.get("imag", np.zeros_like(entries)))
    if imag.shape != entries.shape:
        raise ValueError(f"matrix imag has shape {imag.shape}, dense {entries.shape}")
    # Set, not multiplied by 1j, so that an infinite imag warns of nothing.
    entries = entries.astype(complex)
    entries.imag = imag
    matrix = HermitianMatrix(entries)  # square and finite
    # Scaled so that the difference cannot overflow.
    scale = max(1.0, np.abs(entries.real).max(), np.abs(entries.imag).max())
    if np.abs(entries / scale - entries.conj().T / scale).max() > 1e-12:
        raise ValueError("matrix dense (with imag) is not Hermitian")
    return matrix


# {kind: (constructor, {field: cast})}; the constructor takes the fields in
# table order.  A table in place of a cast is a nested spec built from it,
# and a tuple of keys a mapping passed on as it is.
_LAWS = {
    # Gamma(1.0, rate) is the exponential law, bit for bit.
    "exponential": (lambda rate: Gamma(1.0, rate), {"rate": _real}),
    "gamma": (Gamma, {"shape": _real, "rate": _real}),
    "bernoulli": (Bernoulli, {"p": _real}),
    "uniform": (Uniform, {"high": _real}),
}

_SOURCES = {
    # The matrix is built in the constructor, so that _build turns its
    # errors (non-numeric entries, ragged rows, identity: 0) into config errors.
    "scaled_fixed": (
        lambda matrix, law: ScaledFixed(_matrix(matrix), law),
        {"matrix": _MATRIX_KEYS, "law": _LAWS},
    ),
    "bernoulli_diagonal": (bernoulli_diagonal, {"dim": _integer, "p": _real, "scale": _real}),
    "bounded_rank_one": (BoundedRankOne, {"dim": _integer, "bound": _real}),
    "wishart": (Wishart, {"dim": _integer, "dof": _integer}),
}

_G_BUILTINS = {
    "exp_envelope": (bd.exp_envelope, {"bound": _real}),
    "log_rate": (bd.log_rate, {"rate": _real}),
    "power_envelope": (bd.power_envelope, {"C": _real, "alpha": _real}),
}


def _build(table: dict, spec, where: str, tag: str = "kind"):
    """Build the entry of `table` that `spec[tag]` names from spec's fields."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a mapping")
    kind = _require(spec, tag, where)
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(
            f"{where}: unknown {tag} {kind!r}; expected one of " + ", ".join(table)
        )
    make, fields = table[kind]
    _mapping(spec, (tag, *fields), where)
    args = []
    for key, cast in fields.items():
        value = _require(spec, key, where)
        if isinstance(cast, dict):
            args.append(_build(cast, value, f"{where}.{key}"))
        elif isinstance(cast, tuple):
            args.append(_mapping(value, cast, f"{where}.{key}"))
        else:
            args.append(_cast(value, where, key, cast))
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_model(ensemble_spec) -> SumModel:
    _mapping(ensemble_spec, ("source", "repeat", "sources"), "ensemble")
    if "sources" in ensemble_spec and ("source" in ensemble_spec or "repeat" in ensemble_spec):
        raise ConfigError("ensemble takes either 'source' (+ repeat) or 'sources'")
    if "sources" in ensemble_spec:
        specs = ensemble_spec["sources"]
        if not isinstance(specs, list) or not specs:
            raise ConfigError("ensemble.sources must be a non-empty list")
        sources = tuple(
            _build(_SOURCES, s, f"ensemble.sources[{i}]") for i, s in enumerate(specs)
        )
    elif "source" in ensemble_spec:
        repeat = _field(ensemble_spec, "ensemble", "repeat", _integer, 1)
        if repeat < 1:
            raise ConfigError("ensemble.repeat must be at least 1")
        # One object at every position: K i.i.d. copies (see SumModel).
        sources = (_build(_SOURCES, ensemble_spec["source"], "ensemble.source"),) * repeat
    else:
        raise ConfigError("ensemble needs 'source' or 'sources'")
    try:
        return SumModel(sources=sources)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Bound requests
# ---------------------------------------------------------------------------


def _normalize_bound_requests(spec) -> list:
    if not isinstance(spec, list) or not spec:
        raise ConfigError("bounds must be a non-empty list")
    requests = []
    for i, entry in enumerate(spec):
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict):
            raise ConfigError(f"bounds[{i}] must be a name or mapping")
        name = _require(entry, "name", f"bounds[{i}]")
        if not isinstance(name, str) or name not in BOUNDS:
            raise ConfigError(
                f"bounds[{i}]: unknown bound {name!r}; expected one of "
                + ", ".join(BOUNDS)
            )
        _mapping(entry, ("name", *BOUNDS[name][1]), f"bounds[{i}]")
        if any(r["name"] == name for r in requests):
            raise ConfigError(f"bounds[{i}]: bound {name!r} requested twice")
        requests.append(dict(entry))
    return requests


# Each BOUNDS entry is (prepare, keys): keys are the request keys the bound
# reads besides its name, and prepare(request, model, mgf, eps_grid, opt_cfg)
# parses them, raises when the bound does not apply to the model, and
# returns run() -> list[BoundResult].  A bound that needs no mgf is computed
# in prepare, so computing it is its applicability check.  An mgf bound is
# only checked there, since prepare draws no snapshot: the order of the
# draws fixes the empirical values.  validate_requests calls each prepare
# once; evaluate_bounds calls the runs.


def _mgf_bound(bound, sources):
    """Entry for a theta-scan bound(model, mgf, eps_grid, opt_cfg) over the
    mgf of sources(model); MgfModel.check decides whether the mgf is there."""

    def prepare(req, model, mgf, eps_grid, opt_cfg):
        mgf.check(sources(model))
        return lambda: bound(model, mgf, eps_grid, opt_cfg)

    return prepare, ()


def _computed(compute, keys=()):
    """Entry for a bound that needs no mgf: compute(req, model, eps_grid,
    opt_cfg) runs once, in prepare."""

    def prepare(req, model, mgf, eps_grid, opt_cfg):
        values = compute(req, model, eps_grid, opt_cfg)
        return lambda: values

    return prepare, keys


def _g_theta(req, model, eps_grid, opt_cfg):
    g = _build(_G_BUILTINS, _require(req, "g", "g_theta"), "g_theta.g", tag="builtin")
    dom = req.get("dominators", "mean")
    if dom == "mean":
        mats = bd.source_means(model)
    elif dom == "identity":
        mats = [HermitianMatrix.identity(model.dim)] * model.size
    else:
        raise ConfigError(f"unknown dominators spec {dom!r}")
    return bd.g_theta_bound(g, mats, eps_grid, opt_cfg)


def _negative_moment(req, model, eps_grid, opt_cfg):
    p = _field(req, "negative_moment", "p", _real, 1.0)
    if "Cp" in req:
        cp = _cast(req["Cp"], "negative_moment", "Cp", _real)
    else:
        cp = bd.admissible_cp(model, p)
    return bd.negative_moment_bound(cp, p, eps_grid)


def _closed_form(bound):
    """Entry for a closed-form bound(model, eps_grid)."""
    return _computed(lambda req, model, eps_grid, opt_cfg: bound(model, eps_grid))


BOUNDS = {
    # single applies the one-matrix bound to the sum, whose source is the model.
    "single": _mgf_bound(bd.single_matrix_bound, lambda m: (m,)),
    "master": _mgf_bound(bd.master_bound, lambda m: m.sources),
    "g_theta": _computed(_g_theta, ("g", "dominators")),
    "log_mean": _mgf_bound(bd.log_mean_bound, lambda m: m.sources),
    "product": _mgf_bound(bd.product_bound, lambda m: m.sources),
    "negative_moment": _computed(_negative_moment, ("p", "Cp")),
    "chernoff_sum": _closed_form(bd.chernoff_sum_bound),
    "chernoff_product": _closed_form(bd.chernoff_product_bound),
    "series_sum": _closed_form(bd.series_sum_bound),
    "series_product": _closed_form(bd.series_product_bound),
}


def validate_requests(
    requests: list,
    model: SumModel,
    mgf: MgfModel,
    eps_grid: list,
    opt_cfg: OptimizerConfig,
) -> list:
    """Normalise the config's bound list and prepare every request, in
    order, before any mgf theta-scan.  Returns the normalised request
    dicts, each with its prepared `run` added: a bound that needs no mgf
    is computed here, once, and an mgf bound only checked.  Raises ConfigError
    naming the first malformed entry, inapplicable (bound, ensemble) pair
    or empirical mgf snapshot too large to draw."""
    prepared = []
    for req in _normalize_bound_requests(requests):
        name = req["name"]
        try:
            run = BOUNDS[name][0](req, model, mgf, eps_grid, opt_cfg)
        except ConfigError:
            raise
        except SmallDevError as exc:
            raise ConfigError(f"bound {name!r} inapplicable: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bound {name!r}: {exc}") from exc
        prepared.append({**req, "run": run})
    return prepared


def evaluate_bounds(
    requests: list,
    model: SumModel,
    mgf: MgfModel,
    eps_grid: list,
    opt_cfg: OptimizerConfig,
) -> dict:
    """Call the runs of validate_requests' prepared requests, in order, since
    an empirical snapshot takes its substream by order of first use; returns
    a mapping name -> list of BoundResult aligned with eps_grid.  requests
    may also be a config's bound list as it stands: unless every entry is a
    prepared request, the list goes through validate_requests first, so a
    malformed or inapplicable entry raises ConfigError before any run."""
    if not all(isinstance(req, dict) and "run" in req for req in requests):
        requests = validate_requests(requests, model, mgf, eps_grid, opt_cfg)
    return {req["name"]: req["run"]() for req in requests}


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.17g}"


def _finite(x: float | None) -> bool:
    return x is not None and math.isfinite(x)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def _json_text(payload: dict) -> str:
    """Strict JSON: a non-finite number would be the bare token Infinity or
    NaN, which strict parsers reject, so it is an error here instead."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SmallDevError(f"the JSON report holds a non-finite number: {exc}") from exc


def _write_report(cfg: dict, csv_text: str, rows: list) -> None:
    """The output of bound and simulate: the CSV to output.csv, the JSON
    report of rows to output.json, and the CSV to stdout when neither path
    is set."""
    out = cfg["output"]
    json_text = None
    if out["json"] is not None:
        payload = {"experiment": cfg["experiment"], "rows": rows, "config_echo": cfg}
        json_text = _json_text(payload)
    if out["csv"] is not None or out["json"] is None:
        _emit(csv_text, out["csv"])
    if json_text is not None:
        _emit(json_text, out["json"])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _prepare(args):
    raw = load_config(args.config)
    cfg = resolve_config(raw, args)
    model = build_model(cfg["ensemble"])
    sim = cfg["simulation"]
    if sim["n"] < 1:
        raise ConfigError("simulation.n must be at least 1")
    if not 0.0 < sim["confidence"] < 1.0:
        raise ConfigError("simulation.confidence must lie in (0, 1)")
    if sim["seed"] < 0:
        raise ConfigError("simulation.seed must be non-negative")
    # A bad SMALLDEV_THREADS or report path exits 2 before any bound runs.
    mc.worker_count()
    outputs = {f"output.{key}": path for key, path in cfg["output"].items() if path is not None}
    for path in outputs.values():
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise ConfigError(f"cannot write {path!r}: not a file in an existing directory")
    # A report written over the config or the other report would destroy
    # it.  realpath, unlike Path.resolve, does not raise on a symlink loop.
    named = {"config": args.config, **outputs}
    first = {}
    for key, path in named.items():
        other = first.setdefault(os.path.realpath(path), key)
        if other != key:
            raise ConfigError(f"{other} and {key} name one file: {named[other]!r}, {path!r}")
    try:
        opt_cfg = OptimizerConfig(**cfg["optimizer"])
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
    try:
        mgf = MgfModel(**cfg["mgf"], seed=sim["seed"])
    except ValueError as exc:
        raise ConfigError(f"mgf: {exc}") from exc
    requests = validate_requests(cfg["bounds"], model, mgf, cfg["eps_grid"], opt_cfg)
    return cfg, model, requests, mgf, opt_cfg


def _bounds(args) -> tuple:
    """(cfg, model, bound map) of _prepare and evaluate_bounds.  The
    MgfModel, its snapshots and the prepared requests die on return, so
    that compare frees them before its simulation."""
    cfg, model, requests, mgf, opt_cfg = _prepare(args)
    return cfg, model, evaluate_bounds(requests, model, mgf, cfg["eps_grid"], opt_cfg)


def _estimate(cfg: dict, model: SumModel) -> list:
    sim = cfg["simulation"]
    return mc.estimate(
        model, cfg["eps_grid"], n=sim["n"], confidence=sim["confidence"], seed=sim["seed"]
    )


def cmd_bound(args) -> int:
    cfg, _model, bound_map = _bounds(args)
    rows = [
        (eps, name, results[i])
        for i, eps in enumerate(cfg["eps_grid"])
        for name, results in bound_map.items()
    ]
    csv_text = _csv(
        "epsilon,bound,value,raw_value,theta_star,valid",
        [(eps, name, r.value, r.raw_value, r.theta_star, r.valid) for eps, name, r in rows],
    )
    # A theta* past the float range (a series bound's alpha K / eps at a
    # subnormal eps) is written as null: JSON has no infinity.
    _write_report(
        cfg,
        csv_text,
        [
            {"epsilon": eps, "bound": name, **dataclasses.asdict(r),
             "theta_star": r.theta_star if _finite(r.theta_star) else None}
            for eps, name, r in rows
        ],
    )
    return 0


def cmd_simulate(args) -> int:
    cfg, model, _requests, _mgf, _opt = _prepare(args)
    estimates = _estimate(cfg, model)
    rows = [(e.epsilon, e.n, e.hits, e.p_hat, e.ci_low, e.ci_high) for e in estimates]
    csv_text = _csv("epsilon,n,hits,p_hat,ci_low,ci_high", rows)
    _write_report(cfg, csv_text, [dataclasses.asdict(e) for e in estimates])
    return 0


def cmd_compare(args) -> int:
    cfg, model, bound_map = _bounds(args)
    # Values lie in [0, 1] and the scale is non-negative, so at the default
    # scale of 1 every value stays as it is.
    scale = cfg["scale_bounds"]
    bound_map = {
        name: [dataclasses.replace(r, value=min(r.value * scale, 1.0)) for r in results]
        for name, results in bound_map.items()
    }
    report = mc.compare(bound_map, _estimate(cfg, model))
    payload = {
        "experiment": cfg["experiment"],
        "rows": [dataclasses.asdict(row) for row in report.rows],
        "violations": report.violations,
        "config_echo": cfg,
    }
    out = cfg["output"]
    json_text = _json_text(payload)
    if out["csv"] is not None:
        header = "epsilon,bound,bound_value,p_hat,ci_low,ci_high,dominated"
        _emit(_csv(header, map(dataclasses.astuple, report.rows)), out["csv"])
    _emit(json_text, out["json"])
    return 0 if report.violations == 0 else 1


def demo_config_names() -> list:
    base = resources.files("smalldev").joinpath("configs")
    return sorted(p.name[: -len(".yaml")] for p in base.iterdir() if p.name.endswith(".yaml"))


def demo_config_path(name: str) -> str:
    path = resources.files("smalldev").joinpath("configs", f"{name}.yaml")
    if not path.is_file():
        raise ConfigError(
            f"unknown demo config {name!r}; available: "
            + ", ".join(demo_config_names())
        )
    return str(path)


def cmd_demo(args) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.outdir!r}: {exc}") from exc
    worst = 0
    for name in demo_config_names():
        demo_args = argparse.Namespace(
            **vars(args),
            config=demo_config_path(name),
            csv=str(outdir / f"{name}.csv"),
            json=str(outdir / f"{name}.json"),
        )
        code = cmd_compare(demo_args)
        verdict = "dominated" if code == 0 else "VIOLATION"
        print(f"{name}: {verdict}")
        worst = max(worst, code)
    return worst


def _add_common(parser: argparse.ArgumentParser, with_config: bool = True) -> None:
    """The _SCHEMA flags.  demo (with_config=False) runs the bundled configs
    and writes into --outdir, so it takes neither --config nor output paths."""
    if with_config:
        parser.add_argument("--config", required=True, help="experiment config (YAML)")
    for section, fields in _SCHEMA.items():
        for key, (cast, _default, flag) in fields.items():
            if flag is not None and (with_config or section != "output"):
                arg_type = {_integer: int, _real: float}.get(cast, cast)
                parser.add_argument(flag, type=arg_type, help=f"override {section}.{key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smalldev",
        description=(
            "Evaluate small-deviation bounds on the largest eigenvalue of "
            "sums of random psd matrices and validate them by simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate bounds over the eps grid")
    _add_common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimates with exact CIs")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="bounds vs simulation domination report")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--scale-bounds",
        type=float,
        default=None,
        dest="scale_bounds",
        help="debug: scale bound values before the domination check",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_demo = sub.add_parser("demo", help="run the bundled demo experiments")
    _add_common(p_demo, with_config=False)
    p_demo.add_argument("--outdir", default="smalldev-demo", help="report directory")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # Exit 1 means a domination violation; an input too large is not one.
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except SmallDevError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
