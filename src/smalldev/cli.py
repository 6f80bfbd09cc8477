"""Command-line front end.

Commands:
  bound     evaluate the requested bounds over the eps grid, write CSV/JSON
  simulate  Monte Carlo estimates with exact confidence intervals, write CSV
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
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import bounds as bd
from . import montecarlo as mc
from .ensembles import (
    Bernoulli,
    BernoulliDiagonal,
    BoundedRankOne,
    Exponential,
    Gamma,
    MgfModel,
    ScaledFixed,
    SumModel,
    SumSource,
    Uniform,
    Wishart,
)
from .errors import ConfigError, SmallDevError
from .linalg import HermitianMatrix, matrix_power
from .optimizer import OptimizerConfig

BOUND_NAMES = (
    "single",
    "master",
    "g_theta",
    "log_mean",
    "product",
    "negative_moment",
    "chernoff_sum",
    "chernoff_product",
    "series_sum",
    "series_product",
)

_BOUND_CSV_HEADER = "epsilon,bound,value,raw_value,theta_star,valid"
_SIM_CSV_HEADER = "epsilon,n,hits,p_hat,ci_low,ci_high"
_COMPARE_CSV_HEADER = "epsilon,bound,bound_value,p_hat,ci_low,ci_high,dominated"


# ---------------------------------------------------------------------------
# Config loading and resolution
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
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


def _section(raw: dict, key: str) -> dict:
    section = raw.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a mapping")
    return section


def _integer(value) -> int:
    """int() that refuses to truncate: 4000 and 4000.0 pass, 100.9 raises."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not integral")
    return int(value)


def _cast(value, where: str, key: str, cast):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{where}.{key} must be {'an integer' if cast is _integer else 'a number'}, "
            f"got {value!r}"
        ) from exc


def _field(section: dict, where: str, key: str, cast, default):
    return _cast(section.get(key, default), where, key, cast)


def resolve_config(raw: dict, args: argparse.Namespace | None = None) -> dict:
    """Fill defaults and apply CLI overrides; the result is echoed verbatim
    into JSON reports so a run is reproducible from its own artifact."""
    sim = _section(raw, "simulation")
    mgf = _section(raw, "mgf")
    opt = _section(raw, "optimizer")
    output = _section(raw, "output")
    cfg = {
        "experiment": str(raw.get("experiment", "experiment")),
        "ensemble": _require(raw, "ensemble", "config"),
        "bounds": raw.get("bounds", []),
        "eps_grid": _resolve_eps_grid(_require(raw, "eps_grid", "config")),
        "simulation": {
            "n": _field(sim, "simulation", "n", _integer, 100_000),
            "confidence": _field(sim, "simulation", "confidence", float, 0.99),
            "seed": _field(sim, "simulation", "seed", _integer, 0),
        },
        "mgf": {
            "mode": str(mgf.get("mode", "analytic")),
            "n_samples": _field(mgf, "mgf", "n_samples", _integer, 10_000),
        },
        "optimizer": {
            "theta_min": _field(opt, "optimizer", "theta_min", float, 1e-6),
            "theta_max": _field(opt, "optimizer", "theta_max", float, 1e6),
            "coarse_points": _field(opt, "optimizer", "coarse_points", _integer, 200),
            "refine_tol": _field(opt, "optimizer", "refine_tol", float, 1e-8),
            "max_refine_iters": _field(opt, "optimizer", "max_refine_iters", _integer, 200),
        },
        "output": {
            "csv": output.get("csv"),
            "json": output.get("json"),
        },
        "scale_bounds": 1.0,
    }
    if args is not None:
        if getattr(args, "seed", None) is not None:
            cfg["simulation"]["seed"] = int(args.seed)
        if getattr(args, "samples", None) is not None:
            cfg["simulation"]["n"] = int(args.samples)
        if getattr(args, "confidence", None) is not None:
            cfg["simulation"]["confidence"] = float(args.confidence)
        if getattr(args, "theta_min", None) is not None:
            cfg["optimizer"]["theta_min"] = float(args.theta_min)
        if getattr(args, "theta_max", None) is not None:
            cfg["optimizer"]["theta_max"] = float(args.theta_max)
        if getattr(args, "coarse_points", None) is not None:
            cfg["optimizer"]["coarse_points"] = int(args.coarse_points)
        if getattr(args, "csv", None) is not None:
            cfg["output"]["csv"] = args.csv
        if getattr(args, "json", None) is not None:
            cfg["output"]["json"] = args.json
        if getattr(args, "scale_bounds", None) is not None:
            cfg["scale_bounds"] = float(args.scale_bounds)
    return cfg


def _resolve_eps_grid(spec) -> list:
    if isinstance(spec, (list, tuple)):
        try:
            grid = [float(x) for x in spec]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"eps_grid values must be numbers: {exc}") from exc
    elif isinstance(spec, dict):
        start = _field(spec, "eps_grid", "start", float, None)
        stop = _field(spec, "eps_grid", "stop", float, None)
        count = _field(spec, "eps_grid", "count", _integer, None)
        spacing = spec.get("spacing", "linear")
        if count < 1:
            raise ConfigError("eps_grid count must be at least 1")
        if spacing == "linear":
            grid = np.linspace(start, stop, count).tolist()
        elif spacing == "log":
            if start <= 0:
                raise ConfigError("log-spaced eps_grid needs start > 0")
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


def _build_matrix(spec, where: str) -> HermitianMatrix:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: matrix must be a mapping")
    if "identity" in spec:
        return HermitianMatrix.identity(_cast(spec["identity"], where, "identity", _integer))
    if "diagonal" in spec:
        return HermitianMatrix.diagonal([float(x) for x in spec["diagonal"]])
    if "dense" in spec:
        entries = np.asarray(spec["dense"], dtype=float)
        if "imag" in spec:
            entries = entries + 1j * np.asarray(spec["imag"], dtype=float)
        return HermitianMatrix(entries)
    raise ConfigError(f"{where}: matrix needs identity, diagonal, or dense")


def _build_law(spec, where: str):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: law must be a mapping")
    kind = _require(spec, "kind", where)
    try:
        if kind == "exponential":
            return Exponential(rate=float(_require(spec, "rate", where)))
        if kind == "gamma":
            return Gamma(
                shape=float(_require(spec, "shape", where)),
                rate=float(_require(spec, "rate", where)),
            )
        if kind == "bernoulli":
            return Bernoulli(p=float(_require(spec, "p", where)))
        if kind == "uniform":
            return Uniform(high=float(_require(spec, "high", where)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown law kind {kind!r}")


def _build_source(spec, where: str):
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: source must be a mapping")
    kind = _require(spec, "kind", where)

    def integer(key: str) -> int:
        return _cast(_require(spec, key, where), where, key, _integer)

    try:
        if kind == "scaled_fixed":
            return ScaledFixed(
                matrix=_build_matrix(_require(spec, "matrix", where), where),
                law=_build_law(_require(spec, "law", where), where),
            )
        if kind == "bernoulli_diagonal":
            return BernoulliDiagonal(
                dim=integer("dim"),
                p=float(_require(spec, "p", where)),
                scale=float(_require(spec, "scale", where)),
            )
        if kind == "bounded_rank_one":
            return BoundedRankOne(
                dim=integer("dim"),
                bound=float(_require(spec, "bound", where)),
            )
        if kind == "wishart":
            return Wishart(
                dim=integer("dim"),
                dof=integer("dof"),
            )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown source kind {kind!r}")


def build_model(ensemble_spec) -> SumModel:
    if not isinstance(ensemble_spec, dict):
        raise ConfigError("ensemble must be a mapping")
    if "sources" in ensemble_spec and "source" in ensemble_spec:
        raise ConfigError("ensemble takes either 'source' (+ repeat) or 'sources'")
    if "sources" in ensemble_spec:
        specs = ensemble_spec["sources"]
        if not isinstance(specs, list) or not specs:
            raise ConfigError("ensemble.sources must be a non-empty list")
        sources = tuple(
            _build_source(s, f"ensemble.sources[{i}]") for i, s in enumerate(specs)
        )
    elif "source" in ensemble_spec:
        repeat = _field(ensemble_spec, "ensemble", "repeat", _integer, 1)
        if repeat < 1:
            raise ConfigError("ensemble.repeat must be at least 1")
        sources = tuple(
            _build_source(ensemble_spec["source"], "ensemble.source")
            for _ in range(repeat)
        )
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
        if name not in BOUND_NAMES:
            raise ConfigError(
                f"bounds[{i}]: unknown bound {name!r}; expected one of "
                + ", ".join(BOUND_NAMES)
            )
        requests.append(dict(entry))
    return requests


def _build_gmodel(params: dict, model: SumModel) -> bd.GThetaModel:
    gspec = params.get("g")
    if not isinstance(gspec, dict) or "builtin" not in gspec:
        raise ConfigError("g_theta needs g: {builtin: ..., <params>}")
    builtin = gspec["builtin"]
    if builtin == "exp_envelope":
        g = bd.exp_envelope(float(_require(gspec, "bound", "g_theta.g")))
        sign = "negative"
    elif builtin == "log_rate":
        g = bd.log_rate(float(_require(gspec, "rate", "g_theta.g")))
        sign = "negative"
    elif builtin == "power_envelope":
        g = bd.power_envelope(
            float(_require(gspec, "C", "g_theta.g")),
            float(_require(gspec, "alpha", "g_theta.g")),
        )
        sign = str(_require(gspec, "sign", "g_theta.g"))
    else:
        raise ConfigError(f"unknown g builtin {builtin!r}")
    dom = params.get("dominators", "mean")
    if dom == "mean":
        mats = []
        for k, src in enumerate(model.sources):
            m = src.mean()
            if m is None:
                raise ConfigError(
                    f"g_theta with mean dominators: source {k} "
                    f"(kind {src.kind!r}) has no closed-form mean"
                )
            mats.append(m)
    elif dom == "identity":
        mats = [HermitianMatrix.identity(model.dim)] * model.size
    else:
        raise ConfigError(f"unknown dominators spec {dom!r}")
    return bd.GThetaModel(g=g, sign=sign, dominators=tuple(mats))


def validate_requests(requests: list, model: SumModel, mgf_mode: str) -> None:
    """Reject inapplicable (bound, ensemble) pairs before any computation,
    naming the first offending pair."""
    for req in requests:
        name = req["name"]
        try:
            if name in ("series_sum", "series_product"):
                bd._series_params(model)
                for src in model.sources:
                    matrix_power(src.matrix, -1.0)  # pd check on the fixed matrices
            elif name in ("chernoff_sum", "chernoff_product"):
                bd._uniform_bound_and_means(model)
            elif name == "negative_moment":
                p = float(req.get("p", 1.0))
                if "Cp" not in req:
                    bd.admissible_cp(model, p)
            elif name == "g_theta":
                _build_gmodel(req, model)
            elif name in ("single", "master", "log_mean", "product"):
                if mgf_mode == "analytic":
                    if name == "single":
                        if SumSource(model).analytic_mgf(1.0) is None:
                            raise ConfigError(
                                "bound 'single' with analytic mgf needs a "
                                "one-source model; use empirical mgf mode"
                            )
                    else:
                        for k, src in enumerate(model.sources):
                            if src.analytic_mgf(1.0) is None:
                                raise ConfigError(
                                    f"bound {name!r} with analytic mgf: source "
                                    f"{k} (kind {src.kind!r}) has no closed "
                                    "form; use empirical mgf mode"
                                )
        except ConfigError:
            raise
        except SmallDevError as exc:
            raise ConfigError(f"bound {name!r} inapplicable: {exc}") from exc


def evaluate_bounds(
    requests: list,
    model: SumModel,
    mgf: MgfModel,
    eps_grid: list,
    opt_cfg: OptimizerConfig,
) -> dict:
    """Evaluate every requested bound at every grid point; returns a mapping
    name -> list of BoundResult aligned with eps_grid."""
    out: dict[str, list] = {}
    for req in requests:
        name = req["name"]
        if name in out:
            raise ConfigError(f"bound {name!r} requested twice")
        if name == "g_theta":
            gmodel = _build_gmodel(req, model)
            results = bd.g_theta_bound_grid(gmodel, eps_grid, opt_cfg)
        elif name == "single":
            results = bd.single_matrix_bound_grid(SumSource(model), mgf, eps_grid, opt_cfg)
        elif name == "master":
            results = bd.master_bound_grid(model, mgf, eps_grid, opt_cfg)
        elif name == "log_mean":
            results = bd.log_mean_bound_grid(model, mgf, eps_grid, opt_cfg)
        elif name == "product":
            per_source = [
                bd.single_matrix_bound_grid(s, mgf, eps_grid, opt_cfg)
                for s in model.sources
            ]
            results = [bd.product_bound(column) for column in zip(*per_source)]
        elif name == "negative_moment":
            p = float(req.get("p", 1.0))
            cp = float(req["Cp"]) if "Cp" in req else bd.admissible_cp(model, p)
            results = [bd.negative_moment_bound(cp, p, e) for e in eps_grid]
        elif name == "chernoff_sum":
            results = [bd.chernoff_sum_bound(model, e) for e in eps_grid]
        elif name == "chernoff_product":
            results = [bd.chernoff_product_bound(model, e) for e in eps_grid]
        elif name == "series_sum":
            results = [bd.series_sum_bound(model, e) for e in eps_grid]
        elif name == "series_product":
            results = [bd.series_product_bound(model, e) for e in eps_grid]
        else:  # pragma: no cover - guarded by _normalize_bound_requests
            raise ConfigError(f"unknown bound {name!r}")
        out[name] = results
    return out


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{x:.17g}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _bound_csv(bound_map: dict, eps_grid: list) -> str:
    lines = [_BOUND_CSV_HEADER]
    for i, eps in enumerate(eps_grid):
        for name, results in bound_map.items():
            r = results[i]
            lines.append(
                ",".join(
                    [
                        _fmt(eps),
                        name,
                        _fmt(r.value),
                        _fmt(r.raw_value),
                        _fmt(r.theta_star),
                        _fmt(r.valid),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _bound_rows_json(bound_map: dict, eps_grid: list) -> list:
    rows = []
    for i, eps in enumerate(eps_grid):
        for name, results in bound_map.items():
            r = results[i]
            rows.append(
                {
                    "epsilon": eps,
                    "bound": name,
                    "value": r.value,
                    "raw_value": r.raw_value,
                    "theta_star": r.theta_star,
                    "valid": r.valid,
                    "trivial": r.trivial,
                    "details": r.details,
                }
            )
    return rows


def _sim_csv(estimates) -> str:
    lines = [_SIM_CSV_HEADER]
    for est in estimates:
        lines.append(
            ",".join(
                [
                    _fmt(est.epsilon),
                    str(est.n),
                    str(est.hits),
                    _fmt(est.p_hat),
                    _fmt(est.ci_low),
                    _fmt(est.ci_high),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _compare_csv(report) -> str:
    lines = [_COMPARE_CSV_HEADER]
    for row in report.rows:
        lines.append(
            ",".join(
                [
                    _fmt(row.epsilon),
                    row.bound_name,
                    _fmt(row.bound_value),
                    _fmt(row.p_hat),
                    _fmt(row.ci_low),
                    _fmt(row.ci_high),
                    _fmt(row.dominated),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _prepare(args):
    raw = load_config(args.config)
    cfg = resolve_config(raw, args)
    model = build_model(cfg["ensemble"])
    requests = _normalize_bound_requests(cfg["bounds"])
    mode = cfg["mgf"]["mode"]
    if mode not in ("analytic", "empirical"):
        raise ConfigError(f"unknown mgf mode {mode!r}")
    validate_requests(requests, model, mode)
    sim = cfg["simulation"]
    if sim["n"] < 1:
        raise ConfigError("simulation.n must be at least 1")
    if not 0.0 < sim["confidence"] < 1.0:
        raise ConfigError("simulation.confidence must lie in (0, 1)")
    try:
        opt_cfg = OptimizerConfig(**cfg["optimizer"])
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
    try:
        mgf = MgfModel(mode=mode, n_samples=cfg["mgf"]["n_samples"], seed=sim["seed"])
    except ValueError as exc:
        raise ConfigError(f"mgf: {exc}") from exc
    return cfg, model, requests, mgf, opt_cfg


def cmd_bound(args) -> int:
    cfg, model, requests, mgf, opt_cfg = _prepare(args)
    bound_map = evaluate_bounds(requests, model, mgf, cfg["eps_grid"], opt_cfg)
    csv_text = _bound_csv(bound_map, cfg["eps_grid"])
    payload = {
        "experiment": cfg["experiment"],
        "rows": _bound_rows_json(bound_map, cfg["eps_grid"]),
        "config_echo": cfg,
    }
    out = cfg["output"]
    if out["csv"] is None and out["json"] is None:
        sys.stdout.write(csv_text)
    else:
        if out["csv"] is not None:
            _emit(csv_text, out["csv"])
        if out["json"] is not None:
            _emit(_json_text(payload), out["json"])
    return 0


def cmd_simulate(args) -> int:
    cfg, model, _requests, _mgf, _opt = _prepare(args)
    sim = cfg["simulation"]
    estimates = mc.estimate(
        model,
        cfg["eps_grid"],
        n=sim["n"],
        confidence=sim["confidence"],
        seed=sim["seed"],
    )
    _emit(_sim_csv(estimates), cfg["output"]["csv"])
    return 0


def cmd_compare(args) -> int:
    cfg, model, requests, mgf, opt_cfg = _prepare(args)
    bound_map = evaluate_bounds(requests, model, mgf, cfg["eps_grid"], opt_cfg)
    scale = cfg["scale_bounds"]
    if scale != 1.0:
        bound_map = {
            name: [
                bd.BoundResult(
                    raw_value=r.raw_value,
                    value=min(max(r.value * scale, 0.0), 1.0),
                    theta_star=r.theta_star,
                    valid=r.valid,
                    trivial=r.trivial,
                    details=r.details,
                )
                for r in results
            ]
            for name, results in bound_map.items()
        }
    sim = cfg["simulation"]
    estimates = mc.estimate(
        model,
        cfg["eps_grid"],
        n=sim["n"],
        confidence=sim["confidence"],
        seed=sim["seed"],
    )
    report = mc.compare(bound_map, estimates)
    payload = {
        "experiment": cfg["experiment"],
        "rows": [
            {
                "epsilon": row.epsilon,
                "bound_name": row.bound_name,
                "bound_value": row.bound_value,
                "p_hat": row.p_hat,
                "ci_low": row.ci_low,
                "ci_high": row.ci_high,
                "dominated": row.dominated,
            }
            for row in report.rows
        ],
        "violations": report.violations,
        "config_echo": cfg,
    }
    out = cfg["output"]
    if out["csv"] is not None:
        _emit(_compare_csv(report), out["csv"])
    _emit(_json_text(payload), out["json"])
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
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name in demo_config_names():
        demo_args = argparse.Namespace(
            config=demo_config_path(name),
            seed=args.seed,
            samples=args.samples,
            confidence=args.confidence,
            theta_min=args.theta_min,
            theta_max=args.theta_max,
            coarse_points=args.coarse_points,
            csv=str(outdir / f"{name}.csv"),
            json=str(outdir / f"{name}.json"),
            scale_bounds=None,
        )
        code = cmd_compare(demo_args)
        verdict = "dominated" if code == 0 else "VIOLATION"
        print(f"{name}: {verdict}")
        worst = max(worst, code)
    return worst


def _add_common(parser: argparse.ArgumentParser, with_config: bool = True) -> None:
    if with_config:
        parser.add_argument("--config", required=True, help="experiment config (YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--samples", type=int, default=None, help="override simulation.n")
    parser.add_argument(
        "--confidence", type=float, default=None, help="override simulation.confidence"
    )
    parser.add_argument("--theta-min", type=float, default=None, dest="theta_min")
    parser.add_argument("--theta-max", type=float, default=None, dest="theta_max")
    parser.add_argument(
        "--coarse-points", type=int, default=None, dest="coarse_points"
    )
    parser.add_argument("--csv", default=None, help="CSV output path")
    parser.add_argument("--json", default=None, help="JSON output path")


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
    except SmallDevError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
