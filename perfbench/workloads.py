"""The benchmark's workloads: each turns a workload seed into one
`smalldev compare` config, plus what the correctness gate checks on it.

Why these three (see README.md for the layer map):

* rank1-empirical: the bundled bounded_rank_one experiment.  Empirical mgf
  with 4000-sample snapshots; nearly all its time is the Laplace bounds'
  theta-scan through MgfModel.evaluate, so it is where a faster scan or
  snapshot kernel must show.
* bernoulli-analytic: the bundled bernoulli_diagonal experiment.  Same
  theta-scan with an analytic mgf at d=1, so each objective call is mostly
  per-call overhead and no snapshot exists.  Its exact truth is 2^-10.
* wishart-mc: generated here.  Only a closed-form bound, so the Monte
  Carlo simulation (sampling plus batched eigvalsh) does most of the work.
"""

from __future__ import annotations

import copy
from pathlib import Path

import yaml

# Workload seeds map onto this many input seeds, whose Monte Carlo hits
# (and empirical bound values) reference.json holds, so that every run is
# checked against the seed commit whatever seed it gets.
SEED_POOL = 32

# Bounds whose values depend on the mgf snapshot.  In empirical mode they
# are excluded from the reference comparison; every other bound value is
# deterministic and must match the reference.
MGF_BOUNDS = frozenset({"single", "master", "log_mean", "product"})

_WISHART_MC = {
    "experiment": "wishart-mc",
    "ensemble": {"repeat": 4, "source": {"kind": "wishart", "dim": 8, "dof": 8}},
    "bounds": [{"name": "negative_moment", "p": 1.0}],
    # Spans the 1%..99% quantiles of lambda_max (about 6.1..9.3), so most
    # rows have 0 < hits < n.
    "eps_grid": {"start": 5.0, "stop": 10.0, "count": 10, "spacing": "linear"},
    "simulation": {"n": 200_000, "confidence": 0.99, "seed": 0},
    "mgf": {"mode": "analytic"},
}

WORKLOADS = {
    "rank1-empirical": {"bundled": "bounded_rank_one"},
    "bernoulli-analytic": {"bundled": "bernoulli_diagonal", "value_floor": 2.0**-10},
    "wishart-mc": {"config": _WISHART_MC},
}


def input_seed(seed: int) -> int:
    return seed % SEED_POOL


def make_config(root: Path, name: str, seed: int) -> dict:
    """The compare config of workload `name` at workload seed `seed`."""
    spec = WORKLOADS[name]
    if "bundled" in spec:
        path = root / "src" / "smalldev" / "configs" / f"{spec['bundled']}.yaml"
        cfg = yaml.safe_load(path.read_text(encoding="utf-8"))
    else:
        cfg = copy.deepcopy(spec["config"])
    cfg["simulation"]["seed"] = input_seed(seed)
    return cfg


def reference_checked(cfg: dict) -> list:
    """Names of the bounds whose values must equal the reference."""
    names = [b["name"] for b in cfg["bounds"]]
    if cfg.get("mgf", {}).get("mode", "analytic") == "analytic":
        return names
    return [n for n in names if n not in MGF_BOUNDS]
