"""Monte Carlo estimation of P{lambda_max(sum_k X_k) <= eps} with exact
binomial confidence intervals, and domination checks against bound values.

One shared pool of n draws of lambda_max is scored against every point of
the eps grid, so empirical probabilities are monotone along the grid and
every bound is checked against the same underlying measure.  Sampling is
chunked; each fixed-size chunk owns a dedicated substream, so totals are
bit-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import betaincinv

from .bounds import BoundResult
from .ensembles import SumModel, sample_sum_batch
from .errors import ConfigError
from .rng import RngStream

__all__ = [
    "EmpiricalEstimate",
    "DominationRow",
    "DominationReport",
    "estimate",
    "clopper_pearson",
    "compare",
    "worker_count",
]

# Substream purpose index for simulation draws (mgf snapshots use 1).
_ESTIMATE_PURPOSE = 0

# Samples per chunk.  Fixed so the chunk -> substream assignment, and hence
# every drawn value, is independent of how chunks are spread over workers.
_CHUNK = 4096

THREADS_ENV = "SMALLDEV_THREADS"


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Empirical P{lambda_max <= epsilon} with a Clopper-Pearson interval."""

    epsilon: float
    n: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float
    confidence: float


@dataclass(frozen=True)
class DominationRow:
    epsilon: float
    bound_name: str
    bound_value: float
    p_hat: float
    ci_low: float
    ci_high: float
    dominated: bool


@dataclass(frozen=True)
class DominationReport:
    rows: tuple
    violations: int


def worker_count(threads: int | None = None) -> int:
    """Resolve the worker count: explicit argument, else the SMALLDEV_THREADS
    environment cap, else a small default.  A SMALLDEV_THREADS that is not
    an integer is a ConfigError naming the variable."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(THREADS_ENV)
    if env is None:
        return min(4, os.cpu_count() or 1)
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None


def clopper_pearson(hits: int, n: int, confidence: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for hits out of n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= hits <= n:
        raise ValueError("hits must lie in [0, n]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    alpha = 1.0 - confidence
    low = 0.0 if hits == 0 else float(betaincinv(hits, n - hits + 1, alpha / 2.0))
    high = 1.0 if hits == n else float(betaincinv(hits + 1, n - hits, 1.0 - alpha / 2.0))
    return low, high


def _chunk_hits(model: SumModel, stream: RngStream, size: int, eps: np.ndarray) -> np.ndarray:
    sums = sample_sum_batch(model, stream, size)
    lam = np.linalg.eigvalsh(sums)[:, -1]
    return (lam[:, None] <= eps[None, :]).sum(axis=0)


def estimate(
    model: SumModel,
    eps_grid: Sequence[float],
    n: int = 100_000,
    confidence: float = 0.99,
    seed: int = 0,
    threads: int | None = None,
) -> list[EmpiricalEstimate]:
    """Estimate P{lambda_max(sum) <= eps} at every point of a strictly
    ascending eps grid from one shared pool of n draws."""
    eps = np.asarray(list(eps_grid), dtype=float)
    if eps.size == 0:
        raise ValueError("eps_grid must be non-empty")
    if not (eps > 0).all():  # a NaN eps fails too
        raise ValueError("eps_grid values must be positive")
    if eps.size > 1 and not (np.diff(eps) > 0).all():
        raise ValueError("eps_grid must be strictly ascending")
    if n < 1:
        raise ValueError("n must be at least 1")

    base = RngStream(seed).child(_ESTIMATE_PURPOSE)
    sizes = [min(_CHUNK, n - c * _CHUNK) for c in range((n + _CHUNK - 1) // _CHUNK)]
    # Chunk c always draws from substream c, whatever thread runs it, so the
    # per-chunk hit vectors (and their integer sum) never depend on workers.
    streams = [base.child(c) for c in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=worker_count(threads)) as pool:
        parts = list(
            pool.map(lambda stream, size: _chunk_hits(model, stream, size, eps), streams, sizes)
        )
    hits = np.sum(np.stack(parts), axis=0)

    out = []
    for e, h in zip(eps.tolist(), hits.tolist()):
        low, high = clopper_pearson(h, n, confidence)
        out.append(EmpiricalEstimate(e, n, h, h / n, low, high, confidence))
    return out


def compare(
    bounds: Mapping[str, Sequence[BoundResult]],
    estimates: Sequence[EmpiricalEstimate],
) -> DominationReport:
    """Check every bound value against ci_low, the lower end of the
    two-sided Clopper-Pearson interval of the matching empirical estimate;
    as a one-sided limit its level is (1 + confidence)/2, e.g. 99.5% at
    confidence 0.99.  A bound row is flagged only when the data
    statistically contradicts it (bound < ci_low)."""
    for name, results in bounds.items():
        if len(results) != len(estimates):
            raise ValueError(
                f"bound {name!r} has {len(results)} values for "
                f"{len(estimates)} grid points"
            )
    rows = []
    for i, est in enumerate(estimates):
        for name, results in bounds.items():
            value = results[i].value
            row = (est.epsilon, name, value, est.p_hat, est.ci_low, est.ci_high)
            rows.append(DominationRow(*row, value >= est.ci_low))
    return DominationReport(rows=tuple(rows), violations=sum(not r.dominated for r in rows))
