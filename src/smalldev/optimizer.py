"""One-dimensional infimum search over theta in (0, inf).

The Laplace-transform objectives minimized here are smooth but not proven
convex in theta, so the search is a coarse log-spaced scan followed by
golden-section refinement inside the bracketing cell.  Non-finite objective
values are treated as +inf rather than errors: empirical mgfs can underflow
at extreme theta and should simply lose the scan there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoFiniteValueError

__all__ = ["OptimizerConfig", "MinimizeResult", "minimize"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class OptimizerConfig:
    theta_min: float = 1e-6
    theta_max: float = 1e6
    coarse_points: int = 200
    refine_tol: float = 1e-8
    max_refine_iters: int = 200

    def __post_init__(self):
        if self.theta_min <= 0 or self.theta_max <= 0:
            raise ValueError("theta_min and theta_max must be positive")
        if self.theta_min >= self.theta_max:
            raise ValueError("theta_min must be below theta_max")
        if not (math.isfinite(self.theta_min) and math.isfinite(self.theta_max)):
            raise ValueError("theta_min and theta_max must be finite")
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be positive")
        if self.coarse_points < 3:
            raise ValueError("coarse_points must be at least 3")

    def coarse_grid(self) -> np.ndarray:
        return np.geomspace(self.theta_min, self.theta_max, self.coarse_points)


class MinimizeResult(NamedTuple):
    theta_star: float
    f_star: float
    at_boundary: bool


def _safe(f: Callable[[float], float], theta: float) -> float:
    val = f(theta)
    try:
        val = float(val)
    except (TypeError, ValueError):
        return math.inf
    return val if math.isfinite(val) else math.inf


def minimize(f: Callable[[float], float], cfg: OptimizerConfig = OptimizerConfig()) -> MinimizeResult:
    """Minimize f over [theta_min, theta_max].

    Scans a log-spaced coarse grid, then refines by golden-section search in
    log-theta inside the cell bracketing the grid minimum; the refinement
    never leaves that cell.  at_boundary is true when the coarse minimum
    sits at an endpoint, signalling an objective that keeps decreasing
    toward the boundary (or a trivial bound).
    """
    grid = cfg.coarse_grid()
    vals = np.array([_safe(f, t) for t in grid])
    if not np.isfinite(vals).any():
        raise NoFiniteValueError(
            "objective is non-finite at every point of the coarse grid"
        )
    i = int(np.argmin(vals))
    at_boundary = i == 0 or i == len(grid) - 1
    best_theta = float(grid[i])
    best_val = float(vals[i])

    # Golden-section refinement in log-theta within the bracketing cell.
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, len(grid) - 1)])
    tol = math.log1p(cfg.refine_tol)
    h = b - a
    if h > tol:
        n_iter = min(
            cfg.max_refine_iters,
            int(math.ceil(math.log(tol / h) / math.log(_INV_PHI))),
        )
        c = a + _INV_PHI_SQ * h
        d = a + _INV_PHI * h
        yc = _safe(f, math.exp(c))
        yd = _safe(f, math.exp(d))
        for _ in range(max(n_iter - 1, 0)):
            if yc < yd:
                b, d, yd = d, c, yc
                h *= _INV_PHI
                c = a + _INV_PHI_SQ * h
                yc = _safe(f, math.exp(c))
            else:
                a, c, yc = c, d, yd
                h *= _INV_PHI
                d = a + _INV_PHI * h
                yd = _safe(f, math.exp(d))
        for u, y in ((c, yc), (d, yd)):
            if y < best_val:
                best_val = y
                best_theta = math.exp(u)

    return MinimizeResult(theta_star=best_theta, f_star=best_val, at_boundary=at_boundary)
