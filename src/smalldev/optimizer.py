"""One-dimensional infimum search over theta in (0, inf).

The Laplace-transform objectives minimized here are smooth but not proven
convex in theta, so the search is a coarse log-spaced scan followed by
Brent's minimizer (parabolic steps with a golden-section fallback; Brent
1973, Algorithms for Minimization without Derivatives, ch. 5) inside the
bracketing cell.  Non-finite objective values are treated as +inf rather
than errors: empirical mgfs can underflow at extreme theta and should
simply lose the scan there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoFiniteValueError

__all__ = ["OptimizerConfig", "MinimizeResult", "minimize"]

_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


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

    Scans a log-spaced coarse grid, then refines with Brent's minimizer in
    log-theta inside the cell bracketing the grid minimum, started at that
    minimum so its known value costs no new evaluation; the refinement never
    leaves that cell, makes at most max_refine_iters evaluations, and stops
    once the log-theta bracket is about log1p(refine_tol) wide.  f_star is
    never above the coarse minimum.  at_boundary is true when the coarse
    minimum sits at an endpoint, signalling an objective that keeps
    decreasing toward the boundary (or a trivial bound).
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

    # Brent's minimizer in log-theta: x is the best point so far (value
    # best_val), w the second best, v the previous w; d is the last step
    # and e the one before it.
    a = math.log(grid[max(i - 1, 0)])
    b = math.log(grid[min(i + 1, len(grid) - 1)])
    tol = math.log1p(cfg.refine_tol)
    x = w = v = math.log(best_theta)
    fw = fv = best_val
    d = e = 0.0
    for _ in range(cfg.max_refine_iters):
        m = 0.5 * (a + b)
        # Brent's stopping rule with absolute tolerance tol; the 2*eps*|x|
        # floor only keeps each new point distinct from x in floating point.
        tol1 = 2.0 * _EPS * abs(x) + tol / 3.0
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            # Parabola through x, w, v.  A non-finite value makes p or q nan,
            # which fails the acceptance test and falls back to golden section.
            r = (x - w) * (best_val - fv)
            q = (x - v) * (best_val - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                if min(x + d - a, b - x - d) < 2.0 * tol1:
                    d = tol1 if x <= m else -tol1
                golden = False
        if golden:
            e = (a if x >= m else b) - x
            d = _INV_PHI_SQ * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        theta_u = math.exp(u)
        fu = _safe(f, theta_u)
        # Only a strict improvement moves x: at a flat minimum values tie to
        # the last bit, and moving on ties walks x instead of shrinking [a, b].
        if fu < best_val:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw = w, fw, x, best_val
            x, best_val, best_theta = u, fu, theta_u
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    return MinimizeResult(theta_star=best_theta, f_star=best_val, at_boundary=at_boundary)
