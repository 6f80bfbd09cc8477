"""Small-deviation upper bounds on P{lambda_max(sum_k X_k) <= eps}.

Each bound evaluator returns a BoundResult carrying the raw expression,
its clamp to [0, 1], the optimal theta when one exists, a validity flag
for eps ranges outside which only the trivial bound 1 is claimed, and the
named scalar parameters that went into the expression.

Two families live here:

* Laplace-transform bounds minimized numerically over theta > 0
  (single_matrix_bound, master_bound, g_theta_bound, log_mean_bound).
  Each is inf_theta exp(theta*eps + h(theta)) with h independent of eps,
  so each also has a *_grid form that scans a whole eps grid and
  evaluates h once per distinct theta.
* Closed-form bounds with analytic minimizers (negative_moment_bound,
  chernoff_sum_bound, chernoff_product_bound, series_sum_bound,
  series_product_bound) plus the per-source product combinator
  (product_bound).

All evaluators are pure given (model, mgf snapshot, eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .ensembles import MgfModel, ScaledFixed, SumModel
from .errors import (
    DegenerateModelError,
    EigenConvergenceError,
    InvalidDominatorsError,
    NotPositiveDefiniteError,
    UnsupportedEnsembleError,
)
from .linalg import HermitianMatrix, lambda_min, matrix_power
from .optimizer import OptimizerConfig, minimize

__all__ = [
    "BoundResult",
    "GThetaModel",
    "exp_envelope",
    "log_rate",
    "power_envelope",
    "single_matrix_bound",
    "single_matrix_bound_grid",
    "master_bound",
    "master_bound_grid",
    "g_theta_bound",
    "g_theta_bound_grid",
    "log_mean_bound",
    "log_mean_bound_grid",
    "product_bound",
    "admissible_cp",
    "negative_moment_bound",
    "chernoff_sum_bound",
    "chernoff_product_bound",
    "series_sum_bound",
    "series_product_bound",
]

# Mgf eigenvalues are clipped here before taking logs.  Clipping raises the
# objective, so a clipped evaluation can only loosen a bound, never break it.
_EIG_FLOOR = 1e-300

# exp() cap keeping raw values finite; anything this large clamps to 1 anyway.
_EXP_CAP = 700.0


@dataclass(frozen=True)
class BoundResult:
    """Outcome of one bound evaluation at one eps.

    value is min(raw_value, 1); outside a bound's stated eps domain
    (valid=False) the trivial bound 1 is reported instead of an
    extrapolated expression.
    """

    raw_value: float
    value: float
    theta_star: float | None
    valid: bool
    trivial: bool
    details: dict = field(default_factory=dict)


def _finish(
    raw: float,
    theta_star: float | None,
    valid: bool,
    details: Mapping[str, float],
) -> BoundResult:
    raw = max(float(raw), 0.0)
    if not valid:
        raw = max(raw, 1.0)
        value = 1.0
    else:
        value = min(raw, 1.0)
    return BoundResult(
        raw_value=raw,
        value=value,
        theta_star=theta_star,
        valid=valid,
        trivial=value >= 1.0,
        details=dict(details),
    )


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


# ---------------------------------------------------------------------------
# Numerically optimized Laplace-transform bounds
# ---------------------------------------------------------------------------


def _scan(
    h: Callable[[float], float],
    eps_grid: Sequence[float],
    cfg: OptimizerConfig,
    details: Mapping[str, float],
) -> list[BoundResult]:
    """Minimize the log objective theta*eps + h(theta) at every eps of the
    grid, evaluating h at most once per distinct theta.

    Each eps still gets its own full search, so the coarse-grid and Brent
    refinement points are those of a search at that eps alone; only
    repeated evaluations of h are saved.  at_boundary in the details flags
    a theta* found at an end of the coarse grid.
    """
    eps_grid = [_check_eps(e) for e in eps_grid]
    memo: dict[float, float] = {}

    def h_memo(th: float) -> float:
        val = memo.get(th)
        if val is None:
            val = memo[th] = h(th)
        return val

    out = []
    for eps in eps_grid:
        res = minimize(lambda th: th * eps + h_memo(th), cfg)
        raw = math.exp(min(res.f_star, _EXP_CAP))
        out.append(
            _finish(raw, res.theta_star, True, {**details, "at_boundary": res.at_boundary})
        )
    return out


def _log_mgf_sum(mats: Sequence[HermitianMatrix], theta: float) -> np.ndarray:
    """Sum of the matrix logs of K mgf evaluations, from one stacked eigh,
    with underflowed eigenvalues clipped upward (safe direction: the
    resulting bound only loosens)."""
    try:
        w, u = np.linalg.eigh(np.stack([m.entries for m in mats]))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"Hermitian eigensolver failed to converge at theta={theta!r}: {exc}"
        ) from exc
    for wk in w:
        if float(wk[0]) < -1e-8 * max(1.0, float(wk[-1])):
            raise NotPositiveDefiniteError(
                f"mgf evaluation at theta={theta!r} is not psd "
                f"(min eigenvalue {float(wk[0]):.3e})"
            )
    logs = np.log(np.clip(w, _EIG_FLOOR, None))
    terms = (u * logs[:, None, :]) @ u.conj().transpose(0, 2, 1)
    # Summed in source order: ndarray.sum may pair the terms differently
    # (it does at d=1), which moves the last bits of the bound.
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def single_matrix_bound_grid(
    source,
    mgf: MgfModel,
    eps_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[BoundResult]:
    """Laplace bound for one random Hermitian matrix:
    inf_theta (1/d) e^(theta eps) E tr exp(-theta Y), at every eps."""
    d = source.dim

    def h(th: float) -> float:
        m = mgf.evaluate(source, th)
        tr = float(np.trace(m.entries).real)
        return math.log(max(tr / d, _EIG_FLOOR))

    return _scan(h, eps_grid, cfg, {"d": float(d)})


def single_matrix_bound(
    source,
    mgf: MgfModel,
    eps: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> BoundResult:
    """single_matrix_bound_grid at one eps."""
    return single_matrix_bound_grid(source, mgf, [eps], cfg)[0]


def master_bound_grid(
    model: SumModel,
    mgf: MgfModel,
    eps_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[BoundResult]:
    """Dimension-free bound for the sum via subadditivity of the matrix
    cumulant generating function:
    inf_theta e^(theta eps) exp(lambda_max(sum_k log E exp(-theta X_k))),
    at every eps."""

    def h(th: float) -> float:
        total = _log_mgf_sum([mgf.evaluate(src, th) for src in model.sources], th)
        return float(np.linalg.eigvalsh(total)[-1])

    return _scan(h, eps_grid, cfg, {"K": float(model.size)})


def master_bound(
    model: SumModel,
    mgf: MgfModel,
    eps: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> BoundResult:
    """master_bound_grid at one eps."""
    return master_bound_grid(model, mgf, [eps], cfg)[0]


@dataclass(frozen=True)
class GThetaModel:
    """Dominating-matrix construction: E exp(-theta X_k) <= exp(g(theta) A_k)
    in the Loewner order for fixed Hermitian A_k and a scalar g of constant
    declared sign on the search domain."""

    g: Callable[[float], float]
    sign: str
    dominators: tuple

    def __post_init__(self):
        if self.sign not in ("positive", "negative"):
            raise ValueError("sign must be 'positive' or 'negative'")
        object.__setattr__(self, "dominators", tuple(self.dominators))
        if len(self.dominators) < 1:
            raise ValueError("need at least one dominating matrix")


def exp_envelope(bound: float) -> Callable[[float], float]:
    """g(theta) = (exp(-theta*bound) - 1)/bound, the linear-envelope
    exponent for sources with lambda_max(X) <= bound a.s.; negative."""
    if not 0 < bound < math.inf:
        raise ValueError("bound must be positive and finite")
    return lambda th: math.expm1(-th * bound) / bound


def log_rate(rate: float) -> Callable[[float], float]:
    """g(theta) = log(rate/(rate+theta)), the exponential-law mgf
    exponent; negative."""
    if not 0 < rate < math.inf:
        raise ValueError("rate must be positive and finite")
    return lambda th: math.log(rate / (rate + th))


def power_envelope(c: float, alpha: float) -> Callable[[float], float]:
    """g(theta) = log(C * theta^(-alpha)); sign depends on theta, so the
    optimizer domain must be restricted to one side of C^(1/alpha)."""
    if not (0 < c < math.inf and 0 < alpha < math.inf):
        raise ValueError("C and alpha must be positive and finite")
    return lambda th: math.log(c) - alpha * math.log(th)


def g_theta_bound_grid(
    gmodel: GThetaModel,
    eps_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[BoundResult]:
    """Bound inf_theta exp(theta eps + g(theta) * eta) where eta is
    lambda_max (g positive) or lambda_min (g negative) of the summed
    dominators, at every eps."""
    grid = cfg.coarse_grid()
    gvals = np.array([gmodel.g(t) for t in grid], dtype=float)
    if not np.isfinite(gvals).all():
        raise InvalidDominatorsError("g is non-finite on the optimizer grid")
    if gmodel.sign == "positive":
        if not (gvals > 0).all():
            raise InvalidDominatorsError(
                "g declared positive but is not strictly positive on the grid"
            )
    else:
        if not (gvals < 0).all():
            raise InvalidDominatorsError(
                "g declared negative but is not strictly negative on the grid"
            )

    total = gmodel.dominators[0]
    for a in gmodel.dominators[1:]:
        total = total + a
    w = np.linalg.eigvalsh(total.entries)
    if gmodel.sign == "positive":
        eta = float(w[-1])
        details = {"eta1": eta}
    else:
        eta = float(w[0])
        details = {"eta2": eta}

    return _scan(lambda th: gmodel.g(th) * eta, eps_grid, cfg, details)


def g_theta_bound(
    gmodel: GThetaModel,
    eps: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> BoundResult:
    """g_theta_bound_grid at one eps."""
    return g_theta_bound_grid(gmodel, [eps], cfg)[0]


def log_mean_bound_grid(
    model: SumModel,
    mgf: MgfModel,
    eps_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[BoundResult]:
    """Operator-concavity bound
    inf_theta exp(theta eps + K log lambda_max((1/K) sum_k E exp(-theta X_k))),
    at every eps.  Coincides with master_bound for i.i.d. sources; never
    tighter than it."""
    k = model.size

    def h(th: float) -> float:
        total = None
        for src in model.sources:
            m = mgf.evaluate(src, th).entries
            total = m if total is None else total + m
        lam = float(np.linalg.eigvalsh(total / k)[-1])
        return k * math.log(max(lam, _EIG_FLOOR))

    return _scan(h, eps_grid, cfg, {"K": float(k)})


def log_mean_bound(
    model: SumModel,
    mgf: MgfModel,
    eps: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> BoundResult:
    """log_mean_bound_grid at one eps."""
    return log_mean_bound_grid(model, mgf, [eps], cfg)[0]


# ---------------------------------------------------------------------------
# Product combinator
# ---------------------------------------------------------------------------


def product_bound(per_source: Sequence[BoundResult]) -> BoundResult:
    """Product of per-source bounds at one shared eps; valid for psd
    summands because the sum's largest eigenvalue dominates each term's.
    Since every factor is <= 1, the product never exceeds the smallest."""
    if len(per_source) == 0:
        raise ValueError("product_bound needs at least one per-source result")
    raw = 1.0
    smallest = 1.0
    for r in per_source:
        raw *= r.value
        smallest = min(smallest, r.value)
    return _finish(raw, None, True, {"min_single": smallest})


# ---------------------------------------------------------------------------
# Negative-moment bound
# ---------------------------------------------------------------------------


def _mean_sum(model: SumModel) -> HermitianMatrix:
    total = None
    for k, src in enumerate(model.sources):
        m = src.mean()
        if m is None:
            raise UnsupportedEnsembleError(
                f"source {k} (kind {src.kind!r}) has no closed-form mean"
            )
        total = m if total is None else total + m
    return total


def admissible_cp(model: SumModel, p: float) -> float:
    """Smallest admissible constant for the negative-moment bound,
    [lambda_max(sum_k E X_k)]^(-p), inflated by 1e-6 relative headroom so
    the strict inequality it must satisfy holds."""
    if not 0 < p < math.inf:
        raise ValueError("p must be positive and finite")
    lam = float(np.linalg.eigvalsh(_mean_sum(model).entries)[-1])
    if lam <= 0:
        raise DegenerateModelError(
            "the mean of the sum is zero; no admissible constant exists"
        )
    return lam ** (-p) * (1.0 + 1e-6)


def negative_moment_bound(cp: float, p: float, eps: float) -> BoundResult:
    """Bound Cp * eps^p, valid for every eps > 0 (trivial once it
    reaches 1)."""
    eps = _check_eps(eps)
    if not (0 < cp < math.inf and 0 < p < math.inf):
        raise ValueError("Cp and p must be positive and finite")
    raw = cp * eps**p
    return _finish(raw, None, True, {"Cp": cp, "p": p})


# ---------------------------------------------------------------------------
# Chernoff-type bounds for uniformly bounded psd sources
# ---------------------------------------------------------------------------


def _uniform_bound_and_means(model: SumModel):
    bounds = []
    means = []
    for k, src in enumerate(model.sources):
        b = src.uniform_bound()
        if b is None:
            raise UnsupportedEnsembleError(
                f"chernoff bounds need an almost-sure eigenvalue bound; "
                f"source {k} (kind {src.kind!r}) has none"
            )
        m = src.mean()
        if m is None:
            raise UnsupportedEnsembleError(
                f"chernoff bounds need a closed-form mean; "
                f"source {k} (kind {src.kind!r}) has none"
            )
        bounds.append(float(b))
        means.append(m)
    return max(bounds), means


def _chernoff_log_factor(mu: float, eps: float, big_l: float) -> float:
    return (eps / big_l) * math.log(mu / eps) + (eps - mu) / big_l


def chernoff_sum_bound(model: SumModel, eps: float) -> BoundResult:
    """Closed-form bound (mu/eps)^(eps/L) * exp((eps-mu)/L) with
    mu = lambda_min(sum_k E X_k), valid for eps < mu where the optimal
    theta = log(mu/eps)/L is positive."""
    eps = _check_eps(eps)
    big_l, means = _uniform_bound_and_means(model)
    total = means[0]
    for m in means[1:]:
        total = total + m
    mu = lambda_min(total)
    details = {"L": big_l, "mu": mu}
    if eps < mu:
        theta = math.log(mu / eps) / big_l
        raw = math.exp(_chernoff_log_factor(mu, eps, big_l))
        return _finish(raw, theta, True, details)
    return _finish(1.0, None, False, details)


def chernoff_product_bound(model: SumModel, eps: float) -> BoundResult:
    """Product form over per-source factors (mu_k/eps)^(eps/L)
    exp((eps-mu_k)/L) with mu_k = lambda_min(E X_k).  Sources with
    mu_k = 0 contribute the vacuous factor 1; the bound is nontrivial for
    eps below every positive mu_k."""
    eps = _check_eps(eps)
    big_l, means = _uniform_bound_and_means(model)
    mus = [lambda_min(m) for m in means]
    details = {"L": big_l}
    for k, mu in enumerate(mus):
        details[f"mu_{k + 1}"] = mu
    positive = [mu for mu in mus if mu > 0]
    if positive and eps < min(positive):
        log_raw = sum(_chernoff_log_factor(mu, eps, big_l) for mu in positive)
        return _finish(math.exp(log_raw), None, True, details)
    return _finish(1.0, None, False, details)


# ---------------------------------------------------------------------------
# Matrix-series bounds under a power envelope on the scalar mgf
# ---------------------------------------------------------------------------


def _series_params(model: SumModel):
    envelope = None
    mats = []
    for k, src in enumerate(model.sources):
        if not isinstance(src, ScaledFixed):
            raise UnsupportedEnsembleError(
                f"series bounds require scaled_fixed sources; "
                f"source {k} has kind {src.kind!r}"
            )
        env = src.law.envelope
        if env is None:
            raise UnsupportedEnsembleError(
                f"series bounds need a power envelope on every scalar law; "
                f"source {k} law {src.law.kind!r} declares none"
            )
        if envelope is None:
            envelope = env
        elif env != envelope:
            raise UnsupportedEnsembleError(
                f"series bounds require one shared envelope; source {k} "
                f"declares {env}, expected {envelope}"
            )
        mats.append(src.matrix)
    return envelope[0], envelope[1], mats


def series_sum_bound(model: SumModel, eps: float) -> BoundResult:
    """Bound (e eps / (K alpha))^(alpha K) * (C nu / K)^K with
    nu = lambda_max(sum_k A_k^(-alpha)), valid for
    eps < (K alpha / e) * (K / (C nu))^(1/alpha); the optimal theta is
    alpha K / eps."""
    eps = _check_eps(eps)
    c, alpha, mats = _series_params(model)
    k = model.size
    total = matrix_power(mats[0], -alpha)
    for a in mats[1:]:
        total = total + matrix_power(a, -alpha)
    nu = float(np.linalg.eigvalsh(total.entries)[-1])
    log_raw = alpha * k * (1.0 + math.log(eps) - math.log(k * alpha)) + k * (
        math.log(c * nu) - math.log(k)
    )
    raw = math.exp(min(log_raw, _EXP_CAP))
    cutoff = (k * alpha / math.e) * (k / (c * nu)) ** (1.0 / alpha)
    valid = eps < cutoff
    details = {"C": c, "alpha": alpha, "nu": nu, "K": float(k)}
    theta = alpha * k / eps if valid else None
    return _finish(raw, theta, valid, details)


def series_product_bound(model: SumModel, eps: float) -> BoundResult:
    """Product form (prod_k nu_k) * C^K * (e eps / alpha)^(K alpha) with
    nu_k = lambda_max(A_k^(-alpha)), valid for
    eps < (alpha/e) * C^(-1/alpha) * (prod_k nu_k)^(-1/(alpha K)); every
    factor shares the optimal theta = alpha / eps."""
    eps = _check_eps(eps)
    c, alpha, mats = _series_params(model)
    k = model.size
    nus = [
        float(np.linalg.eigvalsh(matrix_power(a, -alpha).entries)[-1]) for a in mats
    ]
    log_nu_sum = sum(math.log(nu) for nu in nus)
    log_raw = log_nu_sum + k * math.log(c) + k * alpha * (
        1.0 + math.log(eps) - math.log(alpha)
    )
    raw = math.exp(min(log_raw, _EXP_CAP))
    log_cutoff = (
        math.log(alpha)
        - 1.0
        - math.log(c) / alpha
        - log_nu_sum / (alpha * k)
    )
    valid = eps < math.exp(log_cutoff)
    details = {"C": c, "alpha": alpha}
    for i, nu in enumerate(nus):
        details[f"nu_{i + 1}"] = nu
    theta = alpha / eps if valid else None
    return _finish(raw, theta, valid, details)
