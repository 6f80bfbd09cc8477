"""Small-deviation upper bounds on P{lambda_max(sum_k X_k) <= eps}.

Every bound takes an eps grid and returns a list of BoundResult aligned
with it.  Each result carries the raw expression, its clamp to [0, 1],
the optimal theta when one exists, a validity flag for eps ranges outside
which only the trivial bound 1 is claimed, and the named scalar
parameters that went into the expression.

Two families live here:

* Laplace-transform bounds minimized numerically over theta > 0
  (single_matrix_bound, master_bound, g_theta_bound, log_mean_bound, and
  product_bound over the sources' single_matrix_bound).  Each is
  inf_theta exp(theta*eps + h(theta)) with h independent of eps, so the
  searches of the whole grid run in lockstep and evaluate h in batches,
  once per distinct theta.
* Closed-form bounds with analytic minimizers (negative_moment_bound,
  chernoff_sum_bound, chernoff_product_bound, series_sum_bound,
  series_product_bound).  Each computes its eps-independent constants
  once per call and hands _closed the log of its expression, the eps
  cutoff below which it holds and its optimal theta there.  One rule
  applies past the cutoff: the row is the trivial bound 1, marked not
  valid, and the expression is not evaluated.  negative_moment and the
  two series bounds are one power law, exp(log_c + power * log eps); a
  series bound's cutoff is the eps where that power law equals 1.

All evaluators are pure given (model, mgf snapshot, eps grid).  A source object
repeated in a SumModel stands for i.i.d. copies (see
ensembles.distinct_sources), so every per-source quantity is computed once
per distinct object and shared by its positions: the mgfs, product's
single scans, and the closed forms' means, almost-sure bounds, series
envelopes, matrix powers and their extreme eigenvalues.  A sum over
positions still adds one term per position, in position order, so the
bits do not depend on how the positions share objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .ensembles import MgfModel, ScaledFixed, SumModel, distinct_sources
from .errors import (
    DegenerateModelError,
    EigenConvergenceError,
    FloatRangeError,
    InvalidDominatorsError,
    NotPositiveDefiniteError,
    UnsupportedEnsembleError,
)
from .linalg import HermitianMatrix, lambda_max, lambda_min
from .optimizer import OptimizerConfig, minimize, search  # noqa: F401

# Nothing here calls minimize: the theta-scans drive optimizer.search.  The
# import stays because the benchmark's tracer (perfbench/spans.py) reads and
# wraps bounds.minimize when it installs its hooks, and a traced run fails
# with AttributeError without it.

__all__ = [
    "BoundResult",
    "exp_envelope",
    "log_rate",
    "power_envelope",
    "single_matrix_bound",
    "master_bound",
    "g_theta_bound",
    "log_mean_bound",
    "product_bound",
    "source_means",
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
    """Outcome of a bound at one eps of the grid.

    value is min(raw_value, 1); outside a bound's stated eps domain
    (valid=False) raw_value and value are the trivial bound 1 instead of
    an extrapolated expression.
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
    value = min(raw, 1.0)
    return BoundResult(
        raw_value=raw,
        value=value,
        theta_star=theta_star,
        valid=valid,
        trivial=value >= 1.0,
        details=dict(details),
    )


def _check_grid(eps_grid: Sequence[float]) -> list[float]:
    eps_grid = [float(e) for e in eps_grid]
    if not all(e > 0 for e in eps_grid):  # a NaN eps fails too
        raise ValueError("eps must be positive")
    return eps_grid


# ---------------------------------------------------------------------------
# Numerically optimized Laplace-transform bounds
# ---------------------------------------------------------------------------


def _scan(
    h_many: Callable[[list], Sequence[float]],
    eps_grid: Sequence[float],
    cfg: OptimizerConfig,
    details: Mapping[str, float],
) -> list[BoundResult]:
    """Minimize the log objective theta*eps + h(theta) at every eps of the
    grid, with h_many(thetas) giving h at a list of thetas.

    The searches of all eps run in lockstep: each step gathers the points
    they ask for and calls h_many once on the distinct ones not yet
    evaluated, so the coarse grid is one batch and each Brent step a batch
    of at most len(eps_grid) points.  Each eps still gets the search it
    would get alone; only repeated evaluations of h are saved.  at_boundary
    in the details flags a theta* found at an end of the coarse grid.
    """
    eps_grid = _check_grid(eps_grid)
    memo: dict[float, float] = {}
    searches = [search(cfg) for _ in eps_grid]
    # The points each unfinished search asks for, by eps index.
    asks = {i: next(s) for i, s in enumerate(searches)}
    results: list = [None] * len(eps_grid)
    while asks:
        new = list(dict.fromkeys(t for ts in asks.values() for t in ts if t not in memo))
        if new:
            memo.update(zip(new, h_many(new)))
        for i, ts in list(asks.items()):
            eps = eps_grid[i]
            try:
                # A float product overflows to inf without a numpy warning.
                asks[i] = searches[i].send([float(t) * eps + memo[t] for t in ts])
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
    return [
        _finish(
            math.exp(min(res.f_star, _EXP_CAP)),
            res.theta_star,
            True,
            {**details, "at_boundary": res.at_boundary},
        )
        for res in results
    ]


def _closed(
    eps_grid: Sequence[float], log_raw: Callable, details: Mapping, cutoff=math.inf, theta=None
) -> list[BoundResult]:
    """The closed-form counterpart of _scan: exp(log_raw(eps)), capped at
    e^_EXP_CAP, at every eps of the grid below cutoff, with the optimal
    theta(eps) there.  At or above cutoff the row is the trivial bound
    (raw 1, value 1, not valid, no theta), and log_raw is not evaluated.
    Summing logs keeps a tiny constant times a huge power of eps (or the
    reverse) from leaving the float range before their product does."""
    results = []
    for eps in _check_grid(eps_grid):
        if eps >= cutoff:
            results.append(_finish(1.0, None, False, details))
        else:
            theta_star = None if theta is None else theta(eps)
            results.append(_finish(math.exp(min(log_raw(eps), _EXP_CAP)), theta_star, True, details))
    return results


def _power_law(
    eps_grid: Sequence[float], log_c: float, power: float, details: Mapping, theta_eps=None
) -> list[BoundResult]:
    """_closed of the power law exp(log_c + power * log eps).  Without
    theta_eps it holds at every eps.  A series bound passes theta_eps, its
    optimal theta times eps: it then holds below the eps where the power
    law equals 1, exp(-log_c / power), with theta* = theta_eps / eps."""
    cutoff, theta = math.inf, None
    if theta_eps is not None:
        try:
            cutoff = math.exp(-log_c / power)
        except OverflowError:
            raise FloatRangeError(
                f"the validity cutoff exp({-log_c / power!r}) is outside the float range"
            ) from None
        theta = lambda eps: theta_eps / eps  # noqa: E731
    return _closed(eps_grid, lambda eps: log_c + power * math.log(eps), details, cutoff, theta)


def _log_mgf_sum(mats: np.ndarray, index: list, thetas: Sequence[float]) -> np.ndarray:
    """Sum over sources of the matrix logs of mgf evaluations: mats is
    (m, J, d, d), one row of J distinct source mgfs per theta, index the
    distinct mgf of each of the K positions, and the result the (m, d, d)
    sums of the K logs in position order, from one stacked eigh of the J.
    Underflowed eigenvalues are clipped upward (safe direction: the
    resulting bound only loosens)."""
    try:
        w, u = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"Hermitian eigensolver failed to converge at one of the thetas "
            f"{[float(t) for t in thetas]!r}: {exc}"
        ) from exc
    bad = np.argwhere(w[..., 0] < -1e-8 * np.maximum(1.0, w[..., -1]))
    if bad.size:
        i, j = bad[0]
        raise NotPositiveDefiniteError(
            f"mgf evaluation at theta={float(thetas[i])!r} is not psd "
            f"(min eigenvalue {float(w[i, j, 0]):.3e})"
        )
    logs = np.log(np.clip(w, _EIG_FLOOR, None))
    source_logs = (u * logs[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return _position_sum([source_logs[:, j] for j in index])


def _stacked(mgf: MgfModel, sources, thetas: list) -> tuple[np.ndarray, list]:
    """(m, J, d, d): the mgf of each of the J distinct source objects at
    every theta, and each position's index among them."""
    unique, index = distinct_sources(sources)
    return np.stack([mgf.evaluate_many(src, thetas) for src in unique], axis=1), index


def _per_source(model: SumModel, compute: Callable) -> list:
    """compute(src, k) once per distinct source object of the model, listed
    per position.  k is the object's first position, for error messages:
    objects are visited in order of first appearance, so an error names
    the first position that fails."""
    unique, index = distinct_sources(model.sources)
    values = [compute(src, index.index(j)) for j, src in enumerate(unique)]
    return [values[j] for j in index]


def _position_sum(terms: Sequence[np.ndarray], what: str = "") -> np.ndarray:
    """terms[0] + terms[1] + ..., added in position order: ndarray.sum may
    pair the terms differently (it does at d=1), which moves the last bits
    of the bound.  Given `what`, raises FloatRangeError naming it when the
    sum leaves the float range."""
    total = terms[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for term in terms[1:]:
            total = total + term
    if what and not np.isfinite(total).all():
        raise FloatRangeError(f"{what} is outside the float range")
    return total


def single_matrix_bound(
    source,
    mgf: MgfModel,
    eps_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[BoundResult]:
    """Laplace bound for one random Hermitian matrix:
    inf_theta (1/d) e^(theta eps) E tr exp(-theta Y), at every eps."""
    d = source.dim

    def h_many(thetas: list) -> list:
        traces = mgf.trace_many(source, thetas)
        return [math.log(max(float(tr) / d, _EIG_FLOOR)) for tr in traces]

    return _scan(h_many, eps_grid, cfg, {"d": float(d)})


def master_bound(
    model: SumModel,
    mgf: MgfModel,
    eps_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[BoundResult]:
    """Dimension-free bound for the sum via subadditivity of the matrix
    cumulant generating function:
    inf_theta e^(theta eps) exp(lambda_max(sum_k log E exp(-theta X_k))),
    at every eps."""

    def h_many(thetas: list) -> np.ndarray:
        total = _log_mgf_sum(*_stacked(mgf, model.sources, thetas), thetas)
        return np.linalg.eigvalsh(total)[:, -1]

    return _scan(h_many, eps_grid, cfg, {"K": float(model.size)})


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
    """g(theta) = log(C * theta^(-alpha)); positive below C^(1/alpha) and
    negative above it."""
    if not (0 < c < math.inf and 0 < alpha < math.inf):
        raise ValueError("C and alpha must be positive and finite")
    return lambda th: math.log(c) - alpha * math.log(th)


def g_theta_bound(
    g: Callable[[float], float],
    dominators: Sequence[HermitianMatrix],
    eps_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[BoundResult]:
    """Dominating-matrix bound for E exp(-theta X_k) <= exp(g(theta) A_k)
    in the Loewner order: inf_theta exp(theta eps + h(theta)) at every eps,
    with h(theta) = g(theta) * (eta1 if g(theta) > 0 else eta2), where
    eta1 = lambda_max and eta2 = lambda_min of the summed dominators.  Each
    theta bounds on its own, so g may change sign.  There must be a
    dominator, and g must be finite on the coarse grid of cfg; the details
    carry eta1 if g > 0 somewhere on that grid and eta2 if g < 0 somewhere."""
    if len(dominators) < 1:
        raise ValueError("need at least one dominating matrix")
    gvals = np.array([g(t) for t in cfg.coarse_grid()], dtype=float)
    if not np.isfinite(gvals).all():
        raise InvalidDominatorsError("g is non-finite on the optimizer grid")
    total = _position_sum([a.entries for a in dominators], "the sum of the dominators")
    w = np.linalg.eigvalsh(total)
    eta1, eta2 = float(w[-1]), float(w[0])
    details = {}
    if (gvals > 0).any():
        details["eta1"] = eta1
    if (gvals < 0).any():
        details["eta2"] = eta2

    def h_many(thetas: list) -> list:
        return [x * (eta1 if x > 0 else eta2) for x in map(g, thetas)]

    return _scan(h_many, eps_grid, cfg, details)


def log_mean_bound(
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

    def h_many(thetas: list) -> list:
        mats, index = _stacked(mgf, model.sources, thetas)
        total = _position_sum([mats[:, j] for j in index])
        lams = np.linalg.eigvalsh(total / k)[:, -1]
        return [k * math.log(max(float(lam), _EIG_FLOOR)) for lam in lams]

    return _scan(h_many, eps_grid, cfg, {"K": float(k)})


def _product(per_source: Sequence[BoundResult]) -> BoundResult:
    """Product of per-source bounds at one shared eps.  Since every factor
    is <= 1, the product never exceeds the smallest."""
    values = [r.value for r in per_source]
    return _finish(math.prod(values), None, True, {"min_single": min([1.0, *values])})


def product_bound(
    model: SumModel,
    mgf: MgfModel,
    eps_grid: Sequence[float],
    cfg: OptimizerConfig = OptimizerConfig(),
) -> list[BoundResult]:
    """Product of the sources' single_matrix_bound at every eps; valid for
    psd summands because the sum's largest eigenvalue dominates each
    term's.  One scan per distinct source object, taken once per position."""
    scans = _per_source(model, lambda src, _: single_matrix_bound(src, mgf, eps_grid, cfg))
    return [_product(column) for column in zip(*scans)]


# ---------------------------------------------------------------------------
# Negative-moment bound
# ---------------------------------------------------------------------------


def _source_mean(src, k: int) -> HermitianMatrix:
    """E X of the source at position k, or an error naming that position."""
    try:
        m = src.mean()
    except ValueError:  # HermitianMatrix rejects non-finite entries
        raise FloatRangeError(
            f"the mean E X_k of source {k} (kind {src.kind!r}) is outside "
            "the float range"
        ) from None
    if m is None:
        raise UnsupportedEnsembleError(
            f"a closed-form mean is needed, but source {k} "
            f"(kind {src.kind!r}) has none"
        )
    return m


def source_means(model: SumModel) -> list[HermitianMatrix]:
    """E X_k for every source, in order, computed once per distinct source
    object and shared by its positions; raises UnsupportedEnsembleError
    naming the first source without a closed-form mean, and FloatRangeError
    naming the first whose mean leaves the float range."""
    return _per_source(model, _source_mean)


def _mean_of_sum(model: SumModel) -> HermitianMatrix:
    """sum_k E X_k, from source_means; raises FloatRangeError when the sum
    leaves the float range."""
    means = [m.entries for m in source_means(model)]
    return HermitianMatrix(_position_sum(means, "the mean of the sum, sum_k E X_k,"))


def admissible_cp(model: SumModel, p: float) -> float:
    """Smallest admissible constant for the negative-moment bound,
    [lambda_max(sum_k E X_k)]^(-p), inflated by 1e-6 relative headroom so
    the strict inequality it must satisfy holds."""
    if not 0 < p < math.inf:
        raise ValueError("p must be positive and finite")
    lam = lambda_max(_mean_of_sum(model))
    if lam <= 0:
        raise DegenerateModelError(
            "the mean of the sum is zero; no admissible constant exists"
        )
    try:
        return lam ** (-p) * (1.0 + 1e-6)
    except OverflowError:
        raise FloatRangeError(
            f"the admissible constant lambda_max(sum_k E X_k)^(-p) = "
            f"{lam!r}^(-{p!r}) is outside the float range"
        ) from None


def negative_moment_bound(cp: float, p: float, eps_grid: Sequence[float]) -> list[BoundResult]:
    """Bound Cp * eps^p at every eps, valid for every eps > 0 (trivial once
    it reaches 1)."""
    if not (0 < cp < math.inf and 0 < p < math.inf):
        raise ValueError("Cp and p must be positive and finite")
    return _power_law(eps_grid, math.log(cp), p, {"Cp": cp, "p": p})


# ---------------------------------------------------------------------------
# Chernoff-type bounds for uniformly bounded psd sources
# ---------------------------------------------------------------------------


def _uniform_bound(model: SumModel) -> float:
    """L, the largest almost-sure eigenvalue bound of the sources; raises
    FloatRangeError naming the first source whose bound is not finite."""

    def bound(src, k: int) -> float:
        b = src.uniform_bound()
        if b is None:
            raise UnsupportedEnsembleError(
                f"chernoff bounds need an almost-sure eigenvalue bound; "
                f"source {k} (kind {src.kind!r}) has none"
            )
        if b == math.inf:
            raise FloatRangeError(
                f"L, the almost-sure eigenvalue bound of source {k} (kind {src.kind!r}), "
                "is outside the float range"
            )
        return float(b)

    return max(_per_source(model, bound))


def _log_ratio(mu: float, eps: float) -> float:
    """log(mu / eps), taken as log(mu) - log(eps) once the ratio overflows."""
    ratio = mu / eps
    return math.log(ratio) if ratio < math.inf else math.log(mu) - math.log(eps)


def _chernoff(
    mus: list[float], big_l: float, eps_grid: Sequence[float], details: dict, theta=None
) -> list[BoundResult]:
    """Product over the factors mu of (mu/eps)^(eps/L) exp((eps-mu)/L) at
    every eps.  A factor mu = 0 is the vacuous 1; the bound is valid, with
    the optimal theta(eps), for eps below every positive mu."""
    positive = [mu for mu in mus if mu > 0]
    cutoff = min(positive, default=0.0)

    def log_raw(eps: float) -> float:
        return sum((eps / big_l) * _log_ratio(mu, eps) + (eps - mu) / big_l for mu in positive)

    return _closed(eps_grid, log_raw, details, cutoff, theta)


def chernoff_sum_bound(model: SumModel, eps_grid: Sequence[float]) -> list[BoundResult]:
    """Closed-form bound (mu/eps)^(eps/L) * exp((eps-mu)/L) with
    mu = lambda_min(sum_k E X_k) at every eps, valid for eps < mu where the
    optimal theta = log(mu/eps)/L is positive."""
    big_l = _uniform_bound(model)
    mu = lambda_min(_mean_of_sum(model))
    return _chernoff(
        [mu], big_l, eps_grid, {"L": big_l, "mu": mu}, lambda eps: _log_ratio(mu, eps) / big_l
    )


def chernoff_product_bound(model: SumModel, eps_grid: Sequence[float]) -> list[BoundResult]:
    """Product form over per-source factors (mu_k/eps)^(eps/L)
    exp((eps-mu_k)/L) with mu_k = lambda_min(E X_k), at every eps.  Sources
    with mu_k = 0 contribute the vacuous factor 1; the bound is nontrivial
    for eps below every positive mu_k."""
    big_l = _uniform_bound(model)
    mus = _per_source(model, lambda src, k: lambda_min(_source_mean(src, k)))
    details = {"L": big_l, **{f"mu_{k + 1}": mu for k, mu in enumerate(mus)}}
    return _chernoff(mus, big_l, eps_grid, details)


# ---------------------------------------------------------------------------
# Matrix-series bounds under a power envelope on the scalar mgf
# ---------------------------------------------------------------------------


def _series_params(model: SumModel) -> tuple[float, float]:
    """(C, alpha) of the power envelope C theta^(-alpha) that every
    source's scalar law declares; raises FloatRangeError when C is outside
    the float range."""

    def envelope(src, k: int) -> tuple[float, float]:
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
        if not 0 < env[0] < math.inf:
            raise FloatRangeError(
                f"the envelope constant C = {env[0]!r} of source {k} "
                f"(law {src.law.kind!r}) is outside the float range"
            )
        # Position 0 is visited first, so by now it has passed every check.
        expected = model.sources[0].law.envelope
        if env != expected:
            raise UnsupportedEnsembleError(
                f"series bounds require one shared envelope; source {k} "
                f"declares {env}, expected {expected}"
            )
        return env

    return _per_source(model, envelope)[0]


def _inverse_power(src: ScaledFixed, k: int, alpha: float) -> HermitianMatrix:
    """A^(-alpha) for the matrix A of the source at position k, from its
    cached spectrum.  A must be positive definite: eigenvalues above the
    floor 1e-12 * max(1, lambda_max), which guards against roundoff-negative
    eigenvalues.  Raises FloatRangeError when A^(-alpha) leaves the float
    range."""
    w, u = src.spectrum
    floor = 1e-12 * max(1.0, float(w[-1]))
    what = f"source {k}: the matrix power A^(-alpha) with alpha={alpha}"
    if float(w[0]) <= floor:
        raise NotPositiveDefiniteError(
            f"{what} requires eigenvalues > {floor:.3e}, found {float(w[0]):.6e}"
        )
    # A power past the float range is inf, and the reassembly inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        entries = (u * w ** -float(alpha)) @ u.conj().T
    if not np.isfinite(entries).all():
        raise FloatRangeError(f"{what} is outside the float range")
    return HermitianMatrix(entries)


def series_sum_bound(model: SumModel, eps_grid: Sequence[float]) -> list[BoundResult]:
    """Bound (e eps / (K alpha))^(alpha K) * (C nu / K)^K with
    nu = lambda_max(sum_k A_k^(-alpha)) at every eps, valid below the eps
    where it equals 1; the optimal theta is alpha K / eps."""
    c, alpha = _series_params(model)
    k = model.size
    powers = _per_source(model, lambda src, k: _inverse_power(src, k, alpha).entries)
    nu = float(np.linalg.eigvalsh(_position_sum(powers, "the sum of the A_k^(-alpha)"))[-1])
    if not 0 < c * nu < math.inf:
        raise FloatRangeError(f"C * nu = {c!r} * {nu!r} is outside the float range")
    power = alpha * k
    log_c = power * (1.0 - math.log(power)) + k * (math.log(c * nu) - math.log(k))
    details = {"C": c, "alpha": alpha, "nu": nu, "K": float(k)}
    return _power_law(eps_grid, log_c, power, details, power)


def series_product_bound(model: SumModel, eps_grid: Sequence[float]) -> list[BoundResult]:
    """Product form (prod_k nu_k) * C^K * (e eps / alpha)^(K alpha) with
    nu_k = lambda_max(A_k^(-alpha)) at every eps, valid below the eps
    where it equals 1; every factor shares the optimal theta = alpha / eps."""
    c, alpha = _series_params(model)
    k = model.size
    nus = _per_source(model, lambda src, k: lambda_max(_inverse_power(src, k, alpha)))
    power = k * alpha
    log_c = sum(math.log(nu) for nu in nus) + k * math.log(c) + power * (1.0 - math.log(alpha))
    details = {"C": c, "alpha": alpha, **{f"nu_{i + 1}": nu for i, nu in enumerate(nus)}}
    return _power_law(eps_grid, log_c, power, details, alpha)
