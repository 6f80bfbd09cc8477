"""Monte Carlo estimation of P{lambda_max(sum_k X_k) <= eps} with exact
binomial confidence intervals, and domination checks against bound values.

One shared pool of n draws of lambda_max is scored against every point of
the eps grid, so empirical probabilities are monotone along the grid and
every bound is checked against the same underlying measure.  Sampling is
chunked; each fixed-size chunk owns a dedicated substream, so totals are
bit-identical for any worker count.  The calling thread is one of the
workers: it and workers - 1 pool threads take chunk indices from one
shared iterator, each sums its own integer hits, and the totals are added
at the end.  A chunk that raises stops every thread from taking another.

A draw S is scored in two steps.  First a diagonal certificate: since
lambda_max(S) >= Re S_ii, a draw whose largest diagonal entry exceeds the
largest eps by the relative margin _SCREEN_MARGIN is a miss at every eps.
The draws it leaves open go to the batched np.linalg.eigvalsh.  The margin
is far above the eigensolver's backward error (see _chunk_hits), so the
hits equal those of scoring every draw by eigvalsh.  One
ensembles.sample_sum_batch call per chunk draws it, screens it and builds
the sums of its open draws.  The screen reads the diagonal before any
matrix is built where the sources allow it, so a settled draw of such a
sum is never built.  A sum with a wishart source is built whole: a chunk
then holds the sum, the real parts of one position's Gaussians and one
block of draws, and the screen moves the open draws to the front of the
sum in place.

The Clopper-Pearson limits (Clopper & Pearson 1934) are Beta quantiles with
integer parameters, computed here without scipy: Newton's method inside a
bisection bracket on the regularized incomplete beta function, which is
evaluated by the continued fraction of DiDonato & Morris (1992, ACM TOMS
708, bfrac) times a front factor x^a (1-x)^b / B(a, b) written, as in
TOMS 708's brcomp, through log1p of the relative offset of x from
a/(a+b) plus Stirling corrections, so that it keeps full precision for
a + b up to 1e7 and beyond.  Parameter 1 (hits 0, 1, n-1 or n) has a
closed form.  The limits agree with scipy.special.betaincinv to within
1e-9 relative on the test grid (n up to 1e7), and with a 60-digit mpmath
root to about 1e-16 where scipy itself is off by up to 1.4e-10.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bounds import BoundResult
from .ensembles import SumModel, sample_sum_batch
from .errors import ConfigError, SmallDevError
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

# Relative margin by which a draw's largest diagonal entry must exceed the
# largest eps for _chunk_hits to score it a miss without the eigensolver.
_SCREEN_MARGIN = 1e-10


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
    environment variable, whatever the CPU count, else the CPUs this process
    may run on (its affinity mask where the platform has one), at most 4.
    An explicit threads below 1 is a ValueError; a SMALLDEV_THREADS that is
    not an integer, or is below 1, is a ConfigError naming the variable."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be at least 1, got {threads!r}")
        return int(threads)
    env = os.environ.get(THREADS_ENV)
    if env is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            cpus = os.cpu_count() or 1
        return min(4, cpus)
    try:
        count = int(env)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    if count < 1:
        raise ConfigError(f"{THREADS_ENV} must be at least 1, got {env!r}")
    return count


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(z: float) -> float:
    """lgamma(z) minus its Stirling approximation (z - 1/2) log z - z + log(2 pi)/2."""
    if z >= 10.0:
        r = 1.0 / (z * z)
        return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z
    return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)


def _rlog1(e: float, ratio: float) -> float:
    """e - log(1 + e), where ratio = 1 + e is also passed in case e is near -1."""
    return e - (math.log1p(e) if abs(e) <= 0.6 else math.log(ratio))


def _beta_cf(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) divided by x^a y^b / B(a, b), for a, b > 1, y = 1 - x and
    lam = a - (a + b) x >= 0: the continued fraction of TOMS 708's bfrac,
    summed by the forward recurrence with rescaling."""
    c, c0, c1, yp1 = lam + 1.0, b / a, 1.0 / a + 1.0, y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 10_000):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (t + 1.0) / (c1 + t + t) * (c + n * yp1)
        p, s = t + 1.0, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise SmallDevError(f"incomplete beta continued fraction did not converge at a={a}, b={b}")


def _incomplete_beta(a: float, b: float, x: float) -> tuple[float, float, float]:
    """(I_x(a, b), 1 - I_x(a, b), x^a (1-x)^b / B(a, b)) for a, b > 1 and
    0 < x < 1.  The tail on the near side of the mean a/(a+b) comes from
    the continued fraction and the other as its complement."""
    y = 1.0 - x
    ab = a + b
    lam = a - ab * x if a <= b else ab * y - b  # (a+b) (a/(a+b) - x)
    u = _rlog1(-lam / a, x * ab / a)  # x (a+b)/a = 1 - lam/a
    v = _rlog1(lam / b, y * ab / b)  # y (a+b)/b = 1 + lam/b
    corr = _stirling_tail(a) + _stirling_tail(b) - _stirling_tail(ab)
    front = math.exp(0.5 * math.log(a * b / ab) - _HALF_LOG_2PI - (a * u + b * v) - corr)
    if lam >= 0.0:
        w = front * _beta_cf(a, b, x, y, lam)
        return w, 1.0 - w, front
    w1 = front * _beta_cf(b, a, y, x, -lam)
    return 1.0 - w1, w1, front


def _beta_quantile(a: int, b: int, tail: float, upper: bool) -> float:
    """The x in (0, 1) at which the lower tail I_x(a, b) of Beta(a, b), or
    its upper tail 1 - I_x(a, b) if upper, equals tail; for integers
    a, b >= 1 and 0 < tail < 1."""
    if a == 1:  # 1 - I_x(1, b) = (1-x)^b
        return -math.expm1((math.log(tail) if upper else math.log1p(-tail)) / b)
    if b == 1:  # I_x(a, 1) = x^a
        return math.exp((math.log1p(-tail) if upper else math.log(tail)) / a)
    # Start: Abramowitz & Stegun 26.5.22, from a normal deviate by 26.2.22.
    t = math.sqrt(-2.0 * math.log(min(tail, 1.0 - tail)))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + t * 0.04481))
    z = z if (tail > 0.5) == upper else -z
    lam = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w0 = z * math.sqrt(h + lam) / h - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (
        lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    x = a / (a + b * math.exp(2.0 * w0))
    lo, hi = 0.0, 1.0
    for _ in range(200):
        w, w1, front = _incomplete_beta(a, b, x)
        r = tail - w1 if upper else w - tail  # I_x minus its target
        if r == 0.0:
            return x
        lo, hi = (lo, x) if r > 0.0 else (x, hi)
        # Newton step on I_x, whose derivative is front / (x (1 - x)).
        nxt = x - r * x * (1.0 - x) / front if front > 0.0 else -1.0
        if abs(nxt - x) <= 1e-14 * x:
            return nxt
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise SmallDevError(f"Beta({a}, {b}) quantile search did not converge at tail={tail}")


def clopper_pearson(hits: int, n: int, confidence: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for hits out of n: the
    alpha/2 quantile of Beta(hits, n - hits + 1) and the 1 - alpha/2
    quantile of Beta(hits + 1, n - hits), alpha = 1 - confidence.

    Closed forms at the ends: hits = 0 gives (0, 1 - (alpha/2)^(1/n)) and
    hits = n gives ((alpha/2)^(1/n), 1).  Otherwise each limit is solved by
    Newton's method in a bisection bracket (see the module docstring); on
    the test grid (n up to 1e7) it is within 1e-9 relative of
    scipy.special.betaincinv."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= hits <= n:
        raise ValueError("hits must lie in [0, n]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    alpha = 1.0 - confidence
    low = 0.0 if hits == 0 else _beta_quantile(hits, n - hits + 1, alpha / 2.0, upper=False)
    high = 1.0 if hits == n else _beta_quantile(hits + 1, n - hits, alpha / 2.0, upper=True)
    return low, high


def _chunk_hits(model: SumModel, stream: RngStream, size: int, eps: np.ndarray) -> np.ndarray:
    # Screen: eigvalsh reads the Hermitian matrix H whose diagonal is
    # Re S_ii, so lambda_max(H) >= e_i* H e_i = Re S_ii (Rayleigh quotient),
    # and a draw with Re S_ii > eps_max (1 + _SCREEN_MARGIN) is a miss at
    # every eps.  eigvalsh would score it as a miss too: its computed
    # eigenvalues are within c u ||H|| of the exact ones (backward
    # stability; u = 1.1e-16, and LAPACK's c grows modestly with the
    # dimension), and ||H|| = lambda_max(H) because the draws are psd up to
    # rounding.  So its lambda_max is at least Re S_ii (1 - c u) > eps_max
    # whenever c u < _SCREEN_MARGIN / (1 + _SCREEN_MARGIN), i.e. for c up
    # to about 9e5.  An infinite diagonal (an overflowed sum) is settled as
    # a miss at every eps; a NaN diagonal fails the comparison and stays
    # open.  The diagonal has the bits of the built sum's, and only the
    # open draws are built; when every draw is open, eigvalsh gets the batch
    # itself, not a copy.  float(): past the float range a Python product is
    # inf, with no numpy overflow warning.
    draws = sample_sum_batch(model, stream, size, float(eps[-1]) * (1.0 + _SCREEN_MARGIN))
    lam = np.linalg.eigvalsh(draws.sums)[:, -1]
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
    ascending eps grid from one shared pool of n draws.

    The draws come in chunks of _CHUNK, chunk c from substream (seed,
    _ESTIMATE_PURPOSE, c).  They run on worker_count(threads) threads: the
    calling thread and workers - 1 pool threads, none when workers is 1.
    Each thread takes the next chunk index from one shared iterator, makes
    the chunk's stream, scores it and drops it with its draws, and adds the
    hits to its own int64 total; the totals are summed at the end.  So the
    memory of a call is that of its running chunks, whatever n, and the
    hits, an integer sum over the same chunks, are the same at any worker
    count.  A chunk that raises, on any thread, stops every thread from
    taking another chunk, and the error propagates from here."""
    eps = np.asarray(list(eps_grid), dtype=float)
    if eps.size == 0:
        raise ValueError("eps_grid must be non-empty")
    if not (eps > 0).all():  # a NaN eps fails too
        raise ValueError("eps_grid values must be positive")
    if eps.size > 1 and not (np.diff(eps) > 0).all():
        raise ValueError("eps_grid must be strictly ascending")
    if n < 1:
        raise ValueError("n must be at least 1")

    chunks = (n + _CHUNK - 1) // _CHUNK

    workers = worker_count(threads)
    # The lock hands every chunk index to exactly one thread.
    order, lock, stop = iter(range(chunks)), threading.Lock(), threading.Event()

    def run() -> np.ndarray:
        hits = np.zeros(eps.size, dtype=np.int64)
        try:
            while not stop.is_set():
                with lock:
                    c = next(order, None)
                if c is None:
                    break
                # Chunk c always draws from substream c, whatever thread
                # runs it; the stream is made here and dropped with the chunk.
                stream = RngStream(seed, (_ESTIMATE_PURPOSE, c))
                hits += _chunk_hits(model, stream, min(_CHUNK, n - c * _CHUNK), eps)
        finally:
            # Set on a raise, and harmless after a normal exit: every index
            # is taken by then.
            stop.set()
        return hits

    # Threads start on submit, so workers == 1 starts none.  When the
    # calling thread's run raises, leaving the pool waits only for the
    # chunks that the pool threads are running.
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        others = [pool.submit(run) for _ in range(workers - 1)]
        hits = run() + sum(other.result() for other in others)

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
