"""Every certified bound row is at or above the exact truth, on models
whose truth scipy gives.

For a repeat of one scaled_fixed source, X_k = xi_k A with i.i.d. scalars
xi_k >= 0 and a psd A, the sum is S = (sum_k xi_k) A, so lambda_max(S) =
lambda_max(A) T with T = sum_k xi_k.  Then P{lambda_max(S) <= eps} is the
CDF of T at eps / lambda_max(A): Gamma(K shape, rate) for a gamma law,
Binomial(K, p) for a bernoulli law and high times the Irwin-Hall law of K
uniforms for a uniform law.  For K separate scaled_fixed sources on one
A with gamma laws of one rate and distinct shapes, T is Gamma(sum of the
shapes, rate): the first check of the paths that sum or scan distinct
sources one by one.

The certified rows are the Laplace bounds on the analytic mgf (master,
log_mean, product, and single at K = 1, the one sum with a closed-form
mgf), the closed forms chernoff_* and series_*, and g_theta with the
exp envelope at the source's almost-sure bound.  negative_moment with its
default Cp is not certified: its property test is the strict xfail below,
whose explicit example is the known miss.
A row that does not apply to a drawn model (no almost-sure bound, no power
envelope) is left out, as validate_requests leaves it out of a config.

The budget of each property test is the active hypothesis profile's
max_examples: 100 by default, about 1.3 s a test on 2 cores, and ten
times as many, 10 to 12 s a test, under the "ci" profile of conftest.py.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smalldev import cli
from smalldev.ensembles import (
    Bernoulli,
    Gamma,
    MgfModel,
    ScaledFixed,
    SumModel,
    Uniform,
)
from smalldev.errors import ConfigError
from smalldev.linalg import HermitianMatrix
from smalldev.optimizer import OptimizerConfig

REL = 1e-9

CERTIFIED = [
    "master",
    "log_mean",
    "product",
    "single",
    "chernoff_sum",
    "chernoff_product",
    "series_sum",
    "series_product",
]


def irwin_hall_cdf(k: int, y: float) -> float:
    """P{U_1 + ... + U_k <= y} for k i.i.d. Uniform[0, 1]:
    (1/k!) sum_{j <= y} (-1)^j C(k, j) (y - j)^k."""
    if y >= k:
        return 1.0
    terms = [(-1) ** j * math.comb(k, j) * (y - j) ** k for j in range(math.floor(y) + 1)]
    return math.fsum(terms) / math.factorial(k)


def truth(law, k: int, x: float) -> float:
    """P{xi_1 + ... + xi_k <= x} for k i.i.d. draws of law."""
    if isinstance(law, Gamma):
        return float(scipy.stats.gamma.cdf(x, k * law.shape, scale=1.0 / law.rate))
    if isinstance(law, Bernoulli):
        return float(scipy.stats.binom.cdf(math.floor(x), k, law.p))
    return irwin_hall_cdf(k, x / law.high)


def certified_rows(model: SumModel, eps_grid: list) -> dict:
    """The certified bounds that apply to model, by name, evaluated on the
    analytic mgf."""
    requests = [{"name": name} for name in CERTIFIED]
    b = model.sources[0].uniform_bound()
    if b is not None:
        g = {"builtin": "exp_envelope", "bound": b}
        requests.append({"name": "g_theta", "g": g, "dominators": "mean"})
    mgf, cfg = MgfModel(mode="analytic"), OptimizerConfig()
    prepared = []
    for req in requests:
        try:
            prepared += cli.validate_requests([req], model, mgf, eps_grid, cfg)
        except ConfigError:
            continue  # the bound does not apply to this model
    return cli.evaluate_bounds(prepared, model, mgf, eps_grid, cfg)


def log_uniform(low: float, high: float):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


LAWS = st.one_of(
    st.builds(Gamma, log_uniform(0.3, 4.0), log_uniform(0.2, 5.0)),
    st.builds(Bernoulli, st.floats(0.05, 0.95)),
    st.builds(Uniform, log_uniform(0.2, 5.0)),
)


@st.composite
def psd_matrices(draw):
    """Q diag(w) Q^T with Q orthogonal and w in [0.01, 2]."""
    d = draw(st.integers(1, 4))
    w = draw(st.lists(log_uniform(0.01, 2.0), min_size=d, max_size=d))
    m = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)))
    q, _ = np.linalg.qr(m.reshape(d, d))  # orthogonal, whatever m
    a = (q * w) @ q.T
    return HermitianMatrix((a + a.T) / 2.0)


def assert_dominates(rows: dict, eps_grid: list, truths: list) -> None:
    for name, results in rows.items():
        for eps, want, res in zip(eps_grid, truths, results):
            assert res.value >= want * (1.0 - REL), (name, eps, res.value, want)


# eps as a fraction of E lambda_max(S), from 1e-6 to twice it.
LOGS = st.lists(st.floats(math.log(1e-6), math.log(2.0)), min_size=1, max_size=3, unique=True)


def repeat_case(matrix, law, k: int, logs: list) -> tuple:
    """The model of k copies of x A, its eps grid and the truth at each eps."""
    model = SumModel(sources=(ScaledFixed(matrix, law),) * k)
    top = float(np.linalg.eigvalsh(matrix.entries)[-1])
    mean = top * k * law.mean
    eps_grid = sorted(mean * math.exp(u) for u in logs)
    xs = [eps / top for eps in eps_grid]
    if isinstance(law, Bernoulli):
        # The binomial CDF jumps at the integers: a rounding of eps / top
        # across one would move the truth, not the bound.
        assume(all(abs(x - round(x)) > 1e-9 * max(1.0, x) for x in xs))
    return model, eps_grid, [truth(law, k, x) for x in xs]


@settings(derandomize=True, deadline=None)
@given(matrix=psd_matrices(), law=LAWS, k=st.integers(1, 6), logs=LOGS)
def test_certified_rows_dominate_the_exact_truth(matrix, law, k, logs):
    model, eps_grid, truths = repeat_case(matrix, law, k, logs)
    rows = certified_rows(model, eps_grid)
    assert {"master", "log_mean", "product"} <= set(rows)
    assert ("single" in rows) == (k == 1)
    assert_dominates(rows, eps_grid, truths)


@settings(derandomize=True, deadline=None)
@given(
    matrix=psd_matrices(),
    rate=log_uniform(0.2, 5.0),
    shapes=st.lists(log_uniform(0.3, 4.0), min_size=1, max_size=6, unique=True),
    logs=LOGS,
)
def test_distinct_gamma_sources_dominate_the_exact_truth(matrix, rate, shapes, logs):
    model = SumModel(sources=tuple(ScaledFixed(matrix, Gamma(a, rate)) for a in shapes))
    top = float(np.linalg.eigvalsh(matrix.entries)[-1])
    total = math.fsum(shapes)
    eps_grid = sorted(top * total / rate * math.exp(u) for u in logs)
    truths = [float(scipy.stats.gamma.cdf(eps / top, total, scale=1.0 / rate)) for eps in eps_grid]
    rows = certified_rows(model, eps_grid)
    assert {"master", "log_mean", "product"} <= set(rows)
    assert ("single" in rows) == (len(shapes) == 1)
    assert_dominates(rows, eps_grid, truths)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9: negative_moment's default Cp = 1/lambda_max(E S) is not an "
    "admissible constant; at the example below it reports 0.1000001 where the truth is 0.25",
)
# S = (b_1 + b_2) I with b_k ~ Bernoulli(1/2): P{lambda_max(S) <= 0.1}
# = P{b_1 = b_2 = 0} = 1/4.
@example(matrix=HermitianMatrix.identity(1), law=Bernoulli(0.5), k=2, logs=[math.log(0.1)])
@settings(derandomize=True, deadline=None)
@given(matrix=psd_matrices(), law=LAWS, k=st.integers(1, 6), logs=LOGS)
def test_negative_moment_default_cp_dominates_the_truth(matrix, law, k, logs):
    model, eps_grid, truths = repeat_case(matrix, law, k, logs)
    mgf, cfg = MgfModel(mode="analytic"), OptimizerConfig()
    req = [{"name": "negative_moment", "p": 1.0}]
    rows = cli.evaluate_bounds(req, model, mgf, eps_grid, cfg)
    assert_dominates(rows, eps_grid, truths)
