"""End-to-end acceptance suite.

Each test is one acceptance criterion, checked at its stated tolerance;
the conftest hook prints one PASS/FAIL line per criterion.
"""

import json
import math
import time
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
import scipy.linalg

from smalldev.bounds import (
    BoundResult,
    _log_mgf_sum,
    _product,
    chernoff_sum_bound,
    log_mean_bound,
    master_bound,
    series_product_bound,
    series_sum_bound,
)
from smalldev.cli import demo_config_names, demo_config_path, main
from smalldev.ensembles import (
    Bernoulli,
    BoundedRankOne,
    Exponential,
    Gamma,
    MgfModel,
    ScaledFixed,
    SumModel,
    bernoulli_diagonal,
)
from smalldev.linalg import HermitianMatrix
from smalldev.montecarlo import THREADS_ENV
from smalldev.optimizer import minimize

from conftest import frobenius, random_hermitian

TRUE_BINOMIAL = 2.0**-10


def bernoulli_model(k=10):
    return SumModel(
        sources=tuple(bernoulli_diagonal(dim=1, p=0.5, scale=1.0) for _ in range(k))
    )


def exp_series_model(k, d=2):
    return SumModel(
        sources=tuple(
            ScaledFixed(matrix=HermitianMatrix.identity(d), law=Exponential(rate=1.0))
            for _ in range(k)
        )
    )


def test_criterion_1_domination_suite(tmp_path):
    """Every applicable bound dominates the 99% lower confidence limit on
    all four bundled ensembles, across 10 grid points inside each bound's
    validity range, with 1e5 samples, in well under ten minutes."""
    start = time.perf_counter()
    for name in demo_config_names():
        config = demo_config_path(name)
        json_path = tmp_path / f"{name}.json"
        code = main(
            [
                "compare",
                "--config",
                config,
                "--csv",
                str(tmp_path / f"{name}.csv"),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0, f"domination violation in demo {name}"
        report = json.loads(json_path.read_text())
        assert report["violations"] == 0

        bounds_json = tmp_path / f"{name}.bounds.json"
        code = main(
            [
                "bound",
                "--config",
                config,
                "--csv",
                str(tmp_path / f"{name}.bounds.csv"),
                "--json",
                str(bounds_json),
            ]
        )
        assert code == 0
        rows = json.loads(bounds_json.read_text())["rows"]
        per_bound = {}
        for row in rows:
            per_bound.setdefault(row["bound"], []).append(row["valid"])
        for bound_name, flags in per_bound.items():
            valid_points = sum(flags)
            assert valid_points >= 10, (
                f"{name}/{bound_name}: only {valid_points} grid points inside "
                "the validity range"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"domination suite took {elapsed:.0f}s"


def test_criterion_2_exact_binomial_oracle():
    """Ten Bernoulli(1/2) identities: the closed-form Chernoff value is
    sqrt(10) e^-4.5 to 1e-12 relative, and both the optimized sum bound and
    the per-source product dominate the exact probability 2^-10, with the
    product achieving it exactly."""
    model = bernoulli_model()

    res = chernoff_sum_bound(model, [0.5])[0]
    with mpmath.workdps(60):
        expected = float(mpmath.sqrt(10) * mpmath.exp(mpmath.mpf("-4.5")))
    assert abs(res.raw_value / expected - 1.0) <= 1e-12
    assert expected == pytest.approx(3.513e-2, abs=1e-5)

    master = master_bound(model, MgfModel(mode="analytic"), [0.5])[0]
    assert master.value >= TRUE_BINOMIAL

    per_source = [
        BoundResult(raw_value=0.5, value=0.5, theta_star=None, valid=True, trivial=False)
        for _ in range(10)
    ]
    prod = _product(per_source)
    assert prod.value >= TRUE_BINOMIAL
    assert abs(prod.value - TRUE_BINOMIAL) <= 1e-12


def test_criterion_3_exponential_series_oracle():
    """Exponential matrix series: the product-form bound equals e*eps for a
    single identity source, both series bounds dominate the exact Gamma
    CDFs, and each closed form crosses 1 exactly at its predicted cutoff."""
    one = exp_series_model(1)
    for eps in (0.01, 0.05, 0.1, 0.2, 0.3):
        res = series_product_bound(one, [eps])[0]
        assert abs(res.raw_value / (math.e * eps) - 1.0) <= 1e-12
        assert res.value >= 1.0 - math.exp(-eps)

    two = exp_series_model(2)
    for eps in (0.01, 0.05, 0.1, 0.2, 0.3):
        gamma_cdf = 1.0 - math.exp(-eps) * (1.0 + eps)
        sum_form = series_sum_bound(two, [eps])[0]
        assert sum_form.valid
        assert sum_form.value >= gamma_cdf
        prod_form = series_product_bound(two, [eps])[0]
        assert prod_form.valid
        assert prod_form.value >= gamma_cdf

    # cutoff formulas: (K alpha / e) (K / (C nu))^(1/alpha) for the sum
    # form; (alpha/e) C^(-1/alpha) (prod nu_k)^(-1/(alpha K)) for the
    # product form.  C = alpha = 1 here; nu = K and nu_k = 1.
    cases = [
        (one, series_sum_bound, 1.0 / math.e),
        (one, series_product_bound, 1.0 / math.e),
        (two, series_sum_bound, 2.0 / math.e),
        (two, series_product_bound, 1.0 / math.e),
    ]
    for model, bound_fn, cutoff in cases:
        just_below, at_cutoff = bound_fn(model, [cutoff * (1.0 - 1e-12), cutoff])
        assert just_below.valid
        assert abs(just_below.raw_value - 1.0) <= 1e-9
        assert not at_cutoff.valid
        assert at_cutoff.value == 1.0


def test_criterion_4_closed_form_theta_star():
    """The 1-D optimizer recovers the closed-form minimizers: theta* =
    log(mu/eps)/L for the linear-envelope objective and theta* =
    alpha K / eps for the power-envelope objective, with matching minima,
    to 1e-6 relative."""
    for big_l, mu, eps in [(1.0, 5.0, 0.5), (2.0, 3.0, 0.4), (0.5, 1.0, 0.1)]:
        res = minimize(lambda t: t * eps + (math.exp(-t * big_l) - 1.0) / big_l * mu)
        theta_exact = math.log(mu / eps) / big_l
        value_exact = (mu / eps) ** (eps / big_l) * math.exp((eps - mu) / big_l)
        assert abs(res.theta_star / theta_exact - 1.0) <= 1e-6
        assert abs(math.exp(res.f_star) / value_exact - 1.0) <= 1e-6

    for k, alpha, c, nu, eps in [(2, 1.0, 1.0, 2.0, 0.2), (3, 2.0, 4.0, 1.5, 0.1)]:
        res = minimize(
            lambda t: t * eps + k * (math.log(c * nu / k) - alpha * math.log(t))
        )
        theta_exact = alpha * k / eps
        value_exact = (math.e * eps / (k * alpha)) ** (alpha * k) * (c * nu / k) ** k
        assert abs(res.theta_star / theta_exact - 1.0) <= 1e-6
        assert abs(math.exp(res.f_star) / value_exact - 1.0) <= 1e-6


@dataclass(frozen=True)
class _Doubled:
    """Direct sum X + X of one source's draw with itself (same randomness in
    both blocks), doubling the ambient dimension without changing spectra."""

    inner: object
    kind = "doubled"

    @property
    def dim(self):
        return 2 * self.inner.dim

    def mean(self):
        m = self.inner.mean()
        return None if m is None else HermitianMatrix(self._block(m.entries))

    def uniform_bound(self):
        return self.inner.uniform_bound()

    def sample_batch(self, stream, size):
        inner = self.inner.sample_batch(stream, size)
        d = self.inner.dim
        out = np.zeros((size, 2 * d, 2 * d), dtype=complex)
        out[:, :d, :d] = inner
        out[:, d:, d:] = inner
        return out

    @property
    def analytic_mgf(self):
        inner = self.inner.analytic_mgf
        return None if inner is None else lambda thetas: self._block(inner(thetas))

    @staticmethod
    def _block(entries):
        d = entries.shape[-1]
        out = np.zeros((*entries.shape[:-2], 2 * d, 2 * d), dtype=complex)
        out[..., :d, :d] = entries
        out[..., d:, d:] = entries
        return out


def test_criterion_5_dimension_independence():
    """Doubling every source by a block direct sum with itself leaves the
    optimized sum bound unchanged to 1e-8 relative, on three ensembles."""
    gamma_series = SumModel(
        sources=tuple(
            ScaledFixed(
                matrix=HermitianMatrix.diagonal([1.0, 2.0]),
                law=Gamma(shape=2.0, rate=1.5),
            )
            for _ in range(3)
        )
    )
    cases = [
        (bernoulli_model(), lambda: MgfModel(mode="analytic"), 0.5),
        (gamma_series, lambda: MgfModel(mode="analytic"), 0.3),
        (
            SumModel(sources=tuple(BoundedRankOne(dim=3, bound=1.0) for _ in range(4))),
            lambda: MgfModel(mode="empirical", n_samples=2000, seed=11),
            0.1,
        ),
    ]
    for model, mgf_factory, eps in cases:
        doubled = SumModel(sources=tuple(_Doubled(s) for s in model.sources))
        base = master_bound(model, mgf_factory(), [eps])[0]
        big = master_bound(doubled, mgf_factory(), [eps])[0]
        assert abs(big.value - base.value) <= 1e-8 * max(base.value, 1e-300)


def test_criterion_6_ordering_properties():
    """Product never exceeds its smallest factor, the log-mean bound never
    beats the optimized sum bound, the closed-form Chernoff bound is
    non-decreasing on its validity range, and everything clamps to [0,1]."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        vals = rng.random(int(rng.integers(1, 8)))
        results = [
            BoundResult(raw_value=float(v), value=float(v), theta_star=None,
                        valid=True, trivial=False)
            for v in vals
        ]
        assert _product(results).value <= vals.min()

    hetero = SumModel(
        sources=(
            ScaledFixed(matrix=HermitianMatrix.identity(2), law=Exponential(rate=1.0)),
            ScaledFixed(matrix=HermitianMatrix.identity(2), law=Exponential(rate=2.0)),
            ScaledFixed(
                matrix=HermitianMatrix.diagonal([1.0, 0.5]),
                law=Gamma(shape=2.0, rate=2.0),
            ),
        )
    )
    mgf = MgfModel(mode="analytic")
    for eps in (0.05, 0.1, 0.2, 0.4):
        master = master_bound(hetero, mgf, [eps])[0]
        log_mean = log_mean_bound(hetero, mgf, [eps])[0]
        assert log_mean.value >= master.value - 1e-10

    model = bernoulli_model()
    mu = 5.0
    grid = np.linspace(1e-3, mu, 500)
    raws = [r.raw_value for r in chernoff_sum_bound(model, grid)]
    for a, b in zip(raws, raws[1:]):
        assert b >= a * (1.0 - 1e-12)

    collected = [
        chernoff_sum_bound(model, [0.5])[0],
        chernoff_sum_bound(model, [50.0])[0],
        master_bound(model, mgf, [0.5])[0],
        log_mean_bound(model, mgf, [0.5])[0],
        series_sum_bound(exp_series_model(2), [5.0])[0],
    ]
    for res in collected:
        assert 0.0 <= res.value <= 1.0
        assert res.value <= res.raw_value
        if not res.valid:
            assert res.value == 1.0 and res.trivial


def test_criterion_7_linear_algebra_kernel():
    """The program's matrix log and matrix exponential kernels agree with
    scipy's logm and expm to 1e-9 relative error on 100 random Hermitian
    matrices for each d in {2, 8, 32, 64}, all within one minute: the
    stacked log of the Laplace bounds (bounds._log_mgf_sum) on a stack of
    e^H, and the closed-form mgf E e^(-theta x A) = e^(-theta A) of
    ScaledFixed with x = 1 almost surely."""
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    theta = 1.0

    def rel(got, ref):
        return frobenius(got - ref) / max(1.0, frobenius(ref))

    for d in (2, 8, 32, 64):
        # scale keeps the spectral spread O(1): recovering log-eigenvalues
        # of size e^-lambda from e^H is ill-posed once the spread exceeds
        # the ~16 decades float64 can represent.
        exps = np.stack(
            [
                scipy.linalg.expm(random_hermitian(d, rng, scale=1.0 / math.sqrt(d)).entries)
                for _ in range(100)
            ]
        )
        logs = _log_mgf_sum(exps[:, None], [0], [theta] * len(exps))
        for got, e in zip(logs, exps):
            assert rel(got, scipy.linalg.logm(e)) <= 1e-9
            mgf = ScaledFixed(HermitianMatrix(e), Bernoulli(1.0)).analytic_mgf([theta])[0]
            assert rel(mgf, scipy.linalg.expm(-theta * e)) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"linear-algebra kernel took {elapsed:.0f}s"


def test_criterion_8_reproducibility(tmp_path, monkeypatch):
    """compare on a bundled config with a fixed seed yields byte-identical
    CSV and JSON across two runs and across SMALLDEV_THREADS in {1, 4}."""
    config = demo_config_path("bernoulli_diagonal")
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"

    def run(threads):
        # identical invocation every time: the echoed config, including the
        # output paths, must not vary between runs
        monkeypatch.setenv(THREADS_ENV, str(threads))
        code = main(
            [
                "compare",
                "--config",
                config,
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        return csv_path.read_bytes(), json_path.read_bytes()

    first = run(1)
    second = run(1)
    third = run(4)
    assert first == second
    assert first == third
