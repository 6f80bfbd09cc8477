import math
import re
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldev import bounds as bounds_mod
from smalldev.bounds import (
    BoundResult,
    admissible_cp,
    chernoff_product_bound,
    chernoff_sum_bound,
    exp_envelope,
    g_theta_bound,
    log_mean_bound,
    log_rate,
    master_bound,
    negative_moment_bound,
    power_envelope,
    product_bound,
    series_product_bound,
    series_sum_bound,
    single_matrix_bound,
    source_means,
)
from smalldev.ensembles import (
    Bernoulli,
    BoundedRankOne,
    Gamma,
    MgfModel,
    ScaledFixed,
    SumModel,
    Uniform,
    Wishart,
    bernoulli_diagonal,
    distinct_sources,
)
from smalldev.errors import (
    DegenerateModelError,
    FloatRangeError,
    InvalidDominatorsError,
    NotPositiveDefiniteError,
    UnsupportedEnsembleError,
)
from smalldev.linalg import HermitianMatrix
from smalldev.optimizer import OptimizerConfig, minimize

from conftest import frobenius, random_pd

ANALYTIC = MgfModel(mode="analytic")
TRUE_BINOMIAL = 2.0**-10


def bernoulli_model(k=10, d=1, p=0.5, s=1.0):
    return SumModel(sources=tuple(bernoulli_diagonal(dim=d, p=p, scale=s) for _ in range(k)))


def exp_series_model(k, d=2, rate=1.0):
    return SumModel(
        sources=tuple(
            ScaledFixed(matrix=HermitianMatrix.identity(d), law=Gamma(1.0, rate))
            for _ in range(k)
        )
    )


def gamma2_cdf(x):
    return 1.0 - math.exp(-x) * (1.0 + x)


def fixed_result(value):
    return BoundResult(
        raw_value=value, value=value, theta_star=None, valid=True, trivial=value >= 1.0
    )


def assert_result_invariants(res):
    assert 0.0 <= res.value <= 1.0
    assert res.value <= res.raw_value or res.value == pytest.approx(res.raw_value)
    assert res.value <= 1.0
    if not res.valid:
        assert res.trivial
        assert res.value == 1.0
    if res.trivial:
        assert res.value == 1.0 or res.value >= 1.0 - 1e-15


class TestSingleMatrixBound:
    def test_deterministic_identity_goes_to_zero(self):
        src = bernoulli_diagonal(dim=2, p=1.0, scale=1.0)
        res = single_matrix_bound(src, ANALYTIC, [0.5])[0]
        assert res.value < 1e-50
        assert_result_invariants(res)

    def test_matches_dense_grid_oracle(self):
        # Y = x * [1], x ~ exp(1): objective exp(theta*eps)/(1+theta)
        src = ScaledFixed(matrix=HermitianMatrix.identity(1), law=Gamma(1.0, 1.0))
        res = single_matrix_bound(src, ANALYTIC, [0.1])[0]
        thetas = np.geomspace(1e-6, 1e6, 400_001)
        with np.errstate(over="ignore"):
            oracle = (np.exp(thetas * 0.1) / (1.0 + thetas)).min()
        assert res.raw_value == pytest.approx(oracle, rel=1e-6)
        assert res.theta_star == pytest.approx(9.0, rel=1e-4)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_dominates_exponential_cdf(self, eps):
        src = ScaledFixed(matrix=HermitianMatrix.identity(1), law=Gamma(1.0, 1.0))
        res = single_matrix_bound(src, ANALYTIC, [eps])[0]
        assert res.value >= 1.0 - math.exp(-eps)

    def test_rejects_nonpositive_eps(self):
        src = bernoulli_diagonal(dim=1, p=0.5, scale=1.0)
        with pytest.raises(ValueError):
            single_matrix_bound(src, ANALYTIC, [0.0])

    @staticmethod
    def stack_trace_bound(source, mgf, eps_grid, cfg=OptimizerConfig()):
        """The bound with h from the trace of the (m, d, d) mgf stack, as
        single_matrix_bound computed it before MgfModel.trace_many."""
        d = source.dim

        def h_many(thetas):
            traces = np.trace(mgf.evaluate_many(source, thetas), axis1=1, axis2=2).real
            return [math.log(max(float(tr) / d, bounds_mod._EIG_FLOOR)) for tr in traces]

        return bounds_mod._scan(h_many, eps_grid, cfg, {"d": float(d)})

    @pytest.mark.parametrize(
        "source",
        [
            ScaledFixed(HermitianMatrix([[2.0, 1j], [-1j, 1.0]]), Gamma(2.0, 1.5)),
            bernoulli_diagonal(dim=3, p=0.3, scale=1.5),
            SumModel(sources=(ScaledFixed(HermitianMatrix.diagonal([0.5, 3.0]), Uniform(2.0)),)),
        ],
        ids=["dense-gamma", "bernoulli-diagonal", "one-source-sum"],
    )
    def test_analytic_has_the_bits_of_the_stack_trace(self, source):
        eps = np.geomspace(1e-3, 2.0, 12).tolist()
        assert single_matrix_bound(source, ANALYTIC, eps) == self.stack_trace_bound(
            source, ANALYTIC, eps
        )

    @pytest.mark.parametrize(
        "source",
        [
            BoundedRankOne(dim=4, bound=1.0),
            SumModel(sources=(BoundedRankOne(dim=4, bound=1.0),) * 8),
            SumModel(sources=(Wishart(dim=3, dof=2),) * 2),
        ],
        ids=["bounded-rank-one", "bounded-rank-one-sum", "wishart-sum"],
    )
    def test_empirical_stays_within_1e_13_of_the_stack_trace(self, source):
        eps = np.geomspace(1e-3, 2.0, 12).tolist()
        got = single_matrix_bound(source, MgfModel("empirical", 2000, seed=5), eps)
        ref = self.stack_trace_bound(source, MgfModel("empirical", 2000, seed=5), eps)
        for g, r in zip(got, ref, strict=True):
            assert g.value == pytest.approx(r.value, rel=1e-13, abs=0)
            assert g.raw_value == pytest.approx(r.raw_value, rel=1e-13, abs=0)

    def test_empirical_grid_bit_identical_to_per_eps_calls(self):
        src = SumModel(sources=(BoundedRankOne(dim=4, bound=1.0),) * 8)
        eps = [0.012, 0.06, 0.12]
        grid = single_matrix_bound(src, MgfModel("empirical", 4000, seed=42), eps)
        alone = [single_matrix_bound(src, MgfModel("empirical", 4000, seed=42), [e])[0] for e in eps]
        assert grid == alone


class TestMasterBound:
    def test_deterministic_identity_goes_to_zero(self):
        model = SumModel(sources=(bernoulli_diagonal(dim=2, p=1.0, scale=1.0),))
        res = master_bound(model, ANALYTIC, [0.5])[0]
        assert res.value < 1e-50

    def test_dominates_exact_binomial(self):
        res = master_bound(bernoulli_model(), ANALYTIC, [0.5])[0]
        assert res.value >= TRUE_BINOMIAL
        assert_result_invariants(res)

    def test_dominates_gamma_cdf(self):
        res = master_bound(exp_series_model(2), ANALYTIC, [0.2])[0]
        assert res.value >= gamma2_cdf(0.2)

    def test_matches_dense_grid_oracle_bernoulli(self):
        # K=10 Bernoulli(1/2) identities: per-source mgf is the scalar
        # (1 + exp(-theta))/2, so the objective has a closed scalar form.
        res = master_bound(bernoulli_model(), ANALYTIC, [0.5])[0]
        thetas = np.geomspace(1e-6, 1e6, 400_001)
        with np.errstate(over="ignore"):
            objective = np.exp(0.5 * thetas) * (0.5 * (1.0 + np.exp(-thetas))) ** 10
        assert res.raw_value == pytest.approx(objective.min(), rel=1e-6)
        assert not res.details["at_boundary"]

    def test_empirical_mgf_agrees_with_analytic(self):
        model = exp_series_model(2)
        emp = MgfModel(mode="empirical", n_samples=20_000, seed=5)
        ana = master_bound(model, ANALYTIC, [0.2])[0]
        est = master_bound(model, emp, [0.2])[0]
        assert est.value == pytest.approx(ana.value, rel=0.05)

    def test_propagates_broken_mgf(self):
        class BrokenMgf:
            def evaluate_many(self, source, thetas):
                return np.array([np.diag([1.0, -0.5]) for _ in thetas], dtype=complex)

        model = SumModel(sources=(bernoulli_diagonal(dim=2, p=0.5, scale=1.0),))
        cfg = OptimizerConfig()
        # The first bad theta in batch order: the start of the coarse grid.
        first = re.escape(f"theta={float(cfg.coarse_grid()[0])!r} ")
        with pytest.raises(NotPositiveDefiniteError, match=first):
            master_bound(model, BrokenMgf(), [0.5], cfg)

    def test_broken_mgf_of_one_source_among_several(self):
        # Only the last source's mgf is indefinite; the stacked eigh must
        # still check each matrix on its own.
        sources = tuple(bernoulli_diagonal(dim=2, p=0.5, scale=1.0) for _ in range(3))

        class BrokenMgf:
            def evaluate_many(self, source, thetas):
                mat = np.diag([1.0, -0.5]) if source is sources[-1] else np.eye(2)
                return np.array([mat for _ in thetas], dtype=complex)

        with pytest.raises(NotPositiveDefiniteError, match="theta"):
            master_bound(SumModel(sources=sources), BrokenMgf(), [0.5])

    @pytest.mark.parametrize(
        "source", [BoundedRankOne(dim=4, bound=1.0), bernoulli_diagonal(dim=1, p=0.5, scale=1.0)]
    )
    def test_stacked_log_sum_matches_per_matrix_loop(self, source):
        # Reference: one eigendecomposition per matrix, logs summed in order.
        model = SumModel(sources=(source,) * 12)
        mgf = MgfModel(mode="empirical", n_samples=500, seed=3)
        thetas = [1e-3, 0.7, 40.0]
        unique, index = distinct_sources(model.sources)
        mats = np.stack([mgf.evaluate_many(src, thetas) for src in unique], axis=1)
        total = bounds_mod._log_mgf_sum(mats, index, thetas)
        for row, got in zip(mats[:, index], total):
            ref = None
            for m in row:
                w, u = np.linalg.eigh(m)
                lm = (u * np.log(np.clip(w, bounds_mod._EIG_FLOOR, None))) @ u.conj().T
                ref = lm if ref is None else ref + lm
            np.testing.assert_array_equal(got, ref)

    def test_log_mgf_sum_inverts_expm_d8(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (a + a.conj().T) / 2.0
        back = bounds_mod._log_mgf_sum(scipy.linalg.expm(h)[None, None], [0], [1.0])[0]
        rel = np.linalg.norm(back - h) / max(1.0, np.linalg.norm(h))
        assert rel <= 1e-9

    def test_log_mgf_sum_of_two_sources_matches_scipy_logm(self):
        rng = np.random.default_rng(4)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            mats.append(a @ a.conj().T + 2.0 * np.eye(4))
        total = bounds_mod._log_mgf_sum(np.stack(mats)[None], [0, 1, 0], [1.0])[0]
        ref = 2.0 * scipy.linalg.logm(mats[0]) + scipy.linalg.logm(mats[1])
        assert np.linalg.norm(total - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_log_mgf_sum_clips_a_singular_mgf_upward(self):
        # A zero eigenvalue (an underflowed mgf) is floored, not rejected.
        mats = np.diag([1.0, 0.0]).astype(complex)[None, None]
        total = bounds_mod._log_mgf_sum(mats, [0], [1.0])[0]
        expected = np.diag([0.0, math.log(bounds_mod._EIG_FLOOR)])
        assert np.abs(total - expected).max() <= 1e-12 * abs(math.log(bounds_mod._EIG_FLOOR))

    def test_eigh_sees_each_distinct_source_once(self, monkeypatch):
        # (m, J, d, d) with J distinct objects, however often each repeats.
        a, b = (bernoulli_diagonal(dim=2, p=p, scale=1.0) for p in (0.5, 0.3))
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(mats, *args, **kwargs):
            shapes.append(np.shape(mats))
            return eigh(mats, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        for sources, j in [((a,) * 10, 1), ((a, b, a, a, b), 2)]:
            shapes.clear()
            master_bound(SumModel(sources=sources), ANALYTIC, [0.1, 0.5])
            stacks = [s for s in shapes if len(s) == 4]
            assert stacks and all(s[1:] == (j, 2, 2) for s in stacks)


class TestGThetaBound:
    def test_deterministic_reduction_goes_to_zero(self):
        # X_k = I deterministic: E exp(-theta X) = exp(-theta * I), so
        # g(theta) = -theta with dominators E X_k holds with equality and
        # the bound collapses like exp(theta(eps - eta2)).
        model = SumModel(
            sources=tuple(bernoulli_diagonal(dim=2, p=1.0, scale=1.0) for _ in range(3))
        )
        dominators = tuple(s.mean() for s in model.sources)
        res = g_theta_bound(lambda t: -t, dominators, [0.5])[0]
        assert res.value < 1e-50
        assert res.details["eta2"] == pytest.approx(3.0)

    def test_exponential_series_matches_dense_grid(self):
        # g(theta) = log(1/(1+theta)), A_k = I (2x2), K = 3: eta2 = 3.
        dominators = tuple(HermitianMatrix.identity(2) for _ in range(3))
        res = g_theta_bound(log_rate(1.0), dominators, [0.2])[0]
        thetas = np.geomspace(1e-6, 1e6, 400_001)
        with np.errstate(over="ignore"):
            oracle = np.exp(0.2 * thetas + 3.0 * np.log(1.0 / (1.0 + thetas))).min()
        assert res.raw_value == pytest.approx(oracle, rel=1e-6)
        assert res.details["eta2"] == pytest.approx(3.0)

    def test_trivial_when_eps_exceeds_achievable_decrease(self):
        res = g_theta_bound(log_rate(1.0), (HermitianMatrix.identity(1),), [2.0])[0]
        assert res.trivial
        assert res.value == 1.0
        assert res.valid
        # the objective only rises, so theta* sits at theta_min
        assert res.details["at_boundary"]

    def test_g_changing_sign_matches_dense_grid(self):
        # g(theta) = -log(theta) is positive below theta = 1 and negative
        # above it; with the dominator diag(1, 3), each theta takes
        # eta1 = 3 where g > 0 and eta2 = 1 where g < 0.
        g = power_envelope(1.0, 1.0)
        eps = [0.05, 0.1, 0.5]
        results = g_theta_bound(g, (HermitianMatrix.diagonal([1.0, 3.0]),), eps)
        thetas = np.geomspace(1e-6, 1e6, 400_001)
        gvals = -np.log(thetas)
        h = gvals * np.where(gvals > 0, 3.0, 1.0)
        for e, res in zip(eps, results):
            oracle = math.exp((e * thetas + h).min())
            assert res.raw_value == pytest.approx(oracle, rel=1e-6)
            assert res.details == {"eta1": 3.0, "eta2": 1.0, "at_boundary": False}
            assert_result_invariants(res)

    def test_eta_checks_the_grid_without_a_theta_scan(self, monkeypatch):
        # eta1 = 4 and eta2 = 2 are the extreme eigenvalues of diag(2, 4);
        # the details name eta1 only where g > 0 somewhere on the grid.
        dominators = (HermitianMatrix.diagonal([1.0, 3.0]), HermitianMatrix.identity(2))
        (res,) = g_theta_bound(log_rate(1.0), dominators, [0.5])
        assert res.details == {"eta2": 2.0, "at_boundary": res.details["at_boundary"]}
        (res,) = g_theta_bound(power_envelope(1.0, 1.0), dominators, [0.5])
        assert res.details == {"eta1": 4.0, "eta2": 2.0, "at_boundary": False}

        def search(*args, **kwargs):
            raise AssertionError("g_theta_bound ran a theta-scan before its checks")

        monkeypatch.setattr(bounds_mod, "search", search)
        with pytest.raises(InvalidDominatorsError, match="non-finite"):
            g_theta_bound(lambda t: math.inf if t > 1.0 else -t, dominators, [0.5])
        with pytest.raises(ValueError, match="at least one dominating matrix"):
            g_theta_bound(log_rate(1.0), (), [0.5])

    def test_positive_sign_uses_eta1(self):
        cfg = OptimizerConfig(theta_min=1e-6, theta_max=1.0)
        dominators = (HermitianMatrix.diagonal([1.0, 3.0]),)
        res = g_theta_bound(power_envelope(2.0, 1.0), dominators, [0.05], cfg)[0]
        # theta*eps + 3 log(2/theta) falls on [1e-6, 1]: the minimum is at 1.
        assert res.raw_value == pytest.approx(math.exp(0.05 + 3.0 * math.log(2.0)), rel=1e-12)
        assert res.details["eta1"] == pytest.approx(3.0)
        assert "eta2" not in res.details
        assert_result_invariants(res)

    def test_both_signs_on_the_grid_record_both_eta(self):
        cfg = OptimizerConfig(theta_min=0.5, theta_max=2.0, coarse_points=3)
        dominators = (HermitianMatrix.diagonal([1.0, 3.0]),)
        res = g_theta_bound(power_envelope(1.0, 1.0), dominators, [0.05], cfg)[0]
        assert (res.details["eta1"], res.details["eta2"]) == (3.0, 1.0)
        # One grid point lies on g = 0 and the two others on either side.
        cfg = OptimizerConfig(theta_min=1.0, theta_max=2.0, coarse_points=3)
        res = g_theta_bound(power_envelope(1.0, 1.0), dominators, [0.05], cfg)[0]
        assert "eta1" not in res.details
        assert res.details["eta2"] == 1.0
        assert_result_invariants(res)


class CountingMgf:
    """Mgf evaluator that records every theta it is asked for, through
    either of its two calls."""

    def __init__(self, inner):
        self.inner = inner
        self.thetas = []

    def evaluate_many(self, source, thetas):
        self.thetas.extend(thetas)
        return self.inner.evaluate_many(source, thetas)

    def trace_many(self, source, thetas):
        self.thetas.extend(thetas)
        return self.inner.trace_many(source, thetas)


class TestGridScan:
    EPS = [0.05, 0.1, 0.2, 0.4]

    @pytest.mark.parametrize("grid", [master_bound, log_mean_bound])
    def test_repeated_source_mgf_is_evaluated_once_per_theta(self, grid):
        # One object ten times, as `repeat: 10` builds it: one mgf call per
        # theta, and the bits of ten separately built sources.
        src = bernoulli_diagonal(dim=1, p=0.5, scale=1.0)
        mgf = CountingMgf(ANALYTIC)
        shared = grid(SumModel(sources=(src,) * 10), mgf, self.EPS)
        assert len(mgf.thetas) == len(set(mgf.thetas)) > 0
        assert shared == grid(bernoulli_model(), ANALYTIC, self.EPS)

    def test_grid_bit_identical_to_per_eps_calls(self):
        # Each eps of a grid gets what it gets alone: the theta-scans run in
        # lockstep, and the closed forms share only eps-free constants.
        model = exp_series_model(3)
        dominators = tuple(HermitianMatrix.identity(2) for _ in range(3))
        src = model.sources[0]
        cases = [
            (single_matrix_bound, (src, ANALYTIC)),
            (master_bound, (model, ANALYTIC)),
            (log_mean_bound, (model, ANALYTIC)),
            (g_theta_bound, (log_rate(1.0), dominators)),
            (product_bound, (model, ANALYTIC)),
            (negative_moment_bound, (0.2, 1.0)),
            (chernoff_sum_bound, (bernoulli_model(),)),
            (chernoff_product_bound, (bernoulli_model(),)),
            (series_sum_bound, (model,)),
            (series_product_bound, (model,)),
        ]
        for bound, args in cases:
            grid = bound(*args, self.EPS)
            assert grid == [bound(*args, [e])[0] for e in self.EPS]

    def test_h_evaluated_once_per_distinct_theta(self):
        src = ScaledFixed(matrix=HermitianMatrix.identity(2), law=Gamma(1.0, 1.0))
        cfg = OptimizerConfig()
        grid = CountingMgf(ANALYTIC)
        single_matrix_bound(src, grid, self.EPS, cfg)
        per_eps = CountingMgf(ANALYTIC)
        for e in self.EPS:
            single_matrix_bound(src, per_eps, [e], cfg)
        assert sorted(grid.thetas) == sorted(set(per_eps.thetas))
        coarse = set(cfg.coarse_grid().tolist())
        assert sum(t in coarse for t in grid.thetas) == cfg.coarse_points
        assert sum(t in coarse for t in per_eps.thetas) == cfg.coarse_points * len(
            self.EPS
        )

    def test_rejects_nonpositive_eps_in_grid(self):
        with pytest.raises(ValueError):
            master_bound(exp_series_model(2), ANALYTIC, [0.1, 0.0])

    def test_lockstep_batches(self):
        # The coarse grid is one batch; every later batch holds at most one
        # new theta per eps.
        batches = []

        class BatchMgf:
            def evaluate_many(self, source, thetas):
                batches.append(len(thetas))
                return ANALYTIC.evaluate_many(source, thetas)

            def trace_many(self, source, thetas):
                batches.append(len(thetas))
                return ANALYTIC.trace_many(source, thetas)

        cfg = OptimizerConfig()
        src = ScaledFixed(matrix=HermitianMatrix.identity(2), law=Gamma(1.0, 1.0))
        single_matrix_bound(src, BatchMgf(), self.EPS, cfg)
        assert batches[0] == cfg.coarse_points
        assert len(batches) > 1
        assert all(1 <= b <= len(self.EPS) for b in batches[1:])

    def test_grid_equals_scalar_minimize_of_per_theta_objectives(self):
        # Reference: the objectives evaluated one theta at a time, matrix by
        # matrix, and minimized per eps by optimizer.minimize.
        mixed = SumModel(
            sources=(
                ScaledFixed(
                    matrix=HermitianMatrix([[2.0, 1j], [-1j, 1.0]]), law=Gamma(2.0, 1.5)
                ),
                bernoulli_diagonal(dim=2, p=0.3, scale=1.5),
                ScaledFixed(matrix=HermitianMatrix.diagonal([0.5, 3.0]), law=Gamma(1.0, 2.0)),
            )
        )
        floor = bounds_mod._EIG_FLOOR
        cfg = OptimizerConfig()
        for model in (exp_series_model(3), mixed):
            k, d = model.size, model.dim
            g = log_rate(1.0)
            means = [a.entries for a in source_means(model)]
            w = np.linalg.eigvalsh(sum(means[1:], means[0]))
            eta1, eta2 = float(w[-1]), float(w[0])

            def g_theta(th):
                gth = g(th)
                return gth * (eta1 if gth > 0 else eta2)

            def single(th, src=model.sources[0]):
                tr = float(np.trace(ANALYTIC.evaluate(src, th).entries).real)
                return math.log(max(tr / d, floor))

            def master(th):
                total = None
                for src in model.sources:
                    w, u = np.linalg.eigh(ANALYTIC.evaluate(src, th).entries)
                    lm = (u * np.log(np.clip(w, floor, None))) @ u.conj().T
                    total = lm if total is None else total + lm
                return float(np.linalg.eigvalsh(total)[-1])

            def log_mean(th):
                mats = [ANALYTIC.evaluate(src, th).entries for src in model.sources]
                lam = float(np.linalg.eigvalsh(sum(mats[1:], mats[0]) / k)[-1])
                return k * math.log(max(lam, floor))

            cases = [
                (single_matrix_bound(model.sources[0], ANALYTIC, self.EPS, cfg), single),
                (master_bound(model, ANALYTIC, self.EPS, cfg), master),
                (log_mean_bound(model, ANALYTIC, self.EPS, cfg), log_mean),
                (g_theta_bound(g, source_means(model), self.EPS, cfg), g_theta),
            ]
            for grid, h in cases:
                for eps, res in zip(self.EPS, grid):
                    ref = minimize(lambda th: th * eps + h(th), cfg)
                    assert res.theta_star == ref.theta_star
                    assert res.raw_value == math.exp(min(ref.f_star, bounds_mod._EXP_CAP))
                    assert res.details["at_boundary"] == ref.at_boundary


class TestLogMeanBound:
    def test_single_source_equals_master(self):
        model = SumModel(sources=(bernoulli_diagonal(dim=2, p=0.5, scale=1.0),))
        a = master_bound(model, ANALYTIC, [0.3])[0]
        b = log_mean_bound(model, ANALYTIC, [0.3])[0]
        assert abs(a.value - b.value) <= 1e-8

    def test_iid_equals_master(self):
        model = bernoulli_model()
        a = master_bound(model, ANALYTIC, [0.5])[0]
        b = log_mean_bound(model, ANALYTIC, [0.5])[0]
        assert b.value == pytest.approx(a.value, rel=1e-6)

    def test_heterogeneous_weaker_than_master(self):
        model = SumModel(
            sources=(
                ScaledFixed(matrix=HermitianMatrix.identity(1), law=Gamma(1.0, 1.0)),
                ScaledFixed(matrix=HermitianMatrix.identity(1), law=Gamma(1.0, 2.0)),
            )
        )
        a = master_bound(model, ANALYTIC, [0.2])[0]
        b = log_mean_bound(model, ANALYTIC, [0.2])[0]
        assert b.value >= a.value - 1e-10

    def test_heterogeneous_objective_ordering_on_shared_grid(self):
        # log of the averaged mgf dominates the average of the logs, so the
        # two objectives are ordered pointwise before any optimization.
        rates = (1.0, 2.0)
        thetas = np.geomspace(1e-4, 1e4, 2001)
        eps = 0.2
        master_vals = eps * thetas + sum(np.log(r / (r + thetas)) for r in rates)
        mean_mgf = sum(r / (r + thetas) for r in rates) / 2.0
        log_mean_vals = eps * thetas + 2.0 * np.log(mean_mgf)
        assert log_mean_vals.min() >= master_vals.min() - 1e-12


# The per-eps combinator behind product_bound.
combine = bounds_mod._product


class TestProductBound:
    EPS = [0.05, 0.1, 0.2, 0.4]

    def test_grid_scans_each_distinct_source_once(self, monkeypatch):
        a = bernoulli_diagonal(dim=1, p=0.5, scale=1.0)
        b = bernoulli_diagonal(dim=1, p=0.5, scale=2.0)
        scans = {}
        real = bounds_mod.single_matrix_bound

        def counting(src, *args):
            scans[id(src)] = scans.get(id(src), 0) + 1
            return real(src, *args)

        monkeypatch.setattr(bounds_mod, "single_matrix_bound", counting)
        got = product_bound(SumModel(sources=(a, b, a)), ANALYTIC, self.EPS)
        assert scans == {id(a): 1, id(b): 1}
        sa, sb = real(a, ANALYTIC, self.EPS), real(b, ANALYTIC, self.EPS)
        assert got == [combine([x, y, x]) for x, y in zip(sa, sb)]

    def test_grid_on_a_repeated_source_keeps_its_bits(self):
        src = bernoulli_diagonal(dim=1, p=0.5, scale=1.0)
        shared = product_bound(SumModel(sources=(src,) * 10), ANALYTIC, self.EPS)
        assert shared == product_bound(bernoulli_model(), ANALYTIC, self.EPS)

    def test_grid_never_exceeds_smallest_single(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            k = int(rng.integers(1, 5))
            sources = tuple(
                bernoulli_diagonal(dim=2, p=float(p), scale=float(s))
                for p, s in zip(rng.uniform(0.1, 1.0, k), rng.uniform(0.5, 2.0, k))
            )
            got = product_bound(SumModel(sources=sources), ANALYTIC, self.EPS)
            singles = [single_matrix_bound(src, ANALYTIC, self.EPS) for src in sources]
            for i, res in enumerate(got):
                smallest = min(column[i].value for column in singles)
                assert res.value <= smallest
                assert res.details["min_single"] == smallest

    def test_zero_factor_gives_zero(self):
        res = combine([fixed_result(0.0), fixed_result(0.7)])
        assert res.value == 0.0

    def test_all_ones_gives_one(self):
        res = combine([fixed_result(1.0)] * 3)
        assert res.value == 1.0
        assert res.trivial

    def test_exact_binomial_product(self):
        res = combine([fixed_result(0.5)] * 10)
        assert res.value == pytest.approx(TRUE_BINOMIAL, abs=1e-12)
        assert res.details["min_single"] == 0.5

    def test_never_exceeds_smallest_factor(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.random(rng.integers(1, 6))
            res = combine([fixed_result(float(v)) for v in vals])
            assert res.value <= vals.min()


class TestNegativeMomentBound:
    def test_admissible_constant_from_mean(self):
        model = bernoulli_model()
        c1 = admissible_cp(model, 1.0)
        assert c1 == pytest.approx(0.2 * (1.0 + 1e-6), rel=1e-12)
        res = negative_moment_bound(c1, 1.0, [0.5])[0]
        assert res.raw_value == pytest.approx(0.1, rel=1e-5)
        assert res.value >= TRUE_BINOMIAL

    def test_quadratic_exponent(self):
        model = bernoulli_model()
        c2 = admissible_cp(model, 2.0)
        assert c2 == pytest.approx(0.04 * (1.0 + 1e-6), rel=1e-12)
        res = negative_moment_bound(c2, 2.0, [0.5])[0]
        assert res.raw_value == pytest.approx(0.01, rel=1e-5)

    def test_trivial_when_reaching_one(self):
        res = negative_moment_bound(0.5, 1.0, [3.0])[0]
        assert res.raw_value == pytest.approx(1.5)
        assert res.value == 1.0
        assert res.trivial
        assert res.valid

    def test_overflowing_eps_power_is_taken_in_log_space(self):
        res = negative_moment_bound(0.5, 400.0, [10.0])[0]
        assert res.value == 1.0 and res.valid
        res = negative_moment_bound(5e-324, 310.0, [10.0])[0]
        expected = math.exp(math.log(5e-324) + 310.0 * math.log(10.0))
        assert res.value == pytest.approx(expected, rel=1e-9)
        assert res.value < 1e-12

    def test_underflowing_eps_power_is_taken_in_log_space(self):
        # eps^p = 1e-400 is below the float range, Cp * eps^p = 1e-100 is not.
        res = negative_moment_bound(1e300, 2.0, [1e-200])[0]
        assert math.isclose(res.raw_value, 1e-100, rel_tol=1e-12)
        assert res.value == res.raw_value and res.valid

    def test_degenerate_zero_mean(self):
        model = SumModel(
            sources=(
                ScaledFixed(matrix=HermitianMatrix(np.zeros((2, 2))), law=Gamma(1.0, 1.0)),
            )
        )
        with pytest.raises(DegenerateModelError):
            admissible_cp(model, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: negative_moment_bound(x, 1.0, [0.5]),
        lambda x: negative_moment_bound(0.2, x, [0.5]),
        lambda x: admissible_cp(bernoulli_model(), x),
        exp_envelope,
        log_rate,
        lambda x: power_envelope(x, 1.0),
        lambda x: power_envelope(1.0, x),
    ],
    ids=["negative-moment-Cp", "negative-moment-p", "admissible-cp-p", "exp-envelope",
         "log-rate", "power-envelope-C", "power-envelope-alpha"],
)
def test_rejects_non_positive_or_non_finite_parameter(call, bad):
    with pytest.raises(ValueError, match="positive and finite"):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda e: negative_moment_bound(0.5, 1.0, [e]),
        lambda e: chernoff_sum_bound(bernoulli_model(), [e]),
        lambda e: master_bound(bernoulli_model(), ANALYTIC, [0.5, e]),
    ],
    ids=["negative-moment", "chernoff-sum", "master-grid"],
)
def test_rejects_nan_eps(call):
    with pytest.raises(ValueError, match="eps must be positive"):
        call(math.nan)


class _NoMean:
    dim = 1
    kind = "no_mean"

    def mean(self):
        return None


def test_source_means_names_the_first_source_without_one():
    model = SumModel(sources=(bernoulli_diagonal(dim=1, p=0.5, scale=1.0), _NoMean(), _NoMean()))
    with pytest.raises(UnsupportedEnsembleError, match=r"source 1 \(kind 'no_mean'\) has none"):
        source_means(model)
    # A repeated source without a mean is named at its first position.
    ok, none = bernoulli_diagonal(dim=1, p=0.5, scale=1.0), _NoMean()
    with pytest.raises(UnsupportedEnsembleError, match=r"source 2 \(kind 'no_mean'\) has none"):
        source_means(SumModel(sources=(ok, ok, none, ok, none)))


def test_source_means_computes_each_distinct_mean_once(monkeypatch):
    a = bernoulli_diagonal(dim=2, p=0.5, scale=1.0)
    b = bernoulli_diagonal(dim=2, p=0.25, scale=2.0)
    calls = []
    real = ScaledFixed.mean

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ScaledFixed, "mean", counting)
    means = source_means(SumModel(sources=(a, b, a, a, b)))
    assert calls == [a, b]
    assert means[0] is means[2] is means[3] and means[1] is means[4]
    assert np.array_equal(means[0].entries, a.matrix.scaled(0.5).entries)
    assert np.array_equal(means[1].entries, b.matrix.scaled(0.25).entries)


# Each mean is finite, their sum is not.
_HUGE_MEAN_SUM = SumModel(
    sources=(
        ScaledFixed(matrix=HermitianMatrix.diagonal([1e308, 1.0]), law=Gamma(1.0, 1.0)),
    )
    * 2
)
# The one source's mean, 2e308, is not finite.
_HUGE_MEAN_SOURCE = SumModel(
    sources=(ScaledFixed(matrix=HermitianMatrix.diagonal([1e308]), law=Gamma(1.0, 0.5)),)
)

# The almost-sure bound 2 * 1e308 of the one source is not finite.
_HUGE_UNIFORM_BOUND = SumModel(
    sources=(ScaledFixed(matrix=HermitianMatrix.diagonal([2.0, 1.0]), law=Uniform(1e308)),)
)
# The uniform law's envelope constant 1 / 1e-320 is not finite.
_TINY_UNIFORM = SumModel(
    sources=(ScaledFixed(matrix=HermitianMatrix.identity(1), law=Uniform(1e-320)),) * 2
)

_HUGE_SCALED_FIXED = SumModel(
    sources=(ScaledFixed(matrix=HermitianMatrix.diagonal([1e300]), law=Gamma(1.0, 1e-300)),)
    * 2
)


@pytest.mark.parametrize(
    "call, quantity",
    [
        (lambda: admissible_cp(bernoulli_model(k=2, p=1e-300), 2.0), "admissible constant"),
        (lambda: series_sum_bound(_HUGE_SCALED_FIXED, [0.1]), r"C \* nu"),
        (lambda: series_product_bound(_HUGE_SCALED_FIXED, [0.1]), "validity cutoff"),
        (lambda: admissible_cp(_HUGE_MEAN_SUM, 1.0), "the mean of the sum"),
        (lambda: chernoff_sum_bound(bernoulli_model(k=2, p=1.0, s=1e308), [0.1]),
         "the mean of the sum"),
        (lambda: source_means(_HUGE_MEAN_SOURCE),
         r"mean E X_k of source 0 \(kind 'scaled_fixed'\)"),
        (lambda: chernoff_product_bound(_HUGE_UNIFORM_BOUND, [0.5]),
         r"L, the almost-sure eigenvalue bound of source 0 \(kind 'scaled_fixed'\),"),
        (lambda: series_sum_bound(_TINY_UNIFORM, [0.5]),
         r"the envelope constant C = inf of source 0 \(law 'uniform'\)"),
        (lambda: series_product_bound(_TINY_UNIFORM, [0.5]),
         r"the envelope constant C = inf of source 0 \(law 'uniform'\)"),
    ],
    ids=["admissible-cp", "series-sum", "series-product", "mean-of-sum", "chernoff-sum",
         "source-mean", "chernoff-L", "series-sum-uniform-C", "series-product-uniform-C"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quantity_outside_the_float_range_is_named(call, quantity):
    with pytest.raises(FloatRangeError, match=quantity + ".* outside the float range"):
        call()


class TestChernoffSumBound:
    # At the cutoff mu = 5, and far above a tiny mu, where mu / eps underflows
    # to 0 and its log is undefined: the row is the trivial 1 without it.
    @pytest.mark.parametrize(
        "model, eps", [(bernoulli_model(), 5.0), (bernoulli_model(k=2, s=1e-300), 1e308)]
    )
    def test_boundary_is_exactly_one(self, model, eps):
        res = chernoff_sum_bound(model, [eps])[0]
        assert res.raw_value == 1.0
        assert res.value == 1.0
        assert not res.valid and res.theta_star is None

    def test_binomial_closed_form_extended_precision(self):
        res = chernoff_sum_bound(bernoulli_model(), [0.5])[0]
        with mpmath.workdps(50):
            expected = mpmath.sqrt(10) * mpmath.e**-4.5
            assert abs(res.raw_value / float(expected) - 1.0) <= 1e-12
        assert res.value >= TRUE_BINOMIAL
        assert res.details["L"] == 1.0
        assert res.details["mu"] == pytest.approx(5.0)
        assert res.theta_star == pytest.approx(math.log(10.0), rel=1e-12)

    def test_bounded_rank_one_mean_parameters(self):
        model = SumModel(sources=tuple(BoundedRankOne(dim=4, bound=1.0) for _ in range(8)))
        res = chernoff_sum_bound(model, [0.25])[0]
        assert res.details["mu"] == pytest.approx(1.0, abs=1e-12)
        expected = 4.0**0.25 * math.exp(-0.75)
        assert res.raw_value == pytest.approx(expected, rel=1e-12)
        assert res.raw_value == pytest.approx(0.6680, abs=5e-4)

    def test_unbounded_source_rejected(self):
        model = SumModel(sources=(Wishart(dim=2, dof=2),))
        with pytest.raises(UnsupportedEnsembleError, match="wishart"):
            chernoff_sum_bound(model, [0.5])

    def test_monotone_on_validity_range(self):
        model = bernoulli_model()
        eps_grid = np.linspace(0.001, 5.0, 400)
        raws = [r.raw_value for r in chernoff_sum_bound(model, eps_grid)]
        for a, b in zip(raws, raws[1:]):
            assert b >= a * (1.0 - 1e-12)


class TestChernoffProductBound:
    def test_single_source_coincides_with_sum_form(self):
        model = SumModel(sources=(bernoulli_diagonal(dim=1, p=0.5, scale=1.0),))
        a = chernoff_sum_bound(model, [0.2])[0]
        b = chernoff_product_bound(model, [0.2])[0]
        assert b.raw_value == pytest.approx(a.raw_value, rel=1e-12)
        assert a.valid == b.valid

    def test_binomial_closed_form(self):
        res = chernoff_product_bound(bernoulli_model(), [0.25])[0]
        with mpmath.workdps(50):
            factor = mpmath.mpf(2) ** mpmath.mpf("0.25") * mpmath.e ** mpmath.mpf("-0.25")
            expected = float(factor**10)
        assert res.raw_value == pytest.approx(expected, rel=1e-12)
        assert res.value >= TRUE_BINOMIAL
        assert res.details["mu_1"] == pytest.approx(0.5)

    def test_boundary_trivial(self):
        res = chernoff_product_bound(bernoulli_model(), [0.5])[0]
        assert res.value == 1.0
        assert not res.valid

    def test_zero_mean_factor_clamped_to_one(self):
        model = SumModel(
            sources=(
                bernoulli_diagonal(dim=1, p=0.5, scale=1.0),
                bernoulli_diagonal(dim=1, p=0.0, scale=1.0),
            )
        )
        res = chernoff_product_bound(model, [0.25])[0]
        single = chernoff_product_bound(
            SumModel(sources=(bernoulli_diagonal(dim=1, p=0.5, scale=1.0),)), [0.25]
        )[0]
        assert res.valid
        assert res.raw_value == pytest.approx(single.raw_value, rel=1e-12)


@pytest.mark.parametrize("bound", [chernoff_sum_bound, chernoff_product_bound])
def test_chernoff_stays_finite_when_mu_over_eps_overflows(bound):
    # mu / eps = 2e300 / 1e-10 is above the float range; the bound must still
    # be finite there and no larger than at eps = 1, where mu / eps is finite.
    model = bernoulli_model(k=2, p=1.0, s=1.0e300)
    tiny, one = bound(model, [1.0e-10, 1.0])
    assert tiny.valid and one.valid
    assert math.isfinite(tiny.raw_value)
    assert tiny.theta_star is None or math.isfinite(tiny.theta_star)
    assert tiny.value <= one.value < 1.0


def inverse_power(a: HermitianMatrix, alpha: float) -> HermitianMatrix:
    """A^(-alpha) as the series bounds build it, from the cached spectrum of
    a scaled_fixed source of A."""
    return bounds_mod._inverse_power(ScaledFixed(a, Gamma(1.0, 1.0)), 0, alpha)


class TestInversePower:
    def test_identity_inverse(self):
        out = inverse_power(HermitianMatrix.identity(3), 1.0)
        assert np.allclose(out.entries, np.eye(3), atol=1e-14)

    def test_negative_half(self):
        out = inverse_power(HermitianMatrix.diagonal([4.0, 9.0]), 0.5)
        assert np.allclose(out.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_negative_half_matches_scipy_pd_d8(self):
        rng = np.random.default_rng(2)
        a = random_pd(8, rng)
        ref = scipy.linalg.fractional_matrix_power(a.entries, -0.5)
        rel = frobenius(inverse_power(a, 0.5).entries - ref) / frobenius(ref)
        assert rel <= 1e-9

    def test_roundtrip_pd_d8(self):
        rng = np.random.default_rng(3)
        a = random_pd(8, rng)
        back = inverse_power(inverse_power(a, 0.5), 2.0)
        rel = frobenius(back.entries - a.entries) / frobenius(a.entries)
        assert rel <= 1e-9

    def test_rejects_singular_naming_the_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError, match=r"source 0: .*found 0\.0"):
            inverse_power(HermitianMatrix.diagonal([1.0, 0.0]), 1.0)

    def test_power_past_the_float_range_raises_without_warning(self):
        # The entry (1e-10)^(-50) = 1e500.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match=r"A\^\(-alpha\) with alpha=50"):
                inverse_power(HermitianMatrix.diagonal([1e-10, 1.0]), 50.0)

    def test_bits_of_the_series_constants_are_those_of_the_spectrum(self):
        # nu = lambda_max(A^(-alpha)) = lambda_min(A)^(-alpha) up to roundoff.
        a = random_pd(4, np.random.default_rng(4))
        src = ScaledFixed(a, Gamma(2.0, 1.0))
        w, u = src.spectrum
        nu = series_product_bound(SumModel(sources=(src,)), [0.1])[0].details["nu_1"]
        expected = np.linalg.eigvalsh(HermitianMatrix((u * w**-2.0) @ u.conj().T).entries)[-1]
        assert nu == float(expected)
        assert nu == pytest.approx(float(w[0]) ** -2.0, rel=1e-12)


class TestSeriesSumBound:
    def test_single_identity_exponential(self):
        model = exp_series_model(1)
        res = series_sum_bound(model, [0.1])[0]
        assert res.raw_value == pytest.approx(math.e * 0.1, rel=1e-12)
        assert res.value >= 1.0 - math.exp(-0.1)
        assert res.details["nu"] == pytest.approx(1.0)
        assert res.theta_star == pytest.approx(10.0, rel=1e-12)

    def test_boundary_crossing(self):
        model = exp_series_model(1)
        cutoff = 1.0 / math.e
        below = series_sum_bound(model, [cutoff * (1.0 - 1e-12)])[0]
        at = series_sum_bound(model, [cutoff])[0]
        assert below.valid
        assert abs(below.raw_value - 1.0) <= 1e-9
        assert not at.valid
        assert at.value == 1.0

    def test_two_sources_closed_form(self):
        model = exp_series_model(2)
        res = series_sum_bound(model, [0.2])[0]
        assert res.details["nu"] == pytest.approx(2.0)
        assert res.raw_value == pytest.approx(math.e**2 * 0.2**2 / 4.0, rel=1e-12)
        assert res.value >= gamma2_cdf(0.2)

    def test_monotone_on_validity_range(self):
        model = exp_series_model(2)
        eps = np.linspace(0.01, 0.7, 200)
        raws = [r.raw_value for r in series_sum_bound(model, eps)]
        for a, b in zip(raws, raws[1:]):
            assert b >= a * (1.0 - 1e-12)

    def test_singular_matrix_rejected(self):
        model = SumModel(
            sources=(
                ScaledFixed(
                    matrix=HermitianMatrix.diagonal([1.0, 0.0]),
                    law=Gamma(1.0, 1.0),
                ),
            )
        )
        with pytest.raises(NotPositiveDefiniteError):
            series_sum_bound(model, [0.1])

    def test_mismatched_envelopes_rejected(self):
        model = SumModel(
            sources=(
                ScaledFixed(matrix=HermitianMatrix.identity(2), law=Gamma(1.0, 1.0)),
                ScaledFixed(matrix=HermitianMatrix.identity(2), law=Gamma(1.0, 2.0)),
            )
        )
        with pytest.raises(UnsupportedEnsembleError, match="shared envelope"):
            series_sum_bound(model, [0.1])

    def test_envelope_free_law_rejected(self):
        model = SumModel(
            sources=(
                ScaledFixed(matrix=HermitianMatrix.identity(2), law=Bernoulli(p=0.5)),
            )
        )
        with pytest.raises(UnsupportedEnsembleError, match="power envelope"):
            series_sum_bound(model, [0.1])

    def test_wrong_source_kind_rejected(self):
        model = SumModel(sources=(Wishart(dim=2, dof=2),))
        with pytest.raises(UnsupportedEnsembleError, match="scaled_fixed"):
            series_sum_bound(model, [0.1])


class TestSeriesProductBound:
    def test_single_source_coincides_with_sum_form(self):
        model = exp_series_model(1)
        a = series_sum_bound(model, [0.1])[0]
        b = series_product_bound(model, [0.1])[0]
        assert b.raw_value == pytest.approx(a.raw_value, rel=1e-12)

    def test_two_sources_closed_form_weaker_than_sum_form(self):
        model = exp_series_model(2)
        res = series_product_bound(model, [0.2])[0]
        assert res.raw_value == pytest.approx(math.e**2 * 0.2**2, rel=1e-12)
        assert res.raw_value > series_sum_bound(model, [0.2])[0].raw_value

    def test_diagonal_inverse_parameter(self):
        model = SumModel(
            sources=(
                ScaledFixed(
                    matrix=HermitianMatrix.diagonal([1.0, 4.0]),
                    law=Gamma(1.0, 1.0),
                ),
            )
        )
        res = series_product_bound(model, [0.05])[0]
        assert res.details["nu_1"] == pytest.approx(1.0)

    def test_boundary_crossing(self):
        model = exp_series_model(2)
        cutoff = 1.0 / math.e  # (alpha/e) C^(-1/alpha) (nu1 nu2)^(-1/(alpha K))
        below = series_product_bound(model, [cutoff * (1.0 - 1e-12)])[0]
        assert below.valid
        assert abs(below.raw_value - 1.0) <= 1e-9
        at = series_product_bound(model, [cutoff])[0]
        assert not at.valid


def derived_cutoff(bound, model) -> tuple[float, dict]:
    """The validity cutoff that bound hands _closed for model, and the
    details of its rows."""
    seen = []
    real = bounds_mod._closed

    def recording(eps_grid, log_raw, details, cutoff=math.inf, theta=None):
        seen.append(cutoff)
        return real(eps_grid, log_raw, details, cutoff, theta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds_mod, "_closed", recording)
        details = bound(model, [1.0])[0].details
    return seen[0], details


# The paper's validity cutoffs of the series bounds, in log form.
def paper_series_sum_cutoff(c, alpha, k, nu):
    # eps < (K alpha / e) * (K / (C nu))^(1/alpha)
    return math.exp(math.log(k * alpha) - 1.0 + (math.log(k) - math.log(c * nu)) / alpha)


def paper_series_product_cutoff(c, alpha, nus):
    # eps < (alpha / e) * C^(-1/alpha) * (prod_k nu_k)^(-1/(alpha K))
    log_nu_sum = sum(math.log(nu) for nu in nus)
    return math.exp(math.log(alpha) - 1.0 - math.log(c) / alpha - log_nu_sum / (alpha * len(nus)))


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(0.1, 5.0),
    rate=st.floats(0.1, 10.0),
    diagonals=st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)), min_size=1,
                       max_size=6),
)
def test_derived_series_cutoffs_are_the_paper_formulas(alpha, rate, diagonals):
    # C = rate^alpha, alpha, K = len(diagonals) and nu (or the nu_k) from the
    # matrices A_k = diag(a, b): each bound's cutoff, the eps at which its
    # power law equals 1, is the paper's closed formula.
    law = Gamma(alpha, rate)
    model = SumModel(
        sources=tuple(ScaledFixed(HermitianMatrix.diagonal(list(d)), law) for d in diagonals)
    )
    k = model.size
    cutoff, details = derived_cutoff(series_sum_bound, model)
    expected = paper_series_sum_cutoff(details["C"], alpha, k, details["nu"])
    assert math.isclose(cutoff, expected, rel_tol=1e-12)
    cutoff, details = derived_cutoff(series_product_bound, model)
    nus = [details[f"nu_{i + 1}"] for i in range(k)]
    assert math.isclose(cutoff, paper_series_product_cutoff(details["C"], alpha, nus),
                        rel_tol=1e-12)


# Each closed form with the eps at and above which it holds no longer;
# negative_moment holds at every eps.
_CLOSED_FORMS = {
    "negative-moment": (lambda grid: negative_moment_bound(0.2, 1.0, grid), math.inf),
    "chernoff-sum": (lambda grid: chernoff_sum_bound(bernoulli_model(), grid), 5.0),
    "chernoff-product": (lambda grid: chernoff_product_bound(bernoulli_model(), grid), 0.5),
    "series-sum": (lambda grid: series_sum_bound(exp_series_model(1), grid), 1.0 / math.e),
    "series-product": (
        lambda grid: series_product_bound(exp_series_model(2), grid),
        1.0 / math.e,
    ),
}


@pytest.mark.parametrize("form", list(_CLOSED_FORMS))
def test_every_row_at_or_above_the_cutoff_is_the_trivial_row(form):
    bound, cutoff = _CLOSED_FORMS[form]
    grid = [0.01, 0.1, 1.0, 10.0, 1.0e300]
    if cutoff < math.inf:
        grid = sorted(grid + [cutoff, cutoff * (1.0 + 1e-12), 2.0 * cutoff])
    for eps, res in zip(grid, bound(grid), strict=True):
        if eps >= cutoff:
            assert (res.raw_value, res.value, res.valid, res.theta_star) == (1.0, 1.0, False, None)
            assert res.trivial
        else:
            assert res.valid


class TestInfimumConsistency:
    """The numerically optimized bounds never exceed their own objective at
    random probe points, nor the closed-form evaluations whose hypotheses
    they share."""

    def test_optimized_bounds_below_50_random_probes(self):
        # compared in log space, where the 1-D objectives are minimized
        rng = np.random.default_rng(123)
        probes = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 50))
        eps = 0.3

        model = bernoulli_model()

        def log_scalar_mgf(t):
            return math.log(0.5 * (1.0 + math.exp(-t)))

        def single_log_objective(t):
            return t * eps + log_scalar_mgf(t)

        def sum_log_objective(t):
            return t * eps + 10.0 * log_scalar_mgf(t)

        def g_theta_log_objective(t):
            return t * eps + math.expm1(-t) * 5.0

        dominators = tuple(s.mean() for s in model.sources)
        cases = [
            (single_matrix_bound(model.sources[0], ANALYTIC, [eps])[0], single_log_objective),
            (master_bound(model, ANALYTIC, [eps])[0], sum_log_objective),
            (log_mean_bound(model, ANALYTIC, [eps])[0], sum_log_objective),
            (g_theta_bound(exp_envelope(1.0), dominators, [eps])[0], g_theta_log_objective),
        ]
        for res, log_objective in cases:
            log_raw = math.log(res.raw_value)
            slack = 1e-9 * max(1.0, abs(log_raw))
            for t in probes:
                assert log_raw <= log_objective(t) + slack

    def test_master_below_series_closed_form(self):
        # exact exponential mgfs lie below the power envelope, so the
        # optimized bound cannot exceed the plugged-in closed form
        model = exp_series_model(2)
        for eps in (0.05, 0.1, 0.2):
            assert (
                master_bound(model, ANALYTIC, [eps])[0].value
                <= series_sum_bound(model, [eps])[0].value + 1e-9
            )


class TestMonotonicityInEps:
    def test_negative_moment_monotone(self):
        raws = [r.raw_value for r in negative_moment_bound(0.2, 1.0, np.linspace(0.01, 4.9, 100))]
        assert all(b >= a for a, b in zip(raws, raws[1:]))

    def test_series_product_monotone_on_validity_range(self):
        model = exp_series_model(2)
        eps = np.linspace(0.005, 1.0 / math.e, 100)
        raws = [r.raw_value for r in series_product_bound(model, eps)]
        for a, b in zip(raws, raws[1:]):
            assert b >= a * (1.0 - 1e-12)


class TestCrossFamilyConsistency:
    def test_master_never_weaker_than_chernoff(self):
        # the exact mgf lies below its linear envelope, so the optimized
        # bound from exact mgfs cannot exceed the closed-form one.
        model = bernoulli_model()
        for eps in (0.1, 0.25, 0.45):
            a = master_bound(model, ANALYTIC, [eps])[0]
            b = chernoff_sum_bound(model, [eps])[0]
            assert a.value <= b.value + 1e-9

    def test_g_theta_envelope_matches_chernoff_closed_form(self):
        model = bernoulli_model()
        dominators = tuple(s.mean() for s in model.sources)
        for eps in (0.1, 0.25, 0.45):
            numeric = g_theta_bound(exp_envelope(1.0), dominators, [eps])[0]
            closed = chernoff_sum_bound(model, [eps])[0]
            assert numeric.raw_value == pytest.approx(closed.raw_value, rel=1e-6)

    def test_single_on_sum_source_dominates_truth(self):
        model = bernoulli_model()
        res = single_matrix_bound(
            model, MgfModel(mode="empirical", n_samples=5000, seed=2), [0.5]
        )[0]
        assert res.value >= TRUE_BINOMIAL

    def test_all_results_satisfy_invariants(self):
        model = bernoulli_model()
        series_model = exp_series_model(2)
        results = [
            master_bound(model, ANALYTIC, [0.3])[0],
            log_mean_bound(model, ANALYTIC, [0.3])[0],
            chernoff_sum_bound(model, [0.3])[0],
            chernoff_product_bound(model, [0.3])[0],
            chernoff_sum_bound(model, [7.0])[0],
            negative_moment_bound(0.2, 1.0, [0.3])[0],
            series_sum_bound(series_model, [0.2])[0],
            series_product_bound(series_model, [0.2])[0],
            series_sum_bound(series_model, [5.0])[0],
        ]
        for res in results:
            assert_result_invariants(res)


@pytest.mark.parametrize("d", [1, 4, 16, 64])
def test_truncation_ladder_bounds_dominate_the_gamma_cdf(d):
    # X_k = xi_k diag(j^-2) with xi_k ~ Exp(1) and K = 4: lambda_max of the
    # sum is xi_1 + ... + xi_4, at j = 1, so P{lambda_max <= eps} is the
    # Gamma(4, 1) CDF at every d.  Each bound the model admits must lie at
    # or above it, however many smaller eigenvalues ride along.
    a = HermitianMatrix.diagonal([j**-2.0 for j in range(1, d + 1)])
    model = SumModel(sources=(ScaledFixed(matrix=a, law=Gamma(1.0, 1.0)),) * 4)
    eps = np.linspace(0.05, 3.0, 60).tolist()
    bounds = {
        "master": master_bound(model, ANALYTIC, eps),
        "log_mean": log_mean_bound(model, ANALYTIC, eps),
        "product": product_bound(model, ANALYTIC, eps),
        "g_theta": g_theta_bound(log_rate(1.0), source_means(model), eps),
        "negative_moment": negative_moment_bound(admissible_cp(model, 1.0), 1.0, eps),
        "series_sum": series_sum_bound(model, eps),
        "series_product": series_product_bound(model, eps),
    }
    truth = scipy.special.gammainc(4, eps)
    for name, results in bounds.items():
        for e, t, res in zip(eps, truth, results):
            assert res.value >= t, (name, e, res.value, t)
