import math
import sys
import threading
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import betaincinv

from smalldev import cli, ensembles, montecarlo
from smalldev.bounds import BoundResult, chernoff_sum_bound, master_bound
from smalldev.ensembles import (
    BoundedRankOne,
    Gamma,
    MgfModel,
    ScaledFixed,
    SumModel,
    Uniform,
    Wishart,
    bernoulli_diagonal,
    sample_sum_batch,
)
from smalldev.errors import ConfigError
from smalldev.linalg import HermitianMatrix
from smalldev.montecarlo import (
    _SCREEN_MARGIN,
    _chunk_hits,
    clopper_pearson,
    compare,
    estimate,
    worker_count,
)
from smalldev.rng import RngStream

TRUE_BINOMIAL = 2.0**-10


def bernoulli_model(k=10):
    return SumModel(
        sources=tuple(bernoulli_diagonal(dim=1, p=0.5, scale=1.0) for _ in range(k))
    )


def constant(value):
    return BoundResult(
        raw_value=value, value=value, theta_star=None, valid=True, trivial=value >= 1.0
    )


def binomial_cdf(k, n, p):
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def brute_force_cp(hits, n, confidence):
    """Clopper-Pearson endpoints by bisection directly on binomial tails:
    the lower limit solves P{X >= hits | p} = alpha/2 and the upper limit
    solves P{X <= hits | p} = alpha/2."""
    alpha = 1.0 - confidence

    def solve(g):
        # g is monotone with a sign change on (0, 1)
        lo, hi = 0.0, 1.0
        g_lo = g(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (g(mid) > 0) == (g_lo > 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    low = 0.0 if hits == 0 else solve(
        lambda p: (1.0 - binomial_cdf(hits - 1, n, p)) - alpha / 2.0
    )
    high = 1.0 if hits == n else solve(
        lambda p: binomial_cdf(hits, n, p) - alpha / 2.0
    )
    return low, high


CP_GRID_N = (1, 2, 3, 10, 100, 4096, 100_000, 200_000, 10_000_000)
CP_GRID_CONFIDENCE = (0.5, 0.9, 0.99, 1.0 - 1e-6)


def cp_grid_hits(n):
    return sorted(k for k in {0, 1, 2, n // 1024, n // 2, n - 1, n} if k <= n)


class TestClopperPearson:
    def test_zero_hits_against_binomial_tail(self):
        low, high = clopper_pearson(0, 50, 0.99)
        assert low == 0.0
        # P{X = 0 | p = high} must equal alpha/2
        assert (1.0 - high) ** 50 == pytest.approx(0.005, abs=1e-9)

    def test_full_hits(self):
        low, high = clopper_pearson(50, 50, 0.99)
        assert high == 1.0
        assert low**50 == pytest.approx(0.005, abs=1e-9)

    def test_against_brute_force_bisection(self):
        for hits, n, conf in [(5, 10, 0.95), (3, 100, 0.99), (97, 100, 0.9)]:
            got = clopper_pearson(hits, n, conf)
            want = brute_force_cp(hits, n, conf)
            assert got[0] == pytest.approx(want[0], abs=1e-8)
            assert got[1] == pytest.approx(want[1], abs=1e-8)

    def test_spot_value(self):
        low, high = clopper_pearson(5, 10, 0.95)
        assert low == pytest.approx(0.1871, abs=1e-4)
        assert high == pytest.approx(0.8129, abs=1e-4)

    @pytest.mark.parametrize("n", CP_GRID_N)
    def test_matches_scipy_betaincinv(self, n):
        for hits in cp_grid_hits(n):
            for conf in CP_GRID_CONFIDENCE:
                alpha = 1.0 - conf
                low, high = clopper_pearson(hits, n, conf)
                want_low = 0.0 if hits == 0 else betaincinv(hits, n - hits + 1, alpha / 2.0)
                want_high = 1.0 if hits == n else betaincinv(hits + 1, n - hits, 1.0 - alpha / 2.0)
                # abs=0: the limits 0 at hits 0 and 1 at hits n must be exact.
                assert low == pytest.approx(want_low, rel=1e-9, abs=0.0), (hits, n, conf)
                assert high == pytest.approx(want_high, rel=1e-9, abs=0.0), (hits, n, conf)

    @pytest.mark.parametrize("n", [1, 2, 10, 4096, 10_000_000])
    def test_closed_forms_at_zero_and_all_hits(self, n):
        for conf in CP_GRID_CONFIDENCE:
            half_alpha = mpmath.mpf(1.0 - conf) / 2
            edge = float(half_alpha ** (mpmath.mpf(1) / n))
            assert clopper_pearson(0, n, conf)[1] == pytest.approx(1.0 - edge, rel=1e-14)
            assert clopper_pearson(n, n, conf)[0] == pytest.approx(edge, rel=1e-14)

    @pytest.mark.parametrize("n", CP_GRID_N)
    def test_mirror_symmetry(self, n):
        # low(k, n) = 1 - high(n - k, n), up to the rounding of 1 - high.
        for conf in CP_GRID_CONFIDENCE:
            for hits in cp_grid_hits(n):
                low, high = clopper_pearson(hits, n, conf)
                mirror_low, mirror_high = clopper_pearson(n - hits, n, conf)
                assert low == pytest.approx(1.0 - mirror_high, rel=1e-12, abs=2.3e-16)
                assert high == pytest.approx(1.0 - mirror_low, rel=1e-12, abs=2.3e-16)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
    def test_limits_increase_with_hits(self, n):
        for conf in CP_GRID_CONFIDENCE:
            lows, highs = zip(*(clopper_pearson(k, n, conf) for k in range(n + 1)))
            assert all(a < b for a, b in zip(lows, lows[1:]))
            assert all(a < b for a, b in zip(highs, highs[1:]))
            assert all(lo < k / n < hi for k, (lo, hi) in enumerate(zip(lows, highs)) if 0 < k < n)

    def test_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(-1, 10, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson(11, 10, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson(1, 0, 0.95)
        with pytest.raises(ValueError):
            clopper_pearson(1, 10, 1.0)


class TestEstimate:
    def test_deterministic_model_hits(self):
        model = SumModel(sources=(bernoulli_diagonal(dim=2, p=1.0, scale=1.0),))
        ests = estimate(model, [0.5, 2.0], n=500, seed=1)
        assert ests[0].hits == 0
        assert ests[0].p_hat == 0.0
        assert ests[0].ci_low == 0.0
        assert ests[1].hits == 500
        assert ests[1].ci_high == 1.0

    def test_binomial_interval_covers_truth(self):
        ests = estimate(bernoulli_model(), [0.5], n=100_000, seed=42)
        est = ests[0]
        assert est.ci_low <= TRUE_BINOMIAL <= est.ci_high

    def test_shared_pool_monotone_in_eps(self):
        model = SumModel(
            sources=tuple(
                ScaledFixed(
                    matrix=HermitianMatrix.identity(2), law=Gamma(1.0, 1.0)
                )
                for _ in range(2)
            )
        )
        ests = estimate(model, [0.1, 0.5, 1.0, 2.0, 4.0], n=20_000, seed=3)
        hits = [e.hits for e in ests]
        assert hits == sorted(hits)
        phats = [e.p_hat for e in ests]
        assert phats == sorted(phats)

    def test_reproducible_and_thread_invariant(self):
        model = bernoulli_model()
        a = estimate(model, [0.5], n=30_000, seed=9, threads=1)[0].hits
        b = estimate(model, [0.5], n=30_000, seed=9, threads=1)[0].hits
        c = estimate(model, [0.5], n=30_000, seed=9, threads=4)[0].hits
        d = estimate(model, [0.5], n=30_000, seed=9, threads=3)[0].hits
        assert a == b == c == d

    def test_validation(self):
        model = bernoulli_model(2)
        with pytest.raises(ValueError):
            estimate(model, [], n=10)
        with pytest.raises(ValueError):
            estimate(model, [0.5, 0.5], n=10)
        with pytest.raises(ValueError):
            estimate(model, [0.5, 0.4], n=10)
        with pytest.raises(ValueError):
            estimate(model, [-0.5, 0.4], n=10)
        with pytest.raises(ValueError):
            estimate(model, [0.5], n=0)

    def test_rejects_nan_eps(self):
        with pytest.raises(ValueError, match="eps_grid values must be positive"):
            estimate(bernoulli_model(2), [0.5, math.nan], n=10)


class TestWorkers:
    """The calling thread and workers - 1 pool threads take chunks from one
    shared iterator; each sums its own hits."""

    # A wishart repeat, every draw open.  The hits are those of a pool that
    # ran every chunk itself: how chunks are spread over threads must not
    # move them.
    MODEL = SumModel(sources=(Wishart(dim=4, dof=4),) * 3)
    EPS = [3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "n, want",
        [(3 * 4096 + 17, [8, 676, 4500, 9242]), (4096 + 5, [2, 254, 1547, 3103])],
        ids=["partial-last-chunk", "fewer-chunks-than-workers"],
    )
    def test_hits_equal_at_every_worker_count(self, n, want, threads):
        ests = estimate(self.MODEL, self.EPS, n=n, seed=5, threads=threads)
        assert [e.hits for e in ests] == want
        eps = np.asarray(self.EPS)
        chunks = [
            _chunk_hits(self.MODEL, RngStream(5, (0, c)), min(4096, n - 4096 * c), eps)
            for c in range(-(-n // 4096))
        ]
        assert np.sum(chunks, axis=0).tolist() == want

    @pytest.mark.parametrize("threads, started", [(1, 0), (3, 2)])
    def test_starts_workers_minus_one_threads(self, threads, started, monkeypatch):
        # Each thread's first chunk waits until every thread has one, so no
        # thread can run all the chunks alone.
        starts, runners = [], set()
        start, chunk = threading.Thread.start, montecarlo._chunk_hits
        barrier = threading.Barrier(threads, timeout=30)

        def recording_start(thread):
            starts.append(thread)
            start(thread)

        def recording_chunk(*args):
            if threading.get_ident() not in runners:
                runners.add(threading.get_ident())
                barrier.wait()
            return chunk(*args)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(montecarlo, "_chunk_hits", recording_chunk)
        estimate(bernoulli_model(), [0.5], n=30_000, seed=9, threads=threads)
        assert len(starts) == started
        assert threading.get_ident() in runners and len(runners) == threads

    def test_every_chunk_runs_once_under_thread_switching(self, monkeypatch):
        # 8 workers on 400 chunks of 5 draws, with a thread switch forced
        # every microsecond: an index taken twice or lost changes the hits.
        monkeypatch.setattr(montecarlo, "_CHUNK", 5)
        taken, chunk = [], montecarlo._chunk_hits

        def recording_chunk(model, stream, size, eps):
            taken.append(stream.path[-1])
            return chunk(model, stream, size, eps)

        model, eps = bernoulli_model(), [2.5, 5.0]
        want = [e.hits for e in estimate(model, eps, n=2000, seed=4, threads=1)]
        monkeypatch.setattr(montecarlo, "_chunk_hits", recording_chunk)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ests = estimate(model, eps, n=2000, seed=4, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(400))
        assert [e.hits for e in ests] == want

    @pytest.mark.parametrize("where", ["calling", "pool"])
    def test_a_failing_chunk_stops_every_thread(self, where, monkeypatch):
        # 200 one-draw chunks on 3 workers.  After the failure each pool
        # thread may start at most the chunk it has already taken.
        monkeypatch.setattr(montecarlo, "_CHUNK", 1)
        caller, events = threading.get_ident(), []

        def chunk(model, stream, size, eps):
            on_caller = threading.get_ident() == caller
            events.append("start")
            time.sleep(0.001)
            if "fail" not in events and on_caller == (where == "calling"):
                events.append("fail")
                raise RuntimeError("chunk failed")
            return np.zeros(eps.size, dtype=np.int64)

        monkeypatch.setattr(montecarlo, "_chunk_hits", chunk)
        with pytest.raises(RuntimeError, match="chunk failed"):
            estimate(bernoulli_model(), [0.5], n=200, seed=1, threads=3)
        assert events[events.index("fail") + 1 :].count("start") <= 2


class TestCompare:
    def test_trivial_bound_never_violates(self):
        ests = estimate(bernoulli_model(2), [0.4, 1.4], n=2000, seed=5)
        report = compare({"trivial": [constant(1.0)] * 2}, ests)
        assert report.violations == 0
        assert all(r.dominated for r in report.rows)

    def test_zero_bound_with_hits_violates(self):
        ests = estimate(bernoulli_model(2), [1.5], n=2000, seed=5)
        assert ests[0].hits > 0
        report = compare({"zero": [constant(0.0)]}, ests)
        assert report.violations == 1
        assert not report.rows[0].dominated

    def test_grid_mismatch_rejected(self):
        ests = estimate(bernoulli_model(2), [0.5, 1.5], n=100, seed=5)
        with pytest.raises(ValueError):
            compare({"b": [constant(1.0)]}, ests)

    def test_violation_count_matches_rows(self):
        ests = estimate(bernoulli_model(2), [0.5, 1.5], n=2000, seed=5)
        report = compare(
            {"zero": [constant(0.0)] * 2, "one": [constant(1.0)] * 2}, ests
        )
        flagged = sum(1 for r in report.rows if not r.dominated)
        assert report.violations == flagged

    def test_full_pipeline_binomial_no_violations(self):
        model = bernoulli_model()
        grid = [0.1, 0.2, 0.3, 0.4]
        mgf = MgfModel(mode="analytic")
        bounds = {
            "master": master_bound(model, mgf, grid),
            "chernoff_sum": chernoff_sum_bound(model, grid),
        }
        ests = estimate(model, grid, n=100_000, seed=42)
        report = compare(bounds, ests)
        assert report.violations == 0


class TestCoverage:
    def test_interval_covers_known_probability_across_seeds(self):
        # Exactly solvable case: coverage of the 99% interval must hold in
        # at least 95 of 100 independent-seed repetitions (the exact
        # interval is conservative, so the expected hit rate is above 99%).
        model = bernoulli_model()
        covered = 0
        for seed in range(100):
            est = estimate(model, [0.5], n=10_000, seed=seed)[0]
            if est.ci_low <= TRUE_BINOMIAL <= est.ci_high:
                covered += 1
        assert covered >= 95


# The reference scorer: np.linalg.eigvalsh on every draw of the chunk, as
# before the diagonal screen.  Bound at import, so the counting patch of
# the solver_draws fixture does not see the reference's calls.
_eigvalsh = np.linalg.eigvalsh


def eigvalsh_only_hits(model, stream, size, eps):
    lam = _eigvalsh(sample_sum_batch(model, stream, size, math.inf).sums)[:, -1]
    return (lam[:, None] <= eps[None, :]).sum(axis=0)


@pytest.fixture
def solver_draws(monkeypatch):
    """The draws each np.linalg.eigvalsh call receives, as the list of its
    input arrays."""
    seen = []

    def recording(a, *args, **kwargs):
        seen.append(a)
        return _eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(montecarlo.np.linalg, "eigvalsh", recording)
    return seen


_DENSE = HermitianMatrix(np.array([[2.0, 1j, 0.0], [-1j, 2.0, 0.5], [0.0, 0.5, 1.0]]))

# One model per source kind and scalar law, d = 3, with eps_max near the
# median of the largest diagonal entry, so that about half of each chunk
# is settled by the screen and the other half goes to eigvalsh.
SOURCE_KINDS = {
    "scaled-fixed-exponential": (ScaledFixed(_DENSE, Gamma(1.0, 1.0)), 5.0),
    "scaled-fixed-gamma": (
        ScaledFixed(HermitianMatrix.diagonal([1.0, 2.0, 0.5]), Gamma(shape=2.0, rate=1.0)),
        11.0,
    ),
    "scaled-fixed-uniform": (ScaledFixed(HermitianMatrix.identity(3), Uniform(high=2.0)), 3.0),
    "bernoulli-diagonal": (bernoulli_diagonal(dim=3, p=0.5, scale=1.0), 1.5),
    "bounded-rank-one": (BoundedRankOne(dim=3, bound=1.0), 0.75),
    "wishart": (Wishart(dim=3, dof=4), 3.7),
}


def source_kind_case(name):
    if name == "distinct-kinds":
        sources = (
            ScaledFixed(_DENSE, Gamma(1.0, 1.0)),
            BoundedRankOne(dim=3, bound=1.0),
            Wishart(dim=3, dof=4),
        )
        eps_max = 3.0
    elif name == "distinct-kinds-with-diagonals":
        # No wishart: every position is screened before it is built.
        sources = (
            ScaledFixed(_DENSE, Gamma(1.0, 1.0)),
            BoundedRankOne(dim=3, bound=1.0),
            bernoulli_diagonal(dim=3, p=0.5, scale=1.0),
        )
        eps_max = 2.5
    else:
        src, eps_max = SOURCE_KINDS[name]
        sources = (src,) * 3
    return SumModel(sources=sources), np.linspace(eps_max / 4.0, eps_max, 5)


DISTINCT_KINDS = ["distinct-kinds", "distinct-kinds-with-diagonals"]


def bundled_case(name):
    cfg = cli.resolve_config(cli.load_config(cli.demo_config_path(name)))
    return cli.build_model(cfg["ensemble"]), np.asarray(cfg["eps_grid"], dtype=float)


class TestDiagonalScreen:
    """_chunk_hits scores a draw whose largest diagonal entry exceeds the
    largest eps as a miss without the eigensolver; its hits must equal
    the eigvalsh-only count exactly."""

    @pytest.mark.parametrize("name", [*SOURCE_KINDS, *DISTINCT_KINDS])
    def test_mixed_chunk_equals_eigvalsh_reference(self, name, solver_draws):
        model, eps = source_kind_case(name)
        for seed in range(3):
            solver_draws.clear()
            hits = _chunk_hits(model, RngStream(seed), 4096, eps)
            assert hits.tolist() == eigvalsh_only_hits(model, RngStream(seed), 4096, eps).tolist()
            # The chunk mixes settled and open draws; only the open go to eigvalsh.
            assert len(solver_draws) == 1
            assert 0 < len(solver_draws[0]) < 4096

    @pytest.mark.parametrize("name", [*SOURCE_KINDS, *DISTINCT_KINDS])
    def test_settled_chunk_equals_eigvalsh_reference(self, name, solver_draws):
        # eps_max below the largest diagonal entry of every draw but a zero
        # sum (three Bernoulli zeros), which is a hit at every eps: only
        # zero sums go to eigvalsh, and none at all for the other kinds.
        model, eps = source_kind_case(name)
        eps = eps * 1e-9
        for seed in range(3):
            solver_draws.clear()
            hits = _chunk_hits(model, RngStream(seed), 4096, eps)
            assert hits.tolist() == eigvalsh_only_hits(model, RngStream(seed), 4096, eps).tolist()
            zero_sums = hits[0] if name == "bernoulli-diagonal" else 0
            assert hits.tolist() == [zero_sums] * len(eps)
            assert [len(a) for a in solver_draws] == [zero_sums]

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize(
        "name", [*SOURCE_KINDS, *DISTINCT_KINDS, *cli.demo_config_names()]
    )
    def test_estimate_equals_eigvalsh_reference(self, name, threads, monkeypatch):
        if name in cli.demo_config_names():
            model, eps = bundled_case(name)
        else:
            model, eps = source_kind_case(name)
        # 10_000 draws: two full chunks and a partial one.
        screened = estimate(model, eps, n=10_000, seed=7, threads=threads)
        monkeypatch.setattr(montecarlo, "_chunk_hits", eigvalsh_only_hits)
        reference = estimate(model, eps, n=10_000, seed=7, threads=threads)
        assert screened == reference

    @pytest.mark.parametrize(
        "x, hit, settled",
        [
            (1.0, True, False),
            (np.nextafter(1.0, 0.0), True, False),
            (np.nextafter(1.0, 2.0), False, False),
            (1.0 + _SCREEN_MARGIN / 2.0, False, False),
            (1.0 + 2.0 * _SCREEN_MARGIN, False, True),
        ],
        ids=["eps-max", "ulp-below", "ulp-above", "inside-margin", "beyond-margin"],
    )
    def test_diagonal_equal_to_lambda_max_at_the_cutoff(self, x, hit, settled, solver_draws):
        """S = x I has Re S_ii = lambda_max exactly: a draw at or within the
        margin above eps_max goes to eigvalsh, one beyond it is settled."""
        model = SumModel(sources=(bernoulli_diagonal(dim=3, p=1.0, scale=x),))
        solver_draws.clear()  # the psd check of the source's matrix
        eps = np.array([0.5, 1.0])
        hits = _chunk_hits(model, RngStream(0), 64, eps)
        assert hits.tolist() == [0, 64 if hit else 0]
        assert hits.tolist() == eigvalsh_only_hits(model, RngStream(0), 64, eps).tolist()
        assert sum(len(a) for a in solver_draws) == (0 if settled else 64)

    @pytest.mark.parametrize(
        "source, eps_max",
        [
            # lambda_max <= 1 = eps_max: no draw can be settled.
            (ScaledFixed(HermitianMatrix.identity(2), Uniform(high=1.0)), 1.0),
            # Built whole, as a wishart sum is; far above every draw.
            (Wishart(dim=2, dof=3), 1.0e6),
        ],
        ids=["built-on-request", "built-whole"],
    )
    def test_all_open_chunk_goes_to_eigvalsh_without_a_copy(
        self, source, eps_max, monkeypatch, solver_draws
    ):
        returned, built = [], []
        sample = montecarlo.sample_sum_batch
        build = ensembles._build

        def recording_sample(*args):
            returned.append(sample(*args))
            return returned[-1]

        def recording_build(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(montecarlo, "sample_sum_batch", recording_sample)
        monkeypatch.setattr(ensembles, "_build", recording_build)
        model = SumModel(sources=(source,))
        solver_draws.clear()  # the psd check of the source's matrix
        _chunk_hits(model, RngStream(0), 100, np.array([0.5, eps_max]))
        assert len(returned) == len(solver_draws) == 1
        assert len(returned[0].sums) == 100
        # eigvalsh gets the sums that sample_sum_batch returns, and they are
        # the array the sum was built in.
        assert solver_draws[0] is returned[0].sums is built[-1]

    def test_overflowed_sum_scores_as_a_miss(self):
        # Two 1e308 draws sum to inf: such a draw is a miss at every eps.
        src = bernoulli_diagonal(dim=2, p=0.5, scale=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ests = estimate(SumModel(sources=(src, src)), [0.5, 1e308], n=5000, seed=1)
        assert [e.hits for e in ests] == [1242, 3764]


@pytest.mark.parametrize("name", ["bounded-rank-one", "scaled-fixed-gamma", "wishart"])
def test_every_draw_and_build_runs_inside_the_hooked_call(name, monkeypatch):
    """A tracer that wraps montecarlo.sample_sum_batch, as the benchmark's
    does, times all the sampling of a chunk: every draw, sample_batch and
    build of a source or sum runs inside that one call."""
    model, eps = source_kind_case(name)
    inside, calls, seen = [False], [], []
    sample = montecarlo.sample_sum_batch

    def hooked(*args, **kwargs):
        calls.append(args[2])
        inside[0] = True
        try:
            return sample(*args, **kwargs)
        finally:
            inside[0] = False

    def recording(label, method):
        def wrapper(*args, **kwargs):
            seen.append((label, inside[0]))
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(montecarlo, "sample_sum_batch", hooked)
    for cls in (ScaledFixed, BoundedRankOne, Wishart, SumModel):
        for method in ("draw", "sample_batch", "build"):
            if hasattr(cls, method):
                label = f"{cls.__name__}.{method}"
                monkeypatch.setattr(cls, method, recording(label, getattr(cls, method)))
    # Two full chunks and a partial one, half of each chunk open.
    ests = estimate(model, eps, n=10_000, seed=3, threads=1)
    assert 0 < ests[-1].hits < 10_000
    assert calls == [4096, 4096, 10_000 - 2 * 4096]
    assert seen and all(was_inside for _label, was_inside in seen), seen
    kind = type(model.sources[0]).__name__
    steps = ["draw", "build"] if kind != "Wishart" else ["sample_batch"]
    want = {f"{kind}.{step}" for step in steps}
    assert want <= {label for label, _inside in seen}


class TestChunkMemory:
    """A chunk holds the running sum plus the real parts of one wishart
    position's Gaussians and one block of draws, never a full-size array
    per position: the traced peak of one _chunk_hits call, in units of one
    (size, d, d) complex array, was 5 (d = 8, K = 4) and 4 (d = 32, K = 2)
    when each position built its own batch, 2.5 for both while a position
    held its whole complex Gaussian factor, 1.69 and 1.55 with the
    imaginary parts drawn block by block, and is 1.63 and 1.53 with the
    block budget counting the factor's conjugate."""

    @pytest.mark.parametrize(
        "dim, repeat, size",
        [(8, 4, 4096), (32, 2, 1024)],
        ids=["wishart-mc-chunk", "d32"],
    )
    def test_peak_stays_under_two_sums(self, dim, repeat, size):
        model = SumModel(sources=(Wishart(dim=dim, dof=dim),) * repeat)
        # The wishart-mc grid, scaled with the mean of lambda_max: no draw
        # is screened, so no open-draw copy either.
        eps = np.linspace(5.0, 10.0, 10) * (dim / 8) * (repeat / 4)
        _chunk_hits(model, RngStream(0), 16, eps)  # first-call set-up
        tracemalloc.start()
        try:
            _chunk_hits(model, RngStream(0), size, eps)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (16 * size * dim * dim)

    def test_a_few_settled_draws_keep_the_peak_under_two_sums(self, solver_draws):
        # The wishart-mc chunk with eps_max = 7: 11 of its 4096 draws are
        # settled.  Copying the open rows beside the sum took 2 sums; they
        # are moved to its front in place.
        model = SumModel(sources=(Wishart(dim=8, dof=8),) * 4)
        eps = np.linspace(5.0, 7.0, 10)
        _chunk_hits(model, RngStream(0), 16, eps)  # first-call set-up
        solver_draws.clear()
        tracemalloc.start()
        try:
            hits = _chunk_hits(model, RngStream(0), 4096, eps)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < 4096 - len(solver_draws[0]) < 100
        assert peak < 2 * (16 * 4096 * 8 * 8)
        assert hits.tolist() == eigvalsh_only_hits(model, RngStream(0), 4096, eps).tolist()


    @pytest.mark.parametrize("threads", [1, 2])
    def test_estimate_memory_does_not_grow_with_the_chunk_count(self, threads, monkeypatch):
        # A K = 10 bernoulli_diagonal repeat in chunks of 64 draws.  When
        # every chunk stream was made up front and memoized, each held its
        # K position generators until estimate returned, about 11 kB a
        # chunk: 3.8 MB more at 400 chunks than at 50.
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        model = SumModel(sources=(bernoulli_diagonal(dim=1, p=0.5, scale=1.0),) * 10)
        eps = [2.5, 5.0]

        def run(chunks):
            tracemalloc.start()
            try:
                ests = estimate(model, eps, n=64 * chunks, seed=11, threads=threads)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return [e.hits for e in ests], peak

        estimate(model, eps, n=64, seed=11, threads=threads)  # first-call set-up
        (_, small), (hits, large) = run(50), run(400)
        assert large < small + 256 * 1024
        base = RngStream(11).child(0)
        parts = [_chunk_hits(model, base.child(c), 64, np.asarray(eps)) for c in range(400)]
        assert hits == np.sum(parts, axis=0).tolist()


class TestWorkerCount:
    @pytest.mark.parametrize("cpus, workers", [({0}, 1), ({0, 1, 2}, 3), (set(range(16)), 4)])
    def test_default_follows_cpu_affinity(self, monkeypatch, cpus, workers):
        monkeypatch.delenv(montecarlo.THREADS_ENV, raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert worker_count() == workers

    def test_default_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv(montecarlo.THREADS_ENV, raising=False)
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert worker_count() == 2

    def test_argument_and_environment_come_first(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv(montecarlo.THREADS_ENV, "3")
        assert worker_count() == 3
        assert worker_count(2) == 2

    @pytest.mark.parametrize("threads", [0, -2])
    def test_argument_below_one_is_refused(self, threads):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            worker_count(threads)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            estimate(bernoulli_model(2), [0.5], n=10, threads=threads)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_environment_below_one_is_refused(self, monkeypatch, value):
        monkeypatch.setenv(montecarlo.THREADS_ENV, value)
        with pytest.raises(ConfigError) as info:
            worker_count()
        assert str(info.value) == f"SMALLDEV_THREADS must be at least 1, got {value!r}"
