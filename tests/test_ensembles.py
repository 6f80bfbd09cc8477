import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from smalldev import cli, ensembles
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
    sample_sum_batch,
)
from smalldev.ensembles import _Snapshot
from smalldev.errors import FloatRangeError, MgfUnavailableError
from smalldev.linalg import HermitianMatrix, lambda_max, lambda_min
from smalldev.rng import RngStream


ANALYTIC_MGF = MgfModel(mode="analytic")


def iid_model(source_factory, k):
    return SumModel(sources=tuple(source_factory() for _ in range(k)))


ALL_SOURCES = [
    lambda: ScaledFixed(
        matrix=HermitianMatrix.diagonal([1.0, 0.5]), law=Gamma(1.0, 1.5)
    ),
    lambda: ScaledFixed(
        matrix=HermitianMatrix.identity(2), law=Gamma(shape=2.0, rate=1.0)
    ),
    lambda: ScaledFixed(
        matrix=HermitianMatrix.diagonal([2.0, 1.0]), law=Uniform(high=0.7)
    ),
    lambda: ScaledFixed(matrix=HermitianMatrix.identity(3), law=Bernoulli(p=0.3)),
    lambda: bernoulli_diagonal(dim=2, p=0.5, scale=1.0),
    lambda: BoundedRankOne(dim=4, bound=1.0),
    lambda: Wishart(dim=3, dof=4),
]


class TestScalarLaws:
    @pytest.mark.parametrize(
        "law",
        [Gamma(1.0, 1.3), Gamma(shape=2.0, rate=1.5), Uniform(high=0.7)],
        ids=["exponential", "gamma", "uniform"],
    )
    def test_power_envelope_holds_on_log_grid(self, law):
        c, alpha = law.envelope
        thetas = np.geomspace(1e-3, 1e3, 50)
        assert (law.mgf(thetas) <= c * thetas**-alpha * (1 + 1e-12)).all()

    def test_bernoulli_has_no_envelope(self):
        assert Bernoulli(p=0.5).envelope is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate", [1.0e5, 1.0e-5], ids=["overflow", "underflow"])
    def test_envelope_constant_outside_the_float_range_is_named(self, rate):
        # rate**shape = 1e500000 overflows and 1e-500000 underflows to 0.
        with pytest.raises(FloatRangeError, match=r"envelope constant C = rate\*\*shape"):
            Gamma(shape=1.0e5, rate=rate).envelope

    @pytest.mark.parametrize(
        "law",
        [
            Gamma(1.0, 2.0),
            Gamma(shape=1.5, rate=2.0),
            Bernoulli(p=0.4),
            Uniform(high=2.0),
        ],
        ids=["exponential", "gamma", "bernoulli", "uniform"],
    )
    def test_mgf_near_zero_is_one(self, law):
        assert law.mgf(1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_law_parameter_validation(self):
        with pytest.raises(ValueError):
            Gamma(1.0, 0.0)
        with pytest.raises(ValueError):
            Gamma(shape=-1.0, rate=1.0)
        with pytest.raises(ValueError):
            Bernoulli(p=1.5)
        with pytest.raises(ValueError):
            Uniform(high=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "make",
    [
        # The law that the config kind exponential builds.
        lambda x: cli._LAWS["exponential"][0](x),
        lambda x: Gamma(shape=x, rate=1.0),
        lambda x: Gamma(shape=1.0, rate=x),
        lambda x: Uniform(high=x),
        lambda x: bernoulli_diagonal(dim=1, p=0.5, scale=x),
        lambda x: BoundedRankOne(dim=2, bound=x),
    ],
    ids=["exponential-rate", "gamma-shape", "gamma-rate", "uniform-high",
         "bernoulli-diagonal-scale", "bounded-rank-one-bound"],
)
def test_rejects_non_positive_or_non_finite_parameter(make, bad):
    with pytest.raises(ValueError, match="positive and finite"):
        make(bad)


class TestScaledFixed:
    @pytest.mark.parametrize(
        "diagonal, psd",
        [
            ([0.0, 1.0], True),
            ([-1e-3, 1.0], False),
            # The tolerance is 1e-10 * max(1, lambda_max).
            ([-1e-11, 1.0], True),
            ([-1e-9, 1.0], False),
            ([-1e-3, 1e8], True),
            ([-1e-1, 1e8], False),
        ],
    )
    def test_psd_up_to_roundoff_at_the_matrix_scale(self, diagonal, psd):
        matrix = HermitianMatrix.diagonal(diagonal)
        if psd:
            ScaledFixed(matrix, Gamma(1.0, 1.0))
        else:
            with pytest.raises(ValueError, match="requires a psd matrix"):
                ScaledFixed(matrix, Gamma(1.0, 1.0))

    def test_spectrum_is_one_cached_decomposition(self, monkeypatch):
        calls = []
        real = ensembles.spectral_decompose

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(ensembles, "spectral_decompose", counting)
        src = ScaledFixed(HermitianMatrix.diagonal([2.0, 1.0]), Gamma(1.0, 1.0))
        # Construction checks psd with eigvalsh and decomposes nothing.
        assert calls == []
        w, u = src.spectrum
        src.analytic_mgf([0.5, 2.0])
        assert src.spectrum[0] is w and src.spectrum[1] is u
        assert calls == [src.matrix]
        assert np.array_equal(w, [1.0, 2.0])
        assert not w.flags.writeable and not u.flags.writeable

    def test_accepts_a_singular_psd_matrix_at_large_scale(self):
        # lambda_min comes out near -4e-8 here, below an absolute 1e-10.
        ScaledFixed(HermitianMatrix(np.full((3, 3), 1.0e8)), Gamma(1.0, 1.0))
        gen = np.random.default_rng(0)
        for _ in range(200):
            v = gen.standard_normal((3, 2))
            ScaledFixed(HermitianMatrix(1.0e8 * (v @ v.T)), Gamma(1.0, 1.0))


class TestBernoulliDiagonal:
    @pytest.mark.parametrize("d", [1, 4])
    def test_is_scaled_fixed_with_scaled_identity(self, d):
        src = bernoulli_diagonal(dim=d, p=0.3, scale=2.5)
        assert isinstance(src, ScaledFixed)
        assert src.law == Bernoulli(p=0.3)
        assert np.array_equal(src.matrix.entries, 2.5 * np.eye(d))
        assert np.allclose(src.mean().entries, 0.75 * np.eye(d), rtol=1e-15, atol=0)
        assert src.uniform_bound() == 2.5
        for theta in (1e-3, 1.0, 40.0):
            exact = 0.7 + 0.3 * math.exp(-theta * 2.5)
            out = src.analytic_mgf([theta])[0]
            assert np.allclose(out, exact * np.eye(d), rtol=1e-15, atol=0)

    def test_draws_scale_identity_on_each_success(self):
        src = bernoulli_diagonal(dim=3, p=0.4, scale=2.0)
        batch = src.sample_batch(RngStream(4), 500)
        bits = RngStream(4).generator.random(500) < 0.4
        assert np.array_equal(batch, (2.0 * bits)[:, None, None] * np.eye(3))

    def test_rejects_dim_below_one(self):
        with pytest.raises(ValueError, match="dim must be at least 1"):
            bernoulli_diagonal(dim=0, p=0.5, scale=1.0)


class TestSourceSampling:
    @pytest.mark.parametrize("factory", ALL_SOURCES)
    def test_samples_are_psd(self, factory):
        src = factory()
        batch = src.sample_batch(RngStream(5), 1000)
        lam_min = np.linalg.eigvalsh(batch)[:, 0]
        assert lam_min.min() >= -1e-10

    @pytest.mark.parametrize("factory", ALL_SOURCES)
    def test_uniform_bound_respected(self, factory):
        src = factory()
        bound = src.uniform_bound()
        if bound is None:
            pytest.skip("source is unbounded")
        batch = src.sample_batch(RngStream(6), 1000)
        lam_max = np.linalg.eigvalsh(batch)[:, -1]
        assert lam_max.max() <= bound + 1e-10

    @pytest.mark.parametrize("factory", ALL_SOURCES)
    def test_mean_within_three_standard_errors(self, factory):
        src = factory()
        n = 100_000
        batch = src.sample_batch(RngStream(7), n)
        mean = src.mean().entries
        emp = batch.mean(axis=0)
        se = np.maximum(
            np.sqrt(batch.real.var(axis=0) / n) + np.sqrt(batch.imag.var(axis=0) / n),
            1e-12,
        )
        assert (np.abs(emp - mean) <= 3.0 * se + 1e-9).all()

    def test_degenerate_bernoulli_always_scale_identity(self):
        src = bernoulli_diagonal(dim=1, p=1.0, scale=2.0)
        for _ in range(5):
            assert np.allclose(src.sample_batch(RngStream(8), 1)[0], [[2.0]])

    def test_zero_matrix_source_samples_zero(self):
        src = ScaledFixed(matrix=HermitianMatrix(np.zeros((2, 2))), law=Gamma(1.0, 1.0))
        batch = src.sample_batch(RngStream(9), 100)
        assert np.abs(batch).max() == 0.0

    def test_bounded_rank_one_trace_identity(self):
        # trace(bound * u * w w*) = bound * u since w has unit norm, so the
        # trace equals the single nonzero eigenvalue and lies in [0, bound].
        src = BoundedRankOne(dim=4, bound=1.0)
        batch = src.sample_batch(RngStream(10), 1000)
        traces = np.trace(batch, axis1=1, axis2=2).real
        lam = np.linalg.eigvalsh(batch)[:, -1]
        assert traces.min() >= -1e-12
        assert traces.max() <= 1.0 + 1e-12
        assert np.abs(traces - lam).max() <= 1e-10


class TestSamplingKernels:
    """The batched products against the einsum formulas they replaced,
    recomputed here from the same substream draws."""

    def test_wishart_gram_matches_einsum(self):
        src = Wishart(dim=5, dof=7)
        got = src.sample_batch(RngStream(11), 300)
        g = ensembles._complex_normal(RngStream(11).generator, (300, 7, 5))
        want = np.einsum("sni,snj->sij", g, g.conj()) / 7
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_bounded_rank_one_outer_product_matches_einsum(self):
        src = BoundedRankOne(dim=4, bound=2.5)
        got = src.sample_batch(RngStream(12), 300)
        gen = RngStream(12).generator
        g = ensembles._complex_normal(gen, (300, 4))
        w = g / np.linalg.norm(g, axis=1, keepdims=True)
        u = gen.random(300)
        want = np.einsum("s,si,sj->sij", 2.5 * u, w, w.conj())
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_sum_accumulates_each_source_from_its_own_substream(self):
        sources = (Wishart(dim=3, dof=4), BoundedRankOne(dim=3, bound=1.0))
        model = SumModel(sources=sources * 2)
        got = sample_sum_batch(model, RngStream(13), 50, math.inf).sums
        want = sum(
            src.sample_batch(RngStream(13).child(k), 50)
            for k, src in enumerate(model.sources)
        )
        np.testing.assert_array_equal(got, want)


# The batch expressions before draws were built in place, one block at a
# time: every sample_batch and sample_sum_batch must give their bits.


def reference_complex_normal(gen, shape):
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(0.5)


def reference_batch(src, stream, size):
    gen = stream.generator
    if isinstance(src, ScaledFixed):
        xs = src.law.sample(gen, size)
        return xs[:, None, None] * src.matrix.entries[None, :, :]
    if isinstance(src, BoundedRankOne):
        g = reference_complex_normal(gen, (size, src.dim))
        w = g / np.linalg.norm(g, axis=1, keepdims=True)
        u = gen.random(size)
        v = (src.bound * u)[:, None] * w
        return v[:, :, None] * w.conj()[:, None, :]
    if isinstance(src, Wishart):
        g = reference_complex_normal(gen, (size, src.dof, src.dim))
        return (g.transpose(0, 2, 1) @ g.conj()) / src.dof
    total = reference_batch(src.sources[0], stream.child(0), size)
    for k, s in enumerate(src.sources[1:], start=1):
        total += reference_batch(s, stream.child(k), size)
    return total


def reference_added(src, stream, size, base):
    """base plus the draws of src, added one position at a time for a sum."""
    if not isinstance(src, SumModel):
        return base + reference_batch(src, stream, size)
    total = base.copy()
    for k, s in enumerate(src.sources):
        total += reference_batch(s, stream.child(k), size)
    return total


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.complex128
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


_D = 3
# Draws per block of ensembles._build at d = 3.
_ROWS = ensembles._KERNEL_BYTES // (32 * _D * _D)
_SIZES = [1, _ROWS - 1, _ROWS + 1, 4096]

BIT_SOURCES = {
    "scaled-fixed-exponential": ScaledFixed(
        HermitianMatrix(np.array([[2.0, 1j, 0.0], [-1j, 2.0, 0.5], [0.0, 0.5, 1.0]])),
        Gamma(1.0, 1.5),
    ),
    "scaled-fixed-uniform": ScaledFixed(HermitianMatrix.diagonal([1.0, 0.5, 0.25]), Uniform(2.0)),
    "bernoulli-diagonal": bernoulli_diagonal(dim=_D, p=0.4, scale=2.0),
    "bounded-rank-one": BoundedRankOne(dim=_D, bound=2.5),
    # 1/dof is inexact unless dof is a power of two.
    **{f"wishart-dof{dof}": Wishart(dim=_D, dof=dof) for dof in (1, 3, 5, 8)},
}
BIT_SOURCES["sum-of-kinds"] = SumModel(
    sources=(
        BIT_SOURCES["scaled-fixed-exponential"],
        BIT_SOURCES["wishart-dof3"],
        BIT_SOURCES["bounded-rank-one"],
        BIT_SOURCES["wishart-dof3"],
        BIT_SOURCES["bernoulli-diagonal"],
    )
)
# Without a wishart source every position has a diagonal, so sample_sum_batch
# screens its draws before it builds them; with one, the sum is built whole.
BIT_SOURCES["sum-without-wishart"] = SumModel(
    sources=(
        BIT_SOURCES["scaled-fixed-exponential"],
        BIT_SOURCES["bounded-rank-one"],
        BIT_SOURCES["scaled-fixed-uniform"],
        BIT_SOURCES["bounded-rank-one"],
        BIT_SOURCES["bernoulli-diagonal"],
    )
)
_SUMS = ["sum-of-kinds", "sum-without-wishart"]


class TestInPlaceBuild:
    def test_complex_normal_has_the_bits_of_the_complex_expression(self):
        got = ensembles._complex_normal(RngStream(3).generator, (500, 4, 3))
        assert_same_bits(got, reference_complex_normal(RngStream(3).generator, (500, 4, 3)))

    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("name", list(BIT_SOURCES))
    def test_fresh_batch_has_the_reference_bits(self, name, size):
        src = BIT_SOURCES[name]
        got = src.sample_batch(RngStream(21).child(2), size)
        assert_same_bits(got, reference_batch(src, RngStream(21).child(2), size))

    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("name", list(BIT_SOURCES))
    def test_batch_added_into_out_has_the_reference_bits(self, name, size):
        src = BIT_SOURCES[name]
        base = reference_batch(BIT_SOURCES["wishart-dof5"], RngStream(22), size)
        out = base.copy()
        assert src.sample_batch(RngStream(21).child(2), size, out=out) is out
        assert_same_bits(out, reference_added(src, RngStream(21).child(2), size, base))

    @pytest.mark.parametrize("size", _SIZES)
    @pytest.mark.parametrize("name", _SUMS)
    def test_sum_batch_has_the_reference_bits(self, name, size):
        model = BIT_SOURCES[name]
        got = sample_sum_batch(model, RngStream(23), size, math.inf).sums
        assert_same_bits(got, reference_batch(model, RngStream(23), size))

    @pytest.mark.parametrize("name", _SUMS)
    def test_small_blocks_keep_the_bits(self, name, monkeypatch):
        # Five draws per block: many blocks and a ragged last one.
        monkeypatch.setattr(ensembles, "_KERNEL_BYTES", 32 * _D * _D * 5)
        model = BIT_SOURCES[name]
        got = sample_sum_batch(model, RngStream(24), 103, math.inf).sums
        assert_same_bits(got, reference_batch(model, RngStream(24), 103))

    @pytest.mark.parametrize("size", _SIZES)
    def test_blocks_cover_the_batch_in_budgeted_slices(self, size):
        slices = []

        def block(s):
            slices.append(s)
            return np.ones((len(range(size)[s]), _D, _D))

        out = ensembles._build(size, _D, block, None)
        assert out.shape == (size, _D, _D) and (out == 1.0).all()
        assert [s.start for s in slices] == list(range(0, size, _ROWS))
        assert all(s.stop - s.start == _ROWS for s in slices)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_draw_past_the_float_range_is_inf_without_warning(self):
        src = ScaledFixed(HermitianMatrix.diagonal([1.0e308, 1.0e308]), Uniform(high=1.9))
        xs = Uniform(high=1.9).sample(RngStream(25).generator, 200)
        diag = np.diagonal(src.sample_batch(RngStream(25), 200), axis1=1, axis2=2).real
        over = xs > np.finfo(float).max / 1.0e308
        assert 0 < over.sum() < 200
        assert (diag[over] == math.inf).all()
        np.testing.assert_array_equal(diag[~over], (xs[~over] * 1.0e308)[:, None] * [1.0, 1.0])


class TestStreamedWishart:
    """Wishart.sample_batch draws the real parts of its batch first and
    each block's imaginary parts just before it builds that block's Gram
    matrices: the bits of reference_batch, with a block budgeted by its
    Gaussian factor, the factor's conjugate and its Gram matrices,
    16 (2 dof d + d^2) bytes a draw."""

    @pytest.mark.parametrize("into", [False, True], ids=["fresh", "out"])
    @pytest.mark.parametrize("dof", [1, 5, 8])
    def test_small_blocks_have_the_reference_bits(self, dof, into, monkeypatch):
        src = Wishart(dim=_D, dof=dof)
        want = reference_batch(src, RngStream(40), 103)
        base = reference_batch(BIT_SOURCES["wishart-dof5"], RngStream(41), 103)
        # Five draws per block: many blocks and a ragged last one.
        monkeypatch.setattr(ensembles, "_KERNEL_BYTES", 16 * (2 * dof * _D + _D * _D) * 5)
        if into:
            out = base.copy()
            assert src.sample_batch(RngStream(40), 103, out=out) is out
            assert_same_bits(out, base + want)
        else:
            assert_same_bits(src.sample_batch(RngStream(40), 103), want)

    @pytest.mark.parametrize("dim, dof", [(8, 8), (2, 512)])
    def test_blocks_are_budgeted_by_factor_and_gram(self, dim, dof, monkeypatch):
        sizes = []
        build = ensembles._build

        def recording(size, dim_, block, out, draw_bytes=None):
            def sized(s):
                sizes.append(len(range(size)[s]))
                return block(s)

            return build(size, dim_, sized, out, draw_bytes)

        monkeypatch.setattr(ensembles, "_build", recording)
        Wishart(dim=dim, dof=dof).sample_batch(RngStream(42), 1000)
        rows = ensembles._KERNEL_BYTES // (16 * (2 * dof * dim + dim * dim))
        assert sizes == [rows] * (1000 // rows) + [1000 % rows] * (1000 % rows > 0)

    @pytest.mark.parametrize("dim, dof, size", [(8, 8, 4096), (2, 512, 256)])
    def test_peak_holds_the_real_parts_and_one_block(self, dim, dof, size):
        # Beyond the matrices and the real parts of the batch, the whole
        # complex factor and its imaginary parts took 5 (d = 8) and 12
        # (dof = 512) times _KERNEL_BYTES; one block, its conjugate and its
        # Gram matrices took 1.5 and 1.9 while the block budget left the
        # conjugate out, and take 1.0 and 0.94 within it.
        src = Wishart(dim=dim, dof=dof)
        src.sample_batch(RngStream(0), 4)  # first-call set-up
        tracemalloc.start()
        try:
            src.sample_batch(RngStream(0), size)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = 16 * size * dim * dim + 8 * size * dof * dim
        assert peak < held + 1.1 * ensembles._KERNEL_BYTES

    @pytest.mark.parametrize("name", ["wishart", "wishart-sum"])
    def test_empirical_mgf_keeps_the_reference_bits(self, name):
        # The bundled wishart_empirical_mgf source and snapshot size: two
        # blocks of draws per position.
        src = Wishart(dim=2, dof=4)
        if name == "wishart-sum":
            src = SumModel(sources=(src, src))
        stream = RngStream(43).child(ensembles._MGF_PURPOSE).child(0)
        snap = _Snapshot(reference_batch(src, stream, 4000))
        model = MgfModel(mode="empirical", n_samples=4000, seed=43)
        got = model.trace_many(src, TRACE_THETAS)
        np.testing.assert_array_equal(
            got.view(np.uint64), snap.trace_many(TRACE_THETAS).view(np.uint64)
        )
        assert_same_bits(
            model.evaluate_many(src, TRACE_THETAS), snap.evaluate_many(TRACE_THETAS)
        )


# The sources whose diagonal the screen reads without building a matrix.
DIAGONAL_SOURCES = {
    "bounded-rank-one": BIT_SOURCES["bounded-rank-one"],
    "bounded-rank-one-d16": BoundedRankOne(dim=16, bound=2.5),
    "scaled-fixed-exponential": BIT_SOURCES["scaled-fixed-exponential"],
    "scaled-fixed-gamma": ScaledFixed(
        HermitianMatrix.diagonal([1.0, 2.0, 0.5]), Gamma(shape=2.0, rate=1.0)
    ),
    "scaled-fixed-uniform": BIT_SOURCES["scaled-fixed-uniform"],
    "bernoulli-diagonal": BIT_SOURCES["bernoulli-diagonal"],
}

# Sums for the screen: built on request (every source has a diagonal) and
# built whole (a wishart source, or a matrix with a negative diagonal entry).
_NEGATIVE_DIAGONAL = ScaledFixed(
    HermitianMatrix(np.array([[-1e-12, 0.0], [0.0, 1.0]])), Gamma(1.0, 1.0)
)
SCREEN_SUMS = {
    "bounded-rank-one": SumModel(sources=(BIT_SOURCES["bounded-rank-one"],) * 8),
    "bernoulli-diagonal": SumModel(sources=(BIT_SOURCES["bernoulli-diagonal"],) * 10),
    "scaled-fixed-gamma": SumModel(sources=(DIAGONAL_SOURCES["scaled-fixed-gamma"],) * 3),
    "sum-without-wishart": BIT_SOURCES["sum-without-wishart"],
    "sum-of-kinds": BIT_SOURCES["sum-of-kinds"],
    "negative-diagonal": SumModel(
        sources=(_NEGATIVE_DIAGONAL, ScaledFixed(HermitianMatrix.identity(2), Uniform(1.0)))
    ),
}


class TestDrawAndBuild:
    """For bounded_rank_one and scaled_fixed, draw takes a batch's random
    numbers, build makes its matrices, and diagonal gives their diagonal
    without building them."""

    @pytest.mark.parametrize(
        "name", [n for n in BIT_SOURCES if n not in _SUMS and not n.startswith("wishart")]
    )
    def test_sample_batch_is_draw_then_build(self, name):
        src = BIT_SOURCES[name]
        got = src.build(src.draw(RngStream(26), 500))
        assert_same_bits(got, src.sample_batch(RngStream(26), 500))

    @pytest.mark.parametrize("size", [1, 4096])
    @pytest.mark.parametrize("name", list(DIAGONAL_SOURCES))
    def test_diagonal_has_the_bits_of_the_built_matrices(self, name, size):
        src = DIAGONAL_SOURCES[name]
        for seed in range(5):
            draws = src.draw(RngStream(seed), size)
            diag = src.diagonal(draws)
            built = np.diagonal(src.matrices(draws), axis1=1, axis2=2).real
            assert diag.shape == (size, src.dim)
            np.testing.assert_array_equal(diag.view(np.uint64), built.copy().view(np.uint64))
            assert (diag >= 0).all()

    def test_wishart_and_a_negative_diagonal_entry_have_no_diagonal(self):
        # A wishart samples in one step, sample_batch, and has no diagonal.
        assert not isinstance(Wishart(dim=3, dof=2), ensembles._Drawn)
        for step in ("draw", "build", "matrices", "diagonal"):
            assert not hasattr(Wishart(dim=3, dof=2), step)
        assert _NEGATIVE_DIAGONAL.diagonal is None
        assert DIAGONAL_SOURCES["scaled-fixed-gamma"].diagonal is not None


class TestSumDraws:
    """sample_sum_batch(model, stream, size, limit) draws, screens and
    builds in one call: its sums are exactly those of the draws whose
    summed diagonal is not above the limit, with the bits of the whole sum,
    and nothing else is built."""

    @staticmethod
    def whole(model, seed, size):
        full = reference_batch(model, RngStream(seed), size)
        return full, np.diagonal(full, axis1=1, axis2=2).real

    @pytest.mark.parametrize("name", list(SCREEN_SUMS))
    def test_unscreened_draws_are_the_whole_sum(self, name):
        model = SCREEN_SUMS[name]
        full, _diag = self.whole(model, 27, 1000)
        draws = sample_sum_batch(model, RngStream(27), 1000, math.inf)
        assert draws.shape == (1000, model.dim, model.dim)
        assert_same_bits(draws.sums, full)

    @pytest.mark.parametrize("quantile", [None, 0.5, 0.0], ids=["none-settled", "half", "all"])
    @pytest.mark.parametrize("name", list(SCREEN_SUMS))
    def test_screen_keeps_the_open_draws_with_their_bits(self, name, quantile):
        model = SCREEN_SUMS[name]
        for seed in range(3):
            full, diag = self.whole(model, seed, 4096)
            top = diag.max(axis=1)
            # A limit at the quantile of the largest diagonal entry, and
            # below every draw for 0 (0.0 itself would keep the zero draws).
            limit = (
                math.inf if quantile is None
                else float(np.quantile(top, quantile)) if quantile else -1.0
            )
            draws = sample_sum_batch(model, RngStream(seed), 4096, limit)
            keep = np.flatnonzero(~(top > limit))
            assert draws.shape == (4096, model.dim, model.dim)
            assert draws.sums.shape == (len(keep), model.dim, model.dim)
            assert_same_bits(draws.sums, full[keep])

    @pytest.mark.parametrize("quantile", [0.1, 0.5, 0.9])
    def test_open_rows_move_to_the_front_of_the_sum_in_blocks(self, quantile, monkeypatch):
        # Five rows per block: many blocks and a ragged last one.
        model = SCREEN_SUMS["sum-of-kinds"]
        monkeypatch.setattr(ensembles, "_KERNEL_BYTES", 32 * _D * _D * 5)
        full, diag = self.whole(model, 30, 1000)
        top = diag.max(axis=1)
        limit = float(np.quantile(top, quantile))
        keep = np.flatnonzero(~(top > limit))
        assert 0 < len(keep) < 1000
        assert_same_bits(sample_sum_batch(model, RngStream(30), 1000, limit).sums, full[keep])

    def test_screen_of_a_sum_built_whole_copies_no_sum(self, monkeypatch):
        # The wishart-mc chunk with 11 of its 4096 draws settled.  Building
        # and screening it peaks at 1.63 sums (6.5 MiB of 4 MiB sums);
        # copying the open rows would take one more sum.
        model = SumModel(sources=(Wishart(dim=8, dof=8),) * 4)
        whole = []
        sample_batch = SumModel.sample_batch

        def recording(self, stream, size, out=None):
            whole.append(sample_batch(self, stream, size, out))
            return whole[-1]

        monkeypatch.setattr(SumModel, "sample_batch", recording)
        sample_sum_batch(model, RngStream(0), 4, 7.0)  # first-call set-up
        whole.clear()
        tracemalloc.start()
        try:
            sums = sample_sum_batch(model, RngStream(0), 4096, 7.0).sums
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < 4096 - len(sums) < 100
        assert len(whole) == 1 and sums.base is whole[0]
        held = 16 * 4096 * 8 * 8 + 8 * 4096 * 8 * 8
        assert peak < held + 3 * ensembles._KERNEL_BYTES

    @pytest.mark.parametrize("name", ["bounded-rank-one", "sum-without-wishart"])
    def test_a_settled_draw_is_never_built(self, name, monkeypatch):
        built = []
        build = ensembles._build

        def recording(size, dim, block, out):
            built.append(size)
            return build(size, dim, block, out)

        monkeypatch.setattr(ensembles, "_build", recording)
        model = SCREEN_SUMS[name]
        limit = float(np.quantile(self.whole(model, 28, 4096)[1].max(axis=1), 0.1))
        sums = sample_sum_batch(model, RngStream(28), 4096, limit).sums
        assert 0 < len(sums) < 4096
        assert built == [len(sums)] * model.size

    def test_no_position_is_drawn_once_every_draw_is_settled(self, monkeypatch):
        drawn = []
        draw = BoundedRankOne.draw

        def recording(self, stream, size):
            drawn.append(stream.path)
            return draw(self, stream, size)

        monkeypatch.setattr(BoundedRankOne, "draw", recording)
        model = SCREEN_SUMS["bounded-rank-one"]
        draws = sample_sum_batch(model, RngStream(29), 4096, -1.0)
        assert drawn == [(0,)]  # position 0 settles every draw
        assert draws.sums.shape == (0, model.dim, model.dim)

    def test_screened_chunk_holds_less_than_the_whole_sum(self):
        # The bundled bounded_rank_one chunk, every draw settled: building
        # its 1.05 MB sum whole peaks at 2.0 MB, the screen at 1.1 MB.
        model = SumModel(sources=(BoundedRankOne(dim=4, bound=1.0),) * 8)
        sample_sum_batch(model, RngStream(0), 16, 0.12)  # first-call set-up
        tracemalloc.start()
        try:
            draws = sample_sum_batch(model, RngStream(0), 4096, 0.12)
            assert len(draws.sums) == 0
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (16 * 4096 * 4 * 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diagonal_past_the_float_range_is_inf_without_warning(self):
        src = ScaledFixed(HermitianMatrix.diagonal([1.0e308, 1.0e308]), Uniform(high=1.9))
        model = SumModel(sources=(src, src))
        full = model.sample_batch(RngStream(25), 200)
        top = np.diagonal(full, axis1=1, axis2=2).real.max(axis=1)
        assert 0 < (top == math.inf).sum() < 200
        # Every draw is open at an infinite limit; at the largest float the
        # overflowed sums are settled.
        for limit in (math.inf, np.finfo(float).max):
            sums = sample_sum_batch(model, RngStream(25), 200, limit).sums
            assert_same_bits(sums, full[~(top > limit)])


class TestSumModel:
    def test_requires_equal_dims(self):
        with pytest.raises(ValueError):
            SumModel(sources=(Wishart(dim=2, dof=2), Wishart(dim=3, dof=2)))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            SumModel(sources=())

    def test_sum_of_zero_sources_is_zero(self):
        model = iid_model(
            lambda: ScaledFixed(
                matrix=HermitianMatrix(np.zeros((2, 2))), law=Gamma(1.0, 1.0)
            ),
            3,
        )
        assert np.abs(sample_sum_batch(model, RngStream(1), 1, math.inf).sums).max() == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sum_past_the_float_range_is_inf_without_warning(self):
        model = iid_model(lambda: bernoulli_diagonal(dim=1, p=0.5, scale=1e308), 2)
        sums = sample_sum_batch(model, RngStream(1), 200, math.inf).sums.real.ravel()
        assert set(sums.tolist()) == {0.0, 1e308, math.inf}

    def test_binomial_law_of_bernoulli_sum(self):
        # lambda_max of ten summed Bernoulli(1/2) identities counts the
        # successes, so it follows Binomial(10, 1/2) exactly.
        model = iid_model(lambda: bernoulli_diagonal(dim=1, p=0.5, scale=1.0), 10)
        n = 100_000
        sums = sample_sum_batch(model, RngStream(13), n, math.inf).sums
        lam = np.linalg.eigvalsh(sums)[:, -1]
        counts = np.bincount(np.rint(lam).astype(int), minlength=11)
        expected = np.array([math.comb(10, k) * 0.5**10 * n for k in range(11)])
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 29.59  # 0.999 quantile of chi-square with 10 dof

    def test_gamma_law_of_exponential_sum(self):
        # Two exp(1) multiples of I: lambda_max is the sum of the two scalars,
        # a Gamma(2, 1) variable; Kolmogorov-Smirnov against its exact CDF.
        model = iid_model(
            lambda: ScaledFixed(
                matrix=HermitianMatrix.identity(2), law=Gamma(1.0, 1.0)
            ),
            2,
        )
        n = 100_000
        sums = sample_sum_batch(model, RngStream(14), n, math.inf).sums
        lam = np.sort(np.linalg.eigvalsh(sums)[:, -1])
        cdf = 1.0 - np.exp(-lam) * (1.0 + lam)
        grid = np.arange(1, n + 1) / n
        ks = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1.0 / n)).max())
        assert ks <= 1.95 / math.sqrt(n)  # ~0.001-level KS critical value


class TestAnalyticMgf:
    def test_exponential_identity(self):
        src = ScaledFixed(matrix=HermitianMatrix.identity(2), law=Gamma(1.0, 1.0))
        out = src.analytic_mgf([1.0])[0]
        assert np.allclose(out, 0.5 * np.eye(2), atol=1e-14)

    def test_gamma_diagonal(self):
        src = ScaledFixed(
            matrix=HermitianMatrix.diagonal([1.0, 2.0]), law=Gamma(shape=2.0, rate=1.0)
        )
        out = src.analytic_mgf([1.0])[0]
        assert np.allclose(out, np.diag([0.25, 1.0 / 9.0]), atol=1e-14)

    def test_bernoulli_diagonal_small_theta(self):
        src = bernoulli_diagonal(dim=3, p=0.5, scale=1.0)
        out = src.analytic_mgf([1e-12])[0]
        assert np.allclose(out, np.eye(3), atol=1e-9)

    def test_unavailable_sources(self):
        assert BoundedRankOne(dim=2, bound=1.0).analytic_mgf is None
        assert Wishart(dim=2, dof=2).analytic_mgf is None

    def test_rejects_nonpositive_theta(self):
        src = bernoulli_diagonal(dim=1, p=0.5, scale=1.0)
        with pytest.raises(ValueError):
            MgfModel(mode="analytic").evaluate(src, 0.0)

    @pytest.mark.parametrize("factory", ALL_SOURCES[:5])
    def test_monotone_decreasing_in_theta(self, factory):
        src = factory()
        thetas = np.geomspace(1e-3, 1e2, 12)
        mats = [src.analytic_mgf([t])[0] for t in thetas]
        for earlier, later in zip(mats, mats[1:]):
            diff = HermitianMatrix(later - earlier)
            assert lambda_max(diff) <= 1e-10

    @pytest.mark.parametrize("factory", ALL_SOURCES[:5])
    def test_batch_equals_one_theta_calls_bit_for_bit(self, factory):
        src = factory()
        thetas = [*np.geomspace(1e-6, 1e6, 13).tolist(), 0.3, 0.3]
        batch = src.analytic_mgf(thetas)
        assert batch.shape == (len(thetas), src.dim, src.dim)
        for theta, m in zip(thetas, batch):
            assert np.array_equal(m, src.analytic_mgf([theta])[0])
            # Symmetrized as HermitianMatrix does, so wrapping keeps the bits.
            assert np.array_equal(HermitianMatrix(m).entries, m)

    @pytest.mark.parametrize("factory", ALL_SOURCES[:5])
    def test_output_pd_and_below_identity(self, factory):
        src = factory()
        for theta in (0.1, 1.0, 10.0):
            out = HermitianMatrix(src.analytic_mgf([theta])[0])
            assert lambda_min(out) > 0.0
            assert lambda_max(out) <= 1.0 + 1e-12


class TestEmpiricalMgf:
    def test_deterministic_source_exact(self):
        src = bernoulli_diagonal(dim=2, p=1.0, scale=1.5)
        exact = scipy.linalg.expm(-0.8 * 1.5 * np.eye(2))
        for n in (1, 7):
            out = MgfModel(mode="empirical", n_samples=n, seed=15).evaluate(src, 0.8)
            assert np.abs(out.entries - exact).max() <= 1e-12

    def test_single_sample_equals_expm_of_draw(self):
        src = Wishart(dim=2, dof=2)
        # The first snapshot draws from substream (seed, mgf purpose, 0).
        x1 = src.sample_batch(RngStream(16).child(1).child(0), 1)[0]
        out = MgfModel(mode="empirical", n_samples=1, seed=16).evaluate(src, 0.7)
        assert np.abs(out.entries - scipy.linalg.expm(-0.7 * x1)).max() <= 1e-10

    @pytest.mark.parametrize("theta", [math.nan, 0.0, math.inf])
    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    def test_rejects_theta_not_positive_and_finite(self, mode, theta):
        src = bernoulli_diagonal(dim=1, p=0.5, scale=1.0)
        with pytest.raises(ValueError, match="theta must be positive"):
            MgfModel(mode=mode, n_samples=10).evaluate_many(src, [theta])

    def test_converges_to_analytic(self):
        src = ScaledFixed(matrix=HermitianMatrix.identity(2), law=Gamma(1.0, 1.0))
        n = 100_000
        out = MgfModel(mode="empirical", n_samples=n, seed=17).evaluate(src, 1.0)
        # entries are means of exp(-x) draws: var = 1/3 - 1/4 = 1/12
        se = math.sqrt((1.0 / 12.0) / n)
        assert np.abs(out.entries - 0.5 * np.eye(2)).max() <= 3.0 * se

    @pytest.mark.parametrize("d", [1, 4, 16])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda d: bernoulli_diagonal(dim=d, p=0.5, scale=2.0),
            lambda d: Wishart(dim=d, dof=3),
            lambda d: BoundedRankOne(dim=d, bound=1.0),
        ],
        ids=["bernoulli_diagonal", "wishart", "bounded_rank_one"],
    )
    def test_matches_einsum_reference(self, factory, d):
        src = factory(d)
        n = 300
        w, v = np.linalg.eigh(src.sample_batch(RngStream(21).child(1).child(0), n))
        thetas = (0.05, 1.0, 20.0)
        outs = MgfModel(mode="empirical", n_samples=n, seed=21).evaluate_many(src, thetas)
        for theta, out in zip(thetas, outs):
            phases = np.exp(-theta * w)
            ref = np.einsum("nij,nj,nkj->ik", v, phases, v.conj()) / n
            assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_output_pd_and_below_identity(self):
        for factory in (lambda: BoundedRankOne(dim=3, bound=1.0), lambda: Wishart(dim=3, dof=3)):
            out = MgfModel(mode="empirical", n_samples=500, seed=18).evaluate(factory(), 2.0)
            assert lambda_min(out) > 0.0
            assert lambda_max(out) <= 1.0 + 1e-10


def fold_reference(snapshot, theta):
    """The mgf as (X e^(-theta w)) X^T over the real (2d, N) basis
    X = [Re V; Im V], folded to G11 + G22 + i (G21 - G12).  Column s*d + k
    of the (d, N) array V is eigenvector k of sample s."""
    n, d, _ = snapshot.vectors.shape
    v = snapshot.vectors.transpose(1, 0, 2).reshape(d, n * d)
    x = np.vstack([v.real, v.imag])
    g = (x * np.exp(-theta * snapshot.eigenvalues)) @ x.T
    return (g[:d, :d] + g[d:, d:] + 1j * (g[d:, :d] - g[:d, d:])) / snapshot.n


class TestSnapshotKernel:
    @pytest.mark.parametrize("d", [1, 2, 4, 7])
    @pytest.mark.parametrize(
        "factory",
        [lambda d: BoundedRankOne(dim=d, bound=1.0), lambda d: Wishart(dim=d, dof=3)],
        ids=["bounded_rank_one", "wishart"],
    )
    def test_batch_matches_the_gemm_fold(self, factory, d):
        snap = _Snapshot(factory(d).sample_batch(RngStream(31), 500))
        thetas = [*np.geomspace(1e-6, 1e6, 25).tolist(), 0.3, 2.0, 0.3]
        out = snap.evaluate_many(thetas)
        assert out.shape == (len(thetas), d, d)
        for theta, got in zip(thetas, out):
            ref = fold_reference(snap, theta)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.array_equal(got, got.conj().T)
        assert np.array_equal(out[-1], out[-3])

    def test_blocks_cover_every_eigenpair(self, monkeypatch):
        # Blocks far smaller than the sample set, in both directions.
        monkeypatch.setattr(ensembles, "_KERNEL_BYTES", 1024)
        snap = _Snapshot(Wishart(dim=3, dof=2).sample_batch(RngStream(32), 101))
        thetas = np.geomspace(0.01, 10.0, 9).tolist()
        for theta, got in zip(thetas, snap.evaluate_many(thetas)):
            ref = fold_reference(snap, theta)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kernel_bytes", [1024, 4096, None])
    def test_bits_equal_the_flattened_layout(self, kernel_bytes, monkeypatch):
        # The kernel as it read a flattened (n*d, d) copy of the
        # eigenvectors, row s*d + k being eigenvector k of sample s.  With
        # 1024 and 4096 bytes, blocks of 5 and 21 pairs at d = 3 split
        # samples between blocks.
        if kernel_bytes:
            monkeypatch.setattr(ensembles, "_KERNEL_BYTES", kernel_bytes)
        snap = _Snapshot(Wishart(dim=3, dof=2).sample_batch(RngStream(39), 101))
        thetas = np.geomspace(0.01, 10.0, 9)
        n, d, _ = snap.vectors.shape
        v, w = snap.vectors.transpose(0, 2, 1).reshape(n * d, d), snap.eigenvalues
        iu, ju = np.triu_indices(d, 1)
        ir, jr = np.concatenate([np.arange(d), iu]), np.concatenate([np.arange(d), ju])
        nv = max(1, ensembles._KERNEL_BYTES // (32 * len(ir)))
        nt = max(1, ensembles._KERNEL_BYTES // (16 * nv))
        acc = np.zeros((len(thetas), 2 * len(ir)))
        for j in range(0, w.size, nv):
            p = np.take(v[j : j + nv], ir, axis=1)
            p *= np.take(v[j : j + nv].conj(), jr, axis=1)
            for i in range(0, len(thetas), nt):
                e = np.exp(np.multiply.outer(-thetas[i : i + nt], w[j : j + nv]))
                acc[i : i + nt] += e @ p.view(np.float64)
        upper = (acc / n).view(np.complex128)
        got = snap.evaluate_many(thetas.tolist())
        assert_same_bits(np.ascontiguousarray(got[:, iu, ju]), np.ascontiguousarray(upper[:, d:]))
        np.testing.assert_array_equal(got[:, np.arange(d), np.arange(d)].real, upper[:, :d].real)

    def test_memory_stays_within_the_block_budget(self):
        # The unblocked (200, n*d) exponential alone would be 25.6 MB.
        snap = _Snapshot(BoundedRankOne(dim=4, bound=1.0).sample_batch(RngStream(33), 4000))
        retained = snap.vectors.nbytes + snap.eigenvalues.nbytes
        assert retained == 16 * 4000 * 4**2 + 8 * 4000 * 4
        thetas = np.geomspace(1e-3, 1e3, 200).tolist()
        tracemalloc.start()
        try:
            snap.evaluate_many(thetas)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_kept_eigenvectors_are_eighs_and_nothing_more(self):
        # Beyond the samples, drawn before tracing, eigh's w (8 n d bytes)
        # and v (16 n d^2) and at most one block: no flattened copy of v
        # (another 1.02 MB here, twice the block budget).
        n, d = 4000, 4
        samples = BoundedRankOne(dim=d, bound=1.0).sample_batch(RngStream(40), n)
        tracemalloc.start()
        try:
            snap = _Snapshot(samples)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        w, v = np.linalg.eigh(samples)
        assert snap.vectors.shape == (n, d, d)
        assert_same_bits(snap.vectors, v)
        np.testing.assert_array_equal(snap.eigenvalues, w.ravel())
        assert peak < 8 * n * d + 16 * n * d * d + ensembles._KERNEL_BYTES

    def test_a_trace_snapshot_keeps_its_eigenvalues_alone(self):
        n, d = 4000, 4
        samples = BoundedRankOne(dim=d, bound=1.0).sample_batch(RngStream(41), n)
        full, bare = _Snapshot(samples), _Snapshot(samples, vectors=False)
        assert bare.vectors is None
        np.testing.assert_array_equal(bare.eigenvalues, full.eigenvalues)
        np.testing.assert_array_equal(
            bare.trace_many(TRACE_THETAS), full.trace_many(TRACE_THETAS)
        )

    def test_evaluate_is_the_one_theta_batch(self):
        src = BoundedRankOne(dim=3, bound=1.0)
        model = MgfModel(mode="empirical", n_samples=300, seed=4)
        batch = model.evaluate_many(src, [0.5, 4.0])
        for theta, m in zip([0.5, 4.0], batch):
            assert np.array_equal(model.evaluate(src, theta).entries, m)

    def test_analytic_batch_stacks_the_closed_forms(self):
        src = ScaledFixed(matrix=HermitianMatrix.diagonal([1.0, 0.5]), law=Gamma(1.0, 1.5))
        thetas = [1e-3, 1.0, 1.0, 50.0]
        batch = MgfModel(mode="analytic").evaluate_many(src, thetas)
        for theta, m in zip(thetas, batch):
            assert np.array_equal(m, src.analytic_mgf([theta])[0])

    def test_batch_rejects_nonpositive_theta(self):
        src = BoundedRankOne(dim=2, bound=1.0)
        with pytest.raises(ValueError, match="positive"):
            MgfModel(mode="empirical", n_samples=10).evaluate_many(src, [1.0, 0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_draws_at_the_float_limit_weigh_zero_without_warning(self):
        # exp(-theta * 1e308) underflows to 0: only the zero draws count.
        src = bernoulli_diagonal(dim=1, p=0.5, scale=1e308)
        snap = _Snapshot(src.sample_batch(RngStream(34), 400))
        zeros = float(np.mean(snap.eigenvalues == 0.0))
        out = snap.evaluate_many([1e-6, 1.0, 1e6])
        assert np.array_equal(out.real.ravel(), [zeros] * 3)


TRACE_FACTORIES = {
    "bernoulli_diagonal": lambda d: bernoulli_diagonal(dim=d, p=0.5, scale=2.0),
    "scaled_fixed_gamma": lambda d: ScaledFixed(
        HermitianMatrix.diagonal(np.linspace(0.1, 2.0, d)), Gamma(shape=2.0, rate=1.0)
    ),
    "wishart": lambda d: Wishart(dim=d, dof=3),
    "bounded_rank_one": lambda d: BoundedRankOne(dim=d, bound=1.0),
    "sum": lambda d: SumModel(sources=(BoundedRankOne(dim=d, bound=1.0),) * 4),
}
TRACE_THETAS = np.geomspace(1e-3, 1e3, 31).tolist()


class TestTraceMany:
    """MgfModel.trace_many: tr E exp(-theta X), from the snapshot's
    eigenvalues in empirical mode and from the closed form in analytic
    mode."""

    @pytest.mark.parametrize("d", [1, 4, 16])
    @pytest.mark.parametrize("name", list(TRACE_FACTORIES))
    def test_empirical_equals_the_trace_of_the_stack(self, name, d):
        src = TRACE_FACTORIES[name](d)
        model = MgfModel(mode="empirical", n_samples=500, seed=35)
        got = model.trace_many(src, TRACE_THETAS)
        ref = np.trace(model.evaluate_many(src, TRACE_THETAS), axis1=1, axis2=2).real
        assert got.shape == (len(TRACE_THETAS),)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    def test_empirical_sums_the_snapshot_exponentials(self):
        src = Wishart(dim=3, dof=2)
        model = MgfModel(mode="empirical", n_samples=200, seed=36)
        w = np.linalg.eigvalsh(src.sample_batch(RngStream(36).child(1).child(0), 200))
        for theta, got in zip([0.1, 2.0, 30.0], model.trace_many(src, [0.1, 2.0, 30.0])):
            assert math.isclose(got, math.fsum(np.exp(-theta * w).ravel()) / 200, rel_tol=1e-13)

    def test_a_theta_gets_the_same_bits_in_any_batch(self):
        snap = _Snapshot(BoundedRankOne(dim=4, bound=1.0).sample_batch(RngStream(37), 4000))
        batch = snap.trace_many(TRACE_THETAS)
        alone = [snap.trace_many([t])[0] for t in TRACE_THETAS]
        np.testing.assert_array_equal(batch, alone)
        np.testing.assert_array_equal(snap.trace_many(TRACE_THETAS[::-1]), batch[::-1])

    def test_blocks_cover_every_eigenvalue(self, monkeypatch):
        snap = _Snapshot(Wishart(dim=3, dof=2).sample_batch(RngStream(38), 101))
        whole = snap.trace_many(TRACE_THETAS)
        monkeypatch.setattr(ensembles, "_KERNEL_BYTES", 1024)
        np.testing.assert_allclose(snap.trace_many(TRACE_THETAS), whole, rtol=1e-14, atol=0)

    def test_builds_no_matrix_stack(self):
        # The (200, d, d) stack alone would be 819 kB at d = 16.
        model = MgfModel(mode="empirical", n_samples=2000, seed=39)
        src = BoundedRankOne(dim=16, bound=1.0)
        thetas = np.geomspace(1e-3, 1e3, 200).tolist()
        model.trace_many(src, [1.0])  # draws the snapshot
        tracemalloc.start()
        try:
            model.trace_many(src, thetas)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ensembles._KERNEL_BYTES

    @pytest.mark.parametrize("name", ["bernoulli_diagonal", "scaled_fixed_gamma"])
    def test_analytic_is_the_trace_of_evaluate_many(self, name):
        src = TRACE_FACTORIES[name](4)
        got = ANALYTIC_MGF.trace_many(src, TRACE_THETAS)
        ref = np.trace(ANALYTIC_MGF.evaluate_many(src, TRACE_THETAS), axis1=1, axis2=2).real
        np.testing.assert_array_equal(got, ref)

    def test_analytic_needs_a_closed_form(self):
        with pytest.raises(MgfUnavailableError, match="wishart"):
            ANALYTIC_MGF.trace_many(Wishart(dim=2, dof=2), [1.0])

    @pytest.mark.parametrize("theta", [math.nan, 0.0, math.inf])
    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    def test_rejects_theta_not_positive_and_finite(self, mode, theta):
        src = bernoulli_diagonal(dim=1, p=0.5, scale=1.0)
        with pytest.raises(ValueError, match="theta must be positive"):
            MgfModel(mode=mode, n_samples=10).trace_many(src, [1.0, theta])


class TestMgfModel:
    def test_analytic_mode_raises_for_unavailable(self):
        model = MgfModel(mode="analytic")
        with pytest.raises(MgfUnavailableError, match="wishart"):
            model.evaluate(Wishart(dim=2, dof=2), 1.0)

    def test_empirical_snapshot_is_fixed_and_seeded(self):
        src = Wishart(dim=2, dof=3)
        model = MgfModel(mode="empirical", n_samples=64, seed=3)
        first = model.evaluate(src, 1.0)
        again = model.evaluate(src, 1.0)
        assert np.array_equal(first.entries, again.entries)
        # first-seen source uses substream (seed, mgf purpose, 0)
        manual = _Snapshot(src.sample_batch(RngStream(3).child(1).child(0), 64)).evaluate_many([1.0])
        assert np.abs(first.entries - manual[0]).max() <= 1e-12

    def test_empirical_snapshots_distinct_per_source(self):
        a, b = Wishart(dim=2, dof=3), Wishart(dim=2, dof=3)
        model = MgfModel(mode="empirical", n_samples=64, seed=3)
        assert not np.array_equal(
            model.evaluate(a, 1.0).entries, model.evaluate(b, 1.0).entries
        )

    def test_freed_source_does_not_alias_snapshot(self):
        # A source freed after use must not hand its snapshot to a new
        # source that happens to get the same id.
        model = MgfModel(mode="empirical", n_samples=64, seed=0)
        model.evaluate(bernoulli_diagonal(dim=1, p=0.5, scale=1.0), 1.0)
        src = bernoulli_diagonal(dim=1, p=0.5, scale=100.0)
        out = model.evaluate(src, 1.0)
        manual = _Snapshot(src.sample_batch(RngStream(0).child(1).child(1), 64)).evaluate_many([1.0])
        assert np.array_equal(out.entries, manual[0])

    def test_check_names_the_source_without_a_closed_form(self):
        fixed = bernoulli_diagonal(dim=2, p=0.5, scale=1.0)
        model = MgfModel(mode="analytic")
        model.check([fixed, fixed])
        with pytest.raises(MgfUnavailableError, match="source 1 \\(kind 'wishart'\\)"):
            model.check([fixed, Wishart(dim=2, dof=2)])
        wishart = Wishart(dim=2, dof=2)
        with pytest.raises(MgfUnavailableError, match="source 1 \\(kind 'wishart'\\)"):
            model.check([fixed, wishart, fixed, wishart])
        with pytest.raises(MgfUnavailableError, match="kind 'sum'"):
            model.check([iid_model(lambda: fixed, 2)])

    def test_check_counts_every_retained_snapshot(self, monkeypatch):
        # 16 n d^2 (K + 2) bytes, K distinct sources: 3.07 MB for one,
        # 10.24 MB for eight.  One object repeated eight times is one.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 6_000_000 // 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        src = BoundedRankOne(dim=4, bound=1.0)
        model = MgfModel(mode="empirical", n_samples=4000)
        model.check([src])
        model.check([src] * 8)
        with pytest.raises(MgfUnavailableError, match="8 empirical snapshot"):
            model.check([BoundedRankOne(dim=4, bound=1.0) for _ in range(8)])
        # A wishart draw also holds its real parts, 8 n dof d bytes: 0.26 MB
        # at the bundled dof = 4, but 262 MB at dof = 4096, where the
        # matrices alone take 0.77 MB.  So does one at a position of a sum.
        bundled, wide = Wishart(dim=2, dof=4), Wishart(dim=2, dof=4096)
        model.check([bundled])
        model.check([SumModel(sources=(bundled, bundled))])
        for sources in ([wide], [bundled, wide], [SumModel(sources=(bundled, wide))]):
            with pytest.raises(MgfUnavailableError, match="GiB for"):
                model.check(sources)
        assert model._snapshots == {}

    def test_analytic_check_reads_the_attribute_without_calling_it(self):
        class Raising:
            kind = "raising"
            dim = 2

            def analytic_mgf(self, thetas):
                raise AssertionError("check evaluated a closed form")

        MgfModel(mode="analytic").check([Raising()])

    def test_analytic_batch_builds_no_hermitian_matrix(self, monkeypatch):
        src = ScaledFixed(matrix=HermitianMatrix([[2.0, 1j], [-1j, 1.0]]), law=Gamma(2.0, 1.5))
        built = []
        init = HermitianMatrix.__init__

        def counting_init(self, entries):
            built.append(1)
            init(self, entries)

        monkeypatch.setattr(HermitianMatrix, "__init__", counting_init)
        model = MgfModel(mode="analytic")
        for source in (src, SumModel(sources=(src,))):
            assert model.evaluate_many(source, np.geomspace(0.01, 100.0, 50)).shape == (50, 2, 2)
        assert built == []

    @pytest.mark.parametrize("theta", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize("mode", ["analytic", "empirical"])
    def test_rejects_theta_not_positive_and_finite(self, mode, theta):
        src = bernoulli_diagonal(dim=2, p=0.5, scale=1.0)
        model = MgfModel(mode=mode, n_samples=10)
        with pytest.raises(ValueError, match="theta must be positive"):
            model.evaluate_many(src, [1.0, theta])
        with pytest.raises(ValueError, match="theta must be positive"):
            model.evaluate(src, theta)

    def test_repeated_source_shares_one_snapshot(self):
        src = BoundedRankOne(dim=2, bound=1.0)
        model = MgfModel(mode="empirical", n_samples=64, seed=5)
        shared = [model.evaluate_many(s, [0.5, 2.0]) for s in (src, src)]
        assert np.array_equal(shared[0], shared[1])
        assert len(model._snapshots) == 1

    def test_trace_many_keeps_eight_bytes_per_eigenvalue(self):
        # 8 n d = 128 kB retained; the eigenvectors would add 1.02 MB.
        n, d = 4000, 4
        src = BoundedRankOne(dim=d, bound=1.0)
        model = MgfModel(mode="empirical", n_samples=n, seed=42)
        tracemalloc.start()
        try:
            model.trace_many(src, [1.0])
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        snap = model._snapshots[id(src)][1]
        assert snap.vectors is None
        assert snap.eigenvalues.nbytes == 8 * n * d
        assert retained < 8 * n * d + 16 * 1024

    @pytest.mark.parametrize("n_samples", [300, 4000])
    def test_a_trace_then_matrix_read_redraws_the_same_snapshot(self, n_samples):
        # a is read as a trace first, b as a matrix, then a as a matrix: a's
        # redraw keeps substream 0 and b keeps 1, as when a is read as a
        # matrix first.
        a, b = BoundedRankOne(dim=3, bound=1.0), Wishart(dim=3, dof=2)
        thetas = [0.5, 4.0, 30.0]
        model = MgfModel(mode="empirical", n_samples=n_samples, seed=44)
        traced = model.trace_many(a, thetas)
        b_later = model.evaluate_many(b, thetas)
        a_later = model.evaluate_many(a, thetas)
        fresh = MgfModel(mode="empirical", n_samples=n_samples, seed=44)
        assert_same_bits(a_later, fresh.evaluate_many(a, thetas))
        assert_same_bits(b_later, fresh.evaluate_many(b, thetas))
        np.testing.assert_array_equal(model.trace_many(a, thetas), traced)
        np.testing.assert_array_equal(fresh.trace_many(a, thetas), traced)
        assert model._snapshots[id(a)][1].vectors is not None
        assert [entry[2] for entry in model._snapshots.values()] == [0, 1]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            MgfModel(mode="symbolic")
        with pytest.raises(ValueError):
            MgfModel(mode="empirical", n_samples=0)


class TestSumSource:
    def test_analytic_mgf_only_for_single_source(self):
        one = SumModel(sources=(bernoulli_diagonal(dim=1, p=0.5, scale=1.0),))
        two = iid_model(lambda: bernoulli_diagonal(dim=1, p=0.5, scale=1.0), 2)
        assert one.analytic_mgf is not None
        assert two.analytic_mgf is None


class TestReproducibility:
    def test_identical_streams_bit_identical(self):
        src = BoundedRankOne(dim=3, bound=1.0)
        a = src.sample_batch(RngStream(42).child(5), 100)
        b = src.sample_batch(RngStream(42).child(5), 100)
        assert np.array_equal(a, b)

    def test_each_child_lookup_draws_the_bits_of_its_key(self):
        root = RngStream(1, (3,))
        want = RngStream(1, (3, 2)).generator.random(6)
        for _ in range(2):
            node = root.child(2)
            assert node.path == (3, 2)
            # A node is stateful: its successive draws continue its stream.
            got = np.concatenate([node.generator.random(3), node.generator.random(3)])
            assert np.array_equal(got, want)

    def test_a_root_keeps_none_of_its_children(self):
        root = RngStream(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(100_000):
                root.child(k)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Under one byte a child: a root that kept its children would hold
        # each node, its path and its index, some megabytes in all.
        assert held < 100_000

    def test_substream_rank_correlation_negligible(self):
        root = RngStream(2024)
        a = root.child(0).generator.random(10_000)
        b = root.child(1).generator.random(10_000)
        rho = scipy.stats.spearmanr(a, b).statistic
        assert abs(rho) < 0.02
