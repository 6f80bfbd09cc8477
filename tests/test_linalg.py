import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldev.ensembles import Bernoulli, ScaledFixed
from smalldev.linalg import HermitianMatrix, lambda_max, lambda_min, spectral_decompose

from conftest import frobenius, random_hermitian


class TestHermitianMatrix:
    def test_symmetrizes_input(self):
        a = np.array([[1.0, 2.0 + 1e-13j], [2.0 - 3e-13j, 4.0]])
        h = HermitianMatrix(a)
        assert np.abs(h.entries - h.entries.conj().T).max() == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix(np.array([[1.0, bad], [0.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_symmetrizes_entries_near_the_float_limit(self):
        a = np.array([[1.0e308, 1.5e308], [1.7e308, 1.6e308]])
        h = HermitianMatrix(a)
        assert np.array_equal(h.entries, [[1.0e308, 1.6e308], [1.6e308, 1.6e308]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "a, c",
        [
            (HermitianMatrix.diagonal([1.0e308, 1.0]), -10.0),
            (HermitianMatrix(np.array([[0.0, 1.0e308j], [-1.0e308j, 0.0]])), 10.0),
            (HermitianMatrix.diagonal([1.0e308, 1.0]), 10.0),
        ],
        ids=["negative", "complex", "scaled"],
    )
    def test_arithmetic_past_the_float_range_raises_without_warning(self, a, c):
        with pytest.raises(ValueError, match="finite"):
            a.scaled(c)

    def test_symmetrizes_normal_floats_to_the_bits_of_the_mean(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.array_equal(HermitianMatrix(a).entries, (a + a.conj().T) / 2.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_immutable(self):
        h = HermitianMatrix.identity(2)
        with pytest.raises((ValueError, AttributeError)):
            h.entries[0, 0] = 5.0

    def test_dim_one_allowed(self):
        assert HermitianMatrix([[2.0]]).dim == 1


class TestSpectralDecompose:
    def test_diagonal_input(self):
        w, u = spectral_decompose(HermitianMatrix.diagonal([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        # eigenvectors of a diagonal matrix form a (signed) permutation
        assert np.allclose(np.sort(np.abs(u), axis=0)[-1], 1.0)
        assert np.allclose(np.abs(u).sum(axis=0), 1.0)

    def test_pauli_x(self):
        w, _ = spectral_decompose(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_pair_is_read_only(self):
        w, u = spectral_decompose(HermitianMatrix.diagonal([1.0, 2.0]))
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            u[0, 0] = 0.0

    def test_roundtrip_random_d16(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(16, rng)
        w, u = spectral_decompose(a)
        rebuilt = (u * w) @ u.conj().T
        rel = frobenius(rebuilt - a.entries) / max(1.0, frobenius(a.entries))
        assert rel <= 1e-10
        assert np.abs(u.conj().T @ u - np.eye(16)).max() <= 1e-10
        assert (np.diff(w) >= 0).all()


class TestScalarReductions:
    def test_lambda_max_diagonal(self):
        assert lambda_max(HermitianMatrix.diagonal([1.0, 5.0, 2.0])) == 5.0

    def test_lambda_max_inertia_certificate(self):
        # Independent certificate via Sylvester inertia of A - x I computed
        # from an LDL^* factorization: the eigenvalue count above x must
        # drop to zero just above the claimed maximum and stay positive
        # just below it.
        rng = np.random.default_rng(11)
        a = random_hermitian(8, rng)
        lam = lambda_max(a)

        def count_above(x):
            _, d, _ = scipy.linalg.ldl(a.entries - x * np.eye(8), hermitian=True)
            pos = 0
            i = 0
            while i < 8:
                if i + 1 < 8 and abs(d[i, i + 1]) > 0:
                    blk_det = (d[i, i] * d[i + 1, i + 1] - abs(d[i, i + 1]) ** 2).real
                    blk_tr = (d[i, i] + d[i + 1, i + 1]).real
                    if blk_det < 0:
                        pos += 1
                    elif blk_tr > 0:
                        pos += 2
                    i += 2
                else:
                    if d[i, i].real > 0:
                        pos += 1
                    i += 1
            return pos

        assert count_above(lam + 1e-6) == 0
        assert count_above(lam - 1e-6) >= 1

    def test_lambda_max_dominates_rayleigh_quotients(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(8, rng)
        lam = lambda_max(a)
        v = rng.standard_normal((10_000, 8)) + 1j * rng.standard_normal((10_000, 8))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        rayleigh = np.einsum("ni,ij,nj->n", v.conj(), a.entries, v).real
        assert rayleigh.max() <= lam + 1e-12


@st.composite
def hermitian_matrices(draw, max_dim=6):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    elems = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    re = draw(st.lists(st.lists(elems, min_size=d, max_size=d), min_size=d, max_size=d))
    im = draw(st.lists(st.lists(elems, min_size=d, max_size=d), min_size=d, max_size=d))
    return HermitianMatrix(np.array(re) + 1j * np.array(im))


def exp_neg(a: HermitianMatrix, theta: float) -> np.ndarray:
    """exp(-theta B) for B = A - lambda_min(A) I, through the analytic mgf
    kernel the bounds run; the shift makes B psd, as ScaledFixed requires."""
    b = HermitianMatrix(a.entries - lambda_min(a) * np.eye(a.dim))
    return ScaledFixed(matrix=b, law=Bernoulli(1.0)).analytic_mgf([theta])[0]


class TestSpectralProperties:
    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_spectral_mapping_composition(self, a):
        direct = exp_neg(a, 1.0)
        half = exp_neg(a, 0.5)
        composed = half @ half
        scale = max(1.0, frobenius(direct))
        assert frobenius(direct - composed) / scale <= 1e-9

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_exp_is_pd(self, a):
        assert lambda_min(HermitianMatrix(exp_neg(a, 1.0))) > 0.0

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_trace_of_exp_matches_eigenvalue_sum(self, a):
        w, _ = spectral_decompose(a)
        tr = np.trace(exp_neg(a, 1.0)).real
        assert tr == pytest.approx(np.exp(w[0] - w).sum(), rel=1e-9, abs=1e-9)

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_negation_swaps_extremes(self, a):
        assert abs(lambda_max(a.scaled(-1.0)) + lambda_min(a)) <= 1e-12
