import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldev.ensembles import Bernoulli, ScaledFixed
from smalldev.errors import FloatRangeError, NotPositiveDefiniteError
from smalldev.linalg import (
    HermitianMatrix,
    is_psd,
    lambda_max,
    lambda_min,
    matrix_power,
    spectral_decompose,
)

from conftest import frobenius, random_hermitian, random_pd


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
        dec = spectral_decompose(HermitianMatrix.diagonal([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
        # eigenvectors of a diagonal matrix form a (signed) permutation
        assert np.allclose(np.sort(np.abs(dec.eigenvectors), axis=0)[-1], 1.0)
        assert np.allclose(np.abs(dec.eigenvectors).sum(axis=0), 1.0)

    def test_pauli_x(self):
        dec = spectral_decompose(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_roundtrip_random_d16(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(16, rng)
        dec = spectral_decompose(a)
        u, w = dec.eigenvectors, dec.eigenvalues
        rebuilt = (u * w) @ u.conj().T
        rel = frobenius(rebuilt - a.entries) / max(1.0, frobenius(a.entries))
        assert rel <= 1e-10
        assert np.abs(u.conj().T @ u - np.eye(16)).max() <= 1e-10
        assert (np.diff(w) >= 0).all()


class TestSpectralFunctions:
    def test_matrix_power_one_reproduces_input(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(5, rng)
        out = matrix_power(a, 1.0)
        assert np.abs(out.entries - a.entries).max() <= 1e-12

    def test_matrix_power_square_root_on_diagonal(self):
        out = matrix_power(HermitianMatrix.diagonal([1.0, 4.0]), 0.5)
        assert np.allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-12)

    def test_domain_error_names_eigenvalue(self):
        a = HermitianMatrix.diagonal([-1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError, match="-1"):
            matrix_power(a, 0.5)

    def test_fractional_power_matches_scipy_pd_d8(self):
        rng = np.random.default_rng(2)
        a = random_pd(8, rng)
        ref = scipy.linalg.fractional_matrix_power(a.entries, 0.5)
        rel = frobenius(matrix_power(a, 0.5).entries - ref) / frobenius(ref)
        assert rel <= 1e-9

    def test_negative_power_roundtrip_pd_d8(self):
        rng = np.random.default_rng(3)
        a = random_pd(8, rng)
        back = matrix_power(matrix_power(a, -0.5), -2.0)
        rel = frobenius(back.entries - a.entries) / frobenius(a.entries)
        assert rel <= 1e-9

    def test_matrix_power_identity_inverse(self):
        out = matrix_power(HermitianMatrix.identity(3), -1.0)
        assert np.allclose(out.entries, np.eye(3), atol=1e-14)

    def test_matrix_power_negative_half(self):
        out = matrix_power(HermitianMatrix.diagonal([4.0, 9.0]), -0.5)
        assert np.allclose(out.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_negative_power_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            matrix_power(HermitianMatrix.diagonal([1.0, 0.0]), -1.0)

    @pytest.mark.parametrize(
        "diagonal, s", [([1e308, 1.0], 2.0), ([1e-10, 1.0], -50.0)], ids=["square", "inverse"]
    )
    def test_power_past_the_float_range_raises_without_warning(self, diagonal, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatRangeError, match=r"A\^s with s="):
                matrix_power(HermitianMatrix.diagonal(diagonal), s)

    def test_fractional_power_clips_roundoff_negatives(self):
        a = HermitianMatrix.diagonal([1.0, -1e-14])
        out = matrix_power(a, 0.5)
        assert lambda_min(out) >= 0.0


class TestScalarReductions:
    def test_lambda_max_diagonal(self):
        assert lambda_max(HermitianMatrix.diagonal([1.0, 5.0, 2.0])) == 5.0

    def test_is_psd(self):
        assert is_psd(HermitianMatrix.diagonal([0.0, 1.0]))
        assert not is_psd(HermitianMatrix.diagonal([-1e-3, 1.0]))
        # The tolerance is 1e-10 * max(1, lambda_max).
        assert is_psd(HermitianMatrix.diagonal([-1e-11, 1.0]))
        assert not is_psd(HermitianMatrix.diagonal([-1e-9, 1.0]))
        assert is_psd(HermitianMatrix.diagonal([-1e-3, 1e8]))
        assert not is_psd(HermitianMatrix.diagonal([-1e-1, 1e8]))

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
        composed = matrix_power(HermitianMatrix(exp_neg(a, 0.5)), 2.0).entries
        scale = max(1.0, frobenius(direct))
        assert frobenius(direct - composed) / scale <= 1e-9

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_exp_is_pd(self, a):
        assert lambda_min(HermitianMatrix(exp_neg(a, 1.0))) > 0.0

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_trace_of_exp_matches_eigenvalue_sum(self, a):
        w = spectral_decompose(a).eigenvalues
        tr = np.trace(exp_neg(a, 1.0)).real
        assert tr == pytest.approx(np.exp(w[0] - w).sum(), rel=1e-9, abs=1e-9)

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_negation_swaps_extremes(self, a):
        assert abs(lambda_max(a.scaled(-1.0)) + lambda_min(a)) <= 1e-12
