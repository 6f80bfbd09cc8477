import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from smalldev.errors import MatrixDomainError, NotPositiveDefiniteError
from smalldev.linalg import (
    HermitianMatrix,
    expm,
    hermitian_dilation,
    is_psd,
    lambda_max,
    lambda_min,
    logm,
    matrix_function,
    matrix_power,
    spectral_decompose,
    trace,
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
        "op",
        [lambda a: a + a, lambda a: a - a.scaled(-1.0), lambda a: a.scaled(10.0)],
        ids=["add", "sub", "scaled"],
    )
    def test_arithmetic_past_the_float_range_raises_without_warning(self, op):
        with pytest.raises(ValueError, match="finite"):
            op(HermitianMatrix.diagonal([1.0e308, 1.0]))

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


class TestMatrixFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(5, rng)
        out = matrix_function(a, lambda x: x)
        assert np.abs(out.entries - a.entries).max() <= 1e-12

    def test_exp_on_diagonal(self):
        a = HermitianMatrix.diagonal([0.0, math.log(2.0)])
        out = matrix_function(a, math.exp)
        assert np.allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-12)

    def test_domain_error_names_eigenvalue(self):
        a = HermitianMatrix.diagonal([-1.0, 1.0])
        with pytest.raises(MatrixDomainError, match="-1"):
            matrix_function(a, math.log)

    def test_expm_logm_roundtrip_pd_d8(self):
        rng = np.random.default_rng(2)
        a = random_pd(8, rng)
        back = expm(logm(a))
        rel = frobenius(back.entries - a.entries) / frobenius(a.entries)
        assert rel <= 1e-9


class TestSpectralFunctions:
    def test_matrix_power_identity_inverse(self):
        out = matrix_power(HermitianMatrix.identity(3), -1.0)
        assert np.allclose(out.entries, np.eye(3), atol=1e-14)

    def test_matrix_power_negative_half(self):
        out = matrix_power(HermitianMatrix.diagonal([4.0, 9.0]), -0.5)
        assert np.allclose(out.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_logm_expm_roundtrip_hermitian_d8(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(8, rng)
        back = logm(expm(h))
        rel = frobenius(back.entries - h.entries) / max(1.0, frobenius(h.entries))
        assert rel <= 1e-9

    def test_logm_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            logm(HermitianMatrix.diagonal([1.0, 0.0]))

    def test_negative_power_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            matrix_power(HermitianMatrix.diagonal([1.0, 0.0]), -1.0)

    def test_fractional_power_clips_roundoff_negatives(self):
        a = HermitianMatrix.diagonal([1.0, -1e-14])
        out = matrix_power(a, 0.5)
        assert lambda_min(out) >= 0.0


class TestScalarReductions:
    def test_lambda_max_diagonal(self):
        assert lambda_max(HermitianMatrix.diagonal([1.0, 5.0, 2.0])) == 5.0

    def test_trace_identity(self):
        for d in (1, 3, 7):
            assert trace(HermitianMatrix.identity(d)) == pytest.approx(d, abs=1e-12)

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


class TestHermitianDilation:
    def test_scalar(self):
        out = hermitian_dilation([[1.0]])
        assert np.allclose(out.entries, [[0, 1], [1, 0]])
        assert lambda_max(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        out = hermitian_dilation(np.zeros((2, 3)))
        assert np.abs(out.entries).max() == 0.0
        assert lambda_max(out) == pytest.approx(0.0, abs=1e-12)

    def test_largest_singular_value_via_gram_matrix(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        smax = math.sqrt(np.linalg.eigvalsh(b.conj().T @ b)[-1])
        assert abs(lambda_max(hermitian_dilation(b)) - smax) <= 1e-9


@st.composite
def hermitian_matrices(draw, max_dim=6):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    elems = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    re = draw(st.lists(st.lists(elems, min_size=d, max_size=d), min_size=d, max_size=d))
    im = draw(st.lists(st.lists(elems, min_size=d, max_size=d), min_size=d, max_size=d))
    return HermitianMatrix(np.array(re) + 1j * np.array(im))


class TestSpectralProperties:
    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_spectral_mapping_composition(self, a):
        halved = matrix_function(a, lambda x: 0.5 * x)
        direct = matrix_function(a, lambda x: math.exp(0.5 * x))
        composed = matrix_function(halved, math.exp)
        scale = max(1.0, frobenius(direct.entries))
        assert frobenius(direct.entries - composed.entries) / scale <= 1e-9

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_expm_is_pd(self, a):
        assert lambda_min(expm(a)) > 0.0

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_trace_of_expm_matches_eigenvalue_sum(self, a):
        w = spectral_decompose(a).eigenvalues
        assert trace(expm(a)) == pytest.approx(np.exp(w).sum(), rel=1e-9, abs=1e-9)

    @given(hermitian_matrices())
    @settings(max_examples=60, deadline=None)
    def test_negation_swaps_extremes(self, a):
        assert abs(lambda_max(-a) + lambda_min(a)) <= 1e-12
