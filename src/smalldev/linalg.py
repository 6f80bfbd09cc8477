"""Dense Hermitian linear algebra: the immutable HermitianMatrix, its
spectral decomposition, real matrix powers and extreme eigenvalues.

Every matrix here is a complex Hermitian d x d matrix of modest size, so
everything is dense and eigendecomposition based, through the
Hermitian-specific LAPACK drivers behind ``numpy.linalg.eigh`` and
``eigvalsh``.  The matrix mgfs and logs of the bounds are evaluated on
whole theta batches by the kernels in ensembles and bounds, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenConvergenceError, FloatRangeError, NotPositiveDefiniteError

__all__ = [
    "HermitianMatrix",
    "SpectralDecomposition",
    "spectral_decompose",
    "matrix_power",
    "lambda_max",
    "lambda_min",
    "is_psd",
]


class HermitianMatrix:
    """Immutable dense d x d complex Hermitian matrix.

    The constructor symmetrizes its input, A <- A/2 + A*/2, rather than
    rejecting near-Hermitian matrices: accumulating Monte Carlo samples
    introduces 1-ulp asymmetries that would otherwise be fatal.  Halving
    first cannot overflow, and for normal floats it gives the bits of
    (A + A*)/2.  Non-finite entries are rejected.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        arr = np.asarray(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        half = arr / 2.0
        arr = half + half.conj().T
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, d: int) -> "HermitianMatrix":
        return cls(np.eye(d))

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def scaled(self, c: float) -> "HermitianMatrix":
        """c * A.  A product that leaves the float range gives inf or nan
        entries, which the constructor rejects with a ValueError; numpy's
        warning is silenced."""
        with np.errstate(over="ignore", invalid="ignore"):
            return HermitianMatrix(self.entries * float(c))

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition A = U diag(eigenvalues) U* with eigenvalues
    sorted ascending and eigenvectors as the columns of a unitary U."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_decompose(a: HermitianMatrix) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix; eigenvalues ascending."""
    try:
        w, u = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"Hermitian eigensolver failed to converge for dim {a.dim}: {exc}"
        ) from exc
    w = np.asarray(w, dtype=float)
    w.setflags(write=False)
    u.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def matrix_power(a: HermitianMatrix, s: float) -> HermitianMatrix:
    """Real matrix power A^s via spectral mapping.

    Negative s requires a positive definite A: eigenvalues above the floor
    1e-12 * max(1, lambda_max), which guards against roundoff-negative
    eigenvalues.  Fractional nonnegative s tolerates roundoff-negative
    eigenvalues within the floor by clipping them to zero.  Raises
    FloatRangeError when A^s leaves the float range.
    """
    dec = spectral_decompose(a)
    w = dec.eigenvalues
    floor = 1e-12 * max(1.0, float(w[-1]))
    s = float(s)
    if s < 0 and float(w[0]) <= floor:
        raise NotPositiveDefiniteError(
            f"matrix_power with s={s} requires eigenvalues > {floor:.3e}, "
            f"found {float(w[0]):.6e}"
        )
    if s != int(s):
        if float(w[0]) < -floor:
            raise NotPositiveDefiniteError(
                f"matrix_power with fractional s={s} requires psd input, "
                f"found eigenvalue {float(w[0]):.6e}"
            )
        w = np.clip(w, 0.0, None)
    u = dec.eigenvectors
    # A power past the float range is inf, and the reassembly inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        entries = (u * w**s) @ u.conj().T
    if not np.isfinite(entries).all():
        raise FloatRangeError(f"the matrix power A^s with s={s} is outside the float range")
    return HermitianMatrix(entries)


def lambda_max(a: HermitianMatrix) -> float:
    return float(np.linalg.eigvalsh(a.entries)[-1])


def lambda_min(a: HermitianMatrix) -> float:
    return float(np.linalg.eigvalsh(a.entries)[0])


def is_psd(a: HermitianMatrix, tol: float = 1e-10) -> bool:
    """lambda_min >= -tol * max(1, lambda_max): psd up to roundoff at the
    matrix's own scale, where an eigensolver leaves the zero eigenvalues of
    a singular psd matrix at about -1e-16 * lambda_max."""
    w = np.linalg.eigvalsh(a.entries)
    return float(w[0]) >= -tol * max(1.0, float(w[-1]))
