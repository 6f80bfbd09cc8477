"""Dense Hermitian linear algebra: the immutable HermitianMatrix, its
spectral decomposition and its extreme eigenvalues.

Every matrix here is a complex Hermitian d x d matrix of modest size, so
everything is dense and eigendecomposition based, through the
Hermitian-specific LAPACK drivers behind ``numpy.linalg.eigh`` and
``eigvalsh``.  The matrix mgfs and logs of the bounds are evaluated on
whole theta batches by the kernels in ensembles and bounds, not here.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenConvergenceError

__all__ = [
    "HermitianMatrix",
    "spectral_decompose",
    "lambda_max",
    "lambda_min",
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


def spectral_decompose(a: HermitianMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix: the read-only pair (w, U) with
    A = U diag(w) U*, the eigenvalues w ascending and the eigenvectors the
    columns of the unitary U."""
    try:
        w, u = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"Hermitian eigensolver failed to converge for dim {a.dim}: {exc}"
        ) from exc
    w = np.asarray(w, dtype=float)
    w.setflags(write=False)
    u.setflags(write=False)
    return w, u


def lambda_max(a: HermitianMatrix) -> float:
    return float(np.linalg.eigvalsh(a.entries)[-1])


def lambda_min(a: HermitianMatrix) -> float:
    return float(np.linalg.eigvalsh(a.entries)[0])
