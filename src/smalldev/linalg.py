"""Dense Hermitian linear algebra: spectral decomposition and
spectral-mapping matrix functions.

All matrix-valued quantities in this package are complex Hermitian and
desk-scale (d <= 512), so everything here is dense and eigendecomposition
based.  The eigensolver is the Hermitian-specific LAPACK driver behind
``numpy.linalg.eigh``; general nonsymmetric eigenproblems are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EigenConvergenceError, MatrixDomainError, NotPositiveDefiniteError

__all__ = [
    "HermitianMatrix",
    "SpectralDecomposition",
    "spectral_decompose",
    "matrix_function",
    "expm",
    "logm",
    "matrix_power",
    "lambda_max",
    "lambda_min",
    "trace",
    "is_psd",
    "hermitian_dilation",
    "pd_floor",
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
    def zeros(cls, d: int) -> "HermitianMatrix":
        return cls(np.zeros((d, d)))

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    # Arithmetic that leaves the float range gives inf or nan entries, which
    # the constructor rejects with a ValueError; numpy's warning is silenced.

    def scaled(self, c: float) -> "HermitianMatrix":
        with np.errstate(over="ignore", invalid="ignore"):
            return HermitianMatrix(self.entries * float(c))

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        with np.errstate(over="ignore", invalid="ignore"):
            return HermitianMatrix(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        with np.errstate(over="ignore", invalid="ignore"):
            return HermitianMatrix(self.entries - other.entries)

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix(-self.entries)

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


def _reassemble(w: np.ndarray, u: np.ndarray) -> HermitianMatrix:
    return HermitianMatrix((u * w) @ u.conj().T)


def matrix_function(a: HermitianMatrix, f: Callable[[float], float]) -> HermitianMatrix:
    """Apply a scalar real function to a Hermitian matrix through its
    eigendecomposition: U diag(f(lambda_i)) U*.

    Raises MatrixDomainError if f is undefined or non-finite at any
    eigenvalue, naming the offending eigenvalue.
    """
    dec = spectral_decompose(a)
    vals = np.empty(a.dim, dtype=float)
    for i, lam in enumerate(dec.eigenvalues):
        try:
            y = float(f(lam))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise MatrixDomainError(
                f"function undefined at eigenvalue {lam!r}: {exc}"
            ) from exc
        if not np.isfinite(y):
            raise MatrixDomainError(
                f"function returned non-finite value {y!r} at eigenvalue {lam!r}"
            )
        vals[i] = y
    return _reassemble(vals, dec.eigenvectors)


def pd_floor(eigenvalues: np.ndarray) -> float:
    """Positive-definiteness floor 1e-12 * max(1, lambda_max).

    Eigenvalues at or below this are treated as non-positive by logm and
    negative matrix powers, guarding against roundoff-negative eigenvalues.
    """
    return 1e-12 * max(1.0, float(np.max(eigenvalues)))


def expm(a: HermitianMatrix) -> HermitianMatrix:
    """Matrix exponential via spectral mapping; output is always pd."""
    dec = spectral_decompose(a)
    return _reassemble(np.exp(dec.eigenvalues), dec.eigenvectors)


def logm(a: HermitianMatrix) -> HermitianMatrix:
    """Matrix logarithm of a positive definite Hermitian matrix."""
    dec = spectral_decompose(a)
    floor = pd_floor(dec.eigenvalues)
    lam_min = float(dec.eigenvalues[0])
    if lam_min <= floor:
        raise NotPositiveDefiniteError(
            f"logm requires eigenvalues > {floor:.3e}, found {lam_min:.6e}"
        )
    return _reassemble(np.log(dec.eigenvalues), dec.eigenvectors)


def matrix_power(a: HermitianMatrix, s: float) -> HermitianMatrix:
    """Real matrix power A^s via spectral mapping.

    Negative s requires a positive definite A (eigenvalues above the pd
    floor).  Fractional nonnegative s tolerates roundoff-negative
    eigenvalues within the floor by clipping them to zero.
    """
    dec = spectral_decompose(a)
    w = dec.eigenvalues
    floor = pd_floor(w)
    s = float(s)
    if s < 0:
        if float(w[0]) <= floor:
            raise NotPositiveDefiniteError(
                f"matrix_power with s={s} requires eigenvalues > {floor:.3e}, "
                f"found {float(w[0]):.6e}"
            )
        vals = w**s
    elif s != int(s):
        if float(w[0]) < -floor:
            raise NotPositiveDefiniteError(
                f"matrix_power with fractional s={s} requires psd input, "
                f"found eigenvalue {float(w[0]):.6e}"
            )
        vals = np.clip(w, 0.0, None) ** s
    else:
        vals = w**s
    return _reassemble(vals, dec.eigenvectors)


def lambda_max(a: HermitianMatrix) -> float:
    return float(np.linalg.eigvalsh(a.entries)[-1])


def lambda_min(a: HermitianMatrix) -> float:
    return float(np.linalg.eigvalsh(a.entries)[0])


def trace(a: HermitianMatrix) -> float:
    return float(np.trace(a.entries).real)


def is_psd(a: HermitianMatrix, tol: float = 1e-10) -> bool:
    """lambda_min >= -tol * max(1, lambda_max): psd up to roundoff at the
    matrix's own scale, where an eigensolver leaves the zero eigenvalues of
    a singular psd matrix at about -1e-16 * lambda_max."""
    w = np.linalg.eigvalsh(a.entries)
    return float(w[0]) >= -tol * max(1.0, float(w[-1]))


def hermitian_dilation(b) -> HermitianMatrix:
    """Hermitian dilation [[0, B], [B*, 0]] of a general complex p x q
    matrix; its largest eigenvalue equals the largest singular value of B."""
    mat = np.atleast_2d(np.asarray(b, dtype=np.complex128))
    p, q = mat.shape
    out = np.zeros((p + q, p + q), dtype=np.complex128)
    out[:p, p:] = mat
    out[p:, :p] = mat.conj().T
    return HermitianMatrix(out)
