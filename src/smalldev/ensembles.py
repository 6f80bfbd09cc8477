"""Random psd matrix sources, the independent-sum model, and matrix mgf
evaluators.

Sources and models are immutable descriptions; all sampling state lives in
caller-owned RngStream nodes.  Every source draws matrices that are psd
(up to roundoff) and supports batch sampling, which is what keeps the
Monte Carlo harness fast.  The matrix mgf here is the decreasing-direction
one, E exp(-theta X) for theta > 0, whose eigenvalues lie in (0, 1] for
psd X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MgfUnavailableError
from .linalg import HermitianMatrix, is_psd, lambda_max, spectral_decompose
from .rng import RngStream

__all__ = [
    "Exponential",
    "Gamma",
    "Bernoulli",
    "Uniform",
    "ScaledFixed",
    "bernoulli_diagonal",
    "BoundedRankOne",
    "Wishart",
    "SumSource",
    "SumModel",
    "MgfModel",
    "sample_sum_batch",
    "empirical_mgf",
]

# Substream purpose index for mgf snapshot sampling; Monte Carlo estimation
# uses purpose 0 (see montecarlo).  Distinct purposes keep mgf snapshots and
# simulation draws independent under one experiment seed.
_MGF_PURPOSE = 1

DEFAULT_MGF_SAMPLES = 10_000


def _complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normal array: Re and Im i.i.d. N(0, 1/2), so that
    E g g* = I for a vector g."""
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(0.5)


# ---------------------------------------------------------------------------
# Scalar laws on [0, inf)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential law with the given rate; mgf rate/(rate+theta)."""

    rate: float
    kind = "exponential"

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("exponential rate must be positive and finite")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def upper_bound(self) -> float | None:
        return None

    @property
    def envelope(self) -> tuple[float, float] | None:
        # rate/(rate+theta) <= rate/theta
        return (self.rate, 1.0)

    def mgf(self, t):
        return self.rate / (self.rate + np.asarray(t, dtype=float))

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.exponential(scale=1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Gamma:
    """Gamma law with shape and rate; mgf (rate/(rate+theta))**shape."""

    shape: float
    rate: float
    kind = "gamma"

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ValueError("gamma shape and rate must be positive and finite")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def upper_bound(self) -> float | None:
        return None

    @property
    def envelope(self) -> tuple[float, float] | None:
        # (rate/(rate+theta))**shape <= (rate/theta)**shape
        return (self.rate**self.shape, self.shape)

    def mgf(self, t):
        return (self.rate / (self.rate + np.asarray(t, dtype=float))) ** self.shape

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.gamma(self.shape, scale=1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Bernoulli:
    """Bernoulli law on {0, 1}; mgf (1-p) + p*exp(-theta)."""

    p: float
    kind = "bernoulli"

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("bernoulli p must lie in [0, 1]")

    @property
    def mean(self) -> float:
        return self.p

    @property
    def upper_bound(self) -> float | None:
        return 1.0

    @property
    def envelope(self) -> tuple[float, float] | None:
        # mgf tends to 1-p > 0 as theta grows, so no power envelope.
        return None

    def mgf(self, t):
        return (1.0 - self.p) + self.p * np.exp(-np.asarray(t, dtype=float))

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return (gen.random(size) < self.p).astype(float)


@dataclass(frozen=True)
class Uniform:
    """Uniform law on [0, high]; mgf (1 - exp(-theta*high)) / (theta*high)."""

    high: float
    kind = "uniform"

    def __post_init__(self):
        if not 0 < self.high < math.inf:
            raise ValueError("uniform upper endpoint must be positive and finite")

    @property
    def mean(self) -> float:
        return self.high / 2.0

    @property
    def upper_bound(self) -> float | None:
        return self.high

    @property
    def envelope(self) -> tuple[float, float] | None:
        # (1 - exp(-theta*high)) / (theta*high) <= (1/high) / theta
        return (1.0 / self.high, 1.0)

    def mgf(self, t):
        tb = np.asarray(t, dtype=float) * self.high
        small = tb < 1e-8
        safe = np.where(small, 1.0, tb)
        out = np.where(small, 1.0 - tb / 2.0, -np.expm1(-safe) / safe)
        return out if out.ndim else float(out)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.random(size) * self.high


ScalarLaw = Exponential | Gamma | Bernoulli | Uniform


# ---------------------------------------------------------------------------
# Matrix sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledFixed:
    """X = x * A for a fixed psd matrix A and a nonnegative scalar law."""

    matrix: HermitianMatrix
    law: ScalarLaw
    kind = "scaled_fixed"

    def __post_init__(self):
        if not is_psd(self.matrix, tol=1e-10):
            raise ValueError("scaled_fixed requires a psd matrix")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @cached_property
    def _decomposition(self):
        return spectral_decompose(self.matrix)

    def mean(self) -> HermitianMatrix | None:
        return self.matrix.scaled(self.law.mean)

    def uniform_bound(self) -> float | None:
        b = self.law.upper_bound
        if b is None:
            return None
        return b * lambda_max(self.matrix)

    def sample_batch(self, stream: RngStream, size: int) -> np.ndarray:
        xs = self.law.sample(stream.generator, size)
        return xs[:, None, None] * self.matrix.entries[None, :, :]

    def analytic_mgf(self, theta: float) -> HermitianMatrix | None:
        dec = self._decomposition
        vals = np.asarray(self.law.mgf(theta * dec.eigenvalues), dtype=float)
        u = dec.eigenvectors
        return HermitianMatrix((u * vals) @ u.conj().T)


def bernoulli_diagonal(dim: int, p: float, scale: float) -> ScaledFixed:
    """X = b * scale * I with b ~ Bernoulli(p), as a ScaledFixed."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    return ScaledFixed(HermitianMatrix.identity(dim).scaled(scale), Bernoulli(p))


@dataclass(frozen=True)
class BoundedRankOne:
    """X = bound * u * w w* with w uniform on the complex unit sphere and
    u ~ Uniform[0, 1], so that E X = (bound / 2 dim) * I and
    lambda_max(X) <= bound almost surely."""

    dim: int
    bound: float
    kind = "bounded_rank_one"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not 0 < self.bound < math.inf:
            raise ValueError("bound must be positive and finite")

    def mean(self) -> HermitianMatrix | None:
        return HermitianMatrix.identity(self.dim).scaled(
            self.bound / (2.0 * self.dim)
        )

    def uniform_bound(self) -> float | None:
        return self.bound

    def sample_batch(self, stream: RngStream, size: int) -> np.ndarray:
        gen = stream.generator
        g = _complex_normal(gen, (size, self.dim))
        w = g / np.linalg.norm(g, axis=1, keepdims=True)
        u = gen.random(size)
        return np.einsum("s,si,sj->sij", self.bound * u, w, w.conj())

    def analytic_mgf(self, theta: float) -> HermitianMatrix | None:
        return None


@dataclass(frozen=True)
class Wishart:
    """X = (1/dof) * sum_j g_j g_j* over dof standard complex Gaussian
    vectors, so that E X = I."""

    dim: int
    dof: int
    kind = "wishart"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.dof < 1:
            raise ValueError("dof must be at least 1")

    def mean(self) -> HermitianMatrix | None:
        return HermitianMatrix.identity(self.dim)

    def uniform_bound(self) -> float | None:
        return None

    def sample_batch(self, stream: RngStream, size: int) -> np.ndarray:
        g = _complex_normal(stream.generator, (size, self.dof, self.dim))
        return np.einsum("sni,snj->sij", g, g.conj()) / self.dof

    def analytic_mgf(self, theta: float) -> HermitianMatrix | None:
        return None


MatrixSource = ScaledFixed | BoundedRankOne | Wishart


# ---------------------------------------------------------------------------
# Sum model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumModel:
    """Ordered list of independent matrix sources with equal dimension."""

    sources: tuple

    def __post_init__(self):
        sources = tuple(self.sources)
        object.__setattr__(self, "sources", sources)
        if len(sources) < 1:
            raise ValueError("a sum model needs at least one source")
        dims = {s.dim for s in sources}
        if len(dims) != 1:
            raise ValueError(f"all sources must share one dimension, got {dims}")

    @property
    def dim(self) -> int:
        return self.sources[0].dim

    @property
    def size(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class SumSource:
    """View of a whole SumModel as a single random matrix, so the
    one-matrix machinery (single-matrix bound, empirical mgf) applies to
    the sum itself."""

    model: SumModel
    kind = "sum"

    @property
    def dim(self) -> int:
        return self.model.dim

    def sample_batch(self, stream: RngStream, size: int) -> np.ndarray:
        return sample_sum_batch(self.model, stream, size)

    def analytic_mgf(self, theta: float) -> HermitianMatrix | None:
        if self.model.size == 1:
            return self.model.sources[0].analytic_mgf(theta)
        return None


# ---------------------------------------------------------------------------
# Sampling operations
# ---------------------------------------------------------------------------


def sample_sum_batch(model: SumModel, stream: RngStream, size: int) -> np.ndarray:
    """Batch of draws of the sum; source k draws from substream k."""
    total = None
    for k, src in enumerate(model.sources):
        batch = src.sample_batch(stream.child(k), size)
        total = batch if total is None else total + batch
    return total


# ---------------------------------------------------------------------------
# Matrix mgf evaluation
# ---------------------------------------------------------------------------


def empirical_mgf(source, theta: float, n: int, stream: RngStream) -> HermitianMatrix:
    """Monte Carlo estimate (1/n) sum_j exp(-theta X_j) over fresh draws."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    return _Snapshot(source.sample_batch(stream, n)).evaluate(theta)


class _Snapshot:
    """Frozen sample set for one source, stored eigendecomposed so that the
    mgf can be re-evaluated cheaply at many theta values.

    The n*d eigenpairs (w_j, v_j) are kept flat: eigenvalues as an (n*d,)
    vector and eigenvectors as the columns of one real (2d, n*d) array
    X = [Re V; Im V].  Then sum_j e^(-theta w_j) v_j v_j* is a single real
    GEMM, G = (X * e^(-theta w)) X^T, folded back as
    G11 + G22 + i (G21 - G12).
    """

    __slots__ = ("eigenvalues", "basis", "n", "_memo")

    def __init__(self, samples: np.ndarray) -> None:
        w, v = np.linalg.eigh(samples)
        n, d = w.shape
        self.n = n
        self.eigenvalues = w.reshape(n * d)
        # Column s*d + j of X is eigenvector j of sample s.
        self.basis = np.empty((2 * d, n * d))
        self.basis[:d].reshape(d, n, d)[...] = v.real.transpose(1, 0, 2)
        self.basis[d:].reshape(d, n, d)[...] = v.imag.transpose(1, 0, 2)
        self._memo: dict[float, HermitianMatrix] = {}

    def evaluate(self, theta: float) -> HermitianMatrix:
        out = self._memo.get(theta)
        if out is None:
            x = self.basis
            g = (x * np.exp(-theta * self.eigenvalues)) @ x.T
            d = x.shape[0] // 2
            m = g[:d, :d] + g[d:, d:] + 1j * (g[d:, :d] - g[:d, d:])
            out = HermitianMatrix(m / self.n)
            self._memo[theta] = out
        return out


class MgfModel:
    """Evaluator of E exp(-theta X) per source, analytic or empirical.

    In empirical mode each source gets one fixed sample snapshot, drawn on
    first use from a substream keyed by (seed, snapshot index) and reused
    for every subsequent theta.  Reusing one sample set keeps the 1-D
    objectives smooth in theta; resampling per probe would destabilize the
    infimum search.
    """

    def __init__(
        self,
        mode: str = "analytic",
        n_samples: int = DEFAULT_MGF_SAMPLES,
        seed: int = 0,
    ) -> None:
        if mode not in ("analytic", "empirical"):
            raise ValueError(f"unknown mgf mode {mode!r}")
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self.mode = mode
        self.n_samples = int(n_samples)
        self._stream = RngStream(seed).child(_MGF_PURPOSE)
        # Keyed by id(source), with the source held alongside its snapshot:
        # a freed source's id could otherwise be reused by a new source,
        # which would then read the stale snapshot.  Equal sources keep
        # separate snapshots, because i.i.d. copies are independent draws.
        self._snapshots: dict[int, tuple[object, _Snapshot]] = {}

    def snapshot_bytes(self, dim: int) -> int:
        """Peak memory of drawing one empirical snapshot at this dimension:
        the (n, d, d) complex draws, their eigenvectors and the real
        (2d, n*d) basis, 16 n d^2 bytes each."""
        return 48 * self.n_samples * dim * dim

    def evaluate(self, source, theta: float) -> HermitianMatrix:
        if theta <= 0:
            raise ValueError("theta must be positive")
        if self.mode == "analytic":
            out = source.analytic_mgf(theta)
            if out is None:
                raise MgfUnavailableError(
                    f"no closed-form mgf for source kind {source.kind!r}; "
                    "use empirical mode"
                )
            return out
        entry = self._snapshots.get(id(source))
        if entry is None:
            substream = self._stream.child(len(self._snapshots))
            entry = (source, _Snapshot(source.sample_batch(substream, self.n_samples)))
            self._snapshots[id(source)] = entry
        return entry[1].evaluate(theta)
