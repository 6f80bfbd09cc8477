"""Random psd matrix sources, the independent-sum model, and matrix mgf
evaluators.

Sources and models are immutable descriptions; all sampling state lives in
caller-owned RngStream nodes.  Every source draws matrices that are psd
(up to roundoff) with sample_batch(stream, size, out=None), built one
block of draws at a time (_build), either into a fresh array or added
into `out`.  scaled_fixed draws the scalars x of a batch, then builds
x A.  bounded_rank_one takes it in two steps: draw(stream, size) takes
all the random numbers of a batch from the stream, in one fixed order,
and build(draws, out=None) makes their (size, d, d) matrices.  A wishart
streams its Gaussians: it draws the real parts of the batch whole, as
the stream order requires, and each block's imaginary parts just before
it builds that block, so it holds half of its complex factor and one
block.  A sum adds each position's draws into one running sum, so it
never holds a full-size array per position.

For Monte Carlo, sample_sum_batch draws a chunk, screens it on the
diagonal of the sum and builds the sums of the draws the screen leaves
open, all in one call.  bounded_rank_one gives the diagonal of its draws
without building a matrix, so a sum of bounded_rank_one sources alone is
drawn position by position, its diagonals added up as it goes, and only
the random numbers of the draws still open are kept.  Every other sum is
built whole first, which holds about 1.6 sums, and the screen moves its
open rows to its front in place.  A scaled_fixed draw is one scalar and
its matrix one product by A, so screening it first does not pay: on the
bundled configs, building whole cost about the same or less.  A wishart
diagonal is cheap too, (1/dof) sum_j |g_ji|^2, but screening first keeps
every position's random numbers until the last position is screened: for
wishart that is the complex factor, 16 dof d bytes a draw, as large as
the matrix at dof = d, so about K sums in all.

The matrix mgf here is the decreasing-direction one, E exp(-theta X) for
theta > 0, whose eigenvalues lie in (0, 1] for psd X.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FloatRangeError, MgfUnavailableError
from .linalg import HermitianMatrix, lambda_max, spectral_decompose
from .rng import RngStream

__all__ = [
    "Gamma",
    "Bernoulli",
    "Uniform",
    "ScaledFixed",
    "bernoulli_diagonal",
    "BoundedRankOne",
    "Wishart",
    "SumModel",
    "distinct_sources",
    "MgfModel",
    "SumDraws",
    "sample_sum_batch",
]

# Substream purpose index for mgf snapshot sampling; Monte Carlo estimation
# uses purpose 0 (see montecarlo).  Distinct purposes keep mgf snapshots and
# simulation draws independent under one experiment seed.
_MGF_PURPOSE = 1

DEFAULT_MGF_SAMPLES = 10_000


def _complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard complex normal array: Re and Im i.i.d. N(0, 1/2), so that
    E g g* = I for a vector g.

    One complex array is filled in place: its real view from the first
    standard_normal call and its imaginary view from the second, each times
    sqrt(0.5).  That is bit for bit (re + 1j*im) * sqrt(0.5), whose complex
    product by a real scalar multiplies each part by it."""
    z = np.empty(shape, dtype=np.complex128)
    np.multiply(gen.standard_normal(shape), np.sqrt(0.5), out=z.real)
    np.multiply(gen.standard_normal(shape), np.sqrt(0.5), out=z.imag)
    return z


# Work space of one block of rows, in bytes: _build builds the matrices of
# a batch in blocks whose (rows, d, d) complex array stays within half of
# it (a wishart block's Gaussian factor, its conjugate and its Gram
# matrices within all of it), and _Snapshot.evaluate_many keeps each of
# its two block arrays within half of it, whatever n, d or the number of
# thetas.  Measured on 2 cores at d = 4 and 16: smaller snapshot blocks
# cost more per call at d = 16, and at 1 MiB the 200-theta call at d = 4
# ran up to 20x slower with 2 BLAS threads than with 1.
_KERNEL_BYTES = 512 * 1024


def _blocks(n: int, row_bytes: int):
    """The slices that cover rows 0 .. n-1 in order, each as many rows as
    fit _KERNEL_BYTES at row_bytes a row, and at least one.  The last
    slice is not clipped to n."""
    rows = max(1, _KERNEL_BYTES // row_bytes)
    return (slice(i, i + rows) for i in range(0, n, rows))


def _weights(thetas: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (m, N) array exp(-theta w) of m thetas and N eigenvalues; a
    theta * w past the float range has weight 0, without a numpy warning."""
    with np.errstate(over="ignore"):
        e = np.multiply.outer(-thetas, w)
    return np.exp(e, out=e)


def _build(
    size: int, dim: int, block, out: np.ndarray | None, draw_bytes: int | None = None
) -> np.ndarray:
    """The (size, dim, dim) complex draws of one source, built one block of
    draws at a time: block(s) returns the matrices of the draws in slice s.
    A block has as many draws as fit _KERNEL_BYTES at draw_bytes each,
    twice their matrices' 16 dim^2 bytes by default.  Written to a fresh
    array when out is None, else added into out[s]; returns the array
    written.  A draw or a sum past the float range is inf, without a numpy
    warning, and a miss at every eps."""
    fresh = out is None
    if fresh:
        out = np.empty((size, dim, dim), dtype=np.complex128)
    with np.errstate(over="ignore"):
        for s in _blocks(size, draw_bytes or 32 * dim * dim):
            if fresh:
                out[s] = block(s)
            else:
                out[s] += block(s)
    return out


# ---------------------------------------------------------------------------
# Scalar laws on [0, inf)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gamma:
    """Gamma law with shape and rate; mgf (rate/(rate+theta))**shape.
    Shape 1 is the exponential law."""

    shape: float
    rate: float
    kind = "gamma"
    upper_bound = None

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ValueError("gamma shape and rate must be positive and finite")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def envelope(self) -> tuple[float, float] | None:
        # (rate/(rate+theta))**shape <= (rate/theta)**shape
        try:
            c = self.rate**self.shape
        except OverflowError:
            c = math.inf
        if not 0 < c < math.inf:  # the power underflows to 0 or overflows
            raise FloatRangeError(
                f"the envelope constant C = rate**shape = {self.rate!r}**{self.shape!r} "
                "is outside the float range"
            )
        return (c, self.shape)

    def mgf(self, t):
        with np.errstate(over="ignore"):  # rate + t = inf has mgf 0
            return (self.rate / (self.rate + np.asarray(t, dtype=float))) ** self.shape

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.gamma(self.shape, scale=1.0 / self.rate, size=size)


@dataclass(frozen=True)
class Bernoulli:
    """Bernoulli law on {0, 1}; mgf (1-p) + p*exp(-theta)."""

    p: float
    kind = "bernoulli"
    upper_bound = 1.0
    # The mgf tends to 1-p > 0 as theta grows, so there is no power envelope.
    envelope = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("bernoulli p must lie in [0, 1]")

    @property
    def mean(self) -> float:
        return self.p

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
        with np.errstate(over="ignore"):  # t * high = inf has mgf 0
            tb = np.asarray(t, dtype=float) * self.high
        small = tb < 1e-8
        safe = np.where(small, 1.0, tb)
        out = np.where(small, 1.0 - tb / 2.0, -np.expm1(-safe) / safe)
        return out if out.ndim else float(out)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.random(size) * self.high


ScalarLaw = Gamma | Bernoulli | Uniform


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
        # psd up to roundoff at the matrix's own scale, lambda_min >=
        # -1e-10 * max(1, lambda_max): an eigensolver leaves the zero
        # eigenvalues of a singular psd matrix at about -1e-16 * lambda_max.
        # eigvalsh, not the eigh of spectrum, which costs about 3 times more
        # and which a source without an analytic mgf or series bound never needs.
        w = np.linalg.eigvalsh(self.matrix.entries)
        if not float(w[0]) >= -1e-10 * max(1.0, float(w[-1])):
            raise ValueError("scaled_fixed requires a psd matrix")

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only pair (w, U) of spectral_decompose(matrix), the one
        eigendecomposition of A: the analytic mgf and the series bounds
        read it, and it is computed on first use."""
        return spectral_decompose(self.matrix)

    def mean(self) -> HermitianMatrix | None:
        return self.matrix.scaled(self.law.mean)

    def uniform_bound(self) -> float | None:
        b = self.law.upper_bound
        if b is None:
            return None
        return b * lambda_max(self.matrix)

    def sample_batch(self, stream: RngStream, size: int, out=None) -> np.ndarray:
        """The (size, d, d) matrices x A of size draws x of law, built by
        _build into a fresh array or added into out."""
        xs = self.law.sample(stream.generator, size)
        return _build(size, self.dim, lambda s: xs[s, None, None] * self.matrix.entries, out)

    def analytic_mgf(self, thetas) -> np.ndarray:
        """The (m, d, d) stack U diag(law.mgf(theta lambda)) U* at the m
        thetas, symmetrized as A/2 + A*/2 as HermitianMatrix does."""
        w, u = self.spectrum
        with np.errstate(over="ignore"):  # theta * lambda = inf has mgf 0
            t = np.multiply.outer(np.asarray(thetas, dtype=float), w)
        half = (u * self.law.mgf(t)[:, None, :]) @ u.conj().T / 2.0
        return half + half.conj().swapaxes(1, 2)


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
    analytic_mgf = None

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

    def draw(self, stream: RngStream, size: int) -> tuple:
        """(bound * u, w): the scale and the unit vector of each draw."""
        gen = stream.generator
        g = _complex_normal(gen, (size, self.dim))
        w = g / np.linalg.norm(g, axis=1, keepdims=True)
        return self.bound * gen.random(size), w

    def diagonal(self, draws: tuple) -> np.ndarray:
        """The real diagonal of the matrices of draws, bit for bit
        np.diagonal(build(draws)).real, built without them; its entries
        are nonnegative."""
        scale, w = draws
        return (scale[:, None] * w * w.conj()).real

    def build(self, draws: tuple, out=None) -> np.ndarray:
        """The matrices of draws, built by _build into a fresh array or
        added into out."""
        scale, w = draws

        def block(s):
            v = scale[s, None] * w[s]
            return v[:, :, None] * w[s].conj()[:, None, :]

        return _build(len(scale), self.dim, block, out)

    def sample_batch(self, stream: RngStream, size: int, out=None) -> np.ndarray:
        return self.build(self.draw(stream, size), out)


@dataclass(frozen=True)
class Wishart:
    """X = (1/dof) * sum_j g_j g_j* over dof standard complex Gaussian
    vectors, so that E X = I."""

    dim: int
    dof: int
    kind = "wishart"
    analytic_mgf = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.dof < 1:
            raise ValueError("dof must be at least 1")

    def mean(self) -> HermitianMatrix | None:
        return HermitianMatrix.identity(self.dim)

    def uniform_bound(self) -> float | None:
        return None

    # No diagonal: it would be cheap, (1/dof) sum_j |g_ji|^2, but screening
    # a sum on it first would keep each position's complex factor, 16 dof d
    # bytes a draw, until the last position is screened (sample_sum_batch).

    def sample_batch(self, stream: RngStream, size: int, out=None) -> np.ndarray:
        """The (size, d, d) matrices (1/dof) sum_j g_j g_j* over the dof
        rows g_j of each draw's complex factor, whose entries are those of
        _complex_normal, built by _build into a fresh array or added into
        out.  The real parts of the batch come first in the stream, so they
        are drawn whole, and each block's imaginary parts are drawn just
        before its Gram matrices are built.  A block holds its factor, the
        conjugate copy that the Gram product reads and its Gram matrices,
        16 (2 dof d + d^2) bytes a draw, within _KERNEL_BYTES."""
        gen = stream.generator
        re = gen.standard_normal((size, self.dof, self.dim))
        re *= np.sqrt(0.5)

        def block(s):
            g = re[s].astype(np.complex128)
            np.multiply(gen.standard_normal(g.shape), np.sqrt(0.5), out=g.imag)
            gram = g.transpose(0, 2, 1) @ g.conj()
            # Not gram /= dof: numpy's complex division is about 5 times
            # slower, and it too multiplies by the reciprocal of dof.
            gram *= 1.0 / self.dof
            return gram

        draw_bytes = 16 * (2 * self.dof * self.dim + self.dim * self.dim)
        return _build(size, self.dim, block, out, draw_bytes)


# ---------------------------------------------------------------------------
# Sum model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumModel:
    """Ordered list of independent matrix sources with equal dimension.

    A source object that appears at several positions stands for i.i.d.
    copies: sampling draws each position from its own substream, while
    the mgf-based layers (empirical snapshots, mgf evaluations, per-source
    bound scans) work once per distinct object.  Equal but separately
    built objects are distinct.

    The sum X_1 + ... + X_K is itself a random matrix, and the model is
    also a source for it: the one-matrix machinery (single-matrix bound,
    empirical mgf) applies to the sum directly."""

    sources: tuple
    kind = "sum"

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

    def sample_batch(self, stream: RngStream, size: int, out=None) -> np.ndarray:
        """Draws of the sum: position k draws from substream k and adds its
        draws into one running sum, which position 0 starts unless out is
        given."""
        for k, src in enumerate(self.sources):
            out = src.sample_batch(stream.child(k), size, out=out)
        return out

    @property
    def analytic_mgf(self):
        """The one source's closed form when K = 1; a sum of K > 1 has none."""
        return self.sources[0].analytic_mgf if self.size == 1 else None


def distinct_sources(sources) -> tuple[list, list[int]]:
    """The distinct source objects of sources, in order of first appearance,
    and for each position the index of its object among them: the one
    place where a repeated object is recognised as i.i.d. copies."""
    unique = list({id(src): src for src in sources}.values())
    index = {id(src): j for j, src in enumerate(unique)}
    return unique, [index[id(src)] for src in sources]


# ---------------------------------------------------------------------------
# Sampling operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumDraws:
    """What sample_sum_batch returns: shape, the (size, d, d) shape of the
    batch drawn, and sums, the (n_open, d, d) sums of its open draws."""

    shape: tuple
    sums: np.ndarray


def sample_sum_batch(model: SumModel, stream: RngStream, size: int, limit: float) -> SumDraws:
    """size draws of the sum, position k from substream k, screened at
    limit: the open draws are those whose sum has no real diagonal entry
    above limit, since a diagonal entry is a Rayleigh quotient and so at
    most lambda_max.  Only the sums of the open draws are built, in order,
    each with the bits it has in model.sample_batch; when every draw is
    open, sums is the built sum itself, not a copy.  A sum past the float
    range has an inf diagonal, without a numpy warning.

    When every source has a diagonal (bounded_rank_one alone), the sum is
    screened before it is built: position k draws all of its random
    numbers in order, adds its diagonals to a running sum, and keeps the
    random numbers of the draws still open.  The diagonal terms are
    nonnegative, so a running sum above limit stays above it and its draw
    is dropped at once.  Once no draw is open, the later positions are not
    drawn: nothing else reads their substreams.  Otherwise the whole sum
    is built by model.sample_batch, and its open rows are moved to its
    front, one block at a time, without a second copy of the sum."""
    shape = (size, model.dim, model.dim)
    if not all(getattr(src, "diagonal", None) is not None for src in model.sources):
        sums = model.sample_batch(stream, size)
        keep = np.flatnonzero(~(np.diagonal(sums, axis1=1, axis2=2).real.max(axis=1) > limit))
        if len(keep) < size:
            # keep is ascending, so keep[j] >= j and no block overwrites a
            # row that a later block reads.
            whole, sums = sums, sums[: len(keep)]
            for s in _blocks(len(keep), 32 * model.dim**2):
                sums[s] = whole[keep[s]]
        return SumDraws(shape, sums)
    keep, diag, kept = np.arange(size), 0.0, []
    for k, src in enumerate(model.sources):
        draws = src.draw(stream.child(k), size)
        kept.append(draws if len(keep) == size else tuple(a[keep] for a in draws))
        with np.errstate(over="ignore"):
            diag = diag + src.diagonal(kept[-1])
        still = ~(diag.max(axis=1) > limit)
        if not still.all():
            keep, diag = keep[still], diag[still]
            kept = [tuple(a[still] for a in drawn) for drawn in kept]
        if not len(keep):
            break  # nothing reads the later positions' substreams
    sums = None
    for src, draws in zip(model.sources, kept):
        sums = src.build(draws, sums)
    return SumDraws(shape, sums)


# ---------------------------------------------------------------------------
# Matrix mgf evaluation
# ---------------------------------------------------------------------------


def _check_thetas(thetas) -> None:
    # Written so that a NaN theta fails too.
    if not all(0 < t < math.inf for t in thetas):
        raise ValueError("theta must be positive and finite")


class _Snapshot:
    """Frozen sample set for one source, stored eigendecomposed so that the
    mgf can be re-evaluated cheaply at many theta values.

    The N = n*d eigenvalues w_j are kept flat, as an (N,) vector: w_j of
    pair j = s*d + k is eigenvalue k of sample s.  The eigenvectors are
    kept only when asked for (vectors=True), in the (n, d, d) array that
    eigh returns, 16 n d^2 bytes, whose column k of sample s is v_j;
    trace_many reads the eigenvalues alone, tr(v_j v_j*) = 1, so a
    snapshot that only it reads keeps 8 n d bytes.  eigh runs either way,
    so the eigenvalues have the same bits.  The mgf at m thetas is (1/n) E
    P with E = exp(-theta w^T), an (m, N) array, and P the
    (N, d(d+1)/2) complex array of the upper triangles of the v_j v_j*;
    viewed as d(d+1) reals per row, P makes E P one real GEMM.  P is about
    n d^3 / 2 complex numbers, so it is never kept: evaluate_many builds it
    one block of pairs at a time, from the samples that hold them, and
    multiplies each block by the matching block of E, both blocks within
    _KERNEL_BYTES / 2.
    """

    __slots__ = ("eigenvalues", "vectors", "n", "_memo")

    def __init__(self, samples: np.ndarray, vectors: bool = True) -> None:
        w, v = np.linalg.eigh(samples)
        n, d = w.shape
        self.n = n
        self.eigenvalues = w.reshape(n * d)
        self.vectors = v if vectors else None
        self._memo: dict[float, np.ndarray] = {}

    def evaluate_many(self, thetas) -> np.ndarray:
        """The (m, d, d) mgf estimates at the m thetas, in order; each
        distinct theta is computed once per snapshot."""
        missing = list(dict.fromkeys(t for t in thetas if t not in self._memo))
        if missing:
            for t, m in zip(missing, self._mgf(np.asarray(missing, dtype=float))):
                m.setflags(write=False)
                self._memo[t] = m
        d = self.vectors.shape[-1]
        return np.array([self._memo[t] for t in thetas]).reshape(-1, d, d)

    def trace_many(self, thetas) -> np.ndarray:
        """The traces of the mgf estimates at the m thetas, (1/n) sum_j
        exp(-theta w_j), as an (m,) array.  The exponentials are summed in
        blocks within _KERNEL_BYTES / 2, and each theta's row over the same
        blocks of eigenvalues whatever the other thetas, so a theta's trace
        does not depend on the batch it comes in."""
        w = self.eigenvalues
        thetas = np.asarray(thetas, dtype=float)
        nv = min(w.size, _KERNEL_BYTES // 16)
        acc = np.zeros(len(thetas))
        for s in _blocks(w.size, 16):
            for t in _blocks(len(thetas), 16 * nv):
                acc[t] += _weights(thetas[t], w[s]).sum(axis=1)
        return acc / self.n

    def _mgf(self, thetas: np.ndarray) -> np.ndarray:
        v, w = self.vectors, self.eigenvalues
        d = v.shape[-1]
        diag = np.arange(d)
        iu, ju = np.triu_indices(d, 1)
        ir, jr = np.concatenate([diag, iu]), np.concatenate([diag, ju])
        # Blocks s of eigenpairs and t of thetas: P is (len s, d(d+1)/2)
        # complex and E (len t, len s) real.
        acc = np.zeros((len(thetas), 2 * len(ir)))
        for s in _blocks(w.size, 32 * len(ir)):
            # Pairs s lie in samples s.start//d .. (s.stop-1)//d; the rows
            # of vb are their eigenvectors, in pair order.
            s0 = s.start // d
            vb = v[s0 : -(-s.stop // d)].transpose(0, 2, 1).reshape(-1, d)
            vb = vb[s.start - s0 * d : s.stop - s0 * d]
            p = np.take(vb, ir, axis=1)
            p *= np.take(vb.conj(), jr, axis=1)
            p = p.view(np.float64)
            for t in _blocks(len(thetas), 16 * (s.stop - s.start)):
                acc[t] += _weights(thetas[t], w[s]) @ p
        acc /= self.n
        upper = acc.view(np.complex128)
        out = np.empty((len(thetas), d, d), dtype=np.complex128)
        out[:, iu, ju] = upper[:, d:]
        out[:, ju, iu] = upper[:, d:].conj()
        out[:, diag, diag] = upper[:, :d].real
        return out


class MgfModel:
    """Evaluator of E exp(-theta X) per source, analytic or empirical.

    In empirical mode each source object gets one fixed sample snapshot,
    drawn on first use from a substream keyed by (seed, snapshot index) and
    reused for every subsequent theta.  Reusing one sample set keeps the 1-D
    objectives smooth in theta; resampling per probe would destabilize the
    infimum search.  A source object repeated in a SumModel stands for
    i.i.d. copies with one mgf, so all its positions share its snapshot.

    A snapshot keeps its eigenvectors only once evaluate_many reads it:
    trace_many reads the eigenvalues alone.  A snapshot first drawn for
    trace_many is drawn again, from a fresh stream of the same key, when
    evaluate_many first reads it, so its samples, its bits and its index
    stay those of its first use.
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
        self._seed = int(seed)
        # Keyed by id(source), with the source held alongside its snapshot:
        # a freed source's id could otherwise be reused by a new source,
        # which would then read the stale snapshot.  Separately built equal
        # sources keep separate snapshots; one object has one, however
        # often a model repeats it.  The index is the snapshot's substream.
        self._snapshots: dict[int, tuple[object, _Snapshot, int]] = {}

    def check(self, sources) -> None:
        """Raise MgfUnavailableError unless this model can evaluate the mgf
        of every one of `sources` (one bound's sources, of one dimension).

        Each distinct source object is checked once, under the position of
        its first appearance.  Analytic mode needs a closed form per
        source.  Empirical mode draws nothing here; it refuses when the
        snapshots would not fit in the machine's physical memory, counted
        as 16 n d^2 bytes for each retained snapshot, one per distinct
        source, and 32 n d^2 bytes more for the draw in progress.  That
        overcounts, and stays so on purpose: a snapshot keeps eigh's (n, d,
        d) eigenvectors, 16 n d^2 bytes, only once evaluate_many reads it,
        and 8 n d bytes of eigenvalues when only trace_many does, while the
        draw in progress holds its (n, d, d) complex draws and eigh's
        outputs, which the snapshot then keeps.  A wishart sample_batch,
        alone or at a position of a sum, also holds the real parts of its
        Gaussians whole while it runs, 8 n dof d bytes, besides one block
        within _KERNEL_BYTES; the largest dof counts."""
        unique, index = distinct_sources(sources)
        if self.mode == "analytic":
            for j, src in enumerate(unique):
                if src.analytic_mgf is None:
                    raise MgfUnavailableError(
                        f"source {index.index(j)} (kind {src.kind!r}) has no "
                        "closed-form mgf; use empirical mgf mode"
                    )
            return
        try:
            have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # not a POSIX system
            return
        dim = sources[0].dim
        parts = [s for src in unique for s in getattr(src, "sources", (src,))]
        dof = max((s.dof for s in parts if isinstance(s, Wishart)), default=0)
        need = 16 * self.n_samples * dim * dim * (len(unique) + 2) + 8 * self.n_samples * dof * dim
        if need > have:
            raise MgfUnavailableError(
                f"mgf.n_samples = {self.n_samples} at dim {dim} needs about "
                f"{need / 2**30:.3g} GiB for {len(unique)} empirical snapshot(s), "
                f"more than the {have / 2**30:.3g} GiB of physical memory"
            )

    def evaluate(self, source, theta: float) -> HermitianMatrix:
        """E exp(-theta X) of source, the one-theta case of evaluate_many.

        No bound calls it; it stays public because the benchmark's tracer
        (perfbench/spans.py) wraps MgfModel.evaluate when it installs its
        hooks, and a traced run fails with AttributeError without it."""
        return HermitianMatrix(self.evaluate_many(source, [theta])[0])

    def evaluate_many(self, source, thetas) -> np.ndarray:
        """E exp(-theta X) of source at each of thetas, as an (m, d, d)
        complex array in the order of thetas."""
        thetas = list(thetas)
        _check_thetas(thetas)
        if self.mode == "empirical":
            return self._snapshot(source, vectors=True).evaluate_many(thetas)
        if source.analytic_mgf is None:
            raise MgfUnavailableError(
                f"no closed-form mgf for source kind {source.kind!r}; "
                "use empirical mode"
            )
        return source.analytic_mgf(thetas)

    def trace_many(self, source, thetas) -> np.ndarray:
        """tr E exp(-theta X) of source at each of thetas, as an (m,) float
        array, all that the one-matrix bound reads.  Empirical mode sums
        exp(-theta w) over the snapshot's eigenvalues and builds no matrix;
        analytic mode takes the trace of evaluate_many."""
        if self.mode == "analytic":
            return np.trace(self.evaluate_many(source, thetas), axis1=1, axis2=2).real
        thetas = list(thetas)
        _check_thetas(thetas)
        return self._snapshot(source, vectors=False).trace_many(thetas)

    def _snapshot(self, source, vectors: bool) -> _Snapshot:
        """The snapshot of source, drawn from substream (seed, _MGF_PURPOSE,
        index), index its order of first use, with its eigenvectors when
        vectors is true.  Each draw takes a fresh stream of that key, so a
        redraw has the first draw's samples and holds no stream beyond it."""
        entry = self._snapshots.get(id(source))
        if entry is not None and (entry[1].vectors is not None or not vectors):
            return entry[1]
        index = len(self._snapshots) if entry is None else entry[2]
        stream = RngStream(self._seed, (_MGF_PURPOSE, index))
        snapshot = _Snapshot(source.sample_batch(stream, self.n_samples), vectors)
        self._snapshots[id(source)] = (source, snapshot, index)
        return snapshot
