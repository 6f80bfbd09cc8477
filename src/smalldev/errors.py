"""Exception hierarchy shared across the package.

Every failure the library raises deliberately derives from SmallDevError,
so callers (notably the CLI) can separate library failures from bugs.
"""


class SmallDevError(Exception):
    """Base class for all errors raised by smalldev."""


class EigenConvergenceError(SmallDevError):
    """The Hermitian eigensolver failed to converge."""


class MatrixDomainError(SmallDevError):
    """A matrix function met an eigenvalue outside its domain.  Nothing
    raises it directly; it stays as the public base class that callers
    catch for NotPositiveDefiniteError."""


class NotPositiveDefiniteError(MatrixDomainError):
    """An operation requiring a positive definite matrix met an eigenvalue
    at or below the positive-definiteness floor."""


class MgfUnavailableError(SmallDevError):
    """No closed-form matrix mgf exists for the requested source."""


class UnsupportedEnsembleError(SmallDevError):
    """A bound was requested for an ensemble that lacks a required
    ingredient (uniform eigenvalue bound, mean, or scalar mgf envelope)."""


class DegenerateModelError(SmallDevError):
    """The model is degenerate for the requested operation, e.g. the mean
    of the sum is zero."""


class FloatRangeError(SmallDevError):
    """A quantity a bound is built from lies outside the double-precision
    range."""


class InvalidDominatorsError(SmallDevError):
    """The supplied dominating-matrix construction violates its declared
    sign on the optimizer grid."""


class NoFiniteValueError(SmallDevError):
    """The objective was non-finite at every probed point."""


class ConfigError(SmallDevError):
    """An experiment configuration is malformed or inapplicable."""
