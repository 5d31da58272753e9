"""Exception types shared across the toolkit.

Every error raised on a violated precondition derives from FracpotError so
callers (and the CLI) can separate model-domain failures from programming
bugs.
"""


class FracpotError(Exception):
    """Base class for all toolkit errors."""


class DimensionTooLow(FracpotError):
    """Ambient dimension does not dominate the operator order (n <= 2s)."""


class OrderOutOfRange(FracpotError):
    """Fractional order s outside the open interval (1/2, 1)."""


class SubcriticalExponent(FracpotError):
    """Gradient exponent q at or below the critical threshold n/(n-2s+1)."""


class AlphaOutOfRange(FracpotError):
    """Riesz order alpha outside (0, n)."""


class NegativeDensity(FracpotError):
    """Density input carries negative entries."""


class BoundaryLeak(FracpotError):
    """Field does not decay at the box boundary; spectral output untrusted."""


class KappaOutOfRange(FracpotError):
    """Weak-norm exponent kappa must exceed 1."""


class EmptySet(FracpotError):
    """Constraint set contains no grid cell."""


class NotConverged(FracpotError):
    """Iterative routine exhausted its budget without meeting tolerances."""


class ZeroMeasure(FracpotError):
    """Operation undefined for the zero measure."""


class ThetaOutOfRange(FracpotError):
    """Smallness fraction theta must lie in (0, 1)."""


class NotAdmissible(FracpotError):
    """Measure fails the smallness test; scale it down first."""


class Diverged(FracpotError):
    """Successive approximations grew for too many consecutive steps."""


class AnnulusEmpty(FracpotError):
    """Requested fit annulus contains no usable grid point."""


class GridMismatch(FracpotError):
    """Fields or files carry incompatible grid metadata."""


class ConfigError(FracpotError):
    """Malformed or unsupported run configuration."""
