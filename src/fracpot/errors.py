"""Exception types shared across the toolkit, matched to the CLI's exit codes.

Every error fracpot raises on input it refuses or on a run that fails
derives from FracpotError; any other exception is a bug.  A class exists
only where some code tells it apart: the CLI maps NotAdmissible, Diverged
and GridMismatch to their own exit codes, estimate_capacity and
diagnostics_report catch NotConverged and AnnulusEmpty, and every other
refused input or argument is a ConfigError.
"""


class FracpotError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FracpotError):
    """An input or argument outside what the model or the program accepts."""


class NotConverged(FracpotError):
    """Iterative routine exhausted its budget without meeting tolerances."""


class NotAdmissible(FracpotError):
    """Measure fails the smallness test; scale it down first."""


class Diverged(FracpotError):
    """Successive approximations grew for too many consecutive steps."""


class AnnulusEmpty(FracpotError):
    """Requested fit annulus contains no usable grid point."""


class GridMismatch(FracpotError):
    """Fields or files carry incompatible grid metadata."""
