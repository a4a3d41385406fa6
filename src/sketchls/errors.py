"""Exception hierarchy for sketchls.

Every library error derives from :class:`SketchlsError` so callers (and the
CLI) can catch one base class.
"""


class SketchlsError(Exception):
    """Base class for all sketchls errors."""


class DimensionMismatch(SketchlsError):
    """Operand shapes are incompatible."""


class NotPositiveDefinite(SketchlsError):
    """A matrix required to be SPD has a non-positive (or negligible) pivot.

    The iterative solvers' loop sets ``iteration`` to the step that raised
    it, 0 for the setup, and names it in the message.
    """

    iteration: int | None = None


class SingularMatrix(SketchlsError):
    """A matrix is numerically singular where invertibility is required."""


class RankDeficient(SketchlsError):
    """A matrix does not have full column rank."""


class NotPowerOfTwo(SketchlsError):
    """Input length must be a power of two."""


class NotEnoughRows(SketchlsError):
    """Requested sketch size exceeds the available (padded) rows."""


class BadSubsampleSize(SketchlsError):
    """Subsample size is outside 1..n."""


class HypothesisViolated(SketchlsError):
    """Arguments fall outside the hypotheses of a convergence bound."""


class ZeroDirection(SketchlsError):
    """Line-search direction is numerically zero (gradient vanished)."""


class EmptyInput(SketchlsError):
    """An aggregate was requested over an empty collection."""


class ParseError(SketchlsError):
    """A data file could not be parsed; message pinpoints row/column."""


class ConfigError(SketchlsError):
    """A benchmark config file is missing or misusing a key."""

    def __init__(self, key, message=None):
        self.key = key
        super().__init__(message or f"config key {key!r} is missing or invalid")
