"""Exception hierarchy for the engine.

Every error carries enough context (entry name, row index, ...) for the CLI
to report it without a traceback. Exit-code mapping lives in the CLI:
data/validation errors exit 3, internal invariant violations exit 4.
"""


class EngineError(Exception):
    """Base class for all engine-raised errors (exit code 3 at the CLI)."""


class DegenerateVector(EngineError):
    """A vector whose norm is at or below the degeneracy threshold."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class InvalidPlan(EngineError):
    pass


class TooShallow(EngineError):
    """Layer count too small for the fractional-depth probe schedule."""


class InvalidK(EngineError):
    pass


class InstanceTooLarge(EngineError):
    """Instance exceeds the size guard of an exhaustive/naive oracle."""


class EmptyThumbnail(EngineError):
    pass


class EmptyPartition(EngineError):
    pass


class MissingLayer(EngineError):
    def __init__(self, message: str, layer: int | None = None):
        super().__init__(message)
        self.layer = layer


class NoDecodeRows(EngineError):
    pass


class OrthogonalityViolated(EngineError):
    pass


class ParseError(EngineError):
    pass


class ShapeMismatch(EngineError):
    pass


class NonFiniteData(EngineError):
    pass


class RowSumViolation(EngineError):
    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class InternalInvariant(Exception):
    """Engine bug: a postcondition the code itself guarantees was violated
    (exit code 4 at the CLI). Deliberately not an EngineError."""
