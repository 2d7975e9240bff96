"""Exception types raised by the factorization pipeline."""


class InvalidEntryError(ValueError):
    """A non-finite input entry, or a negative one where the matrix must be
    nonnegative, at 0-based ``(row, column)``; ``entry`` says which."""

    def __init__(self, message: str, entry: str, row: int, column: int):
        super().__init__(message)
        self.entry, self.row, self.column = entry, row, column


class FactorizationError(Exception):
    """Base class for numerical failures during factorization.

    ``stage`` names the pipeline stage that raised, when known.
    """

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class ZeroMatrixError(FactorizationError):
    """The input has no nonzero entries (or no nonzero columns)."""


class ZeroColumnError(FactorizationError):
    """A zero column reached a stage that needs positive column sums."""


class SingularMatrixError(FactorizationError):
    """A matrix that must be invertible has a pivot below the rank tolerance."""


class SimplexStalledError(FactorizationError):
    """The feasibility solver found no admissible pivot row or exceeded its
    iteration cap."""


class SimplexCheckError(FactorizationError):
    """A feasibility-solver answer failed its own nonnegativity or residual
    check."""


class ExpansionInfeasibleError(FactorizationError):
    """A point could not be expressed over the polytope vertices."""


class SpanDeficiencyError(FactorizationError):
    """Fewer independent vertices than basic rows; tolerances are off."""


class IntermediateDimensionError(FactorizationError):
    """Strict mode: the factorization would not reduce dimension."""
