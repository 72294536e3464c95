"""Exception hierarchy shared by all polydisklab modules."""


class PolydiskLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PolydiskLabError):
    """A point or parameter lies outside its required domain."""


class DimensionMismatchError(DomainError):
    """Operands have incompatible dimensions."""


class DegenerateDataError(PolydiskLabError):
    """Input data is degenerate (coincident nodes, collinear points,
    identically-zero generators, and similar)."""


class ConditioningError(PolydiskLabError):
    """A computation could not be completed at working precision."""


class InfeasibleConstraintsError(PolydiskLabError):
    """A linear constraint system has no solution."""


class UndecidedError(PolydiskLabError):
    """The feasibility engine exhausted its budget without producing
    either certificate.

    Attributes carry the diagnostics a caller needs to retry: the level
    ``t`` probed, the iteration count spent, and the best residuals seen.
    """

    def __init__(self, message, t=None, iterations=None, residuals=None):
        super().__init__(message)
        self.t = t
        self.iterations = iterations
        self.residuals = residuals or {}

