"""Semantic exceptions shared across the package."""


class RobustShannonError(Exception):
    """Base class for all package-specific errors."""


class SingularCenter(RobustShannonError):
    """A strictly positive definite matrix was required and regularization failed."""


class DegenerateMI(RobustShannonError):
    """Mutual information undefined: signal does not vanish on the noise null space."""


class TooLargeForExact(RobustShannonError):
    """Sample clouds exceed the exact-assignment size bound."""


class SolverNoConverge(RobustShannonError):
    """Compound solver hit its iteration cap before the value stagnated.

    Carries the partial diagnostics gathered up to the failing iteration.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
