"""Exception types shared across the toolkit."""


class QLinBAEError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(QLinBAEError):
    """Matrix shapes are inconsistent with the requested operation."""


class ValidationError(QLinBAEError):
    """A system parameter set violates one or more structural invariants.

    Carries the full list of violations so callers can report all of them
    at once instead of the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class PreconditionError(QLinBAEError):
    """A stated hypothesis of the requested computation does not hold."""


class SingularityError(QLinBAEError):
    """A resolvent solve was ill-conditioned at the requested point."""

    def __init__(self, message, cond=None):
        self.cond = cond
        super().__init__(message)


class InternalConsistencyError(QLinBAEError):
    """Two computations that must agree disagreed beyond tolerance."""


class WellPosednessError(QLinBAEError):
    """A feedback loop is singular (I - S22*Sb not invertible)."""


class ResourceError(QLinBAEError):
    """A requested computation exceeds a configured resource cap."""


class InstabilityError(QLinBAEError):
    """The stochastic integrator produced a non-finite state."""
