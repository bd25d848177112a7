"""Semantic exception hierarchy.

Every contract violation raises a named subclass of :class:`SelBoundsError`
so callers (and the CLI) can distinguish bad input from infeasible
restrictions.
"""


class SelBoundsError(Exception):
    """Base error for this package."""


class InputError(SelBoundsError, ValueError):
    """Inputs violate a structural contract (shape, domain, type)."""


class EmptyInstance(InputError):
    """An instance must contain at least one scenario."""


class NonpositiveWeight(InputError):
    """Scenario weights must be strictly positive."""


class InvertedInterval(InputError):
    """Scenario lower endpoint exceeds the upper endpoint beyond tolerance."""


class AlphaOutOfRange(InputError):
    """Quantile level must lie strictly inside (0, 1)."""


class CouplingViolation(InputError):
    """Comonotone discretization produced lower > upper on the grid."""


class MassOutOfRange(InputError):
    """Requested set mass outside [0, p0]."""


class BetaOutOfRange(InputError):
    """Quantile integral endpoint outside [0, 1]."""


class NegativeSupport(InputError):
    """Operation requires a distribution supported on [0, inf)."""


class MOutOfRange(InputError):
    """Quantile target outside the attainability range."""


class MOutsideMedianSpan(InputError):
    """Pivot outside the span of the marginal medians."""


class SelectionMismatch(InputError):
    """Selection is inconsistent with the instance it claims to select from."""


class InvalidPower(InputError):
    """Power transform undefined: the exponent must be positive, and an
    odd integer unless the instance is nonnegative."""


class ParseError(InputError):
    """Malformed CSV or request input."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class EmptyFile(ParseError):
    """CSV input contained no data rows."""


class IoError(SelBoundsError):
    """Filesystem failure while writing reports or curve exports."""


class InfeasibleRestriction(SelBoundsError):
    """The requested restriction admits no selection.

    Carries a human-readable diagnosis of which inequality failed and by
    how much.
    """

    def __init__(self, message, diagnosis=None):
        super().__init__(message)
        self.diagnosis = diagnosis or message


class KappaInfeasible(InfeasibleRestriction):
    """Mean target outside the Aumann expectation interval."""


class InfeasibleMedian(InfeasibleRestriction):
    """Median target with p_minus > 1/2 or p_plus > 1/2."""


class InfeasibleMoment(InfeasibleRestriction):
    """Moment target outside the power-image interval."""


class InfeasibleQuantile(InfeasibleRestriction):
    """Quantile target outside the attainability range."""


class InstanceTooLarge(SelBoundsError):
    """Exhaustive oracle invoked beyond its instance-size limit."""


class NoFeasibleSelection(SelBoundsError):
    """Oracle enumeration found no selection meeting the constraint."""
