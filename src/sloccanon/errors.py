"""Exception types shared by all modules."""


class SloccError(Exception):
    """Base class for all domain errors."""


class SingularMatrix(SloccError):
    pass


class NotInField(SloccError):
    """Some eigenvalue is not a Gaussian rational.

    Carries the residual irreducible factor (coefficient list, constant
    term first) when known.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DimensionMismatch(SloccError):
    pass


class OrderMismatch(SloccError):
    pass


class NotInvertible(SloccError):
    pass


class NotReversible(SloccError):
    pass


class PatternViolation(SloccError):
    pass


class CheckFailed(SloccError):
    """An internal exactness check failed: a result would be wrong."""


class NotFullRank(SloccError):
    pass


class NotCommuting(SloccError):
    pass


class NoSplitFound(SloccError):
    """The block-splitting search was exhausted without a decision."""


class DegenerateParameter(SloccError):
    """A symmetry-map denominator vanished (isolated parameter value)."""


class ZeroScale(SloccError):
    pass


class ParseError(SloccError):
    """Malformed state or canonical-form file."""
