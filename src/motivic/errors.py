"""Exception hierarchy shared by all motivic modules."""


class MotivicError(Exception):
    """Base class for all domain errors raised by this package."""


class ChiUndefined(MotivicError):
    """Euler realization requested for a class outside its domain."""


class NoLimit(MotivicError):
    """Coefficient limit does not exist for the requested scaling."""


class DimensionUnsupported(MotivicError):
    """Closed-form operation requested above the supported dimension cap."""


class InfiniteFibers(MotivicError):
    """Generating-function image requested for a map with infinite fibers."""


class RealizationOnlyStrata(MotivicError):
    """Exact ring output requested but some stratum has no exact class."""


class MissingN(MotivicError):
    """Ideal-twist volume requested but a divisor lacks its N multiplicity."""


class StrataNotPartition(MotivicError):
    """Declared total class does not match the sum of the strata."""


class BudgetExceeded(MotivicError):
    """Enumeration refused or aborted because it exceeds the work budget."""


class Unstable(MotivicError):
    """A count of arc truncations is not certified within the search depth."""


class DigitLimit(MotivicError):
    """An integer is too long for the interpreter to convert to or from text."""


class ParseError(MotivicError):
    """Malformed input text; carries a human-readable location."""


class ValidationError(MotivicError):
    """Structurally valid input violating a domain invariant."""
