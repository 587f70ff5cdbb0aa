"""Exception types shared across the library."""


class IndexLabError(Exception):
    """Base class for every error raised by this package."""


class ParseError(IndexLabError):
    """Polynomial text could not be parsed."""


class InvalidInput(IndexLabError):
    """Operation called with an argument outside its domain."""


class InvalidDegree(InvalidInput):
    """Polynomial degree outside the operation's domain."""


class InvalidPrime(InvalidInput):
    """A prime number was required."""


class ZeroModP(InvalidInput):
    """Polynomial vanishes identically modulo p."""


class ReduciblePolynomial(IndexLabError):
    """Defining polynomial is reducible over the rationals."""


class DegreeOutOfScope(IndexLabError):
    """Field degree above the supported bound (7)."""


class NotAField(IndexLabError):
    """Parameters do not define a number field of the expected shape."""


class NotReduced(InvalidInput):
    """Cubic coefficient pair (a, b) is not in reduced form."""


class NotApplicable(IndexLabError):
    """A family formula's applicability condition fails; the message says
    which."""


class UnknownFamily(InvalidInput):
    """Family name not recognized."""


class SearchBudgetExhausted(IndexLabError):
    """Witness search ran out of candidates before succeeding."""
