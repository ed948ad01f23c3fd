"""Exception types shared across the package."""


class QuasileibError(Exception):
    """Base class for all errors raised by this package."""


class MixedFields(QuasileibError):
    """Two scalars (or objects) from different fields were combined."""


class DivisionByZero(QuasileibError, ZeroDivisionError):
    """Division or inversion of a zero field element."""


class DimensionMismatch(QuasileibError):
    """Vectors, matrices or subspaces of incompatible shapes were combined."""


class BudgetExceeded(QuasileibError):
    """An enumeration would exceed the configured budget."""


class UnsupportedField(QuasileibError):
    """The operation needs a field kind it does not support (e.g. enumeration
    over an infinite field)."""


class NotASubalgebra(QuasileibError):
    """A subspace expected to be closed under the bracket is not."""


class NotAnIdeal(QuasileibError):
    """A subspace expected to be a two-sided ideal is not."""


class NotLeibniz(QuasileibError):
    """A multiplication table fails the right Leibniz identity."""


class BadCharacteristic(QuasileibError):
    """A family constructor was given a field of the wrong characteristic."""


class SquareLambda(QuasileibError):
    """A family parameter that must avoid squares is a square (or a square
    combination) in the coefficient field."""


class IsotropicForm(QuasileibError):
    """A quadratic form that must be anisotropic has a nontrivial zero."""


class BadDimension(QuasileibError):
    """A family constructor was given an unusable dimension parameter."""


class PreconditionUnverified(QuasileibError):
    """A check suite was invoked on input whose precondition does not hold."""


class MalformedInput(QuasileibError):
    """A JSON document does not match the expected file format."""


class VerificationFailed(QuasileibError):
    """A computed result failed its own independent re-check; this is a
    defect of the package, not of the input."""
