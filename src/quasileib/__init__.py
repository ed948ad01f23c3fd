"""Exact-arithmetic toolkit for finite-dimensional Leibniz algebras.

The package provides exact coefficient fields (GF(p), the rationals and
rational-function fields GF(p)(t)), echelon-form linear algebra, Leibniz
algebras given by structure constants, quasi-ideal analysis with an
independent brute-force oracle, constructors for the classified families,
and a finite-field census that enumerates small multiplication tables.
"""

from .errors import (
    BadCharacteristic,
    BadDimension,
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZero,
    IsotropicForm,
    MalformedInput,
    MixedFields,
    NotAnIdeal,
    NotASubalgebra,
    NotLeibniz,
    PreconditionUnverified,
    QuasileibError,
    SquareLambda,
    UnsupportedField,
    VerificationFailed,
)
from .fields import (
    GF2,
    GF3,
    Field,
    PrimeField,
    Scalar,
    field_from_json,
    parse_field,
    parse_scalar,
)

__version__ = "0.1.0"
