"""finsum: exact verification of finite binomial-harmonic summation identities.

The engine evaluates both sides of an identity in the constant field
Q[ln2, sqrt(pi), 1/sqrt(pi)] and compares canonical forms, so every verdict
is exact.  Polynomial identities in t are compared coefficient-by-coefficient;
closed identities are compared pointwise over parameter grids.
"""

from .errors import (ArityError, DivisionByZero, DslSyntaxError, EvalTypeError,
                     FinsumError, FormatError, NegativeExponent, PoleError,
                     ShapeError, UnboundVariable)
from .field import SymConst

__all__ = [
    "ArityError", "DivisionByZero", "DslSyntaxError", "EvalTypeError",
    "FinsumError", "FormatError", "NegativeExponent", "PoleError",
    "ShapeError", "SymConst", "UnboundVariable",
]

__version__ = "0.1.0"
