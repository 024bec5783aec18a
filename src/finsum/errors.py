"""Exception types shared across the engine.

Each class carries ``exit_code``, the exit status of the command line when
an error of that class ends a command: 1 mismatch, 2 usage error, 3 load
error, 4 shape error.
"""


class FinsumError(Exception):
    """Base class for all engine errors."""
    exit_code = 1


class PoleError(FinsumError):
    """A special function was evaluated at a pole (e.g. H at a negative integer)."""
    exit_code = 2


class DivisionByZero(FinsumError):
    """Exact division by an expression that evaluates to zero."""
    exit_code = 2


class EvalTypeError(FinsumError):
    """A value of the wrong kind (e.g. non-integer where an integer is required)."""
    exit_code = 2


class UnboundVariable(FinsumError):
    """An expression was evaluated with a free variable left unbound."""
    exit_code = 2


class DslSyntaxError(FinsumError):
    """Parse failure; carries the byte offset and what was expected there."""
    exit_code = 2

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}" + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class ArityError(FinsumError):
    """A DSL function was called with the wrong number of arguments."""
    exit_code = 2


class UsageError(FinsumError):
    """A command line or call that names a bad value, option, operation or
    corpus entry."""
    exit_code = 2


class FormatError(FinsumError):
    """An identity document is malformed."""
    exit_code = 3


class ShapeError(FinsumError):
    """An identity does not have the shape an operation requires."""
    exit_code = 4


class NegativeExponent(FinsumError):
    """A (1-t)/t exponent evaluated to a negative integer during expansion."""
    exit_code = 2
