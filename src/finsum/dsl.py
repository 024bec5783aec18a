"""The tiny expression language in which identity coefficients and closed
forms are written.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := INT | VAR | "(" expr ")" | call
    call   := IDENT "(" expr ("," expr)* ")"

``sum(index, lo, hi, body)`` is the surface form of a bounded sum.  A rational
literal like 5/2 parses as a division of integers; the two spellings evaluate
identically.  ``t`` is accepted as a variable, but not as a sum index.

One evaluator, ``evaluate``, serves scalar and polynomial values.  Rational
values travel as ``int`` or ``Fraction``; only ``H``, ``binom`` and ``rbinom``
at half-integer points produce ln2 or sqrt(pi) terms, which the ``special``
accessors hand over as a ``SymConst``, and from there Python's operators
carry it.  Bound to ``polyverify.DensePoly.variable()``, ``t`` makes the
value a polynomial in t the same way, and ``U(m)`` is the Chebyshev
polynomial U_m of it; ``U`` is an error anywhere else.  ``eval_scalar``
lifts a scalar value to ``SymConst``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ArityError, DivisionByZero, DslSyntaxError, EvalTypeError,
                     PoleError, UnboundVariable)
from .field import HalfInt, exact_div, lift, to_halfint, to_int
from . import special

VAR_NAMES = ("n", "k", "j", "r", "s", "u", "v", "t")

# function name -> arity
FUNCTIONS = {
    "binom": 2,
    "rbinom": 2,
    "H": 1,
    "Hm": 2,
    "O": 1,
    "Om": 2,
    "kron": 2,
    "fact": 1,
    "sign": 1,
    "floor": 1,
    "U": 1,
}


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class BoundedSum:
    index: str
    lower: object
    upper: object
    body: object


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            try:
                value = int(m.group(1))
            except ValueError:  # past the interpreter's int-from-str digit limit
                raise DslSyntaxError(f"integer literal of {len(m.group(1))} digits is too long",
                                     m.start(1)) from None
            tokens.append(("int", value, m.start(1)))
        elif m.group(2):
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise DslSyntaxError("parse error", off, expected=(repr(op),))
        return self.next()

    def parse(self):
        expr = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise DslSyntaxError("trailing input", off, expected=("end of input",))
        return expr

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Pow(base, self.unary())
        return base

    def atom(self):
        kind, val, off = self.next()
        if kind == "int":
            return Lit(Fraction(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                return self.call(val, off)
            if val in VAR_NAMES:
                return Var(val)
            raise DslSyntaxError(f"unknown variable {val!r}", off, expected=VAR_NAMES)
        raise DslSyntaxError("parse error", off, expected=("INT", "VAR", "'('", "call"))

    def call(self, name, off):
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if name == "sum":
            if len(args) != 4:
                raise ArityError(f"sum takes 4 arguments, got {len(args)}")
            index = args[0]
            if not isinstance(index, Var):
                raise DslSyntaxError("sum index must be a variable", off)
            if index.name == "t":
                raise DslSyntaxError("sum index cannot be the indeterminate t", off)
            return BoundedSum(index.name, args[1], args[2], args[3])
        if name not in FUNCTIONS:
            raise DslSyntaxError(f"unknown function {name!r}", off, expected=sorted(FUNCTIONS))
        if len(args) != FUNCTIONS[name]:
            raise ArityError(f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}")
        return Call(name, tuple(args))


def parse(text):
    """Parse a DSL expression into an AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering

def render(expr):
    """Canonical pretty-printer; parse(render(e)) == e for parser-produced ASTs."""
    return _render(expr, 0)


def _render(e, parent_prec):
    if isinstance(e, Lit):
        if e.value.denominator == 1:
            s = str(e.value.numerator)
            return s if e.value >= 0 else f"({s})"
        return _wrap(f"{e.value.numerator}/{e.value.denominator}", 2, parent_prec)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return _wrap(f"-{_render(e.operand, 3)}", 3, parent_prec)
    if isinstance(e, Add):
        return _wrap(f"{_render(e.left, 1)} + {_render(e.right, 2)}", 1, parent_prec)
    if isinstance(e, Sub):
        return _wrap(f"{_render(e.left, 1)} - {_render(e.right, 2)}", 1, parent_prec)
    if isinstance(e, Mul):
        return _wrap(f"{_render(e.left, 2)}*{_render(e.right, 3)}", 2, parent_prec)
    if isinstance(e, Div):
        return _wrap(f"{_render(e.left, 2)}/{_render(e.right, 3)}", 2, parent_prec)
    if isinstance(e, Pow):
        return _wrap(f"{_render(e.base, 5)}^{_render(e.exponent, 4)}", 4, parent_prec)
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_render(a, 0) for a in e.args)})"
    if isinstance(e, BoundedSum):
        return f"sum({e.index}, {_render(e.lower, 0)}, {_render(e.upper, 0)}, {_render(e.body, 0)})"
    raise EvalTypeError(f"not an AST node: {e!r}")


def _wrap(s, prec, parent_prec):
    return f"({s})" if prec < parent_prec else s


# ---------------------------------------------------------------------------
# traversal

def children(expr):
    """The direct sub-expressions of a node, in field order.

    A ``BoundedSum``'s body comes last; it is the only place a name is bound.
    """
    if isinstance(expr, (Lit, Var)):
        return ()
    if isinstance(expr, Neg):
        return (expr.operand,)
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return (expr.left, expr.right)
    if isinstance(expr, Pow):
        return (expr.base, expr.exponent)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, BoundedSum):
        return (expr.lower, expr.upper, expr.body)
    raise EvalTypeError(f"not an AST node: {expr!r}")


def free_vars(expr):
    """Names of the variables that occur free in the expression."""
    if isinstance(expr, Var):
        return {expr.name}
    names = [free_vars(child) for child in children(expr)]
    if isinstance(expr, BoundedSum):
        names[-1].discard(expr.index)
    return set().union(*names)


def substitute(expr, name, replacement):
    """Replace every free occurrence of variable ``name`` by an AST."""
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    kids = [substitute(child, name, replacement) for child in children(expr)]
    if isinstance(expr, BoundedSum):
        if expr.index == name:
            kids[-1] = expr.body
        return BoundedSum(expr.index, *kids)
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(kids))
    return type(expr)(*kids) if kids else expr


def is_polynomial(expr):
    """True when some node is the indeterminate ``t`` or a ``U(...)`` call.

    The parser refuses ``t`` as a sum index, so every ``t`` is the
    indeterminate and no binding context is needed.
    """
    if isinstance(expr, Var):
        return expr.name == "t"
    if isinstance(expr, Call) and expr.fn == "U":
        return True
    for child in children(expr):
        if is_polynomial(child):
            return True
    return False


# ---------------------------------------------------------------------------
# evaluation
#
# ``evaluate`` returns an int, a Fraction or a SymConst, or a
# ``polyverify.DensePoly`` once ``t`` is bound to one.  Python's operators mix
# them: int and Fraction decline a SymConst or DensePoly operand, and SymConst
# declines a DensePoly, which then takes the reflected operation.  int / int
# and int ** -m would leave exact arithmetic for a float, so Div and Pow go
# through Fraction there.

def eval_scalar(expr, bindings):
    """Exact value of a scalar expression under half-integer bindings."""
    return lift(evaluate(expr, bindings))


def evaluate(expr, bindings):
    """Value of an expression under its bindings, unlifted: a plain int or
    Fraction when rational, else a SymConst, or a DensePoly when ``t`` is
    bound to one.  Every other binding is a HalfInt."""
    cls = type(expr)
    if cls is Var:
        try:
            twice = bindings[expr.name].twice
        except KeyError:
            raise UnboundVariable(f"variable {expr.name!r} is unbound") from None
        except AttributeError:  # the indeterminate t, bound to a DensePoly
            return bindings[expr.name]
        return Fraction(twice, 2) if twice & 1 else twice >> 1
    if cls is Lit:
        value = expr.value
        return value.numerator if value.denominator == 1 else value
    if cls is Mul:
        return evaluate(expr.left, bindings) * evaluate(expr.right, bindings)
    if cls is Add:
        return evaluate(expr.left, bindings) + evaluate(expr.right, bindings)
    if cls is Sub:
        return evaluate(expr.left, bindings) - evaluate(expr.right, bindings)
    if cls is Call:
        return _eval_call(expr, bindings)
    if cls is Div:
        denom = evaluate(expr.right, bindings)
        if denom == 0:
            raise DivisionByZero(f"division by zero in {render(expr)}")
        return exact_div(evaluate(expr.left, bindings), denom)
    if cls is Neg:
        return -evaluate(expr.operand, bindings)
    if cls is Pow:
        exp = _int_arg(expr.exponent, bindings, "exponent")
        base = evaluate(expr.base, bindings)
        if exp < 0:
            if base == 0:
                raise DivisionByZero(f"zero base with negative exponent in {render(expr)}")
            if type(base) is int:
                base = Fraction(base)
        return base ** exp
    if cls is BoundedSum:
        lo = _int_arg(expr.lower, bindings, "sum lower bound")
        hi = _int_arg(expr.upper, bindings, "sum upper bound")
        total = 0
        inner = dict(bindings)
        for i in range(lo, hi + 1):
            inner[expr.index] = HalfInt(2 * i)
            total = total + evaluate(expr.body, inner)
        return total
    raise EvalTypeError(f"not an AST node: {expr!r}")


def _int_arg(expr, bindings, what):
    value = evaluate(expr, bindings)
    try:
        return to_int(value)
    except EvalTypeError:
        raise EvalTypeError(f"{what} must be an integer, got {value}") from None


def _half_arg(expr, bindings):
    return to_halfint(evaluate(expr, bindings))


def _twice_arg(expr, bindings):
    """Twice the half-integer value of an argument, as an int."""
    value = evaluate(expr, bindings)
    if type(value) is int:
        return 2 * value
    if type(value) is Fraction and value.denominator == 2:
        return value.numerator
    return to_halfint(value).twice


def _eval_call(expr, bindings):
    fn = expr.fn
    args = expr.args
    if fn == "binom":
        b = special.binom_at(_twice_arg(args[0], bindings), _twice_arg(args[1], bindings))
        if b is special.INFINITE:
            raise PoleError(f"{render(expr)} is infinite")
        return b
    if fn == "rbinom":
        return special.rbinom_at(_twice_arg(args[0], bindings), _twice_arg(args[1], bindings))
    if fn == "H":
        return special.harmonic_at(_twice_arg(args[0], bindings))
    if fn == "Hm":
        return special.harmonic_m(_int_arg(args[0], bindings, "Hm order-n"),
                                  _int_arg(args[1], bindings, "Hm order-m"))
    if fn == "O":
        return special.odd_harmonic_m(_int_arg(args[0], bindings, "O argument"), 1)
    if fn == "Om":
        return special.odd_harmonic_m(_int_arg(args[0], bindings, "Om argument"),
                                      _int_arg(args[1], bindings, "Om order"))
    if fn == "kron":
        a = _half_arg(args[0], bindings)
        b = _half_arg(args[1], bindings)
        return 1 if a == b else 0
    if fn == "fact":
        return special.factorial(_int_arg(args[0], bindings, "factorial argument"))
    if fn == "sign":
        return -1 if _int_arg(args[0], bindings, "sign argument") % 2 else 1
    if fn == "floor":
        return _half_arg(args[0], bindings).floor()
    if fn == "U":
        t = bindings.get("t")
        if t is None or type(t) is HalfInt:
            raise EvalTypeError("U(...) is only meaningful in polynomial context")
        return special.chebyshev_u(_int_arg(args[0], bindings, "U degree"))(t)
    raise EvalTypeError(f"unknown function {fn!r}")
