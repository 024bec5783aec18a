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

One evaluator serves scalar and polynomial values: ``compile`` turns an
expression into a closure over bindings, once, and a caller that evaluates
an expression at many points (a coefficient at every k, a side at every
grid point) compiles it once and calls the closure.  ``evaluate`` and
``eval_scalar`` compile and call, for one-shot callers.  Rational values
travel as ``int`` or ``Fraction``; only ``H``, ``binom`` and ``rbinom`` at
half-integer points produce ln2 or sqrt(pi) terms, which the ``special``
accessors hand over as a ``SymConst``, and from there Python's operators
carry it.  Bound to ``polyverify.DensePoly.variable()``, ``t`` makes the
value a polynomial in t the same way, and ``U(m)`` is the Chebyshev
polynomial U_m of it; ``U`` is an error anywhere else.  ``eval_scalar``
lifts a scalar value to ``SymConst``.
"""

from __future__ import annotations

import operator
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
    if isinstance(e, (Add, Sub, Mul)):
        return _render_chain(e, parent_prec)
    if isinstance(e, Div):
        return _wrap(f"{_render(e.left, 2)}/{_render(e.right, 3)}", 2, parent_prec)
    if isinstance(e, Pow):
        return _wrap(f"{_render(e.base, 5)}^{_render(e.exponent, 4)}", 4, parent_prec)
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_render(a, 0) for a in e.args)})"
    if isinstance(e, BoundedSum):
        return f"sum({e.index}, {_render(e.lower, 0)}, {_render(e.upper, 0)}, {_render(e.body, 0)})"
    raise EvalTypeError(f"not an AST node: {e!r}")


_CHAIN_TEXT = {Add: " + ", Sub: " - ", Mul: "*"}


def _render_chain(e, parent_prec):
    """A left-associative chain of ``+ -`` or of ``*`` rendered by one loop
    down its left spine."""
    prec, group = (2, (Mul,)) if type(e) is Mul else (1, (Add, Sub))
    parts = []
    while type(e) in group:
        parts.append(_CHAIN_TEXT[type(e)] + _render(e.right, prec + 1))
        e = e.left
    parts.append(_render(e, prec))
    return _wrap("".join(reversed(parts)), prec, parent_prec)


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
    """Names of the variables that occur free in the expression.  A loop
    over a stack walks the tree; only a sum's body is a recursive call."""
    names = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if type(e) is Var:
            names.add(e.name)
        elif type(e) is BoundedSum:
            stack += (e.lower, e.upper)
            names |= free_vars(e.body) - {e.index}
        else:
            stack += children(e)
    return names


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
    stack = [expr]
    while stack:
        e = stack.pop()
        if type(e) is Var and e.name == "t" or type(e) is Call and e.fn == "U":
            return True
        stack += children(e)
    return False


# ---------------------------------------------------------------------------
# evaluation
#
# ``compile`` turns an AST into a closure over bindings.  A value is an int,
# a Fraction or a SymConst, or a ``polyverify.DensePoly`` once ``t`` is bound
# to one.  Python's operators mix them: int and Fraction decline a SymConst
# or DensePoly operand, and SymConst declines a DensePoly, which then takes
# the reflected operation.  int / int and int ** -m would leave exact
# arithmetic for a float, so Div and Pow go through Fraction there.
#
# Every node evaluates its operands in the same order as a plain tree walk
# would (left to right, but a Div's denominator and a Pow's exponent first),
# so the first error a point meets does not depend on how it was compiled.

def eval_scalar(expr, bindings):
    """Exact value of a scalar expression under half-integer bindings."""
    return lift(compile(expr)(bindings))


def evaluate(expr, bindings):
    """Value of an expression under its bindings, unlifted: a plain int or
    Fraction when rational, else a SymConst, or a DensePoly when ``t`` is
    bound to one.  Every other binding is a HalfInt."""
    return compile(expr)(bindings)


def compile(expr):
    """A closure ``f(bindings)`` that returns what ``evaluate(expr,
    bindings)`` does.  Node dispatch and literals are settled here, once;
    every error is raised by the closure, never by the compiler.

    A left-associative chain of ``+ - *`` runs as one loop, so a long flat
    sum or product recurses neither here nor when it runs.  An argument of
    ``binom``, ``rbinom`` or ``H`` that is affine in its variables with
    integer coefficients (``n-k+r-s``, ``2*k+1``) is computed as an int on
    the bindings' ``twice`` values, with no Fraction arithmetic."""
    return _compile(expr)


def _compile(e):
    cls = type(e)
    if cls is Var:
        return _compile_var(e.name)
    if cls is Lit:
        value = e.value.numerator if e.value.denominator == 1 else e.value
        return lambda b: value
    if cls is Add or cls is Sub or cls is Mul:
        return _compile_chain(e)
    if cls is Call:
        return _compile_call(e)
    if cls is Div:
        num = _compile(e.left)
        den = _compile(e.right)

        def div(b):
            d = den(b)
            if d == 0:
                raise DivisionByZero(f"division by zero in {render(e)}")
            return exact_div(num(b), d)
        return div
    if cls is Neg:
        operand = _compile(e.operand)
        return lambda b: -operand(b)
    if cls is Pow:
        return _compile_pow(e)
    if cls is BoundedSum:
        return _compile_sum(e)
    return _failing(EvalTypeError, f"not an AST node: {e!r}")


def _failing(error, message):
    def fail(b):
        raise error(message)
    return fail


def _compile_var(name):
    def var(b):
        try:
            twice = b[name].twice
        except KeyError:
            raise UnboundVariable(f"variable {name!r} is unbound") from None
        except AttributeError:  # the indeterminate t, bound to a DensePoly
            return b[name]
        return Fraction(twice, 2) if twice & 1 else twice >> 1
    return var


_CHAIN_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _compile_chain(e):
    """((a op b) op c) ... as one loop over the chain's left spine."""
    steps = []
    while type(e) in _CHAIN_OPS:
        steps.append((_CHAIN_OPS[type(e)], _compile(e.right)))
        e = e.left
    first = _compile(e)
    steps = tuple(reversed(steps))

    def chain(b):
        value = first(b)
        for op, right in steps:
            value = op(value, right(b))
        return value
    return chain


def _compile_pow(e):
    base = _compile(e.base)
    exponent = _compile_int(e.exponent, "exponent")

    def pow_(b):
        exp = exponent(b)
        value = base(b)
        if exp < 0:
            if value == 0:
                raise DivisionByZero(f"zero base with negative exponent in {render(e)}")
            if type(value) is int:
                value = Fraction(value)
        return value ** exp
    return pow_


def _compile_sum(e):
    index = e.index
    lower = _compile_int(e.lower, "sum lower bound")
    upper = _compile_int(e.upper, "sum upper bound")
    body = _compile(e.body)

    def bounded_sum(b):
        lo = lower(b)
        hi = upper(b)
        total = 0
        inner = dict(b)
        for i in range(lo, hi + 1):
            inner[index] = HalfInt(2 * i)
            total = total + body(inner)
        return total
    return bounded_sum


def _compile_int(e, what):
    """A closure for the integer value of an argument; EvalTypeError naming
    ``what`` when the value is not an integer."""
    value = _compile(e)

    def int_arg(b):
        v = value(b)
        try:
            return to_int(v)
        except EvalTypeError:
            raise EvalTypeError(f"{what} must be an integer, got {v}") from None
    return int_arg


def _compile_twice(e):
    """A closure for twice the half-integer value of an argument, as an int;
    EvalTypeError when the value is not a half-integer."""
    value = _compile(e)

    def twice_arg(b):
        v = value(b)
        if type(v) is int:
            return 2 * v
        if type(v) is Fraction and v.denominator == 2:
            return v.numerator
        return to_halfint(v).twice
    return twice_arg


# -- binom, rbinom and H arguments on twice-ints ----------------------------

def _compile_special_arg(e):
    """``_compile_twice(e)``, computed by ``twice_sum`` when ``e`` is built
    from literals and variables other than t by ``+``, ``-`` and products
    ``literal*e``.  A name whose coefficient cancels stays, and a variable
    that is unbound or bound to a polynomial falls back to the expression
    as written, so it raises the same error."""
    slow = _compile_twice(e)
    coeffs = {}
    const = 0
    stack = [(e, 1)]
    while stack:
        node, scale = stack.pop()
        cls = type(node)
        if cls is Lit:
            const += scale * node.value
        elif cls is Var and node.name != "t":
            coeffs[node.name] = coeffs.get(node.name, 0) + scale
        elif cls is Add or cls is Sub:
            stack.append((node.right, scale if cls is Add else -scale))
            stack.append((node.left, scale))
        elif cls is Neg:
            stack.append((node.operand, -scale))
        elif cls is Mul and type(node.left) is Lit:
            stack.append((node.right, scale * node.left.value))
        else:
            return slow
    fast = twice_sum(coeffs.items(), const)
    if fast is None:
        return slow

    def special_arg(b):
        try:
            return fast(b)
        except (KeyError, AttributeError):
            return slow(b)
    return special_arg


def twice_sum(terms, const):
    """A closure for twice the value of ``const + sum(c * name)`` over
    ``terms`` = ((name, c), ...) at half-integer bindings, as an int computed
    on the bindings' ``twice`` values; None unless every c is an integer and
    ``const`` a half-integer.  An unbound name raises KeyError, and a binding
    that is not a HalfInt AttributeError."""
    terms = tuple((name, Fraction(c)) for name, c in terms)
    twice_const = 2 * Fraction(const)
    if twice_const.denominator != 1 or any(c.denominator != 1 for _, c in terms):
        return None
    terms = tuple((name, c.numerator) for name, c in terms)
    twice_const = twice_const.numerator

    def twice(b):
        total = twice_const
        for name, c in terms:
            total += c * b[name].twice
        return total
    return twice


# -- calls ----------------------------------------------------------------

# name -> the value of a call at its compiled arguments
_CALLS = {
    "rbinom": special.rbinom_at,
    "H": special.harmonic_at,
    "Hm": special.harmonic_m,
    "O": lambda n: special.odd_harmonic_m(n, 1),
    "Om": special.odd_harmonic_m,
    "kron": lambda x, y: 1 if x == y else 0,
    "fact": special.factorial,
    "sign": lambda n: -1 if n % 2 else 1,
    "floor": lambda x: x // 2,
}

# name -> what each integer argument is called in an EvalTypeError
_INT_ARGS = {
    "Hm": ("Hm order-n", "Hm order-m"),
    "O": ("O argument",),
    "Om": ("Om argument", "Om order"),
    "fact": ("factorial argument",),
    "sign": ("sign argument",),
    "U": ("U degree",),
}


def _compile_call(e):
    fn = e.fn
    if fn in ("binom", "rbinom", "H"):
        xs = [_compile_special_arg(a) for a in e.args]
    elif fn in ("kron", "floor"):
        xs = [_compile_twice(a) for a in e.args]
    else:
        xs = [_compile_int(a, what) for a, what in zip(e.args, _INT_ARGS.get(fn, ()))]
    if fn == "binom":
        x, y = xs

        def binom(b):
            value = special.binom_at(x(b), y(b))
            if value is special.INFINITE:
                raise PoleError(f"{render(e)} is infinite")
            return value
        return binom
    if fn == "U":
        m, = xs

        def chebyshev(b):
            t = b.get("t")
            if t is None or type(t) is HalfInt:
                raise EvalTypeError("U(...) is only meaningful in polynomial context")
            return special.chebyshev_u(m(b))(t)
        return chebyshev
    if fn not in _CALLS:
        return _failing(EvalTypeError, f"unknown function {fn!r}")
    f = _CALLS[fn]
    if len(xs) == 1:
        x, = xs
        return lambda b: f(x(b))
    x, y = xs
    return lambda b: f(x(b), y(b))
