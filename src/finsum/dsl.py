"""The tiny expression language in which identity coefficients and closed
forms are written.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := INT | VAR | "(" expr ")" | call
    call   := IDENT "(" expr ("," expr)* ")"

Parentheses, unary minus, ``^`` and call arguments nest at most
``MAX_DEPTH`` levels deep; deeper text is a ``DslSyntaxError``, never a
``RecursionError``.

A ``+ -`` or ``* /`` chain is one n-ary node, ``Add`` or ``Mul``, with its
operands in order; every walk of the tree (``children``, ``render``,
``substitute``, ``compile``, ``signed_terms``) iterates them.

``sum(index, lo, hi, body)`` is the surface form of a bounded sum.  A rational
literal like 5/2 parses as a division of integers; the two spellings evaluate
identically.  ``t`` is accepted as a variable, but not as a sum index.

One evaluator serves scalar and polynomial values: ``compile`` turns an
expression into a closure over bindings, once, and a caller that evaluates
an expression at many points (a coefficient at every k, a side at every
grid point) compiles it once and calls the closure.  ``eval_scalar``
compiles, calls and lifts the value to ``SymConst``.  Rational values
travel as ``int`` or ``Fraction``, and a ``*``/``/`` chain reduces its
rational operands once, not per operator; only ``H``, ``binom`` and
``rbinom`` at half-integer points produce ln2 or sqrt(pi) terms, which the
``special`` accessors hand over as a ``SymConst``, and from there Python's
operators carry it.  Bound to ``polyverify.DensePoly.variable()``, ``t``
makes the value a polynomial in t the same way, through the same closures,
and ``U(m)`` is the cached Chebyshev polynomial ``polyverify.chebyshev_u(m)``;
``U`` is an error wherever ``t`` is not bound to that variable.

``Affine`` is the one affine form: integer coefficients on the variables
other than t, a coefficient of 1/2 allowed on n, u and v, and a
half-integer constant.  ``affine`` reads one out of an expression, and
``Affine.compile_twice`` computes twice its value as an int; ``binom``,
``rbinom``, ``H`` and ``fact`` arguments run that way here, and the
exponents of standard terms and the factors and brackets of closed terms
are ``Affine`` values.  ``signed_terms`` is the one walk of a signed
``+ -`` sum, which ``affine`` and the closed-term split both read.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (ArityError, DivisionByZero, DslSyntaxError, EvalTypeError,
                     FinsumError, PoleError, UnboundVariable)
from .field import Sum, SymConst, exact_div, half, lift, to_int, to_twice
from . import special

VAR_NAMES = ("n", "k", "j", "r", "s", "u", "v", "t")

MAX_DEPTH = 100   # nesting levels of ( ), unary -, ^ and call arguments

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


@dataclass(frozen=True, slots=True)
class Lit:
    value: Fraction


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    operand: object


@dataclass(frozen=True, slots=True)
class _Chain:
    """A whole ``+ -`` or ``* /`` chain: its ``operands``, and whether each is
    subtracted or divided (``inverted``, never the first).  A first operand
    of the chain's own type is spliced in: ``(a+b)+c`` is ``a+b+c``."""

    operands: tuple
    inverted: tuple

    def __post_init__(self):
        first = self.operands[0]
        if type(first) is type(self):
            object.__setattr__(self, "operands", first.operands + self.operands[1:])
            object.__setattr__(self, "inverted", first.inverted + self.inverted[1:])


@dataclass(frozen=True, slots=True)
class Add(_Chain):
    """operands[0] + or - operands[1] + or - ..."""


@dataclass(frozen=True, slots=True)
class Mul(_Chain):
    """operands[0] * or / operands[1] * or / ..."""


@dataclass(frozen=True, slots=True)
class Pow:
    base: object
    exponent: object


@dataclass(frozen=True, slots=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True, slots=True)
class BoundedSum:
    index: str
    lower: object
    upper: object
    body: object


# one token after optional whitespace: an integer, a name, an operator, or
# (group 4) any other character, which is an error
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,])|(\S))")
_TOKEN_KINDS = (None, "int", "ident", "op")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 4:
            raise DslSyntaxError(f"unexpected character {m.group(4)!r}", m.start(4))
        value = m.group(group)
        if group == 1:
            try:
                value = int(value)
            except ValueError:  # past the interpreter's int-from-str digit limit
                raise DslSyntaxError(f"integer literal of {len(value)} digits is too long",
                                     m.start(1)) from None
        tokens.append((_TOKEN_KINDS[group], value, m.start(group)))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

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

    def nested(self, parse, off):
        """``parse()`` one nesting level deeper; DslSyntaxError past MAX_DEPTH."""
        if self.depth == MAX_DEPTH:
            raise DslSyntaxError(f"expression nests more than {MAX_DEPTH} levels deep", off)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        expr = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise DslSyntaxError("trailing input", off, expected=("end of input",))
        return expr

    def expr(self, term=False):
        """An ``expr``, or with ``term`` a ``term``, by one loop over its
        operands: one ``Add`` or ``Mul`` node, or the lone operand."""
        node, ops = (self.unary(), "*/") if term else (self.expr(True), "+-")
        kind, val, _ = self.peek()
        if kind != "op" or val not in ops:
            return node
        operands, inverted = [node], [False]
        while kind == "op" and val in ops:
            self.next()
            operands.append(self.unary() if term else self.expr(True))
            inverted.append(val == ops[1])
            kind, val, _ = self.peek()
        return (Mul if term else Add)(tuple(operands), tuple(inverted))

    def unary(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.nested(self.unary, off))
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Pow(base, self.nested(self.unary, off))
        return base

    def atom(self):
        kind, val, off = self.next()
        if kind == "int":
            return Lit(Fraction(val))
        if kind == "op" and val == "(":
            node = self.nested(self.expr, off)
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
        args = [self.nested(self.expr, off)]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.nested(self.expr, off))
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
    if isinstance(e, _Chain):
        prec, symbols = (1, (" + ", " - ")) if type(e) is Add else (2, ("*", "/"))
        text = _render(e.operands[0], prec) + "".join(
            symbols[inverted] + _render(x, prec + 1)
            for x, inverted in zip(e.operands[1:], e.inverted[1:]))
        return _wrap(text, prec, parent_prec)
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
    if isinstance(expr, _Chain):
        return expr.operands
    if isinstance(expr, Pow):
        return (expr.base, expr.exponent)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, BoundedSum):
        return (expr.lower, expr.upper, expr.body)
    raise EvalTypeError(f"not an AST node: {expr!r}")


def free_vars(expr):
    """Names of the variables that the expression reads free; ``U(m)`` reads
    the indeterminate ``t``.  A loop over a stack walks the tree; only a
    sum's body is a recursive call."""
    names = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        cls = type(e)
        if cls is Var:
            names.add(e.name)
        elif cls is Lit:
            pass
        elif cls is Add or cls is Mul:
            stack += e.operands
        elif cls is Call:
            if e.fn == "U":
                names.add("t")
            stack += e.args
        elif cls is BoundedSum:
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
    if isinstance(expr, _Chain):
        return type(expr)(tuple(kids), expr.inverted)
    return type(expr)(*kids) if kids else expr


# ---------------------------------------------------------------------------
# evaluation
#
# ``compile`` turns an AST into a closure over bindings.  A value is an int,
# a Fraction or a SymConst, or a ``polyverify.DensePoly`` once ``t`` is bound
# to one.  Python's operators mix them: int and Fraction decline a SymConst
# or DensePoly operand, and SymConst declines a DensePoly, which then takes
# the reflected operation.  int / int and int ** -m would leave exact
# arithmetic for a float, so a division and Pow go through Fraction there.
#
# Every node evaluates its operands in the same order as a walk of the
# binary tree of its chain would: left to right, but a Pow's exponent first,
# and a product's divisors right to left before its other operands.  So the
# first error a point meets does not depend on how it was compiled.

def eval_scalar(expr, bindings):
    """Exact value of a scalar expression under its bindings."""
    return lift(compile(expr)(bindings))


def compile(expr):
    """A closure ``f(bindings)`` for the value of the expression under its
    bindings, unlifted: a plain int or Fraction when rational, else a
    SymConst, or a DensePoly when ``t`` is bound to one.  Every other binding
    is a half-integer in ``field.half`` normal form: an int, or a Fraction
    with denominator 2.  Node dispatch and literals are settled here, once;
    every error is raised by the closure, never by the compiler.

    A ``+ -`` or ``* /`` chain is one node and runs as one loop over its
    operands, so a long flat sum or product recurses neither here nor when
    it runs.  A product reduces once: its int and Fraction operands
    multiply one int numerator and denominator, whether its other operands
    are SymConst values or polynomials.  An argument of ``binom``,
    ``rbinom``, ``H`` or ``fact`` that is an ``Affine`` (``n-k+r-s``,
    ``k+s``) is computed as an int on twice the bindings' values, with no
    Fraction arithmetic unless it has a half coefficient.  A bounded sum
    adds its body values into one accumulator and builds its value once, at
    the end; a body that is a monomial c * t^m by its syntax adds c at
    offset m there without building t^m or the product, and a step where
    that fails runs the body as written.  A sum inside the body of a sum
    over v, whose upper bound is v + c and whose lower bound and body read
    no v, goes on from its value at the previous step of v instead of
    starting again from its lower bound (``_compile_sum``)."""
    return _compile(expr)


def _compile(e):
    cls = type(e)
    if cls is Var:
        return _compile_var(e.name)
    if cls is Lit:
        value = e.value.numerator if e.value.denominator == 1 else e.value
        return lambda b: value
    if cls is Add:
        return _compile_chain(e)
    if cls is Mul:
        return _compile_product(e)
    if cls is Call:
        return _compile_call(e)
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
            return b[name]
        except KeyError:
            raise UnboundVariable(f"variable {name!r} is unbound") from None
    return var


def _compile_chain(e):
    """a + or - b + or - c ... as one loop over the operands."""
    first, *rest = map(_compile, e.operands)
    steps = [(operator.sub if sub else operator.add, f) for f, sub in zip(rest, e.inverted[1:])]

    def chain(b):
        value = first(b)
        for op, f in steps:
            value = op(value, f(b))
        return value
    return chain


# -- products ---------------------------------------------------------------

def _compile_product(e):
    """a * or / b * or / c ... as one loop over the operands.

    Operands run in tree-walk order: every divisor right to left, checked
    for zero as it is evaluated, then the others left to right; a zero
    polynomial divisor is caught with the zero scalars.  A division's step
    is None.  Int and Fraction values go into one int numerator and
    denominator, reduced once; any other value (a SymConst or a DensePoly)
    goes in by Python's operators as its step comes, so in order, and meets
    the rational part at the end."""
    divisors, steps = [], []
    for i, (node, inverted) in enumerate(zip(e.operands, e.inverted)):
        f = _compile(node)
        if inverted:
            divisors.append((i, f))
            f = None
        steps.append(f)
    divisors.reverse()

    def product(b):
        pending = []
        for i, f in divisors:
            d = f(b)
            if d == 0 or type(d) is not int and type(d) is not Fraction and d.is_zero:
                raise DivisionByZero(f"division by zero in {_render_upto(e, i)}")
            pending.append(d)
        num = den = 1
        rest = None
        for f in steps:
            x = pending.pop() if f is None else f(b)
            if type(x) is int:
                p, q = x, 1
            elif type(x) is Fraction:
                p, q = x.numerator, x.denominator
            else:
                # a popped divisor's index sits at pending's new length
                i = None if f is not None else divisors[len(pending)][0]
                rest = _product_step(rest, x, e, i)
                continue
            if f is None:
                p, q = q, p
            num *= p
            den *= q
        if rest is None:
            return num if den == 1 else exact_div(num, den)
        return rest if num == den else rest * exact_div(num, den)
    return product


def _product_step(value, x, e, i):
    """``value`` (None before any operand) times ``x``, or over it when
    ``x`` is the product ``e``'s operand ``i``, a divisor.  A divisor with t
    in it is an EvalTypeError naming it."""
    if i is None:
        return x if value is None else value * x
    if type(x) is not SymConst and x.degree > 0:
        raise EvalTypeError(f"division by the polynomial {render(e.operands[i])}"
                            f" in {_render_upto(e, i)}")
    return exact_div(1 if value is None else value, x)


def _render_upto(e, i):
    """The text of the product ``e`` up to its operand ``i``, built on error."""
    return render(Mul(e.operands[:i + 1], e.inverted[:i + 1]))


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
    """sum(index, lo, hi, body) as one accumulator per evaluation: a scalar
    body value goes into a ``field.Sum``, a polynomial one into a row of int
    numerators per field monomial (``polyverify._add``).  The rows are
    trimmed and reduced once at the end and joined with the scalar total,
    so no step builds a value; an empty range is the int 0.

    A body that is a monomial c * t^m by its syntax (``_monomial``) adds,
    while t is bound to the variable, c's field terms, or its rows when c
    is a polynomial, into the rows at offset m, with no t^m or product
    built; an int or Fraction c is one int added at offset m
    (``polyverify._add_one``).  A step where c or m raises a FinsumError,
    or m is negative, runs the body as written, so that it raises that
    product's error.

    A sum whose upper bound is v + c, for a variable v and a constant c,
    and whose lower bound and body read no v (``_carried_over``) is carried
    when it runs in the body of a sum over v, at any depth but inside no
    other sum: each step of that sum continues the accumulator of its
    previous step, kept in that evaluation's bindings, instead of starting
    again from the lower bound.  Its values, and the error and the step
    where a step fails, are those of the restart."""
    from .polyverify import DensePoly, _add, _add_one, _add_terms, _parts, _poly, _terms
    index = e.index
    lower = _compile_int(e.lower, "sum lower bound")
    upper = _compile_int(e.upper, "sum upper bound")
    body = _compile(e.body)
    monomial = _monomial(e.body)
    if monomial is not None:
        coeff = _compile(monomial[0])
        exponent = _compile_int(monomial[1], "exponent")
        variable = DensePoly.variable()

    def add(inner, lo, hi, scalars, rows):
        """Add the body at index lo..hi, under the bindings ``inner``, into
        ``scalars`` and ``rows`` (None until a polynomial value comes);
        return the rows."""
        fast = monomial is not None and variable == inner.get("t")
        for i in range(lo, hi + 1):
            inner[index] = i
            m = -1
            if fast:
                try:
                    value, m = coeff(inner), exponent(inner)
                except FinsumError:
                    pass
            if m < 0:
                value, m = body(inner), 0
                if type(value) is not DensePoly:
                    scalars.add(value)
                    continue
            if rows is None:
                rows = {}
            if type(value) is DensePoly:
                for key, den, nums in value.parts:
                    _add(rows, key, nums, den, 1, m)
            elif type(value) is int or type(value) is Fraction:
                _add_one(rows, (0, 0), value.numerator, value.denominator, m)
            else:
                _add_terms(rows, _terms(value), (1,), m)
        return rows

    def total(scalars, rows):
        value = scalars.value()
        if rows is None:
            return value
        poly = _poly(_parts(rows))
        return poly if value == 0 else poly + value

    def bounded_sum(b):
        lo = lower(b)
        hi = upper(b)
        scalars = Sum()
        return total(scalars, add({**b, _STEP: index}, lo, hi, scalars, None))

    outer = _carried_over(e)
    if outer is None:
        return bounded_sum
    slot = object()     # this sum's accumulator in the bindings of a step over ``outer``

    def carried_sum(b):
        if b.get(_STEP) != outer:
            return bounded_sum(b)
        state = b.get(slot)
        if state is None:   # the lower bound reads nothing that changes from step to step
            state = (lower(b), {**b, _STEP: index}, Sum(), None)
        lo, inner, scalars, rows = state
        hi = upper(b)
        # a step that fails leaves the accumulator half added, and no call reads it
        # again: the error ends the evaluation of the sum over ``outer``, since the
        # one handler on its way, the monomial fast path, runs the body as written,
        # whose own copy of this sum fails at the same step
        rows = add(inner, lo, hi, scalars, rows)
        b[slot] = (max(lo, hi + 1), inner, scalars, rows)
        return total(scalars, rows)
    return carried_sum


# the bindings key under which every sum's step bindings name its index, so that
# a carried sum knows whether it runs in the body of a sum over its ``outer``
_STEP = object()


def _carried_over(e):
    """The variable v over which the sum ``e`` can be carried, by its
    syntax: its upper bound is v + c for a constant c, and neither its
    lower bound nor its body reads v; else None.  The upper bound still
    runs at every step, so a c that is not an integer fails there."""
    a = affine(e.upper)
    if a is None or len(a.terms) != 1 or a.terms[0][1] != 1:
        return None
    (v, _), = a.terms
    if _reads(e.lower, v) or v != e.index and _reads(e.body, v):
        return None
    return v


def _reads(e, name):
    """Whether ``e`` reads the variable ``name`` free."""
    stack = [e]
    while stack:
        x = stack.pop()
        if type(x) is Var:
            if x.name == name:
                return True
        elif type(x) is BoundedSum and x.index == name:
            stack += (x.lower, x.upper)
        else:
            stack += children(x)
    return False


def _monomial(e):
    """(coefficient, exponent) nodes of ``t``, ``t^e``, or a ``* /`` chain
    with one ``t``/``t^e`` operand, multiplied: the coefficient is the
    chain of the other operands, or 1.  Else None."""
    operands = list(zip(e.inverted, e.operands)) if type(e) is Mul else [(False, e)]
    found = [i for i, (_, x) in enumerate(operands)
             if x == _TVAR or type(x) is Pow and x.base == _TVAR]
    if len(found) != 1 or operands[found[0]][0]:
        return None
    power = operands.pop(found[0])[1]
    if not operands or operands[0][0]:
        operands.insert(0, (False, _ONE))
    inverted, rest = zip(*operands)
    coeff = rest[0] if len(rest) == 1 else Mul(rest, inverted)
    return coeff, _ONE if power == _TVAR else power.exponent


_TVAR = Var("t")
_ONE = Lit(Fraction(1))


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
    return lambda b: to_twice(value(b))


# -- affine expressions on twice-ints -----------------------------------------

AFFINE_VARS = ("k", "n", "j", "r", "s", "u", "v")   # every variable but t
HALF_VARS = ("n", "u", "v")     # a closed identity binds them to integers


@dataclass(frozen=True)
class Affine:
    """The affine form k*k + n*n + j*j + r*r + s*s + u*u + v*v + const: a
    binomial, harmonic, factorial or reciprocal argument, an exponent, or an
    affine factor.  Every coefficient is an integer, but that of n, u or v
    may be a half-integer, so that ``(n + v)/2`` is affine; the constant is
    a half-integer.  So at half-integer bindings twice the value is an int,
    but where a half coefficient meets a half-odd binding.  A coefficient is
    stored as an int when integral and the constant in ``field.half``
    normal form; any other value raises EvalTypeError.

    ``terms`` holds the nonzero ((name, coefficient), ...) in the order of
    ``AFFINE_VARS`` and ``twice_const`` twice the constant, set once."""

    k: int = 0
    n: int = 0
    j: int = 0
    r: int = 0
    s: int = 0
    u: int = 0
    v: int = 0
    const: object = 0
    terms: tuple = field(init=False, compare=False, repr=False)
    twice_const: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in AFFINE_VARS:
            c = getattr(self, name)
            if type(c) is not int:
                value = int(c)
                if c != value:
                    if name not in HALF_VARS or 2 * c != int(2 * c):
                        kind = "a half-integer" if name in HALF_VARS else "an integer"
                        raise EvalTypeError(f"affine coefficient {name} = {c} is not {kind}")
                    value = Fraction(c)
                object.__setattr__(self, name, value)
        try:
            const = half(self.const)
        except EvalTypeError:
            raise EvalTypeError(f"affine constant {self.const} is not a half-integer") from None
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "twice_const", to_twice(const))
        object.__setattr__(self, "terms", tuple((name, getattr(self, name))
                                                for name in AFFINE_VARS if getattr(self, name)))

    @property
    def is_zero(self):
        return not (self.terms or self.const)

    def _combine(self, other, sign):
        return Affine(*(getattr(self, name) + sign * getattr(other, name)
                        for name in AFFINE_VARS + ("const",)))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return Affine() - self

    def compile_twice(self, fallback=None):
        """A closure for twice the value under half-integer bindings, as an
        int computed on twice the bindings' values.  An unbound name raises
        UnboundVariable, and a binding or a value that is not a
        half-integer EvalTypeError, unless a ``fallback`` closure is given:
        then the closure returns ``fallback(b)`` instead."""
        terms, twice_const = self.terms, self.twice_const

        def twice(b):
            total = twice_const
            try:
                for name, c in terms:
                    v = b[name]
                    total += c * (2 * v if type(v) is int else to_twice(v))
                if type(total) is not int:      # a half coefficient
                    total = to_twice(Fraction(total, 2))
            except (KeyError, EvalTypeError) as exc:
                if fallback is not None:
                    return fallback(b)
                if type(exc) is KeyError:
                    raise UnboundVariable(f"variable {name!r} is unbound") from None
                raise
            return total
        return twice

    def render(self):
        """DSL text, e.g. ``k + 2*n - 1/2`` or ``k + v/2``."""
        parts = []
        for name, c in self.terms:
            p, over = (c, "") if type(c) is int else (c.numerator, "/2")
            parts.append((name if p == 1 else f"-{name}" if p == -1 else f"{p}*{name}") + over)
        if self.const or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def signed_terms(e, scale=1):
    """(term, scale) of each term of the signed ``+ -`` sum ``e``, left to
    right, through nested ``Add`` chains and ``Neg``: ``scale`` negated
    once per minus that the term sits under.  Any other node is one term."""
    if type(e) is not Add and type(e) is not Neg:
        return ((e, scale),)
    terms, stack = [], [(e, scale)]
    while stack:
        node, scale = stack.pop()
        if type(node) is Add:
            stack += reversed([(x, -scale if sub else scale)
                               for x, sub in zip(node.operands, node.inverted)])
        elif type(node) is Neg:
            stack.append((node.operand, -scale))
        else:
            terms.append((node, scale))
    return terms


def affine(e):
    """The ``Affine`` that ``e`` spells when it is built from literals and
    variables other than t by ``+``, ``-``, ``literal*e`` and ``e/literal``
    with coefficients that ``Affine`` takes; else None."""
    coeffs = dict.fromkeys(AFFINE_VARS, 0)
    const = 0
    stack = [(e, 1)]
    while stack:
        node, scale = stack.pop()
        cls = type(node)
        if cls is Lit:
            const += scale * node.value
        elif cls is Var and node.name in coeffs:
            coeffs[node.name] += scale
        elif cls is Add or cls is Neg:
            stack += signed_terms(node, scale)
        elif cls is Mul and node.inverted == (False, False) and type(node.operands[0]) is Lit:
            stack.append((node.operands[1], scale * node.operands[0].value))
        elif cls is Mul and node.inverted == (False, True) and type(node.operands[1]) is Lit \
                and node.operands[1].value:
            stack.append((node.operands[0], scale / node.operands[1].value))
        else:
            return None
    try:
        return Affine(const=const, **coeffs)
    except EvalTypeError:
        return None


def _fast_twice(e, slow):
    """A closure for twice the value of ``e`` as an int, by
    ``Affine.compile_twice``, when ``e`` is an ``affine`` form; else
    ``slow``.  A name unbound or not bound to a half-integer falls back to
    ``slow``."""
    a = affine(e)
    return slow if a is None else a.compile_twice(slow)


# -- calls ----------------------------------------------------------------

def _harmonic_call(name, f):
    """``f(n, m)`` called as the DSL's ``name``: an argument out of range is
    an EvalTypeError that names the call as written, not ``f``."""
    def call(n, m=None):
        if n < 0 or m is not None and m < 1:
            if m is None:
                raise EvalTypeError(f"{name}({n}) needs n >= 0")
            raise EvalTypeError(f"{name}({n}, {m}) needs n >= 0 and m >= 1")
        return f(n, 1 if m is None else m)
    return call


def _gamma_value(c, p):
    """c*sqrt(pi)^p, p in {0, 1}, as an evaluator's value."""
    return SymConst.monomial(c, sqrtpi_exp=1) if p else c


# name -> the value of a call at its compiled arguments
_CALLS = {
    "rbinom": special.rbinom_at,
    "H": special.harmonic_at,
    "Hm": _harmonic_call("Hm", special.harmonic_m),
    "O": _harmonic_call("O", special.odd_harmonic_m),
    "Om": _harmonic_call("Om", special.odd_harmonic_m),
    "kron": lambda x, y: 1 if x == y else 0,
    "fact": lambda x: _gamma_value(*special.fact_at(x)),
    "sign": lambda n: -1 if n % 2 else 1,
    "floor": lambda x: x // 2,
}

# name -> what each integer argument is called in an EvalTypeError
_INT_ARGS = {
    "Hm": ("Hm order-n", "Hm order-m"),
    "O": ("O argument",),
    "Om": ("Om argument", "Om order"),
    "sign": ("sign argument",),
    "U": ("U degree",),
}


def _compile_call(e):
    fn = e.fn
    if fn in ("binom", "rbinom", "H", "fact"):
        xs = [_fast_twice(a, _compile_twice(a)) for a in e.args]
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
        from .polyverify import DensePoly, chebyshev_u
        m, = xs
        variable = DensePoly.variable()

        def chebyshev(b):
            if variable != b.get("t"):
                raise EvalTypeError("U(...) is only meaningful in polynomial context")
            return chebyshev_u(m(b))
        return chebyshev
    if fn not in _CALLS:
        return _failing(EvalTypeError, f"unknown function {fn!r}")
    f = _CALLS[fn]
    if len(xs) == 1:
        x, = xs
        return lambda b: f(x(b))
    x, y = xs
    return lambda b: f(x(b), y(b))
