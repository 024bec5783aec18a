"""Exact polynomial-identity verification at concrete n.

A side is expanded into a dense polynomial in t over the constant field:
standard sides by the binomial theorem applied to each coeff * t^a * (1+-t)^b
summand, free-form polynomial sides by structural evaluation.  Two sides agree
iff their coefficient vectors agree; there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dsl, special
from .errors import DivisionByZero, EvalTypeError, NegativeExponent
from .field import HalfInt, SymConst
from .model import PolySide, StandardSide


class DensePoly:
    """Polynomial in t with SymConst coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, value):
        if not isinstance(value, SymConst):
            value = SymConst.rational(value)
        return cls((value,))

    @classmethod
    def variable(cls):
        return cls((SymConst.rational(0), SymConst.rational(1)))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return SymConst.rational(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DensePoly(self.coefficient(i) + other.coefficient(i) for i in range(n))

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return DensePoly(self.coefficient(i) - other.coefficient(i) for i in range(n))

    def __neg__(self):
        return DensePoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return DensePoly()
        out = [SymConst.rational(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return DensePoly(out)

    def scale(self, c):
        return DensePoly(c * x for x in self.coeffs)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise NegativeExponent(f"polynomial exponent must be a nonnegative integer, got {n}")
        out = DensePoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, DensePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, t):
        """Exact evaluation at a rational point."""
        t = Fraction(t)
        total = SymConst.rational(0)
        for c in reversed(self.coeffs):
            total = total * t + c
        return total

    def __repr__(self):
        return f"DensePoly([{', '.join(str(c) for c in self.coeffs)}])"


def binomial_power(base, exponent):
    """(1-t)^m or (1+t)^m expanded by the binomial theorem."""
    if exponent < 0:
        raise NegativeExponent(f"({base})^{exponent} is not a polynomial")
    sign = -1 if base == "1-t" else 1
    if base not in ("1-t", "1+t"):
        raise EvalTypeError(f"unknown base {base!r}")
    coeffs = []
    c = Fraction(1)
    for j in range(exponent + 1):
        coeffs.append(SymConst.rational(c))
        c = c * sign * (exponent - j) / (j + 1)
    return DensePoly(coeffs)


def expand_side(side, n, bindings=None):
    """Dense expansion of one side of a polynomial identity at concrete n."""
    base_bindings = dict(bindings or {})
    base_bindings["n"] = HalfInt.from_value(n)
    if isinstance(side, StandardSide):
        total = DensePoly()
        for term in side.terms:
            lo = dsl.eval_scalar(term.lower, base_bindings).as_int()
            hi = dsl.eval_scalar(term.upper, base_bindings).as_int()
            for k in range(lo, hi + 1):
                kb = dict(base_bindings)
                kb["k"] = HalfInt(2 * k)
                coeff = dsl.eval_scalar(term.coeff, kb)
                if coeff.is_zero:
                    continue
                a = term.t_exp.value(kb).as_int()
                if a < 0:
                    raise NegativeExponent(f"t^{a} at k={k}, n={n}")
                b = term.base_exp.value(kb).as_int()
                mono = [SymConst.rational(0)] * a + [coeff]
                total = total + DensePoly(mono) * binomial_power(term.base, b)
        return total
    if isinstance(side, PolySide):
        return eval_poly(side.expr, base_bindings)
    raise EvalTypeError(f"not a polynomial side: {side!r}")


def eval_poly(expr, bindings):
    """Evaluate a DSL expression as a polynomial in t.

    Subtrees without t (and without a U call) go through the scalar
    evaluator and are lifted to degree 0.  U(m) denotes the Chebyshev
    polynomial U_m in the variable t.  Division is only by scalars.
    """
    if not dsl.is_polynomial(expr):
        return DensePoly.constant(dsl.eval_scalar(expr, bindings))
    if isinstance(expr, dsl.Var):  # must be t
        return DensePoly.variable()
    if isinstance(expr, dsl.Neg):
        return -eval_poly(expr.operand, bindings)
    if isinstance(expr, dsl.Add):
        return eval_poly(expr.left, bindings) + eval_poly(expr.right, bindings)
    if isinstance(expr, dsl.Sub):
        return eval_poly(expr.left, bindings) - eval_poly(expr.right, bindings)
    if isinstance(expr, dsl.Mul):
        return eval_poly(expr.left, bindings) * eval_poly(expr.right, bindings)
    if isinstance(expr, dsl.Div):
        denom = eval_poly(expr.right, bindings)
        if denom.degree > 0:
            raise EvalTypeError(f"polynomial division in {dsl.render(expr)}")
        if denom.is_zero:
            raise DivisionByZero(f"division by zero in {dsl.render(expr)}")
        inv = denom.coefficient(0).inverse()
        return eval_poly(expr.left, bindings).scale(inv)
    if isinstance(expr, dsl.Pow):
        exp = dsl.eval_scalar(expr.exponent, bindings).as_int()
        base = eval_poly(expr.base, bindings)
        if exp < 0:
            if base.degree > 0 or base.is_zero:
                raise NegativeExponent(f"negative power of a polynomial in {dsl.render(expr)}")
            return DensePoly.constant(base.coefficient(0) ** exp)
        return base ** exp
    if isinstance(expr, dsl.Call):
        if expr.fn == "U":
            m = dsl.eval_scalar(expr.args[0], bindings).as_int()
            cheb = special.chebyshev_u(m)
            return DensePoly(SymConst.rational(c) for c in cheb.coefficients)
        raise EvalTypeError(f"{expr.fn}(...) with a t-dependent argument")
    if isinstance(expr, dsl.BoundedSum):
        lo = dsl.eval_scalar(expr.lower, bindings).as_int()
        hi = dsl.eval_scalar(expr.upper, bindings).as_int()
        total = DensePoly()
        inner = dict(bindings)
        for i in range(lo, hi + 1):
            inner[expr.index] = HalfInt(2 * i)
            total = total + eval_poly(expr.body, inner)
        return total
    raise EvalTypeError(f"not an AST node: {expr!r}")


@dataclass(frozen=True)
class PolyReport:
    """Outcome of one polynomial comparison at concrete n."""

    name: str
    n: int
    equal: bool
    lhs: DensePoly
    rhs: DensePoly

    @property
    def first_difference(self):
        """(index, lhs coeff, rhs coeff) of the lowest differing power, or None."""
        if self.equal:
            return None
        top = max(self.lhs.degree, self.rhs.degree)
        for i in range(top + 1):
            if self.lhs.coefficient(i) != self.rhs.coefficient(i):
                return (i, self.lhs.coefficient(i), self.rhs.coefficient(i))
        return None


def verify_poly(identity, n, bindings=None):
    """Compare both sides coefficient-by-coefficient at concrete n."""
    lhs = expand_side(identity.lhs, n, bindings)
    rhs = expand_side(identity.rhs, n, bindings)
    return PolyReport(identity.name, n, lhs == rhs, lhs, rhs)


def integrate_unit(poly):
    """Exact integral of the polynomial over [0, 1]."""
    total = SymConst.rational(0)
    for i, c in enumerate(poly.coeffs):
        total = total + c * Fraction(1, i + 1)
    return total


def cheb_u_sqrt_poly(n):
    """U_{2n}(sqrt(t)) as a polynomial in t (even-coefficient compression)."""
    cheb = special.chebyshev_u(2 * n)
    return DensePoly(SymConst.rational(cheb.coefficients[2 * i]) for i in range(n + 1))
