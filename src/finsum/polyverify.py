"""Exact polynomial-identity verification at concrete n.

A side is expanded into a dense polynomial in t over the constant field:
standard sides by the binomial theorem applied to each coeff * t^a * (1+-t)^b
summand, free-form polynomial sides by their ``dsl.compile`` closure with t
bound to ``DensePoly.variable()``.  Two sides agree iff their coefficient vectors
agree; there is no tolerance anywhere.  ``DensePoly`` is the one polynomial
type, and ``chebyshev_u`` gives the DSL's ``U(m)`` as one.

A ``DensePoly`` holds its coefficients lowered, as the evaluators do: a plain
int or Fraction for a rational coefficient and a SymConst only for one with
an ln2 or sqrt(pi) term.  ``coeffs``, ``coefficient()`` and evaluation lift
their results to SymConst on the way out.  The ring operations and ``/``
take a plain or SymConst operand on either side as a constant polynomial;
division is only by a nonzero constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dsl
from .errors import DivisionByZero, EvalTypeError, NegativeExponent
from .field import exact_div, half, lift, lower, to_int
from .model import PolySide, StandardSide


class DensePoly:
    """Polynomial in t over the constant field, trailing zeros trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        self._coeffs = _trimmed([lift(c) for c in coeffs])

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @classmethod
    def variable(cls):
        return _poly([0, 1])

    @property
    def coeffs(self):
        """The coefficients as SymConst, index = power of t."""
        return tuple(lift(c) for c in self._coeffs)

    @property
    def degree(self):
        return len(self._coeffs) - 1

    @property
    def is_zero(self):
        return not self._coeffs

    def coefficient(self, i):
        if 0 <= i < len(self._coeffs):
            return lift(self._coeffs[i])
        return lift(0)

    def __add__(self, other):
        if type(other) is not DensePoly:
            other = _poly([other])
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not DensePoly:
            other = _poly([other])
        a, b = self._coeffs, other._coeffs
        out = [x - y for x, y in zip(a, b)]
        out += a[len(b):] if len(a) > len(b) else [-y for y in b[len(a):]]
        return _poly(out)

    def __rsub__(self, other):
        return _poly([other]) - self

    def __neg__(self):
        return _poly([-c for c in self._coeffs])

    def __mul__(self, other):
        if type(other) is not DensePoly:
            return self.scale(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _poly([])
        if len(a) < len(b):
            a, b = b, a
        width = len(a)
        out = [0] * (width + len(b) - 1)
        for i, y in enumerate(b):
            if y:  # a zero is a plain 0; a held SymConst is never zero
                out[i:i + width] = [o + x * y for o, x in zip(out[i:i + width], a)]
        return _poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero constant; a divisor with t in it is an
        EvalTypeError."""
        if type(other) is DensePoly:
            if other.degree > 0:
                raise EvalTypeError(f"division by the polynomial {other}")
            other = other._coeffs[0] if other._coeffs else 0
        if other == 0:
            raise DivisionByZero("division by the zero polynomial")
        return self.scale(exact_div(1, other))

    def __rtruediv__(self, other):
        return _poly([other]) / self

    def scale(self, c):
        """Each coefficient times c, an int, Fraction or SymConst."""
        return _poly([x * c for x in self._coeffs])

    def __pow__(self, n):
        """t^n is a shift and (1+-t)^n the binomial theorem; any other base
        goes by square-and-multiply.  Only a nonzero constant takes a
        negative power."""
        c = self._coeffs
        if not isinstance(n, int) or n < 0 and len(c) != 1:
            raise NegativeExponent(f"polynomial exponent must be a nonnegative integer, got {n}")
        if n < 0:
            return _poly([exact_div(1, c[0]) ** -n])
        if c == (0, 1):
            return _poly([0] * n + [1])
        if c == (1, 1) or c == (1, -1):
            return binomial_power("1+t" if c[1] == 1 else "1-t", n)
        out = DensePoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        return isinstance(other, DensePoly) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, t):
        """Exact evaluation at a rational point."""
        t = Fraction(t)
        total = 0
        for c in reversed(self._coeffs):
            total = total * t + c
        return lift(total)

    def __repr__(self):
        return f"DensePoly([{', '.join(str(c) for c in self.coeffs)}])"


def _trimmed(values):
    """The coefficient tuple of plain or SymConst values: each lowered
    (``field.lower``), trailing zeros dropped."""
    values = [lower(c) for c in values]
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def _poly(values):
    """A DensePoly around a list of plain or SymConst coefficient values."""
    poly = object.__new__(DensePoly)
    poly._coeffs = _trimmed(values)
    return poly


def binomial_power(base, exponent):
    """(1-t)^m or (1+t)^m expanded by the binomial theorem."""
    if exponent < 0:
        raise NegativeExponent(f"({base})^{exponent} is not a polynomial")
    if base not in ("1-t", "1+t"):
        raise EvalTypeError(f"unknown base {base!r}")
    alternate = base == "1-t"
    coeffs = []
    c = 1
    for j in range(exponent + 1):
        coeffs.append(-c if alternate and j & 1 else c)
        c = c * (exponent - j) // (j + 1)
    return _poly(coeffs)


def expand_side(side, n):
    """Dense expansion of one side of a polynomial identity at concrete n.

    Each standard summand coeff * t^a * (1+-t)^b adds coeff times the
    binomial row of (1+-t)^b, shifted by a, into one coefficient list.
    """
    base_bindings = {"n": half(n)}
    if isinstance(side, StandardSide):
        acc = []
        for term in side.terms:
            lo = to_int(dsl.compile(term.lower)(base_bindings))
            hi = to_int(dsl.compile(term.upper)(base_bindings))
            coeff_of = dsl.compile(term.coeff)
            twice_a = term.t_exp.compile_twice()
            twice_b = term.base_exp.compile_twice()
            for k in range(lo, hi + 1):
                kb = dict(base_bindings)
                kb["k"] = k
                coeff = lower(coeff_of(kb))
                if coeff == 0:
                    continue
                a = to_int(exact_div(twice_a(kb), 2))
                if a < 0:
                    raise NegativeExponent(f"t^{a} at k={k}, n={n}")
                b = to_int(exact_div(twice_b(kb), 2))
                row = binomial_power(term.base, b)._coeffs
                end = a + len(row)
                if len(acc) < end:
                    acc += [0] * (end - len(acc))
                acc[a:end] = [o + coeff * x for o, x in zip(acc[a:end], row)]
        return _poly(acc)
    if isinstance(side, PolySide):
        return eval_poly(side.expr, base_bindings)
    raise EvalTypeError(f"not a polynomial side: {side!r}")


def eval_poly(expr, bindings):
    """Evaluate a DSL expression as a polynomial in t: its ``dsl.compile``
    closure with t bound to the variable, a scalar value wrapped as a
    constant."""
    value = dsl.compile(expr)(dict(bindings, t=DensePoly.variable()))
    return value if type(value) is DensePoly else _poly([value])


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


def verify_poly(identity, n):
    """Compare both sides coefficient-by-coefficient at concrete n."""
    lhs = expand_side(identity.lhs, n)
    rhs = expand_side(identity.rhs, n)
    return PolyReport(identity.name, n, lhs == rhs, lhs, rhs)


_chebyshev = [_poly([1]), _poly([0, 2])]   # U_0, U_1, ... built so far


def chebyshev_u(m):
    """Chebyshev U_m, cached, via U_0 = 1, U_1 = 2t and
    U_{m+1} = 2t*U_m - U_{m-1} on int coefficient tuples."""
    if m < 0:
        raise EvalTypeError("chebyshev_u needs m >= 0")
    while len(_chebyshev) <= m:
        prev, prev2 = _chebyshev[-1]._coeffs, _chebyshev[-2]._coeffs
        nxt = [0] + [2 * c for c in prev]
        for i, c in enumerate(prev2):
            nxt[i] -= c
        _chebyshev.append(_poly(nxt))
    return _chebyshev[m]

