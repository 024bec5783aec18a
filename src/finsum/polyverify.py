"""Exact polynomial-identity verification at concrete n.

A side is expanded into a dense polynomial in t over the constant field:
standard sides by the binomial theorem applied to each coeff * t^a * (1+-t)^b
summand, free-form polynomial sides by their ``dsl.compile`` closure with t
bound to ``DensePoly.variable()``.  ``compile_side`` compiles a side's
expressions once, and ``verify_poly_each`` expands both compiled sides at
each n.  Two sides agree iff their coefficient vectors agree; there is no
tolerance anywhere.  ``DensePoly`` is the one polynomial type, and
``chebyshev_u`` gives the DSL's ``U(m)`` as one.

A ``DensePoly`` is the polynomial form of ``field.Sum``: for each field
monomial (ln2 exponent, sqrt(pi) exponent) of its coefficients it holds one
tuple of int numerators, index = power of t, over one positive int
denominator.  The ring operations are int arithmetic on these parts: ``+``
brings two denominators to their lcm, ``*`` convolves each pair of parts
over the product of their denominators, and each result part is reduced
once.  ``coeffs``, ``coefficient()`` and evaluation lift their results to
SymConst on the way out.  The ring operations and ``/`` take a plain or
SymConst operand on either side as a constant polynomial; division is only
by a nonzero constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd

from . import dsl
from .errors import DivisionByZero, EvalTypeError, NegativeExponent
from .field import ZERO, SymConst, exact_div, half, lift, lower, to_int
from .model import PolySide, StandardSide


class DensePoly:
    """Polynomial in t over the constant field.

    ``parts`` is a tuple of (monomial, denominator, numerators), sorted by
    monomial: the coefficient of t^i is the sum over the parts of
    numerators[i] / denominator times the monomial.  Each part's numerators
    end in a nonzero int, share no common factor with its positive
    denominator, and no part is empty, so equal polynomials have equal
    parts."""

    __slots__ = ("parts",)

    def __init__(self, coeffs=()):
        acc = {}
        for i, c in enumerate(coeffs):
            _add_terms(acc, _terms(c), (1,), i)
        self.parts = _parts(acc)

    @classmethod
    def constant(cls, value):
        return cls((value,))

    @classmethod
    def variable(cls):
        return _poly(_T)

    @property
    def coeffs(self):
        """The coefficients as SymConst, index = power of t."""
        return tuple(self.coefficient(i) for i in range(self.degree + 1))

    @property
    def degree(self):
        return max((len(nums) for _, _, nums in self.parts), default=0) - 1

    @property
    def is_zero(self):
        return not self.parts

    def coefficient(self, i):
        return SymConst({key: Fraction(nums[i], den) for key, den, nums in self.parts
                         if 0 <= i < len(nums)})

    def _combine(self, other, sign):
        if type(other) is not DensePoly:
            other = DensePoly.constant(other)
        if not other.parts:
            return self
        acc = {key: [den, list(nums)] for key, den, nums in self.parts}
        for key, den, nums in other.parts:
            _add(acc, key, nums, den, sign)
        return _poly(_parts(acc))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return _poly(tuple((key, den, tuple(-x for x in nums)) for key, den, nums in self.parts))

    def __mul__(self, other):
        if type(other) is not DensePoly:
            return self.scale(other)
        acc = {}
        for (a, b), da, na in self.parts:
            for (x, y), db, nb in other.parts:
                wide, narrow = (na, nb) if len(na) >= len(nb) else (nb, na)
                width = len(wide)
                out = [0] * (width + len(narrow) - 1)
                for i, c in enumerate(narrow):      # schoolbook int convolution
                    if c:
                        out[i:i + width] = [o + v * c for o, v in zip(out[i:i + width], wide)]
                _add(acc, (a + x, b + y), out, da * db)
        return _poly(_parts(acc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero constant; a divisor with t in it is an
        EvalTypeError."""
        if type(other) is DensePoly:
            if other.degree > 0:
                raise EvalTypeError(f"division by the polynomial {other}")
            other = lower(other.coefficient(0))
        if other == 0:
            raise DivisionByZero("division by the zero polynomial")
        return self.scale(exact_div(1, other))

    def __rtruediv__(self, other):
        return DensePoly.constant(other) / self

    def scale(self, c):
        """Each coefficient times c, an int, Fraction or SymConst."""
        acc = {}
        for (a, b), p, q in _terms(c):
            for (x, y), den, nums in self.parts:
                _add(acc, (a + x, b + y), nums, den * q, p)
        return _poly(_parts(acc))

    def __pow__(self, n):
        """t^n is a shift and (1+-t)^n the binomial theorem; any other base
        goes by square-and-multiply.  Only a nonzero constant takes a
        negative power."""
        if not isinstance(n, int) or n < 0 and self.degree != 0:
            raise NegativeExponent(f"polynomial exponent must be a nonnegative integer, got {n}")
        if n < 0:
            return DensePoly.constant(exact_div(1, lower(self.coefficient(0))) ** -n)
        if self.parts == _T:
            return _poly((((0, 0), 1, (0,) * n + (1,)),))
        if self.parts in _BASES:
            return binomial_power(_BASES[self.parts], n)
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
        return isinstance(other, DensePoly) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __call__(self, t):
        """Exact evaluation at a rational point."""
        t = Fraction(t)
        terms = {}
        for key, den, nums in self.parts:
            total = 0
            for c in reversed(nums):
                total = total * t + c
            terms[key] = total / den
        return SymConst(terms)

    def __repr__(self):
        return f"DensePoly([{', '.join(str(c) for c in self.coeffs)}])"


def _terms(value):
    """(monomial, numerator, denominator) of each nonzero term of an int,
    Fraction or SymConst."""
    if type(value) is int:
        return (((0, 0), value, 1),) if value else ()
    if type(value) is Fraction:
        return (((0, 0), value.numerator, value.denominator),) if value else ()
    return tuple((key, c.numerator, c.denominator) for key, c in lift(value).terms.items())


def _add(acc, key, nums, den, mult=1, shift=0):
    """Add mult * t^shift * nums / den to the part of ``key`` in ``acc``, a
    dict {monomial: [denominator, numerator list]} whose denominators are
    each the lcm of those added, left unreduced."""
    # kept apart from field.Sum._add, the same sum on one scalar per monomial,
    # which runs about 4x faster on the ~217k scalar adds of a corpus run
    part = acc.get(key)
    if part is None:
        acc[key] = [den, [0] * shift + [mult * x for x in nums]]
        return
    mult *= _rebase(part, den)
    out = part[1]
    end = shift + len(nums)
    if len(out) < end:
        out += [0] * (end - len(out))
    out[shift:end] = [o + mult * x for o, x in zip(out[shift:end], nums)]


def _add_one(acc, key, num, den, shift):
    """Add num / den * t^shift to the part of ``key`` in ``acc``, as ``_add``
    adds a row of one, with no row or product built."""
    part = acc.get(key)
    if part is None:
        acc[key] = [den, [0] * shift + [num]]
        return
    num *= _rebase(part, den)
    out = part[1]
    if len(out) <= shift:
        out += [0] * (shift + 1 - len(out))
    out[shift] += num


def _rebase(part, den):
    """Bring an accumulator part [denominator, numerator list] to the lcm of
    its denominator and ``den``; the factor that takes a numerator over
    ``den`` to that lcm."""
    common = part[0]
    if common % den == 0:
        return common // den
    g = gcd(common, den)
    part[0] = common // g * den
    part[1] = [x * (den // g) for x in part[1]]
    return common // g


def _add_terms(acc, terms, row, shift):
    """Add t^shift * row times each (monomial, numerator, denominator) of
    ``terms`` into ``acc``: a standard summand's coefficient times its
    binomial row, or a monomial c * t^m of a free-form sum with row (1,)."""
    if len(row) == 1:
        x, = row
        for key, p, q in terms:
            _add_one(acc, key, p * x, q, shift)
        return
    for key, p, q in terms:
        _add(acc, key, row, q, p, shift)


def _parts(acc):
    """The parts tuple of an accumulator: each part trimmed of trailing zeros
    and reduced once, empty parts dropped, sorted by monomial."""
    parts = []
    for key in sorted(acc):
        den, nums = acc[key]
        while nums and not nums[-1]:
            nums.pop()
        if nums:
            g = gcd(den, *nums) if den != 1 else 1
            if g != 1:
                den //= g
                nums = [x // g for x in nums]
            parts.append((key, den, tuple(nums)))
    return tuple(parts)


def _poly(parts):
    """A DensePoly around a canonical parts tuple."""
    poly = object.__new__(DensePoly)
    poly.parts = parts
    return poly


_T = (((0, 0), 1, (0, 1)),)
_BASES = {(((0, 0), 1, (1, 1)),): "1+t", (((0, 0), 1, (1, -1)),): "1-t"}


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
    return _poly((((0, 0), 1, tuple(coeffs)),))


def compile_side(side):
    """One side of a polynomial identity as a closure ``expand(n)`` for its
    dense expansion at concrete n, each of its expressions compiled once.

    Each standard summand coeff * t^a * (1+-t)^b adds coeff times the
    binomial row of (1+-t)^b, shifted by a, into one int accumulator per
    monomial of the coefficients.  A free-form side is its ``dsl.compile``
    closure with t bound to the variable, a scalar value wrapped as a
    constant."""
    if isinstance(side, StandardSide):
        terms = [(dsl.compile(term.lower), dsl.compile(term.upper), dsl.compile(term.coeff),
                  term.t_exp.compile_twice(), term.base_exp.compile_twice(), term.base)
                 for term in side.terms]

        def expand(n):
            base_bindings = {"n": half(n)}
            acc = {}
            for lower_of, upper_of, coeff_of, twice_a, twice_b, base in terms:
                lo = to_int(lower_of(base_bindings))
                hi = to_int(upper_of(base_bindings))
                for k in range(lo, hi + 1):
                    kb = dict(base_bindings)
                    kb["k"] = k
                    coeff = _terms(coeff_of(kb))
                    if not coeff:
                        continue
                    a = to_int(exact_div(twice_a(kb), 2))
                    if a < 0:
                        raise NegativeExponent(f"t^{a} at k={k}, n={n}")
                    b = to_int(exact_div(twice_b(kb), 2))
                    (_, _, row), = binomial_power(base, b).parts
                    _add_terms(acc, coeff, row, a)
            return _poly(_parts(acc))
        return expand
    if isinstance(side, PolySide):
        value_of = dsl.compile(side.expr)
        return lambda n: _as_poly(value_of({"n": half(n), "t": DensePoly.variable()}))
    raise EvalTypeError(f"not a polynomial side: {side!r}")


def expand_side(side, n):
    """Dense expansion of one side of a polynomial identity at concrete n;
    ``side`` is a model side, or its ``compile_side`` closure when it is
    expanded at many n."""
    return (side if callable(side) else compile_side(side))(n)


def eval_poly(expr, bindings):
    """Evaluate a DSL expression as a polynomial in t: its ``dsl.compile``
    closure with t bound to the variable, a scalar value wrapped as a
    constant."""
    return _as_poly(dsl.compile(expr)(dict(bindings, t=DensePoly.variable())))


def _as_poly(value):
    return value if type(value) is DensePoly else DensePoly.constant(value)


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
        pairs = zip_longest(self.lhs.coeffs, self.rhs.coeffs, fillvalue=ZERO)
        return next(((i, lc, rc) for i, (lc, rc) in enumerate(pairs) if lc != rc), None)


def verify_poly(identity, n):
    """Compare both sides coefficient-by-coefficient at concrete n."""
    return next(verify_poly_each(identity, (n,)))


def verify_poly_each(identity, n_values):
    """The ``verify_poly`` report at each n of ``n_values`` in turn, made
    when it is asked for, with each side compiled once for all of them."""
    lhs, rhs = compile_side(identity.lhs), compile_side(identity.rhs)
    for n in n_values:
        left = expand_side(lhs, n)
        right = expand_side(rhs, n)
        yield PolyReport(identity.name, n, left == right, left, right)


_chebyshev = [_poly((((0, 0), 1, (1,)),)), _poly(_T).scale(2)]   # U_0, U_1, ... built so far


def chebyshev_u(m):
    """Chebyshev U_m, cached, via U_0 = 1, U_1 = 2t and
    U_{m+1} = 2t*U_m - U_{m-1} on int coefficient tuples."""
    if m < 0:
        raise EvalTypeError("chebyshev_u needs m >= 0")
    while len(_chebyshev) <= m:
        (_, _, prev), = _chebyshev[-1].parts
        (_, _, prev2), = _chebyshev[-2].parts
        nxt = [0] + [2 * c for c in prev]
        for i, c in enumerate(prev2):
            nxt[i] -= c
        _chebyshev.append(_poly((((0, 0), 1, tuple(nxt)),)))
    return _chebyshev[m]
