"""Exact polynomial-identity verification at concrete n.

A side is expanded into a dense polynomial in t over the constant field:
standard sides by Horner's rule in 1+-t over their coeff * t^a * (1+-t)^b
summands, taken in order of decreasing b, free-form polynomial sides by
their ``dsl.compile`` closure with t bound to ``DensePoly.variable()``.  ``compile_side`` compiles a side's
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
from operator import add, itemgetter, sub

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
            _add_terms(acc, _terms(c), i)
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
        _convolve(acc, self.parts, other.parts)
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


def _add_value(acc, value, shift):
    """Add t^shift times an int, Fraction, SymConst or DensePoly value into
    ``acc``."""
    if type(value) is DensePoly:
        for key, den, nums in value.parts:
            _add(acc, key, nums, den, 1, shift)
    elif type(value) is int or type(value) is Fraction:
        _add_one(acc, (0, 0), value.numerator, value.denominator, shift)
    else:
        _add_terms(acc, _terms(value), shift)


def _convolve(acc, left, right):
    """Add the product of two polynomials, each given by its (monomial,
    denominator, numerators) parts, into ``acc``: a schoolbook int
    convolution of each pair of parts over the product of their
    denominators."""
    for (a, b), da, na in left:
        for (x, y), db, nb in right:
            wide, narrow = (na, nb) if len(na) >= len(nb) else (nb, na)
            width = len(wide)
            out = [0] * (width + len(narrow) - 1)
            for i, c in enumerate(narrow):
                if c:
                    out[i:i + width] = [o + v * c for o, v in zip(out[i:i + width], wide)]
            _add(acc, (a + x, b + y), out, da * db)


def _times_base(rows, base):
    """Multiply the accumulator ``rows`` by the base 1+t or 1-t in place:
    one shift-add on each part's numerators."""
    op = add if base == "1+t" else sub
    for part in rows.values():
        nums = part[1]
        part[1] = list(map(op, nums + [0], [0] + nums))


def _row_parts(rows):
    """The (monomial, denominator, numerators) parts of the accumulator
    ``rows``, unreduced, as ``_convolve`` reads them."""
    return [(key, den, nums) for key, (den, nums) in rows.items()]


def _add_terms(acc, terms, shift):
    """Add t^shift times each (monomial, numerator, denominator) of
    ``terms`` into ``acc``, one int per monomial."""
    for key, p, q in terms:
        _add_one(acc, key, p, q, shift)


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

    A standard side sums coeff * t^a * (1+-t)^b over each term's range in
    two passes.  The first walks k upwards, skips a zero coefficient and
    keeps (b, a, coeff) with a and b as ints, stepped in k from their first
    twice-value; it raises any error at the k where it arises.  The second
    folds the kept triples of each base by Horner's rule in 1+-t, in order
    of decreasing b: rows <- rows * (1+-t)^(b_prev - b) + coeff * t^a, each
    power of 1+-t one shift-add on the int rows (``_times_base``), then
    multiplies by (1+-t)^(least b) once.  A free-form side is its
    ``dsl.compile`` closure with t bound to the variable, a scalar value
    wrapped as a constant."""
    if isinstance(side, StandardSide):
        terms = [(dsl.compile(term.lower), dsl.compile(term.upper), dsl.compile(term.coeff),
                  term.t_exp.compile_twice(), 2 * term.t_exp.k,
                  term.base_exp.compile_twice(), 2 * term.base_exp.k, term.base)
                 for term in side.terms]

        def expand(n):
            bindings = {"n": half(n)}
            kept = {}   # base -> [(b, a, coefficient terms), ...]
            for lower_of, upper_of, coeff_of, twice_a, step_a, twice_b, step_b, base in terms:
                lo = to_int(lower_of(bindings))
                hi = to_int(upper_of(bindings))
                at = dict(bindings)
                items = kept.setdefault(base, [])
                a0 = b0 = None      # twice a and b at k = 0, from the first kept k
                for k in range(lo, hi + 1):
                    at["k"] = k
                    coeff = _terms(coeff_of(at))
                    if not coeff:
                        continue
                    if a0 is None:
                        a0 = twice_a(at) - step_a * k
                    a = _half_of(a0 + step_a * k)
                    if a < 0:
                        raise NegativeExponent(f"t^{a} at k={k}, n={n}")
                    if b0 is None:
                        b0 = twice_b(at) - step_b * k
                    b = _half_of(b0 + step_b * k)
                    if b < 0:
                        raise NegativeExponent(f"({base})^{b} at k={k}, n={n}")
                    items.append((b, a, coeff))
            acc = {}
            for base, items in kept.items():
                if items:
                    _fold(acc, base, items)
            return _poly(_parts(acc))
        return expand
    if isinstance(side, PolySide):
        value_of = dsl.compile(side.expr)
        return lambda n: _as_poly(value_of({"n": half(n), "t": DensePoly.variable()}))
    raise EvalTypeError(f"not a polynomial side: {side!r}")


def _half_of(twice):
    """The int half of a twice-value; EvalTypeError when it is odd."""
    return twice >> 1 if not twice & 1 else to_int(exact_div(twice, 2))


def _fold(acc, base, items):
    """Add the sum of coeff * t^a * base^b over the (b, a, coeff terms) of
    ``items`` into ``acc``, by Horner's rule in the base over decreasing b:
    no power of the base is built but the least one."""
    items.sort(key=itemgetter(0), reverse=True)
    rows = {}
    last = items[0][0]
    for b, a, coeff in items:
        for _ in range(last - b):
            _times_base(rows, base)
        last = b
        _add_terms(rows, coeff, a)
    if last:
        _convolve(acc, _row_parts(rows), binomial_power(base, last).parts)
    else:
        for key, (den, nums) in rows.items():
            _add(acc, key, nums, den)


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
