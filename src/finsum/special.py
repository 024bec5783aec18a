"""Exact special values: (odd/generalized) harmonic numbers, Gamma at
half-integers (``fact_at`` is Gamma(x + 1), the DSL's ``fact``) and
generalized binomial coefficients with pole conventions.  Polynomials in t,
Chebyshev U_m among them, live in ``polyverify``.

All arguments are half-integers and all results live in the constant field,
so every value is exact.  H_q and binom(x, y) are cached for the life of the
process, keyed by plain ints; Gamma values are not, since the binomial cache
holds every result built from them.  H_n^(m) and O_n^(m) are cached by
(n, m) and built by their recurrence from the value at n - 1 when that is
cached, so the ascending runs of a polynomial side add one term per value.

Like the evaluators, the caches hold a rational value as a plain ``int`` or
``Fraction`` and a SymConst only where ln2 or sqrt(pi) appears.  The
evaluators read them through ``harmonic_at``, ``binom_at`` and ``rbinom_at``,
which take each argument as the int twice its value and return such plain
values.  ``harmonic``, ``gen_binom`` and ``gamma_half`` take the values
themselves, as ``int`` or ``Fraction``; ``harmonic`` and ``gen_binom`` lift
their results to SymConst on the way out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, EvalTypeError, PoleError
from .field import SymConst, half, lift, lower, to_twice


def harmonic_m(n, m=1):
    """Generalized harmonic number H_n^(m) = sum_{j=1..n} 1/j^m, a Fraction."""
    if n < 0 or m < 1:
        raise EvalTypeError("harmonic_m needs n >= 0 and m >= 1")
    return _power_sum(False, n, m)


def odd_harmonic_m(n, m=1):
    """Odd harmonic number O_n^(m) = sum_{j=1..n} 1/(2j-1)^m, a Fraction."""
    if n < 0 or m < 1:
        raise EvalTypeError("odd_harmonic_m needs n >= 0 and m >= 1")
    return _power_sum(True, n, m)


_power_sums = {}    # (odd, n, m) -> H_n^(m), or O_n^(m) when odd


def _power_sum(odd, n, m):
    """sum_{j=1..n} 1/d_j^m, d_j = 2j - 1 when ``odd`` and j otherwise,
    cached.  A missing value is the cached value at n - 1 plus one term when
    there is one, else the whole sum, so an ascending run costs one Fraction
    add per value and a lone large n stores one value."""
    key = (odd, n, m)
    value = _power_sums.get(key)
    if value is None:
        prev = _power_sums.get((odd, n - 1, m))
        if prev is None:
            value = sum((Fraction(1, (2 * j - 1 if odd else j) ** m) for j in range(1, n + 1)),
                        Fraction(0))
        else:
            value = prev + Fraction(1, (2 * n - 1 if odd else n) ** m)
        _power_sums[key] = value
    return value


_harmonic_cache = {}


def harmonic_at(twice):
    """H_q at q = twice/2: a plain int or Fraction for integer q, a SymConst
    otherwise.  PoleError at negative integers."""
    value = _harmonic_cache.get(twice)
    if value is None:
        value = _harmonic_cache[twice] = _harmonic_uncached(twice)
    return value


def _harmonic_uncached(twice):
    """H_q via the recurrence H_q = H_{q-1} + 1/q, walked up or down from
    the anchor of q's parity: H_0 = 0 or H_{-1/2} = -2 ln2.  Negative
    integers are digamma poles."""
    if twice < 0 and twice % 2 == 0:
        raise PoleError(f"H_{twice // 2} is a pole")
    anchor = -(twice % 2)   # twice the anchor: 0 or -1
    acc = Fraction(0)
    for x2 in range(anchor + 2, twice + 1, 2):
        acc += Fraction(2, x2)
    for x2 in range(anchor, twice, -2):
        acc -= Fraction(2, x2)
    return lower(acc) if anchor == 0 else SymConst.monomial(-2, ln2_exp=1) + acc


def harmonic(q):
    """H_q for half-integer q, as a SymConst."""
    return lift(harmonic_at(to_twice(q)))


def fact_at(twice):
    """Gamma(x + 1) at x = twice/2 as (c, p), the value c*sqrt(pi)^p: x! by
    ``math.factorial`` and p = 0 for an integer x; p = 1 at a half-odd x,
    walked from Gamma(1/2) = sqrt(pi) by Gamma(y + 1) = y*Gamma(y).
    PoleError at a negative integer x, naming the DSL call ``fact(x)``."""
    if twice % 2 == 0:
        if twice < 0:
            raise PoleError(f"fact({twice // 2}) is a pole")
        return math.factorial(twice // 2), 0
    c = Fraction(1)
    for y2 in range(1, twice + 1, 2):
        c *= Fraction(y2, 2)
    for y2 in range(-1, twice, -2):
        c /= Fraction(y2, 2)
    return lower(c), 1


def gamma_half(q):
    """Exact Gamma(q) for half-integer q; PoleError at 0, -1, -2, ..."""
    q = half(q)
    if type(q) is int and q <= 0:
        raise PoleError(f"Gamma({q}) is a pole")
    c, p = fact_at(to_twice(q) - 2)
    return SymConst.monomial(c, sqrtpi_exp=p)


@dataclass(frozen=True)
class BinomValue:
    """Finite constant-field value or the Infinite pole of a binomial."""

    value: SymConst = None
    infinite: bool = False

    def __str__(self):
        return "Infinite" if self.infinite else str(self.value)


INFINITE = BinomValue(infinite=True)

_binom_cache = {}


def binom_at(x2, y2):
    """binom(x, y) at x = x2/2, y = y2/2: a plain int or Fraction when
    rational, a SymConst otherwise, or the ``INFINITE`` pole marker."""
    key = (x2, y2)
    value = _binom_cache.get(key)
    if value is None:
        value = _binom_cache[key] = _binom_uncached(x2, y2)
    return value


def _binom_uncached(x2, y2):
    """Total on all half-integer pairs: integer y uses the falling factorial,
    y with x - y a nonnegative integer uses symmetry, and the remaining
    cases use Gamma(x+1)/(Gamma(y+1)Gamma(x-y+1)) with the usual pole
    conventions (denominator pole -> 0, sole numerator pole -> Infinite)."""
    if y2 % 2 == 0:
        yi = y2 // 2
        if yi < 0:
            return 0
        # prod_{i<y} (x - i) / y!, in halves: prod (x2 - 2i) / (2^y y!)
        num = 1
        for i in range(yi):
            num *= x2 - 2 * i
        return lower(Fraction(num, math.factorial(yi) << yi))
    diff2 = x2 - y2
    if diff2 >= 0 and diff2 % 2 == 0:
        return binom_at(x2, diff2)
    # y is half-odd, so Gamma(y+1) has no pole
    if diff2 % 2 == 0:  # x - y a negative integer: Gamma(x-y+1) pole
        return 0
    if x2 < 0 and x2 % 2 == 0:  # sole pole of Gamma(x+1)
        return INFINITE
    return lower(gamma_half(Fraction(x2 + 2, 2))
                 / (gamma_half(Fraction(y2 + 2, 2)) * gamma_half(Fraction(diff2 + 2, 2))))


def rbinom_at(x2, y2):
    """1/binom(x, y) at x = x2/2, y = y2/2, with the limit convention
    1/Infinite = 0; DivisionByZero where the binomial is 0."""
    b = binom_at(x2, y2)
    if b is INFINITE:
        return 0
    if b == 0:
        raise DivisionByZero(f"1/binom({Fraction(x2, 2)}, {Fraction(y2, 2)}) with binom = 0")
    if type(b) is int:
        return b if b == 1 or b == -1 else Fraction(1, b)
    if type(b) is Fraction:
        return lower(Fraction(b.denominator, b.numerator))
    return b.inverse()


def gen_binom(x, y):
    """Generalized binomial coefficient binom(x, y) at half-integer
    arguments, as a ``BinomValue`` holding a SymConst."""
    value = binom_at(to_twice(x), to_twice(y))
    return value if value is INFINITE else BinomValue(lift(value))
