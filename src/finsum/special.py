"""Exact special quantities: factorials, (odd/generalized) harmonic numbers,
Gamma at half-integers, generalized binomial coefficients with pole
conventions, and Chebyshev polynomials of the second kind.

All arguments are half-integers and all results live in the constant field,
so every value is exact.  Factorials, H_q, binom(x, y) and U_n are cached for
the life of the process, keyed by plain ints; Gamma values are not, since
``gen_binom`` caches every result built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, EvalTypeError, PoleError
from .field import HalfInt, SymConst

_factorials = [1]


def factorial(n):
    """Exact n! as a Fraction."""
    if n < 0:
        raise EvalTypeError("factorial of a negative integer")
    while len(_factorials) <= n:
        _factorials.append(_factorials[-1] * len(_factorials))
    return Fraction(_factorials[n])


def harmonic_m(n, m=1):
    """Generalized harmonic number H_n^(m) = sum_{j=1..n} 1/j^m."""
    if n < 0 or m < 1:
        raise EvalTypeError("harmonic_m needs n >= 0 and m >= 1")
    return sum((Fraction(1, j ** m) for j in range(1, n + 1)), Fraction(0))


def odd_harmonic_m(n, m=1):
    """Odd harmonic number O_n^(m) = sum_{j=1..n} 1/(2j-1)^m."""
    if n < 0 or m < 1:
        raise EvalTypeError("odd_harmonic_m needs n >= 0 and m >= 1")
    return sum((Fraction(1, (2 * j - 1) ** m) for j in range(1, n + 1)), Fraction(0))


_harmonic_cache = {}


def harmonic(q):
    """H_q for half-integer q, via the recurrence H_q = H_{q-1} + 1/q.

    Integer anchor H_0 = 0; half-odd anchor H_{-1/2} = -2 ln2.  Negative
    integers are digamma poles.
    """
    q = HalfInt.from_value(q)
    if q.is_negative_integer:
        raise PoleError(f"H_{q} is a pole")
    cached = _harmonic_cache.get(q.twice)
    if cached is not None:
        return cached
    if q.is_integer:
        value = SymConst.rational(harmonic_m(q.as_int(), 1))
    else:
        # q = m + 1/2; for m >= -1 this is 2*O_{m+1} - 2 ln2, and the same
        # recurrence extends downward for m < -1.
        m = (q.twice - 1) // 2
        value = SymConst.monomial(-2, ln2_exp=1)
        if m >= 0:
            value = value + SymConst.rational(2 * odd_harmonic_m(m + 1, 1))
        else:
            x = Fraction(-1, 2)
            acc = Fraction(0)
            while x > q.as_fraction():
                acc -= 1 / x
                x -= 1
            value = value + SymConst.rational(acc)
    _harmonic_cache[q.twice] = value
    return value


def gamma_half(q):
    """Exact Gamma(q) for half-integer q; PoleError at 0, -1, -2, ..."""
    q = HalfInt.from_value(q)
    if q.is_integer:
        n = q.as_int()
        if n <= 0:
            raise PoleError(f"Gamma({q}) is a pole")
        return SymConst.rational(factorial(n - 1))
    # walk from Gamma(1/2) = sqrt(pi) via Gamma(x+1) = x*Gamma(x)
    coeff = Fraction(1)
    x = Fraction(1, 2)
    target = q.as_fraction()
    while x < target:
        coeff *= x
        x += 1
    while x > target:
        x -= 1
        coeff /= x
    return SymConst.monomial(coeff, sqrtpi_exp=1)


@dataclass(frozen=True)
class BinomValue:
    """Finite constant-field value or the Infinite pole of a binomial."""

    value: SymConst = None
    infinite: bool = False

    @property
    def is_zero(self):
        return not self.infinite and self.value.is_zero

    def __str__(self):
        return "Infinite" if self.infinite else str(self.value)


INFINITE = BinomValue(infinite=True)

_binom_cache = {}


def gen_binom(x, y):
    """Generalized binomial coefficient binom(x, y) at half-integer arguments.

    Total on all half-integer pairs: integer y uses the falling factorial,
    y with x - y a nonnegative integer uses symmetry, and the remaining
    cases use Gamma(x+1)/(Gamma(y+1)Gamma(x-y+1)) with the usual pole
    conventions (denominator pole -> 0, sole numerator pole -> Infinite).
    """
    x = HalfInt.from_value(x)
    y = HalfInt.from_value(y)
    key = (x.twice, y.twice)
    cached = _binom_cache.get(key)
    if cached is not None:
        return cached
    value = _gen_binom_uncached(x, y)
    _binom_cache[key] = value
    return value


def _gen_binom_uncached(x, y):
    if y.is_integer:
        yi = y.as_int()
        if yi < 0:
            return BinomValue(SymConst.rational(0))
        num = Fraction(1)
        xf = x.as_fraction()
        for i in range(yi):
            num *= xf - i
        return BinomValue(SymConst.rational(num / factorial(yi)))
    diff = x - y
    if diff.is_nonneg_integer:
        return gen_binom(x, diff)
    num_pole = x.is_negative_integer  # Gamma(x+1) pole
    den_pole = diff.is_integer and diff.twice < 0  # Gamma(x-y+1) pole; y+1 is never
    # a non-positive integer here since y is half-odd
    if den_pole:
        return BinomValue(SymConst.rational(0))
    if num_pole:
        return INFINITE
    value = gamma_half(x + 1) / (gamma_half(y + 1) * gamma_half(diff + 1))
    return BinomValue(value)


def recip_binom(x, y):
    """1/binom(x, y), with the limit convention 1/Infinite = 0."""
    b = gen_binom(x, y)
    if b.infinite:
        return SymConst.rational(0)
    if b.is_zero:
        raise DivisionByZero(f"1/binom({x}, {y}) with binom = 0")
    return b.value.inverse()


@dataclass(frozen=True)
class ChebPoly:
    """Chebyshev U_n as an exact coefficient vector (index = power of t)."""

    coefficients: tuple

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, t):
        t = Fraction(t)
        return sum(c * t ** i for i, c in enumerate(self.coefficients))


_cheb_cache = [ChebPoly((Fraction(1),)), ChebPoly((Fraction(0), Fraction(2)))]


def chebyshev_u(n):
    """U_n via U_0 = 1, U_1 = 2t, U_{n+1} = 2t*U_n - U_{n-1}."""
    if n < 0:
        raise EvalTypeError("chebyshev_u needs n >= 0")
    while len(_cheb_cache) <= n:
        prev = _cheb_cache[-1].coefficients
        prev2 = _cheb_cache[-2].coefficients
        nxt = [Fraction(0)] * (len(prev) + 1)
        for i, c in enumerate(prev):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev2):
            nxt[i] -= c
        _cheb_cache.append(ChebPoly(tuple(nxt)))
    return _cheb_cache[n]
