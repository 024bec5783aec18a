"""Exact arithmetic: the constant field Q[ln2, sqrt(pi), 1/sqrt(pi)].

Every identity side in the engine evaluates to a ``SymConst``: a finite
Q-linear combination of monomials ln2^a * sqrt(pi)^b with a >= 0.  Equality of
canonical forms is the engine's only notion of equality.  Rational
coefficients are ``fractions.Fraction`` (arbitrary precision, always reduced).

Most values the engine computes are plain rationals, so evaluators carry them
as ``int`` or ``Fraction`` and lift a value to ``SymConst`` only where an ln2
or sqrt(pi) term can appear.  ``lift``, ``lower``, ``to_int`` and
``to_twice`` are the one boundary between the two kinds; ``exact_div``
divides either kind without leaving exact arithmetic.  ``Sum`` adds values of
either kind, each times an int ratio and a power of sqrt(pi): it keeps one
unreduced int numerator and denominator per monomial and reduces each once,
when the sum is read.

A half-integer (a grid point's n, r, s, u, v, or a sum index) is a plain
rational too: ``half`` puts one in normal form, an int when integral and
else a Fraction with denominator 2, and ``to_twice`` reads one as the int
twice its value, on which the ``special`` caches are keyed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, DslSyntaxError, EvalTypeError


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise EvalTypeError(f"cannot interpret {value!r} as a rational")


class SymConst:
    """Element of Q[ln2, sqrt(pi)^(+-1)] in canonical form.

    ``terms`` maps (ln2 exponent, sqrt(pi) exponent) to a nonzero Fraction.
    Instances are immutable; all operations return new values.  The
    constructor validates and canonicalizes outside input; the ring
    operations build their results with ``_canonical``, which trusts them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0:
                    raise EvalTypeError("negative ln2 exponent is outside the constant field")
                c = _as_fraction(c)
                if c != 0:
                    clean[(a, b)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymConst is immutable")

    def __reduce__(self):
        return (SymConst, (self.terms,))

    @classmethod
    def rational(cls, value):
        return _from_fraction(_as_fraction(value))

    @classmethod
    def monomial(cls, coeff, ln2_exp=0, sqrtpi_exp=0):
        return cls({(ln2_exp, sqrtpi_exp): _as_fraction(coeff)})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_sym(other)
        if other is NotImplemented:
            return NotImplemented
        a = self.terms
        b = other.terms
        if not b:
            return self
        if not a:
            return other
        terms = dict(a)
        for key, c in b.items():
            if key in terms:
                c += terms[key]
                if not c:
                    del terms[key]
                    continue
            terms[key] = c
        return _canonical(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_sym(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_sym(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _canonical({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        other = _coerce_sym(other)
        if other is NotImplemented:
            return NotImplemented
        a = self.terms
        b = other.terms
        if not a or not b:
            return ZERO
        terms = {}
        for (a1, b1), c1 in a.items():
            for (a2, b2), c2 in b.items():
                key = (a1 + a2, b1 + b2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return _canonical({key: c for key, c in terms.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_sym(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce_sym(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        """Square-and-multiply; a negative power inverts first."""
        if not isinstance(n, int):
            raise EvalTypeError("SymConst exponent must be an integer")
        base = self
        if n < 0:
            base = self.inverse()
            n = -n
        out = ONE
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self):
        """Multiplicative inverse; defined only for single monomials."""
        if not self.terms:
            raise DivisionByZero("division by exact zero")
        if len(self.terms) != 1:
            raise EvalTypeError(f"cannot invert non-monomial constant {self}")
        ((a, b), c), = self.terms.items()
        if a != 0:
            raise EvalTypeError("1/ln2 is outside the constant field")
        return _canonical({(0, -b): 1 / c})

    def __eq__(self, other):
        if type(other) is not SymConst:
            other = _coerce_sym(other)
            if other is NotImplemented:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- predicates and conversions ---------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_rational(self):
        return all(key == (0, 0) for key in self.terms)

    def as_rational(self):
        if self.is_zero:
            return Fraction(0)
        if not self.is_rational:
            raise EvalTypeError(f"{self} is not rational")
        return self.terms[(0, 0)]

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"SymConst({self.render()!r})"

    def render(self):
        """Canonical text form: rationals as p/q, L = ln2, P = sqrt(pi)."""
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms):
            c = self.terms[(a, b)]
            mono = []
            if a == 1:
                mono.append("L")
            elif a > 1:
                mono.append(f"L^{a}")
            if b == 1:
                mono.append("P")
            elif b != 0:
                mono.append(f"P^{b}")
            body = "*".join([_render_fraction(abs(c))] + mono) if not mono or abs(c) != 1 \
                else "*".join(mono)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    @classmethod
    def parse(cls, text):
        """Inverse of :meth:`render`."""
        terms = {}
        for sign, body in _split_signed_terms(text):
            coeff = Fraction(1)
            a = b = 0
            for factor in body.split("*"):
                factor = factor.strip()
                m = re.fullmatch(r"L(?:\^(-?\d+))?", factor)
                if m:
                    a += int(m.group(1)) if m.group(1) else 1
                    continue
                m = re.fullmatch(r"P(?:\^(-?\d+))?", factor)
                if m:
                    b += int(m.group(1)) if m.group(1) else 1
                    continue
                m = re.fullmatch(r"(\d+)(?:/(\d+))?", factor)
                if m and int(m.group(2) or 1):     # a zero denominator is a bad factor
                    coeff *= Fraction(int(m.group(1)), int(m.group(2) or 1))
                    continue
                raise DslSyntaxError(f"bad constant factor {factor!r}", text.find(factor))
            key = (a, b)
            terms[key] = terms.get(key, Fraction(0)) + sign * coeff
        return cls(terms)

    def to_float(self, precision_digits=30):
        """High-precision mpmath value; only the derivative cross-check uses this."""
        import mpmath

        if precision_digits < 10:
            raise EvalTypeError("precision_digits must be at least 10")
        with mpmath.workdps(precision_digits + 10):
            ln2 = mpmath.ln(2)
            sqrtpi = mpmath.sqrt(mpmath.pi)
            total = mpmath.mpf(0)
            for (a, b), c in self.terms.items():
                total += mpmath.mpf(c.numerator) / c.denominator * ln2 ** a * sqrtpi ** b
            return +total


def _coerce_sym(value):
    if isinstance(value, SymConst):
        return value
    if isinstance(value, (int, Fraction)):
        return _from_fraction(_as_fraction(value))
    return NotImplemented


_new = object.__new__
_set_terms = SymConst.terms.__set__


def _canonical(terms):
    """A SymConst around ``terms`` as given: the caller guarantees nonzero
    Fraction coefficients and ln2 exponents >= 0.  Nothing is checked or
    copied, so only the ring operations and the boundary below use it."""
    obj = _new(SymConst)
    _set_terms(obj, terms)
    return obj


def _from_fraction(q):
    return _canonical({(0, 0): q}) if q else ZERO


# -- the boundary between plain rationals and SymConst ----------------------
#
# Evaluators carry a rational value as a plain int or Fraction, whose
# arithmetic is several times cheaper, and lift it to a SymConst only where an
# ln2 or sqrt(pi) term can appear.  These functions are where the two kinds
# meet; each accepts either kind.

def lift(value):
    """The SymConst equal to an int, Fraction or SymConst."""
    if type(value) is SymConst:
        return value
    return _from_fraction(_as_fraction(value))


def lower(value):
    """A rational SymConst or an integral Fraction as an int or Fraction; any
    other value unchanged."""
    if type(value) is not SymConst:
        if type(value) is Fraction and value.denominator == 1:
            return value.numerator
        return value
    terms = value.terms
    if not terms:
        return 0
    if len(terms) == 1:
        q = terms.get((0, 0))
        if q is not None:
            return q.numerator if q.denominator == 1 else q
    return value


def exact_div(num, denom):
    """num / denom for plain or SymConst values; two ints give an int or a
    Fraction, never a float.  The caller rules out a zero denominator."""
    if type(num) is int and type(denom) is int:
        q, rem = divmod(num, denom)
        return Fraction(num, denom) if rem else q
    return num / denom


class Sum:
    """An exact running sum of int, Fraction and SymConst values, each times
    an int ratio and an integer power of sqrt(pi).

    Each monomial (ln2 exponent, sqrt(pi) exponent) keeps an unreduced int
    numerator and an int denominator, a least common multiple of the
    denominators added to it, so an addition costs a few int operations and
    no reduction.  The sqrt(pi) power is an offset on the monomial, so the
    closed-term kernel in ``beta`` adds a rational times c*sqrt(pi)^e, or an
    H value q - 2*ln2 times it, without building the product.  ``value``
    reduces each coefficient once.
    """

    __slots__ = ("parts",)

    def __init__(self):
        self.parts = {}     # monomial -> [numerator, denominator]

    def add(self, value, cn=1, cd=1, shift=0):
        """Add value * cn / cd * sqrt(pi)^shift, for ints cn, cd and shift
        with cd nonzero."""
        if type(value) is int:
            self._add((0, shift), value * cn, cd)
        elif type(value) is SymConst:
            for (a, b), c in value.terms.items():
                self._add((a, b + shift), c.numerator * cn, c.denominator * cd)
        else:
            q = _as_fraction(value)
            self._add((0, shift), q.numerator * cn, q.denominator * cd)

    def _add(self, key, num, den):
        # not polyverify._add's degree-0 case: a scalar add sent there as a one-element
        # row costs about 4x as much, and a corpus run makes about 217k of them
        if not num:
            return
        part = self.parts.get(key)
        if part is None:
            self.parts[key] = [num, den]
            return
        total, common = part
        if common % den:
            g = gcd(common, den)
            part[0] = total * (den // g) + num * (common // g)
            part[1] = common // g * den
        else:
            part[0] = total + num * (common // den)

    def value(self):
        """The sum, lowered: an int or Fraction when rational, else a
        SymConst."""
        terms = {key: Fraction(num, den) for key, (num, den) in self.parts.items() if num}
        if not terms:
            return 0
        if len(terms) == 1 and (0, 0) in terms:
            return lower(terms[(0, 0)])
        return _canonical(terms)


def to_int(value):
    """The int equal to an int, Fraction or SymConst; EvalTypeError otherwise."""
    if type(value) is int:
        return value
    q = value.as_rational() if type(value) is SymConst else _as_fraction(value)
    if q.denominator != 1:
        raise EvalTypeError(f"{value} is not an integer")
    return q.numerator


def half(value):
    """A half-integer int or Fraction in normal form: an int when integral,
    else a Fraction with denominator 2.  EvalTypeError for any other value."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        if value.denominator == 2:
            return value
        raise EvalTypeError(f"{value} is not a half-integer")
    raise EvalTypeError(f"cannot interpret {value!r} as a half-integer")


def to_twice(value):
    """Twice a half-integer int, Fraction or SymConst, as an int;
    EvalTypeError otherwise."""
    if type(value) is int:
        return 2 * value
    if type(value) is Fraction:
        num, den = value.as_integer_ratio()
        if den == 2:
            return num
    if type(value) is SymConst:
        value = value.as_rational()
    value = half(value)
    return 2 * value if type(value) is int else value.numerator


def _render_fraction(q):
    num = _render_int(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_render_int(q.denominator)}"


def _render_int(n):
    """Decimal text of an int.  Past the interpreter's digit limit for
    int-to-str conversion (4,300 digits by default, process-global) this is
    an EvalTypeError, not a ValueError."""
    try:
        return str(n)
    except ValueError:
        raise EvalTypeError(
            f"an integer of {n.bit_length()} bits is too long to print in decimal") from None


def _split_signed_terms(text):
    text = text.strip()
    if text == "0":
        return []
    out = []
    for piece in re.split(r"\s+(?=[+-]\s)", text):
        piece = piece.strip()
        sign = 1
        if piece.startswith("+"):
            piece = piece[1:].strip()
        elif piece.startswith("-"):
            sign = -1
            piece = piece[1:].strip()
        out.append((sign, piece))
    return out


ZERO = SymConst()
ONE = SymConst({(0, 0): Fraction(1)})
LN2 = SymConst.monomial(1, ln2_exp=1)
SQRT_PI = SymConst.monomial(1, sqrtpi_exp=1)
