"""Oracle tests for harmonic numbers, Gamma at half-integers, generalized
binomials with their pole conventions, and Chebyshev polynomials (built in
``polyverify``).

The half-integer harmonic relations and the binomial reduction relations are
checked over wide integer ranges; Pascal, symmetry, and the ratio recurrence
are checked over the full half-integer grid |x|, |y| <= 10.
"""

import math
from fractions import Fraction

import pytest
import sympy

from finsum import dsl, special
from finsum.errors import DivisionByZero, EvalTypeError, PoleError
from finsum.field import SymConst, lift
from finsum.polyverify import chebyshev_u

LN2 = SymConst.monomial(1, ln2_exp=1)


def H(q):
    return special.harmonic(Fraction(q))


def B(x, y):
    return special.gen_binom(Fraction(x), Fraction(y))


def O(n):  # noqa: E743  (odd harmonic, named as in the formulas)
    return SymConst.rational(special.odd_harmonic_m(n, 1))


HALF = Fraction(1, 2)


def as_sympy(value):
    """Exact sympy image of a constant-field element."""
    total = sympy.Integer(0)
    for (a, b), c in value.terms.items():
        total += sympy.Rational(c) * sympy.log(2) ** a * sympy.sqrt(sympy.pi) ** b
    return total


class TestHarmonic:
    def test_anchors(self):
        assert H(0) == SymConst.rational(0)
        assert H(-HALF) == -2 * LN2
        assert H(1) == SymConst.rational(1)
        assert H(HALF) == SymConst.rational(2) - 2 * LN2

    def test_negative_integer_poles(self):
        for n in (-1, -2, -7):
            with pytest.raises(PoleError):
                H(n)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_half_integer_harmonic_relations(self, n):
        two = SymConst.rational(2)
        assert H(n - HALF) == 2 * O(n) - 2 * LN2
        assert H(n - HALF) - H(-HALF) == 2 * O(n)
        assert H(n - HALF) - H(HALF) == 2 * (O(n) - 1)
        assert H(n + HALF) - H(-HALF) == 2 * O(n + 1)
        assert H(n + HALF) - H(HALF) == 2 * (O(n + 1) - 1)
        assert H(n + HALF) - H(n - HALF) == SymConst.rational(Fraction(2, 2 * n + 1))
        assert H(n - HALF) - H(Fraction(-3, 2)) == 2 * (O(n) - 1)
        assert H(n + HALF) - H(Fraction(-3, 2)) == 2 * (O(n + 1) - 1)
        del two

    @pytest.mark.parametrize("n", range(1, 25))
    def test_recurrence(self, n):
        q = Fraction(n, 2)
        assert H(q) == H(q - 1) + SymConst.rational(1 / q)

    @pytest.mark.parametrize("n", range(0, 15))
    def test_integer_values_match_sympy(self, n):
        assert H(n).as_rational() == Fraction(sympy.harmonic(n))

    def test_generalized_orders(self):
        assert special.harmonic_m(4, 2) == Fraction(1) + Fraction(1, 4) + \
            Fraction(1, 9) + Fraction(1, 16)
        assert special.odd_harmonic_m(3, 1) == 1 + Fraction(1, 3) + Fraction(1, 5)
        with pytest.raises(EvalTypeError):
            special.harmonic_m(-1)


class TestPowerSums:
    """H_n^(m) and O_n^(m), cached by (n, m) and built from the value at
    n - 1 when that is cached."""

    @pytest.mark.parametrize("f, d", [(special.harmonic_m, lambda j: j),
                                      (special.odd_harmonic_m, lambda j: 2 * j - 1)],
                             ids=["harmonic_m", "odd_harmonic_m"])
    def test_equal_the_direct_sum_in_either_order(self, monkeypatch, f, d):
        for order in (range(60, -1, -1), range(61)):   # each from scratch, then by recurrence
            monkeypatch.setattr(special, "_power_sums", {})
            for m in (1, 2, 3):
                for n in order:
                    value = f(n, m)
                    assert type(value) is Fraction
                    assert value == sum((Fraction(1, d(j) ** m) for j in range(1, n + 1)),
                                        Fraction(0))

    def test_a_lone_large_argument_stores_one_value(self, monkeypatch):
        monkeypatch.setattr(special, "_power_sums", {})
        special.harmonic_m(3000, 2)
        assert len(special._power_sums) == 1

    @pytest.mark.parametrize("n, m", [(-1, 1), (-1, 2), (3, 0), (0, -1)])
    def test_out_of_range_raises_before_caching(self, monkeypatch, n, m):
        monkeypatch.setattr(special, "_power_sums", {})
        for f in (special.harmonic_m, special.odd_harmonic_m):
            with pytest.raises(EvalTypeError):
                f(n, m)
        assert special._power_sums == {}


class TestGammaHalf:
    @pytest.mark.parametrize("q", [Fraction(p, 2) for p in range(-9, 12)])
    def test_matches_sympy(self, q):
        if q <= 0 and q.denominator == 1:
            with pytest.raises(PoleError):
                special.gamma_half(q)
            return
        ours = as_sympy(special.gamma_half(q))
        ref = sympy.gamma(sympy.Rational(q))
        assert sympy.simplify(ours - ref) == 0

    def test_recurrence(self):
        for p in range(-7, 12):
            q = Fraction(p, 2)
            if q.denominator == 1:
                continue
            lhs = special.gamma_half(q + 1)
            rhs = SymConst.rational(q) * special.gamma_half(q)
            assert lhs == rhs


class TestFact:
    @pytest.mark.parametrize("twice", range(-11, 24))
    def test_is_gamma_of_x_plus_one(self, twice):
        """fact(x) = Gamma(x + 1): x! as an int at an integer x, one
        rational times sqrt(pi) at a half-odd x, a pole naming fact(x) at a
        negative integer; in the DSL as in ``special``."""
        x = Fraction(twice, 2)
        if x < 0 and x.denominator == 1:
            with pytest.raises(PoleError, match=rf"^fact\({x}\) is a pole$"):
                special.fact_at(twice)
            with pytest.raises(PoleError, match=rf"^fact\({x}\) is a pole$"):
                dsl.eval_scalar(dsl.parse(f"fact({x})"), {})
            return
        c, p = special.fact_at(twice)
        assert p == (0 if x.denominator == 1 else 1)
        assert SymConst.monomial(c, sqrtpi_exp=p) == special.gamma_half(x + 1)
        assert dsl.eval_scalar(dsl.parse(f"fact({x})"), {}) == special.gamma_half(x + 1)
        if p == 0:
            assert type(c) is int and c == math.factorial(twice // 2)


GRID = [Fraction(p, 2) for p in range(-20, 21)]


class TestGenBinom:
    def test_integer_cases(self):
        assert B(5, 2).value.as_rational() == 10
        assert B(5, -1).value.as_rational() == 0
        assert B(-1, 2).value.as_rational() == 1
        assert B(HALF, 2).value.as_rational() == Fraction(-1, 8)

    def test_pole_conventions(self):
        # denominator pole (x - y a negative integer, y half-odd) -> 0
        assert B(HALF, HALF + 1).value.is_zero
        # numerator pole alone -> Infinite
        assert B(-1, HALF).infinite
        # 1/binom(1/2, 3/2), and binom(1/2, 3/2) = 0
        with pytest.raises(DivisionByZero):
            special.rbinom_at(1, 3)

    def test_recip_limit_convention(self):
        # 1/binom(-1, 1/2), and binom(-1, 1/2) is Infinite
        assert lift(special.rbinom_at(-2, 1)).is_zero

    @pytest.mark.parametrize("x", GRID)
    def test_pascal_rule(self, x):
        for y in GRID:
            parts = [B(x, y), B(x - 1, y), B(x - 1, y - 1)]
            if any(p.infinite for p in parts):
                continue
            assert parts[0].value == parts[1].value + parts[2].value, (x, y)

    @pytest.mark.parametrize("x", [q for q in GRID if not (
        q.denominator == 1 and q < 0)])
    def test_symmetry(self, x):
        # symmetry fails for negative integer x (falling factorial world),
        # so those rows are excluded by construction
        for y in GRID:
            a, b = B(x, y), B(x, x - y)
            if a.infinite or b.infinite:
                continue
            assert a.value == b.value, (x, y)

    @pytest.mark.parametrize("x", GRID)
    def test_ratio_recurrence(self, x):
        # y * binom(x, y) = x * binom(x-1, y-1)
        for y in GRID:
            a, b = B(x, y), B(x - 1, y - 1)
            if a.infinite or b.infinite:
                continue
            assert SymConst.rational(y) * a.value == SymConst.rational(x) * b.value, (x, y)

    @pytest.mark.parametrize("r", range(0, 13))
    def test_binomial_reduction_relations(self, r):
        two = Fraction(2)
        for s in range(0, r + 1):
            c2s = B(2 * s, s).value
            crs = B(r, s).value
            assert B(r + HALF, s).value * crs * two ** (2 * s) == \
                B(2 * r + 1, 2 * s).value * c2s
            assert B(r - HALF, s).value * B(2 * (r - s), r - s).value * two ** (2 * s) == \
                B(2 * r, r).value * crs
            # binom(r, s+1/2) carries 1/pi = P^-2
            lhs = B(r, s + HALF).value
            rhs = (SymConst.monomial(1, sqrtpi_exp=-2)
                   * SymConst.rational(two ** (2 * r + 2) / (s + 1))
                   * crs
                   * B(2 * (r - s), r - s).value.inverse()
                   * B(2 * (s + 1), s + 1).value.inverse())
            assert lhs == rhs

    @pytest.mark.parametrize("r", range(0, 13))
    def test_half_top_reductions(self, r):
        sign = Fraction((-1) ** (r + 1))
        assert B(HALF, r).value.as_rational() == \
            sign * B(2 * r, r).value.as_rational() / (4 ** r * (2 * r - 1))
        assert B(-HALF, r).value.as_rational() == \
            Fraction((-1) ** r) * B(2 * r, r).value.as_rational() / 4 ** r

    @pytest.mark.parametrize("x", [Fraction(p, 2) for p in range(0, 16)])
    def test_generic_values_match_sympy(self, x):
        for y in [Fraction(p, 2) for p in range(-6, 16)]:
            b = B(x, y)
            if b.infinite:
                continue
            ref = sympy.binomial(sympy.Rational(x), sympy.Rational(y))
            assert sympy.simplify(as_sympy(b.value) - ref) == 0, (x, y)


def plain_or_irrational(value):
    """The lowered-value invariant of the twice-int accessors: an int, a
    Fraction that is not an integer, or a SymConst that is not rational."""
    if type(value) is SymConst:
        return not value.is_rational
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def sympy_harmonic(q2):
    """H_q at q = q2/2 from sympy, stepped down by H_q = H_{q+1} - 1/(q+1)
    for q <= 0, where sympy leaves it unevaluated."""
    q, acc = sympy.Rational(q2, 2), sympy.Integer(0)
    while q <= 0:
        acc -= 1 / (q + 1)
        q += 1
    closed = sympy.expand_func(sympy.harmonic(q)).doit()
    return sympy.expand_log(closed, force=True) + acc


class TestTwiceIntAccessors:
    """binom_at, rbinom_at and harmonic_at take twice the half-integer
    arguments and return plain rationals, checked against sympy; the public
    functions lift them to SymConst."""

    TWICE = range(-12, 13)

    def test_binom_at_matches_sympy(self):
        for x2 in self.TWICE:
            for y2 in self.TWICE:
                got = special.binom_at(x2, y2)
                ref = sympy.binomial(sympy.Rational(x2, 2), sympy.Rational(y2, 2))
                if not ref.is_finite:  # sympy's zoo is the Infinite pole
                    assert got is special.INFINITE, (x2, y2)
                    assert special.gen_binom(Fraction(x2, 2), Fraction(y2, 2)).infinite
                    continue
                assert plain_or_irrational(got), (x2, y2, got)
                assert sympy.simplify(as_sympy(lift(got)) - ref) == 0, (x2, y2)
                assert type(special.gen_binom(Fraction(x2, 2), Fraction(y2, 2)).value) is SymConst

    def test_rbinom_at_matches_sympy(self):
        for x2 in self.TWICE:
            for y2 in self.TWICE:
                ref = sympy.binomial(sympy.Rational(x2, 2), sympy.Rational(y2, 2))
                if ref == 0:
                    with pytest.raises(DivisionByZero):
                        special.rbinom_at(x2, y2)
                    continue
                got = special.rbinom_at(x2, y2)
                assert plain_or_irrational(got), (x2, y2, got)
                if not ref.is_finite:  # limit convention 1/Infinite = 0
                    assert got == 0, (x2, y2)
                    continue
                assert sympy.simplify(as_sympy(lift(got)) * ref - 1) == 0, (x2, y2)
                assert lift(got) * lift(special.binom_at(x2, y2)) == 1, (x2, y2)

    def test_harmonic_at_matches_sympy(self):
        for q2 in range(-12, 41):
            if q2 < 0 and q2 % 2 == 0:
                with pytest.raises(PoleError):
                    special.harmonic_at(q2)
                with pytest.raises(PoleError):
                    special.harmonic(Fraction(q2, 2))
                continue
            got = special.harmonic_at(q2)
            assert plain_or_irrational(got), (q2, got)
            assert (type(got) is SymConst) == (q2 % 2 == 1)
            assert sympy.expand(as_sympy(lift(got)) - sympy_harmonic(q2)) == 0, q2
            assert type(special.harmonic(Fraction(q2, 2))) is SymConst


    # the closed-term kernel in ``beta`` folds a binomial into an int
    # numerator, denominator and sqrt(pi) exponent, and adds an H value
    # directly to a side's sum; these pin the shapes it relies on

    def test_finite_binom_at_is_rational_or_one_sqrt_pi_monomial(self):
        shapes = set()
        for x2 in range(-40, 41):
            for y2 in range(-40, 41):
                got = special.binom_at(x2, y2)
                if got is special.INFINITE or type(got) in (int, Fraction):
                    shapes.add(type(got).__name__)
                    continue
                assert type(got) is SymConst, (x2, y2, got)
                (a, b), = got.terms
                assert a == 0 and b != 0, (x2, y2, got)
                shapes.add(b)
        assert shapes == {"BinomValue", "int", "Fraction", -2}   # 1/pi: x integer, y half-odd

    def test_harmonic_at_is_rational_or_q_minus_two_ln2(self):
        for q2 in range(-41, 81):
            if q2 < 0 and q2 % 2 == 0:
                continue
            got = special.harmonic_at(q2)
            if q2 % 2 == 0:
                assert type(got) in (int, Fraction), q2
                continue
            assert type(got) is SymConst, q2
            assert got.terms[(1, 0)] == -2 and set(got.terms) <= {(0, 0), (1, 0)}, (q2, got)


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev_u(0).coeffs == (Fraction(1),)
        assert chebyshev_u(1).coeffs == (Fraction(0), Fraction(2))

    @pytest.mark.parametrize("n", range(0, 15))
    def test_endpoint_values(self, n):
        u = chebyshev_u(n)
        assert u(1) == n + 1
        assert u(-1) == (-1) ** n * (n + 1)
        assert u(0) == (0 if n % 2 else (-1) ** (n // 2))

    @pytest.mark.parametrize("n", range(2, 12))
    def test_recurrence_pointwise(self, n):
        for t in (Fraction(1, 3), Fraction(-2), Fraction(7, 2)):
            lhs = chebyshev_u(n)(t)
            rhs = 2 * t * chebyshev_u(n - 1)(t) - chebyshev_u(n - 2)(t)
            assert lhs == rhs

    def test_negative_degree_rejected(self):
        with pytest.raises(EvalTypeError):
            chebyshev_u(-1)
