"""Ring axioms, canonical rendering, and numeric agreement for the constant
field, plus half-integer normal form."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsum.errors import DivisionByZero, EvalTypeError
from finsum.field import (LN2, ONE, SQRT_PI, ZERO, Sum, SymConst, half, lift, lower,
                          to_int, to_twice)

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=64)

nonzero_fractions = fractions.filter(bool)

monomial_keys = st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=-3, max_value=3))

sym_consts = st.dictionaries(monomial_keys, fractions, max_size=4).map(SymConst)

monomials = st.builds(lambda c, b: SymConst.monomial(c, sqrtpi_exp=b),
                      nonzero_fractions, st.integers(min_value=-3, max_value=3))

# an evaluator's operands: plain rationals and constants of either kind,
# including lone rational terms and lone monomials that the fast paths serve
operands = st.one_of(st.integers(min_value=-6, max_value=6), fractions,
                     fractions.map(SymConst.rational), monomials, sym_consts)


def _invertible(x):
    return len(x.terms) == 1 and next(iter(x.terms))[0] == 0


class TestHalf:
    def test_normal_form(self):
        for value, want in ((3, 3), (-4, -4), (0, 0), (Fraction(5, 2), Fraction(5, 2)),
                            (Fraction(-3, 2), Fraction(-3, 2)), (Fraction(4, 2), 2),
                            (Fraction(-6), -6)):
            got = half(value)
            assert got == want and type(got) is type(want)
        assert to_twice(3) == 6 and to_twice(Fraction(5, 2)) == 5
        assert to_twice(Fraction(4, 2)) == 4 and to_twice(Fraction(-3, 2)) == -3

    def test_rejects_non_half_values(self):
        with pytest.raises(EvalTypeError, match="1/3 is not a half-integer"):
            half(Fraction(1, 3))
        for value in (1.5, "3", "1/2"):
            with pytest.raises(EvalTypeError, match="cannot interpret"):
                half(value)
            with pytest.raises(EvalTypeError, match="cannot interpret"):
                to_twice(value)

    def test_str(self):
        assert str(half(3)) == "3"
        assert str(half(-3)) == "-3"
        assert str(half(Fraction(6, 2))) == "3"
        assert str(half(Fraction(3, 2))) == "3/2"
        assert str(half(Fraction(-3, 2))) == "-3/2"


class TestSymConstRing:
    @given(sym_consts, sym_consts, sym_consts)
    def test_add_mul_axioms(self, x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(sym_consts)
    def test_identities_and_negation(self, x):
        assert x + ZERO == x
        assert x * ONE == x
        assert x + (-x) == ZERO
        assert x - x == ZERO

    @given(sym_consts)
    def test_scalar_coercion(self, x):
        assert x + 0 == x
        assert 2 * x == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x

    def test_negative_ln2_exponent_rejected(self):
        with pytest.raises(EvalTypeError):
            SymConst({(-1, 0): Fraction(1)})

    def test_monomial_inverse(self):
        m = SymConst.monomial(Fraction(3, 4), sqrtpi_exp=2)
        assert m * m.inverse() == ONE
        with pytest.raises(EvalTypeError):
            (ONE + LN2).inverse()
        with pytest.raises(DivisionByZero):
            ZERO.inverse()
        with pytest.raises(EvalTypeError):
            LN2.inverse()

    def test_sqrtpi_is_invertible(self):
        assert SQRT_PI * SQRT_PI.inverse() == ONE
        assert (SQRT_PI ** -2) * SQRT_PI * SQRT_PI == ONE

    @given(sym_consts, monomials, st.integers(min_value=0, max_value=9))
    def test_pow_matches_repeated_product(self, x, m, n):
        product = ONE
        for _ in range(n):
            product = product * x
        assert x ** n == product
        inverse_product = ONE
        for _ in range(n):
            inverse_product = inverse_product * m.inverse()
        assert m ** -n == inverse_product
        assert m ** -n * m ** n == ONE
        with pytest.raises(DivisionByZero):
            ZERO ** -(n + 1)

    @given(operands, operands)
    def test_results_are_canonical(self, x, y):
        """Results built without validation equal their validated copies:
        every coefficient a nonzero Fraction."""
        x, y = lift(x), lift(y)
        # (x + y)(x - y) cancels its cross terms
        results = [x + y, x - y, x + (-x), x * y, (x + y) * (x - y), -x, x ** 2, x * 3,
                   Fraction(1, 2) * x, x * 0, x + 1]
        if _invertible(y):
            results += [y.inverse(), x / y, y * y.inverse()]
        for r in results:
            assert r == SymConst(dict(r.terms))
            assert all(type(c) is Fraction and c != 0 for c in r.terms.values())


class TestBoundary:
    @given(operands, operands)
    def test_lowered_arithmetic_matches_symconst(self, x, y):
        """Lowering, computing with Python's operators, then lifting gives
        the SymConst result, whatever mix of kinds the operands are."""
        big_x, big_y = lift(x), lift(y)
        a, b = lower(big_x), lower(big_y)
        assert lift(a + b) == big_x + big_y
        assert lift(a - b) == big_x - big_y
        assert lift(a * b) == big_x * big_y
        if _invertible(big_y):
            # int / int is a float in Python; an evaluator divides through Fraction
            quotient = Fraction(a, b) if type(a) is int and type(b) is int else a / b
            assert lift(quotient) == big_x / big_y

    @given(operands)
    def test_lower_undoes_lift(self, x):
        big = lift(x)
        low = lower(big)
        assert lift(low) == big
        if big.is_rational:
            q = big.as_rational()
            assert low == q
            assert type(low) is (int if q.denominator == 1 else Fraction)
        else:
            assert low is big

    def test_lift_shares_zero_and_rejects_floats(self):
        assert lift(0) is ZERO and lift(Fraction(0)) is ZERO
        assert lift(ONE) is ONE
        assert lift(half(Fraction(3, 2))) == SymConst.rational(Fraction(3, 2))
        with pytest.raises(EvalTypeError, match="cannot interpret"):
            lift(0.5)

    def test_integer_and_half_integer_reads(self):
        for value in (3, Fraction(3), SymConst.rational(3)):
            assert to_int(value) == 3 and type(to_int(value)) is int
            assert to_twice(value) == 6 and type(to_twice(value)) is int
        for value in (Fraction(-3, 2), SymConst.rational(Fraction(-3, 2))):
            assert to_twice(value) == -3 and type(to_twice(value)) is int
            with pytest.raises(EvalTypeError, match="-3/2 is not an integer"):
                to_int(value)
        for value in (Fraction(1, 3), SymConst.rational(Fraction(1, 3))):
            with pytest.raises(EvalTypeError, match="1/3 is not a half-integer"):
                to_twice(value)
        for reader in (to_int, to_twice):
            with pytest.raises(EvalTypeError, match="is not rational"):
                reader(ONE + LN2)


# a value times an int ratio, as a side adds a term or a bracket piece: cn
# of either sign or 0, cd of either sign (a reciprocal affine factor at a
# negative point makes it negative)
scaled = st.tuples(operands, st.integers(min_value=-12, max_value=12),
                   st.integers(min_value=-30, max_value=30).filter(bool))


def _summed(items):
    total = Sum()
    for value, cn, cd in items:
        total.add(value, cn, cd)
    return total.value()


class TestSum:
    @given(st.lists(scaled, max_size=12))
    def test_matches_left_to_right_symconst_addition(self, items):
        want = ZERO
        for value, cn, cd in items:
            want = want + lift(value) * Fraction(cn, cd)
        got = _summed(items)
        assert lift(got) == want
        if want.is_rational:
            q = want.as_rational()
            assert got == q and type(got) is (int if q.denominator == 1 else Fraction)
        else:
            assert type(got) is SymConst and got.terms == want.terms
            assert all(type(c) is Fraction and c != 0 for c in got.terms.values())

    @given(st.lists(scaled, min_size=1, max_size=8), st.randoms())
    def test_cancels_to_exactly_zero(self, items, rnd):
        negated = [(value, -cn, cd) for value, cn, cd in items]
        mixed = items + negated
        rnd.shuffle(mixed)
        got = _summed(mixed)
        assert got == 0 and type(got) is int

    def test_lowered_results_and_defaults(self):
        assert _summed([]) == 0 and type(_summed([])) is int
        third = [(Fraction(1, 3), 1, 1)] * 3
        assert _summed(third) == 1 and type(_summed(third)) is int
        assert _summed([(1, 1, 6), (Fraction(1, 4), 2, 1)]) == Fraction(2, 3)
        # ln2 cancels, the rational monomial is left
        assert _summed([(ONE + LN2, 1, 2), (LN2, -1, 2), (3, 1, 1)]) == Fraction(7, 2)
        got = _summed([(SQRT_PI, -3, 4), (LN2, 1, 1), (SQRT_PI, 3, 4), (SQRT_PI, 1, 1)])
        assert got == LN2 + SQRT_PI and type(got) is SymConst
        total = Sum()
        total.add(Fraction(5, 2))
        total.add(SQRT_PI * Fraction(1, 3))
        assert total.value() == SymConst({(0, 0): Fraction(5, 2), (0, 1): Fraction(1, 3)})

    def test_rejects_floats(self):
        with pytest.raises(EvalTypeError, match="cannot interpret"):
            Sum().add(0.5)

    @given(st.lists(st.tuples(operands, st.integers(min_value=-12, max_value=12),
                              st.integers(min_value=-30, max_value=30).filter(bool),
                              st.integers(min_value=-3, max_value=3)), max_size=12))
    def test_shifted_add_matches_left_to_right_symconst_arithmetic(self, items):
        """add(value, cn, cd, shift) adds value * cn/cd * sqrt(pi)^shift."""
        want = ZERO
        total = Sum()
        for value, cn, cd, shift in items:
            want = want + lift(value) * Fraction(cn, cd) * SQRT_PI ** shift
            total.add(value, cn, cd, shift)
        got = total.value()
        assert lift(got) == want
        if want.is_rational:
            assert type(got) in (int, Fraction)
        else:
            assert type(got) is SymConst and got.terms == want.terms

    def test_shifted_add_examples(self):
        total = Sum()
        total.add(3, 1, 2, -2)                          # 3/2 / pi
        total.add(Fraction(1, 3) - 2 * LN2, 3, 1, 1)    # (1 - 6 ln2) sqrt(pi)
        total.add(SQRT_PI, -1, 1, -1)                   # -1, on the rational monomial
        assert total.value() == SymConst({(0, -2): Fraction(3, 2), (0, 1): 1, (1, 1): -6,
                                          (0, 0): -1})


class TestRendering:
    @given(sym_consts)
    def test_render_parse_round_trip(self, x):
        assert SymConst.parse(x.render()) == x

    def test_canonical_examples(self):
        assert ZERO.render() == "0"
        assert (ONE + LN2).render() == "1 + L"
        assert SymConst.monomial(-2, ln2_exp=1).render() == "-2*L"
        v = SymConst.rational(Fraction(46, 15)) - 2 * LN2
        assert v.render() == "46/15 - 2*L"
        assert SymConst.monomial(4, sqrtpi_exp=-2).render() == "4*P^-2"

    def test_parse_rejects_garbage(self):
        from finsum.errors import DslSyntaxError
        with pytest.raises(DslSyntaxError):
            SymConst.parse("1 + Q")
        with pytest.raises(DslSyntaxError, match="bad constant factor '1/0'"):
            SymConst.parse("1/0")


class TestToFloat:
    @given(sym_consts, sym_consts)
    @settings(max_examples=30)
    def test_homomorphism(self, x, y):
        with mpmath.workdps(40):
            fx, fy = x.to_float(30), y.to_float(30)
            assert abs((x + y).to_float(30) - (fx + fy)) < 1e-24
            assert abs((x * y).to_float(30) - (fx * fy)) < max(
                1e-20, 1e-22 * (1 + abs(fx * fy)))

    def test_known_values(self):
        with mpmath.workdps(40):
            assert abs(LN2.to_float(30) - mpmath.ln(2)) < 1e-28
            assert abs(SQRT_PI.to_float(30) - mpmath.sqrt(mpmath.pi)) < 1e-28

    def test_minimum_precision_enforced(self):
        with pytest.raises(EvalTypeError):
            ONE.to_float(5)
