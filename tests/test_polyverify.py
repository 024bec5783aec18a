"""Dense polynomial arithmetic and exact polynomial-identity verification,
anchored by integral oracles over [0, 1]."""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finsum import corpus, dsl, polyverify
from finsum.errors import (DivisionByZero, EvalTypeError, NegativeExponent)
from finsum.field import SymConst, half, lift
from finsum.model import load_identity
from finsum.polyverify import (DensePoly, binomial_power, eval_poly, expand_side,
                               verify_poly)
from poly_oracles import cheb_u_sqrt_poly, integrate_unit

R = SymConst.rational


def poly(*values):
    return DensePoly(R(v) for v in values)


small_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    max_size=5).map(lambda cs: poly(*cs))


class TestDensePoly:
    def test_trims_trailing_zeros(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0).is_zero
        assert poly().degree == -1

    def test_constant_and_variable(self):
        assert DensePoly.constant(3) == poly(3)
        assert DensePoly.variable() == poly(0, 1)

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p - p == DensePoly()
        assert -p == DensePoly() - p

    @given(small_polys, st.integers(min_value=0, max_value=4))
    def test_pow_matches_repeated_product(self, p, n):
        by_hand = DensePoly.constant(1)
        for _ in range(n):
            by_hand = by_hand * p
        assert p ** n == by_hand

    def test_pow_rejects_negative(self):
        with pytest.raises(NegativeExponent):
            poly(1, 1) ** -1

    @given(small_polys, st.fractions(min_value=-4, max_value=4,
                                     max_denominator=6))
    def test_evaluation_is_ring_hom(self, p, t):
        q = poly(1, -2, 3)
        assert (p * q)(t) == p(t) * q(t)
        assert (p + q)(t) == p(t) + q(t)

    def test_scale(self):
        assert poly(1, 2).scale(R(3)) == poly(3, 6)


# Coefficients over the monomials 1, ln2, sqrt(pi) and 1/sqrt(pi): sums and
# products of these cancel to rationals and to zero, so the lowered vector
# meets every kind of value.
MONOMIALS = ((0, 0), (1, 0), (0, 1), (0, -1))
field_coeffs = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=4, max_size=4).map(
        lambda cs: SymConst({key: c for key, c in zip(MONOMIALS, cs)}))
field_coeff_lists = st.lists(
    st.one_of(field_coeffs,
              st.fractions(min_value=-3, max_value=3, max_denominator=4).map(R),
              st.just(R(0))),
    max_size=4)


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    get = lambda cs, i: cs[i] if i < len(cs) else R(0)  # noqa: E731
    return ref_trim(get(a, i) + get(b, i) * sign for i in range(n))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [R(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_trim(out)


def assert_canonical(p):
    """Every part of ``p`` has a positive int denominator and a tuple of int
    numerators ending in a nonzero one, reduced together; no part is
    empty, and the monomials are distinct and sorted."""
    keys = [key for key, _, _ in p.parts]
    assert type(p.parts) is tuple and keys == sorted(set(keys))
    for _, den, nums in p.parts:
        assert type(den) is int and den > 0
        assert type(nums) is tuple and nums and nums[-1] != 0
        assert all(type(x) is int for x in nums)
        assert math.gcd(den, *nums) == 1


class TestLoweredCoefficients:
    """DensePoly keeps int numerators over one denominator per monomial; a
    reference over lists of SymConst pins its arithmetic, and ``coeffs``
    lifts every coefficient back to SymConst."""

    @staticmethod
    def check(p, want):
        assert p.coeffs == want
        assert type(p.coeffs) is tuple
        assert all(type(c) is SymConst for c in p.coeffs)
        assert p.degree == len(want) - 1
        assert all(p.coefficient(i) == c for i, c in enumerate(want))
        assert type(p.coefficient(len(want))) is SymConst
        # held canonical, with a part only for a monomial that appears: a
        # rational polynomial is one (0, 0) part
        assert_canonical(p)
        assert {key for key, _, _ in p.parts} == {key for c in want for key in c.terms}

    @given(field_coeff_lists, field_coeff_lists, field_coeffs,
           st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_ring_operations_match_symconst_reference(self, a, b, c, f):
        p, q = DensePoly(a), DensePoly(b)
        ra, rb = ref_trim(a), ref_trim(b)
        self.check(p, ra)
        self.check(p + q, ref_add(ra, rb))
        self.check(p - q, ref_add(ra, rb, -1))
        self.check(-p, ref_add((), ra, -1))
        self.check(p * q, ref_mul(ra, rb))
        self.check(p.scale(c), ref_trim(x * c for x in ra))
        assert (p * q == q * p) and (p + q == DensePoly(ref_add(ra, rb)))
        # a scalar operand on either side is a constant polynomial
        for x in (c, f, f.numerator):
            rx = (lift(x),)
            self.check(p + x, ref_add(ra, rx))
            self.check(x + p, ref_add(ra, rx))
            self.check(p - x, ref_add(ra, rx, -1))
            self.check(x - p, ref_add(rx, ra, -1))
            self.check(p * x, ref_mul(ra, rx))
            self.check(x * p, ref_mul(ra, rx))
        if f:
            self.check(p / f, ref_trim(x / R(f) for x in ra))
            self.check(p / DensePoly.constant(f), ref_trim(x / R(f) for x in ra))
            self.check(c / DensePoly.constant(f), ref_trim((c / R(f),)))

    @given(field_coeff_lists, st.integers(min_value=0, max_value=3))
    def test_pow_matches_symconst_reference(self, a, n):
        want = (R(1),)
        for _ in range(n):
            want = ref_mul(want, ref_trim(a))
        self.check(DensePoly(a) ** n, want)

    @pytest.mark.parametrize("m", range(0, 13))
    def test_special_bases_match_repeated_multiplication(self, m):
        # (1+-t)^m goes through binomial_power and t^m is a shift; both
        # must equal m plain multiplications
        for base in (poly(1, 1), poly(1, -1), poly(0, 1)):
            by_hand = DensePoly.constant(1)
            for _ in range(m):
                by_hand = by_hand * base
            got = base ** m
            assert got == by_hand
            self.check(got, by_hand.coeffs)


class TestCanonicalForm:
    """The parts are a canonical form: a polynomial built by any route has
    the same parts, hash and equality as the same polynomial built
    directly."""

    @staticmethod
    def same(p, q):
        assert_canonical(p)
        assert_canonical(q)
        assert p.parts == q.parts
        assert p == q and hash(p) == hash(q)

    @given(field_coeff_lists, field_coeffs,
           st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
           st.integers(min_value=0, max_value=3))
    def test_routes_agree(self, a, c, f, shift):
        p = DensePoly(a)
        t = DensePoly.variable()
        # coefficient by coefficient through the ring operations
        by_ring = DensePoly()
        for i, x in enumerate(a):
            by_ring = by_ring + x * t ** i
        self.same(by_ring, p)
        # divided and multiplied back, by a rational and by a power of sqrt(pi)
        self.same((p / f) * f, p)
        self.same(p.scale(f).scale(1 / f), p)
        sqrt_pi = SymConst.monomial(1, sqrtpi_exp=1)
        self.same((p * sqrt_pi) / sqrt_pi, p)
        # a SymConst coefficient added and then cancelled
        bump = DensePoly([0] * shift + [c])
        self.same((p + bump) - bump, p)
        self.same(p + c - c, p)
        self.same(p - p, DensePoly())
        self.same(p * 0, DensePoly())
        # a product computed two ways
        q = bump + t
        self.same(p * q * q, p * (q ** 2))

    def test_examples(self):
        t = DensePoly.variable()
        self.same((t / 3) * 3, t)
        self.same(t * Fraction(2, 6) * 3, t)
        self.same(DensePoly([Fraction(2, 4), Fraction(3, 6)]), DensePoly([1, 1]) / 2)
        assert (t / 6).parts == (((0, 0), 6, (0, 1)),)
        assert (t * SymConst.parse("1/2 + 1/3*L")).parts == (
            ((0, 0), 2, (0, 1)), ((1, 0), 3, (0, 1)))


class TestBinomialPower:
    @pytest.mark.parametrize("m", range(0, 9))
    def test_matches_direct_expansion(self, m):
        for base, sign in (("1-t", -1), ("1+t", 1)):
            direct = (poly(1) + poly(0, sign)) ** m
            assert binomial_power(base, m) == direct

    def test_rejects_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            binomial_power("1-t", -2)


class TestEvalPoly:
    def ep(self, text, **binds):
        return eval_poly(dsl.parse(text),
                         {k: half(Fraction(str(v)))
                          for k, v in binds.items()})

    def test_basic_structure(self):
        assert self.ep("t^2 - 2*t + 1") == poly(1, -2, 1)
        assert self.ep("(1 - t)^n", n=2) == poly(1, -2, 1)
        assert self.ep("sum(k, 0, n, t^k)", n=3) == poly(1, 1, 1, 1)

    def test_scalar_subtrees_use_exact_constants(self):
        p = self.ep("H(5/2)*t")
        assert p.coefficient(1).render() == "46/15 - 2*L"

    def test_chebyshev_call(self):
        assert self.ep("U(2)") == poly(-1, 0, 4)
        assert self.ep("sign(n)*U(2*n)", n=1) == poly(1, 0, -4)

    def test_division_rules(self):
        assert self.ep("(4*t)/2") == poly(0, 2)
        with pytest.raises(EvalTypeError):
            self.ep("1/(1 + t)")
        with pytest.raises(DivisionByZero):
            self.ep("t/(n - 1)", n=1)

    def test_negative_power_of_scalar_only(self):
        assert self.ep("t*2^(0 - 1)") == poly(0, Fraction(1, 2))
        with pytest.raises(NegativeExponent):
            self.ep("(1 + t)^(0 - 1)")

    @pytest.mark.parametrize("text, binds, want", [
        ("(t - t + 2)^(0-1)", {}, ("1/2",)),
        ("1/(t - t + 2)", {}, ("1/2",)),
        ("U(n)*H(1/2)", {"n": 3}, ("0", "-8 + 8*L", "0", "16 - 16*L")),
    ])
    def test_edge_values(self, text, binds, want):
        assert self.ep(text, **binds) == DensePoly(SymConst.parse(c) for c in want)

    @pytest.mark.parametrize("text, binds, error", [
        ("1/(t-t)", {}, DivisionByZero),
        ("(t+1)/(n-3)", {"n": 3}, DivisionByZero),
        ("1/(1+t)", {}, EvalTypeError),
        ("binom(t,2)", {}, EvalTypeError),
        ("H(t)", {}, EvalTypeError),
        ("kron(t,1)", {}, EvalTypeError),
        ("t^(1/2)", {}, EvalTypeError),
        # t where an integer is due; UnboundVariable before t was bound
        # to the polynomial variable
        ("sum(k,0,t,1)", {}, EvalTypeError),
        ("2^t", {}, EvalTypeError),
        ("U(t)", {}, EvalTypeError),
    ])
    def test_edge_errors(self, text, binds, error):
        with pytest.raises(error):
            self.ep(text, **binds)

    @pytest.mark.parametrize("text, error, message", [
        ("t/(t-t)", DivisionByZero, "division by zero in t/(t - t)"),
        ("1/t + t", EvalTypeError, "division by the polynomial t in 1/t"),
        ("2*(1+t)/(1-t)", EvalTypeError, "division by the polynomial 1 - t in 2*(1 + t)/(1 - t)"),
    ])
    def test_polynomial_divisor_names_its_expression(self, text, error, message):
        with pytest.raises(error) as exc:
            self.ep(text)
        assert str(exc.value) == message

    def test_chebyshev_needs_t_bound_to_the_variable(self):
        expr = dsl.parse("U(2)")
        with pytest.raises(EvalTypeError, match="only meaningful in polynomial context"):
            dsl.compile(expr)({"t": 1 + DensePoly.variable()})
        assert dsl.compile(expr)({"t": DensePoly.variable()}) == poly(-1, 0, 4)

    def test_free_form_side_needs_no_free_vars(self, monkeypatch):
        (entry,) = corpus.load_entries(names={"partial-sum-gf-recip"})

        def refuse(expr):
            raise AssertionError("free_vars called during expansion")

        monkeypatch.setattr(dsl, "free_vars", refuse)
        assert verify_poly(entry.identity, 8).equal


class TestExpandSide:
    def test_standard_matches_poly(self):
        doc = {
            "name": "binomial-theorem-local",
            "lhs": {"kind": "standard", "terms": [
                {"coeff": "binom(n, k)", "t_exp": [1, 0, 0],
                 "base": "1-t", "base_exp": [-1, 1, 0],
                 "lower": "0", "upper": "n"}]},
            "rhs": {"kind": "poly", "expr": "(1 - t + t)^n + 0*t"},
        }
        ident = load_identity(doc)
        for n in range(0, 9):
            report = verify_poly(ident, n)
            assert report.equal, report.first_difference
            assert report.first_difference is None

    def test_zero_coefficients_are_skipped(self):
        doc = {
            "name": "kron-only",
            "lhs": {"kind": "standard", "terms": [
                {"coeff": "kron(k, 2)", "t_exp": [1, 0, 0],
                 "lower": "0", "upper": "n"}]},
            "rhs": {"kind": "poly", "expr": "t^2"},
        }
        assert verify_poly(load_identity(doc), 5).equal

    def test_negative_t_exponent_rejected(self):
        doc = {
            "name": "bad-exp",
            "lhs": {"kind": "standard", "terms": [
                {"coeff": "1", "t_exp": [1, 0, -1],
                 "lower": "0", "upper": "0"}]},
            "rhs": {"kind": "poly", "expr": "t"},
        }
        with pytest.raises(NegativeExponent):
            verify_poly(load_identity(doc), 0)

    @pytest.mark.parametrize("name", ["binom-harmonic-gf-complement", "partial-sum-gf-recip"])
    def test_each_expression_compiles_once_per_identity(self, name, monkeypatch):
        """``run_entry`` compiles each expression of a side once, a standard
        term's coefficient and two bounds and a free-form side's text, and
        expands it at every n through ``expand_side``."""
        (entry,) = corpus.load_entries(names={name})
        compiled, expanded = [], []
        compile_, expand = dsl.compile, polyverify.expand_side
        monkeypatch.setattr(dsl, "compile", lambda e: compiled.append(e) or compile_(e))
        monkeypatch.setattr(polyverify, "expand_side",
                            lambda side, n: expanded.append(n) or expand(side, n))
        assert corpus.run_entry(entry).matched
        identity = entry.identity
        assert len(compiled) == sum(3 * len(side.terms) if hasattr(side, "terms") else 1
                                    for side in (identity.lhs, identity.rhs))
        assert expanded == [n for n in entry.n_values for _ in "lr"]

    def test_compiled_side_expands_as_the_side(self):
        (entry,) = corpus.load_entries(names={"binom-harmonic-gf-complement"})
        side = entry.identity.rhs
        compiled = polyverify.compile_side(side)
        assert all(expand_side(compiled, n) == expand_side(side, n) for n in range(6))

    def test_first_difference_reports_lowest_power(self):
        doc = {
            "name": "off-by-t",
            "lhs": {"kind": "poly", "expr": "1 + 2*t"},
            "rhs": {"kind": "poly", "expr": "1 + 3*t"},
        }
        report = verify_poly(load_identity(doc), 0)
        assert not report.equal
        idx, lc, rc = report.first_difference
        assert idx == 1 and lc == R(2) and rc == R(3)


class TestIntegralOracles:
    @pytest.mark.parametrize("u", range(0, 9))
    def test_beta_integral_oracle(self, u):
        # integral over [0,1] of t^u (1-t)^v equals
        # 1 / (binom(u+v+1, u+1) * (u+1)) for nonnegative integers u, v
        for v in range(0, 9):
            p = DensePoly([R(0)] * u + [R(1)]) * binomial_power("1-t", v)
            got = integrate_unit(p).as_rational()
            from math import comb
            assert got == Fraction(1, comb(u + v + 1, u + 1) * (u + 1))

    @pytest.mark.parametrize("n", range(0, 11))
    def test_chebyshev_even_moment(self, n):
        u2n = eval_poly(dsl.parse("U(2*n)"), {"n": n})
        assert integrate_unit(u2n).as_rational() == Fraction(1, 2 * n + 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_chebyshev_t2_moment(self, n):
        u2n = eval_poly(dsl.parse("t^2*U(2*n)"), {"n": n})
        want = Fraction(4 * n * n + 4 * n - 1,
                        (2 * n - 1) * (2 * n + 1) * (2 * n + 3))
        assert integrate_unit(u2n).as_rational() == want

    @pytest.mark.parametrize("n", range(2, 11))
    def test_chebyshev_t3_moment(self, n):
        u2n = eval_poly(dsl.parse("t^3*U(2*n)"), {"n": n})
        want = Fraction((2 * n + 1) * (2 * n * (n + 1) - 3) + 3 * (-1) ** n,
                        2 * 4 * (n - 1) * n * (n + 1) * (n + 2))
        assert integrate_unit(u2n).as_rational() == want

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sqrt_compression_moment(self, n):
        # integral over [0,1] of U_{2n}(sqrt(t)) dt
        got = integrate_unit(cheb_u_sqrt_poly(n)).as_rational()
        assert got == Fraction(2 * n - (-1) ** n + 1, 2 * n * (n + 1))

    def test_sqrt_compression_example(self):
        assert cheb_u_sqrt_poly(2) == poly(1, -12, 16)
        assert integrate_unit(cheb_u_sqrt_poly(2)).as_rational() == Fraction(1, 3)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_sqrt_compression_matches_substitution(self, n):
        # evaluating at t = q^2 must reproduce U_{2n}(q)
        u = polyverify.chebyshev_u(2 * n)
        p = cheb_u_sqrt_poly(n)
        for q in (Fraction(1, 2), Fraction(2), Fraction(-3, 2)):
            assert p(q * q).as_rational() == u(q)


def test_expand_side_rejects_closed():
    ident = load_identity({
        "name": "closed-demo",
        "lhs": {"kind": "closed", "expr": "H(n)"},
        "rhs": {"kind": "closed", "expr": "H(n)"},
    })
    with pytest.raises(EvalTypeError):
        expand_side(ident.lhs, 3)


PIN_N = (26, 30, 34)


def expansion_text(identity, n_values):
    """One line per n and side: the rendered ``coeffs`` of its expansion."""
    return "\n".join(
        f"{n} {side} " + " ".join(c.render() for c in
                                  expand_side(getattr(identity, side), n).coeffs)
        for n in n_values for side in ("lhs", "rhs"))


def test_expansions_pinned():
    """Both sides of every polynomial corpus entry at each shipped n and at
    n = 26, 30, 34 are pinned by a sha256 of their ``expansion_text``, taken
    while DensePoly held one lowered value per power of t."""
    pinned = json.loads((Path(__file__).parent / "poly_expand_sha256.json").read_text())
    got = {}
    for entry in corpus.load_entries():
        if not entry.identity.is_closed:
            text = expansion_text(entry.identity, sorted(set(entry.n_values) | set(PIN_N)))
            got[entry.name] = hashlib.sha256(text.encode()).hexdigest()
    assert len(got) == 22
    assert got == pinned
