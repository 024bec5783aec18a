"""Parser, renderer, and scalar evaluator of the expression language."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finsum import dsl
from finsum.errors import (ArityError, DivisionByZero, DslSyntaxError,
                           EvalTypeError, PoleError, UnboundVariable)
from finsum.field import HalfInt, SymConst


def ev(text, **binds):
    return dsl.eval_scalar(dsl.parse(text),
                           {k: HalfInt.from_value(Fraction(str(v)))
                            for k, v in binds.items()})


def rat(text, **binds):
    return ev(text, **binds).as_rational()


class TestParsing:
    @pytest.mark.parametrize("text", [
        "1",
        "n",
        "-n",
        "n + k",
        "n - k - 1",
        "n*k/(k + 1)",
        "2^(n - 2*k)",
        "binom(n, k)*H(k)",
        "sign(k - 1)*rbinom(k + r, s)",
        "sum(j, 1, k, 1/j)",
        "sum(k, 0, floor(n/2), binom(n, 2*k))",
        "kron(n, k)*(H(k) + 1) - 1",
        "-(H(n) - 2*H(k - 1) + H(n - k))/k",
        "fact(k + r - 1)/fact(k)/(k + 2)",
        "Hm(k, 2)*Om(k, 1)*sign(j + 1)/j^2",
        "n*k*(j + 1) - k + n",
        "n - (k - 1) + (n + k)*(k - 1)*n",
        "n*(k*j) - 2*k/(k + 1)*n",
    ])
    def test_render_round_trip(self, text):
        ast = dsl.parse(text)
        assert dsl.render(ast) == text
        assert dsl.parse(dsl.render(ast)) == ast

    def test_precedence(self):
        assert dsl.parse("1 + 2*3") == dsl.Add(
            dsl.Lit(Fraction(1)),
            dsl.Mul(dsl.Lit(Fraction(2)), dsl.Lit(Fraction(3))))
        # ^ binds tighter than unary minus on the left
        assert rat("-2^2") == -4
        assert rat("(-2)^2") == 4
        assert rat("2^3^1") == 8

    def test_rational_literal_is_division(self):
        assert dsl.parse("5/2") == dsl.Div(dsl.Lit(Fraction(5)), dsl.Lit(Fraction(2)))
        assert rat("5/2") == Fraction(5, 2)

    def test_syntax_errors_carry_offsets(self):
        with pytest.raises(DslSyntaxError) as exc:
            dsl.parse("1 + $")
        assert exc.value.offset == 4
        with pytest.raises(DslSyntaxError):
            dsl.parse("binom(n, k")
        with pytest.raises(DslSyntaxError):
            dsl.parse("1 + ")
        with pytest.raises(DslSyntaxError):
            dsl.parse("x + 1")
        with pytest.raises(DslSyntaxError):
            dsl.parse("nosuch(1)")

    def test_arity_errors(self):
        with pytest.raises(ArityError):
            dsl.parse("binom(n)")
        with pytest.raises(ArityError):
            dsl.parse("H(n, 2)")
        with pytest.raises(ArityError):
            dsl.parse("sum(k, 0, n)")
        with pytest.raises(DslSyntaxError):
            dsl.parse("sum(2, 0, n, k)")

    def test_t_is_not_a_sum_index(self):
        # t is the indeterminate of polynomial sides; a sum binding it would
        # give the body's t two readings
        with pytest.raises(DslSyntaxError):
            dsl.parse("t + sum(t, 0, 2, t)")

    def test_is_polynomial(self):
        assert dsl.is_polynomial(dsl.parse("binom(n, k)*t^2"))
        assert dsl.is_polynomial(dsl.parse("sum(k, 0, n, U(k))"))
        assert not dsl.is_polynomial(dsl.parse("sum(k, 0, n, binom(n, k)*H(k))"))

    def test_free_vars(self):
        assert dsl.free_vars(dsl.parse("binom(n, k)*H(j)")) == {"n", "k", "j"}
        assert dsl.free_vars(dsl.parse("sum(j, 1, k, 1/j)")) == {"k"}
        assert dsl.free_vars(dsl.parse("sum(j, j, k, 1/j)")) == {"j", "k"}
        assert dsl.free_vars(dsl.parse("sum(j, 0, k, sum(k, 0, j, k) + n)")) == {"k", "n"}

    def test_long_flat_chain_walks(self):
        # render, free_vars and is_polynomial loop down a chain's left spine
        text = " + ".join(["k"] * 2999 + ["t*n"])
        ast = dsl.parse(text)
        assert dsl.render(ast) == text
        assert dsl.free_vars(ast) == {"k", "n", "t"}
        assert dsl.is_polynomial(ast)
        assert not dsl.is_polynomial(dsl.parse("*".join(["k"] * 3000)))

    def test_substitute(self):
        ast = dsl.substitute(dsl.parse("binom(n, k) + k"), "k",
                             dsl.parse("2*k"))
        assert ast == dsl.parse("binom(n, 2*k) + 2*k")
        # bound index is untouched
        ast = dsl.substitute(dsl.parse("sum(j, 1, k, j)"), "j", dsl.parse("n"))
        assert ast == dsl.parse("sum(j, 1, k, j)")
        ast = dsl.substitute(dsl.parse("sum(j, j, k, j)"), "j", dsl.parse("n"))
        assert ast == dsl.parse("sum(j, n, k, j)")


class TestScalarEval:
    def test_spec_examples(self):
        assert ev("sum(k,1,n,binom(n,k)*H(k)/k)", n=3).render() != ""
        assert ev("H(5/2)").render() == "46/15 - 2*L"
        assert rat("sum(k,0,n,sign(k)*binom(n,k)/(k+1))", n=4) == Fraction(1, 5)

    def test_half_integer_flow(self):
        assert rat("rbinom(k + r, s)", k=2, r="1/2", s="1/2") != 0
        assert ev("binom(n, k)", n="5/2", k=2).as_rational() == Fraction(15, 8)

    def test_calls(self):
        assert rat("kron(n, k)", n=3, k=3) == 1
        assert rat("kron(n, k)", n=3, k=2) == 0
        assert rat("sign(k)", k=3) == -1
        assert rat("sign(k - 1)", k=3) == 1
        assert rat("floor(n/2)", n=5) == 2
        assert rat("fact(n)", n=5) == 120
        assert rat("Hm(n, 2)", n=3) == Fraction(49, 36)
        assert rat("O(n)", n=3) == Fraction(23, 15)
        assert rat("Om(n, 2)", n=2) == Fraction(10, 9)
        # the sequences of the partial-sum generating functions
        assert rat("1/j", j=4) == Fraction(1, 4)
        assert rat("1/j^2", j=4) == Fraction(1, 16)
        assert rat("1", j=9) == 1
        assert rat("sign(j+1)/j", j=4) == Fraction(-1, 4)

    def test_registry_poles(self):
        for text in ("1/j", "1/j^2", "sign(j+1)/j"):
            with pytest.raises(DivisionByZero):
                ev(text, j=0)

    def test_empty_sum_is_zero(self):
        assert rat("sum(k, 1, n, 1/k)", n=0) == 0
        assert rat("sum(k, 0, n - 1, H(k))", n=0) == 0

    def test_pow_requires_integer_exponent(self):
        assert rat("2^(n - 2*k)", n=5, k=1) == 8
        assert rat("4^k", k=0) == 1
        with pytest.raises(EvalTypeError):
            ev("2^r", r="1/2")
        with pytest.raises(DivisionByZero):
            ev("(n - 3)^(0 - 1)", n=3)

    def test_eval_errors(self):
        with pytest.raises(UnboundVariable):
            ev("n + k", n=1)
        with pytest.raises(DivisionByZero):
            ev("1/(n - 2)", n=2)
        with pytest.raises(PoleError):
            ev("H(n)", n=-3)
        with pytest.raises(PoleError):
            ev("binom(n, k)", n=-1, k="1/2")
        with pytest.raises(EvalTypeError):
            ev("U(n)", n=2)

    def test_rbinom_limit_is_zero(self):
        assert ev("rbinom(n, k)", n=-1, k="1/2").is_zero

    def test_sign_of_negative_integers(self):
        assert rat("sign(-1)") == -1
        assert rat("sign(0-3)") == -1
        assert rat("sign(-2)") == 1
        assert rat("sign(j+1)/j", j=-2) == Fraction(1, 2)
        assert rat("sign(j+1)/j", j=-1) == -1

    def test_negative_power_is_exact(self):
        value = ev("2^(0-1)")
        assert value.terms == {(0, 0): Fraction(1, 2)}
        assert type(value.terms[(0, 0)]) is Fraction
        with pytest.raises(DivisionByZero):
            ev("0^(0-1)")
        with pytest.raises(DivisionByZero):
            ev("1/(k-k)", k=3)

    def test_rational_values_stay_plain(self):
        """The evaluator carries rationals as int or Fraction and lifts a value
        to SymConst only where an ln2 or sqrt(pi) term appears."""
        point = {"n": HalfInt(6), "r": HalfInt(1)}
        for text, kind in [("n + 1", int), ("n/3", int), ("n/4", Fraction), ("r", Fraction),
                           ("binom(n, 2)", int), ("H(n)", Fraction), ("H(r)", SymConst),
                           ("binom(r, 2)", Fraction), ("binom(n, r)", SymConst),
                           ("H(r) - H(r)", SymConst), ("2^(0-1)", Fraction)]:
            assert type(dsl.evaluate(dsl.parse(text), point)) is kind, text
        assert dsl.eval_scalar(dsl.parse("H(r) - H(r)"), point).is_zero

    def test_sign_needs_integer(self):
        with pytest.raises(EvalTypeError):
            ev("sign(r)", r="1/2")

    @pytest.mark.parametrize("text, error, message", [
        # a Div's denominator is evaluated before its numerator
        ("binom(-1, 1/2)/(k-k)", DivisionByZero, "division by zero in binom(-1, 1/2)/(k - k)"),
        # a product's operands left to right
        ("H(-1)*(1/(k-k))", PoleError, "H_-1 is a pole"),
        # a Pow's exponent before its base
        ("(k-k)^(0-1)*binom(-1,1/2)", DivisionByZero,
         "zero base with negative exponent in (k - k)^(0 - 1)"),
        ("(1/(k-k))^H(-1)", PoleError, "H_-1 is a pole"),
        # call arguments left to right, sum bounds lower before upper
        ("binom(1/(k-k), H(-1))", DivisionByZero, "division by zero in 1/(k - k)"),
        ("sum(j, k/2, 1/(k-k), j)", EvalTypeError, "sum lower bound must be an integer, got 1/2"),
        ("sign(k/2) + sign(n)", EvalTypeError, "sign argument must be an integer, got 1/2"),
        # an affine argument with an unbound name
        ("binom(n - j + r, k)", UnboundVariable, "variable 'j' is unbound"),
    ])
    def test_evaluation_order(self, text, error, message):
        """The first error a point meets, with the message of a tree walk
        that evaluates in the documented order."""
        with pytest.raises(error) as exc:
            ev(text, k=1, n=2, r="1/2")
        assert str(exc.value) == message


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=6))
def test_nested_sum_matches_direct(n, m):
    # sum_{k=0..n} sum_{j=1..k} 1/j^m computed two ways
    got = rat("sum(k, 0, n, sum(j, 1, k, 1/j^" + str(m) + "))", n=n)
    want = sum((Fraction(1, j ** m) for k in range(n + 1) for j in range(1, k + 1)),
               Fraction(0))
    assert got == want
