"""Parser, renderer, and scalar evaluator of the expression language."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from finsum import corpus, dsl, polyverify
from finsum.errors import (ArityError, DivisionByZero, DslSyntaxError, EvalTypeError,
                           FinsumError, NegativeExponent, PoleError, UnboundVariable)
from finsum.field import SymConst, half, lift
from finsum.polyverify import DensePoly, verify_poly


def ev(text, **binds):
    return dsl.eval_scalar(dsl.parse(text),
                           {k: half(Fraction(str(v)))
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
            (dsl.Lit(Fraction(1)),
             dsl.Mul((dsl.Lit(Fraction(2)), dsl.Lit(Fraction(3))), (False, False))),
            (False, False))
        # ^ binds tighter than unary minus on the left
        assert rat("-2^2") == -4
        assert rat("(-2)^2") == 4
        assert rat("2^3^1") == 8

    def test_rational_literal_is_division(self):
        assert dsl.parse("5/2") == dsl.Mul((dsl.Lit(Fraction(5)), dsl.Lit(Fraction(2))),
                                           (False, True))
        assert rat("5/2") == Fraction(5, 2)

    def test_chain_is_one_node(self):
        n, k, r, s, j = map(dsl.Var, "nkrsj")
        assert dsl.parse("n - k + r*s/j") == dsl.Add(
            (n, k, dsl.Mul((r, s, j), (False, False, True))), (False, True, False))
        # a parenthesized first operand of its own chain's type is spliced in
        assert dsl.parse("(n - k) + r") == dsl.parse("n - k + r")
        assert dsl.parse("(n/k)*r") == dsl.parse("n/k*r")
        assert dsl.parse("n - (k + r)") != dsl.parse("n - k + r")

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
        # free_vars answers it: U(m) reads the indeterminate t
        assert "t" in dsl.free_vars(dsl.parse("binom(n, k)*t^2"))
        assert "t" in dsl.free_vars(dsl.parse("sum(k, 0, n, U(k))"))
        assert "t" not in dsl.free_vars(dsl.parse("sum(k, 0, n, binom(n, k)*H(k))"))

    def test_free_vars(self):
        assert dsl.free_vars(dsl.parse("binom(n, k)*H(j)")) == {"n", "k", "j"}
        assert dsl.free_vars(dsl.parse("sum(j, 1, k, 1/j)")) == {"k"}
        assert dsl.free_vars(dsl.parse("sum(j, j, k, 1/j)")) == {"j", "k"}
        assert dsl.free_vars(dsl.parse("sum(j, 0, k, sum(k, 0, j, k) + n)")) == {"k", "n"}

    def test_long_flat_chain_walks(self):
        # render and free_vars loop over a chain's operands: a flat chain is one node
        text = " + ".join(["k"] * 2999 + ["t*n"])
        ast = dsl.parse(text)
        assert dsl.render(ast) == text
        assert dsl.free_vars(ast) == {"k", "n", "t"}
        assert "t" not in dsl.free_vars(dsl.parse("*".join(["k"] * 3000)))

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

    @pytest.mark.parametrize("text, error, message", [
        ("2^r", EvalTypeError, "exponent must be an integer in 2^r, got 1/2"),
        ("sum(k, 0, n, binom(n, k)*(1+t)^(n-1-k))", NegativeExponent,
         "polynomial exponent must be a nonnegative integer in (1 + t)^(n - 1 - k), got -1"),
        ("sum(k, 0, n, (1+t)^(n/2-k))", EvalTypeError,
         "exponent must be an integer in (1 + t)^(n/2 - k), got 3/2"),
    ])
    def test_exponent_error_names_the_power(self, text, error, message):
        with pytest.raises(error) as exc:
            dsl.compile(dsl.parse(text))({"n": 3, "r": Fraction(1, 2), "t": DensePoly.variable()})
        assert str(exc.value) == message

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
        point = {"n": 3, "r": Fraction(1, 2)}
        for text, kind in [("n + 1", int), ("n/3", int), ("n/4", Fraction), ("r", Fraction),
                           ("binom(n, 2)", int), ("H(n)", Fraction), ("H(r)", SymConst),
                           ("binom(r, 2)", Fraction), ("binom(n, r)", SymConst),
                           ("H(r) - H(r)", SymConst), ("2^(0-1)", Fraction)]:
            assert type(dsl.compile(dsl.parse(text))(point)) is kind, text
        assert dsl.eval_scalar(dsl.parse("H(r) - H(r)"), point).is_zero

    def test_integral_fraction_binding_is_not_halved(self):
        # Fraction(4, 2) is the integer 2: twice it is 4, not its numerator 2
        point = {"k": Fraction(4, 2), "n": Fraction(3, 2)}
        assert dsl.compile(dsl.parse("binom(k + n, 1)"))(point) == Fraction(7, 2)   # an Affine
        assert dsl.compile(dsl.parse("kron(k, 2)"))(point) == 1            # compile_twice
        assert dsl.compile(dsl.parse("floor(k)"))(point) == 2
        assert dsl.Affine(k=3, n=-2, const=Fraction(1, 2)).compile_twice()(point) == 12 - 6 + 1

    def test_sign_needs_integer(self):
        with pytest.raises(EvalTypeError):
            ev("sign(r)", r="1/2")

    @pytest.mark.parametrize("text, error, message", [
        # a product's divisors are evaluated before its multiplied operands
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


# -- products against a tree walk -------------------------------------------

def walk(e, b):
    """The value of an expression of literals, variables, + - * / and calls,
    by one SymConst or DensePoly operator per binary node in tree-walk
    order.  A chain is its last operator applied to the chain before it.  A
    division runs its divisor first, checked for zero, then its dividend,
    then the division, where a divisor with t in it is an error.  A bounded
    sum is the left fold ``total = total + body`` from the int 0; calls and
    powers are compiled alone."""
    cls = type(e)
    if cls is dsl.BoundedSum:
        total = 0
        for i in range(dsl.compile(e.lower)(b), dsl.compile(e.upper)(b) + 1):
            total = total + walk(e.body, dict(b, **{e.index: i}))
        return total
    if cls in (dsl.Add, dsl.Mul):
        *head, right = e.operands
        left = head[0] if len(head) == 1 else cls(tuple(head), e.inverted[:-1])
        inverted = e.inverted[-1]
        if cls is dsl.Mul and inverted:
            d = walk(right, b)
            if d == 0 or type(d) is DensePoly and d.is_zero:
                raise DivisionByZero(f"division by zero in {dsl.render(e)}")
            dividend = walk(left, b)
            if type(d) is DensePoly and d.degree > 0:
                raise EvalTypeError(f"division by the polynomial {dsl.render(right)}"
                                    f" in {dsl.render(e)}")
            return dividend / d
        left = walk(left, b)
        right = walk(right, b)
        if cls is dsl.Mul:
            return left * right
        return left - right if inverted else left + right
    if cls is dsl.Neg:
        return -walk(e.operand, b)
    if cls is dsl.Lit:
        return lifted(e.value)
    if cls is dsl.Var:
        return lifted(b[e.name])
    return lifted(dsl.compile(e)(b))


def lifted(value):
    """A value as a SymConst; a DensePoly stays as it is."""
    return value if type(value) is DensePoly else lift(value)


OPERANDS = st.sampled_from([
    "0", "1", "2", "(-3)", "5/2", "(1/2)", "(-3/2)", "k", "n", "r", "s",
    "(k+s)", "(n-k+r-s)", "(k-k)", "(2*k+1)", "(r+s-1)", "-s",
    "H(r)", "H(k+1/2)", "H(k)", "binom(n, s)", "binom(r, k)", "binom(n, k)",
    "t", "(1-t)", "(1+t)^2", "U(2)",
])


def product_text(operands):
    return st.lists(st.tuples(st.sampled_from("*/"), operands), min_size=1, max_size=6).map(
        lambda steps: "".join(op + x for op, x in steps)[1:])


PRODUCTS = st.recursive(OPERANDS, lambda inner: product_text(inner).map(lambda t: f"({t})"),
                        max_leaves=16).flatmap(lambda leaf: product_text(st.just(leaf) | OPERANDS))
HALVES = st.sampled_from([Fraction(-1, 2), Fraction(1, 2), 1, Fraction(3, 2), 2])


@given(PRODUCTS, st.integers(-1, 3), st.integers(0, 4), HALVES, HALVES)
@example("(k+s)/(n-k+r-s)*H(r)/(k-k)", 1, 2, Fraction(1, 2), 1)
@example("binom(r, k)/(r+s-1)*(k+s)/H(k+1/2)", 2, 3, Fraction(1, 2), Fraction(1, 2))
@example("(1-t)*(k+s)/2*U(2)/H(r)*binom(n, k)", 1, 2, Fraction(1, 2), 1)
@example("t*(1+t)^2/(1-t)/(k-k)", 1, 2, 1, 1)
@example("t/(k-k)/(t-t)*(1-t)", 1, 2, 1, 1)
@example("2*(1+t)^2/t*H(r)/(1-t)", 1, 2, 1, 1)
def test_product_matches_tree_walk(text, k, n, r, s):
    """A compiled product has the value, or raises the error with the
    message, of a walk that applies one operator per node; with t bound
    to the indeterminate, polynomial operands are held to it too."""
    expr = dsl.parse(text)
    point = {"k": k, "n": n, "r": r, "s": s, "t": DensePoly.variable()}
    try:
        want = walk(expr, point)
    except FinsumError as exc:
        with pytest.raises(type(exc)) as got:
            dsl.compile(expr)(point)
        assert str(got.value) == str(exc)
    else:
        assert lifted(dsl.compile(expr)(point)) == want


# -- bounded sums against a left fold -----------------------------------------

SUMMANDS = st.sampled_from([
    "k", "(-3)", "2*k - 1", "1/(k+1)", "k/2",                 # int and Fraction
    "H(k+1/2)", "binom(k, 1/2)", "H(k+1/2)*binom(n, 1/2)",   # ln2 and sqrt(pi)
    "t^k", "(1-t)^k", "binom(n, k)*t^k", "U(k)", "H(k+1/2)*t^k", "t/(k+1)",
    "sum(j, 0, k, 1/(j+1))", "sum(j, 1, k, H(j-1/2)*t^j)", "sum(j, k, 2, binom(k, j))",
    "sum(j, 0, k - 1, t^j)",       # empty at k = 0: a scalar body among polynomial ones
    # nested sums carried from one k to the next, and ones that start again at each k
    "sum(j, 1, k + 1, 1/j^2)", "binom(n, k)*sum(j, 1, k, 1/j^2)*t^k", "sum(j, 2, k - 1, H(j+1/2))",
    "sum(j, 0, k, sum(u, 1, j, 1/u))", "sum(j, 0, k, binom(k, j)*t^(j+1))",
    "sum(u, 0, 2, sum(j, u, k, 1/(j+1)))",     # under a sum over u, the sum over j restarts
    "sum(j, k - 1, k + 1, 1/(j+2))", "sum(j, 0, 4 - k, t^j)",
    # monomials c * t^m, added into the rows at offset m when they are the whole body
    "t^k*binom(n, k)", "t", "H(k+1/2)*binom(n, 1/2)*t^(k+1)", "binom(2, k)*t^k",
    # inner monomials whose operands or exponent read no k: run once per j
    "sum(j, 0, k, binom(k, j)/(j+1)^2*t^(j+1))", "sum(j, 1, 3, H(j+1/2)*binom(k, j)*t^(j+k))",
    "sum(j, 0, 3, k*U(j)*t^j)", "sum(j, 0, k, sign(j)/(j+1)*binom(k, j)*t^(j+1))",
    # one multiplied B^(a - k): Horner's rule while B is a polynomial and a - hi >= 0
    "binom(n, k)*(1+t)^(n-k)", "H(k+1/2)*(1-t)^(4-k)", "(1+t)^(6-k)/(k+1)",
    "sum(j, 0, k, binom(k, j)*t^(j+1))*(t^2+1)^(n-1-k)", "k*U(1)^(5-k)", "(k-k)*(1+t)^(6-k)",
    "2^(n-k)*binom(n, k)",          # a scalar B runs as written
    "(1+k*t)^(6-k)", "t^k*(1+t)^(6-k)",     # B reads k; a monomial
])


@given(st.lists(SUMMANDS, min_size=1, max_size=3), st.integers(0, 4), st.integers(-1, 6),
       st.integers(0, 3))
@example(["k"], 3, 2, 0)
@example(["sum(j, 0, k - 1, t^j)", "H(k+1/2)"], 0, 3, 1)
@example(["t^k*binom(n, k)"], 0, 4, 3)
@example(["t"], 1, 3, 0)
@example(["H(k+1/2)*binom(n, 1/2)*t^(k+1)"], 0, 2, 2)
@example(["binom(2, k)*t^k"], 0, 6, 0)
@example(["t"], 2, 1, 0)
@example(["sum(j, 1, k + 1, 1/j^2)", "sum(j, 0, k, binom(k, j)*t^(j+1))"], 0, 5, 2)
@example(["binom(n, k)*sum(j, 1, k, 1/j^2)*t^k"], 1, 6, 3)
@example(["sum(j, 2, k - 1, H(j+1/2))", "sum(j, 0, k, sum(u, 1, j, 1/u))"], 0, 6, 0)
@example(["sum(u, 0, 2, sum(j, u, k, 1/(j+1)))"], 0, 5, 0)
@example(["sum(j, k - 1, k + 1, 1/(j+2))", "sum(j, 0, 4 - k, t^j)"], 0, 5, 0)
@example(["sum(j, 0, k, binom(k, j)/(j+1)^2*t^(j+1))"], 0, 6, 0)
@example(["sum(j, 1, 3, H(j+1/2)*binom(k, j)*t^(j+k))", "sum(j, 0, 3, k*U(j)*t^j)"], 0, 5, 0)
@example(["binom(n, k)*(1+t)^(n-k)"], 0, 3, 3)
@example(["binom(n, k)*(1+t)^(n-k)"], 0, 1, 3)          # times (1+t)^2 at the end
@example(["binom(n, k)*(1+t)^(n-k)"], 0, 5, 3)          # n - k < 0 from k = 4
@example(["H(k+1/2)*(1-t)^(4-k)"], 0, 4, 0)
@example(["(1+t)^(6-k)/(k+1)"], 1, 6, 0)
@example(["sum(j, 0, k, binom(k, j)*t^(j+1))*(t^2+1)^(n-1-k)"], 0, 2, 3)
@example(["k*U(1)^(5-k)"], 0, 5, 0)
@example(["(k-k)*(1+t)^(6-k)"], 0, 6, 0)               # all zero: still a polynomial
@example(["2^(n-k)*binom(n, k)"], 0, 6, 2)
@example(["2^(n-k)*binom(n, k)"], 0, 2, 2)
@example(["2^(n-k)*binom(n, k)"], 0, 1, 3)
@example(["(1+t)^(6-k)/(k+1)"], 4, 2, 0)               # empty
def test_sum_matches_left_fold(summands, lo, hi, n):
    """A compiled bounded sum, one accumulator per evaluation, has the value
    of the left fold, and the same parts when that is a polynomial, or
    raises its error with its text; an empty range is the int 0."""
    expr = dsl.parse(f"sum(k, {lo}, {hi}, {' + '.join(summands)})")
    point = {"n": n, "t": DensePoly.variable()}
    try:
        want = walk(expr, point)
    except FinsumError as exc:
        with pytest.raises(type(exc)) as got:
            dsl.compile(expr)(point)
        assert str(got.value) == str(exc)
        return
    got = dsl.compile(expr)(point)
    if type(want) is DensePoly:
        assert type(got) is DensePoly and got.parts == want.parts
    else:
        assert type(got) is not DensePoly and lift(got) == want
    if lo > hi:
        assert type(got) is int and got == 0


@pytest.mark.parametrize("text, error", [
    ("sum(k, 0, 5, sum(j, 0, k, 1/(j-3)))", "division by zero in 1/(j - 3)"),
    # a monomial coefficient that fails runs the body as written, which fails again
    ("sum(k, 0, 5, binom(n, k)*sum(j, 0, k, 1/(j-3))*t^k)", "division by zero in 1/(j - 3)"),
    # the step where the inner sum fails decides which error comes first
    ("sum(k, 0, 5, sum(j, 0, k, 1/(j-3))*t^k + 1/(k-2))", "division by zero in 1/(k - 2)"),
    ("sum(k, 0, 5, 1/(k-4) + sum(j, 0, k, 1/(j-3)))", "division by zero in 1/(j - 3)"),
    # an operand that reads no k, kept from one k to the next, fails at one j
    ("sum(k, 0, 5, sum(j, 0, k, binom(k, j)/(j-3)*t^j))",
     "division by zero in binom(k, j)/(j - 3)"),
    # Horner's rule: X_k fails at a middle step, as a nested sum or an operand
    ("sum(k, 0, n-1, sum(j, 0, k, binom(k, j)/(j-3)*t^(j+1))*(1+t)^(n-1-k))",
     "division by zero in binom(k, j)/(j - 3)"),
    ("sum(k, 0, 5, 1/(k-2)*(1-t)^(n-k))", "division by zero in 1/(k - 2)"),
    ("sum(k, 0, 5, (1-t)^(n-k)/(k-2))", "division by zero in (1 - t)^(n - k)/(k - 2)"),
    ("sum(k, 0, 5, (t^2+1)^(n-k)*H(2-k))", "H_-1 is a pole"),
    # a - k goes negative at k = 4, or is no integer
    ("sum(k, 0, 5, binom(n, k)*(1+t)^(3-k))",
     "polynomial exponent must be a nonnegative integer in (1 + t)^(3 - k), got -1"),
    ("sum(k, 0, 5, (1+t)^(n/2-k))", "exponent must be an integer in (1 + t)^(n/2 - k), got 5/2"),
])
def test_failing_inner_step_raises_the_left_folds_error(text, error):
    """A nested sum that goes on from one outer step to the next, a sum
    whose operands that read no k are kept from one k to the next, and a
    sum by Horner's rule fail at the step, and with the error, where the
    left fold, which runs every step as written, fails."""
    expr = dsl.parse(text)
    point = {"n": 5, "t": DensePoly.variable()}
    with pytest.raises(FinsumError) as want:
        walk(expr, point)
    with pytest.raises(FinsumError) as got:
        dsl.compile(expr)(point)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == error


def count_evaluations(monkeypatch, watched):
    """A Counter of the evaluations of each node of ``watched``, by wrapping
    the closure that ``dsl._compile`` returns for it."""
    counts = Counter()
    compile_node = dsl._compile

    def counting(e):
        f = compile_node(e)
        if e not in watched:
            return f

        def counted(b):
            counts[e] += 1
            return f(b)
        return counted
    monkeypatch.setattr(dsl, "_compile", counting)
    return counts


@pytest.mark.parametrize("text, watched, count", [
    ("sum(k, 0, 6, sum(j, 1, k, 1/j))", "1/j", 6),
    ("sum(k, 0, 6, sum(j, 1, k + 1, 1/j))", "1/j", 7),
    ("sum(k, 0, 6, t^k*sum(j, 1, k - 1, 1/j))", "1/j", 5),         # in a monomial coefficient
    ("sum(k, 0, 6, sum(j, 0, k, sum(u, 1, j, 1/u)))", "1/u", 6),    # carried over j over k
    ("sum(k, 0, 6, sum(j, 0, k, binom(k, j)))", "binom(k, j)", 28),  # the body reads k
    ("sum(k, 0, 6, sum(j, k, k + 1, 1/(j+1)))", "1/(j + 1)", 14),   # the lower bound reads k
    ("sum(k, 0, 6, sum(j, 0, 6 - k, 1/(j+1)))", "1/(j + 1)", 28),   # the upper bound falls
])
def test_nested_sum_runs_each_inner_step_once(monkeypatch, text, watched, count):
    """An inner sum whose upper bound is k + c, and whose lower bound and
    body read no k, goes on from one k to the next: its body runs once per
    inner index.  Any other inner sum starts again at each k."""
    expr = dsl.parse(text)
    point = {"t": DensePoly.variable()}
    want = walk(expr, point)
    counts = count_evaluations(monkeypatch, {dsl.parse(watched)})
    got = dsl.compile(expr)(point)
    assert (got if type(got) is DensePoly else lift(got)) == want
    assert sum(counts.values()) == count


def test_partial_sum_generating_function_carries_its_prefix(monkeypatch):
    """partial-sum-gf-recipsq at n = 34: the lhs's sum(j, 1, k, 1/j^2) runs
    its body 34 times, once per j, not 1 + 2 + ... + 34 = 595 times; the
    rhs's inner sum reads k in its body, and its body runs 595 times."""
    (entry,) = corpus.load_entries(names={"partial-sum-gf-recipsq"})
    lhs_body, rhs_factor = dsl.parse("1/j^2"), dsl.parse("binom(k, j)")
    counts = count_evaluations(monkeypatch, {lhs_body, rhs_factor})
    assert verify_poly(entry.identity, 34).equal
    assert counts == {lhs_body: 34, rhs_factor: 595}


def test_partial_sum_generating_function_rhs_runs_k_free_work_once(monkeypatch):
    """partial-sum-gf-recipsq's rhs at n = 34 goes by Horner's rule: no
    power of 1+t is built, where the left fold builds one at each k.  Its
    inner monomial's k-free divisor (j+1)^2 runs once per j, 34 times, not
    once per (k, j), 595 times; binom(k, j) reads k and runs 595 times."""
    (entry,) = corpus.load_entries(names={"partial-sum-gf-recipsq"})
    divisor, factor = dsl.parse("(j+1)^2"), dsl.parse("binom(k, j)")
    counts = count_evaluations(monkeypatch, {divisor, factor})
    calls = []
    power, binomial = DensePoly.__pow__, polyverify.binomial_power
    monkeypatch.setattr(DensePoly, "__pow__", lambda self, m: calls.append(m) or power(self, m))
    monkeypatch.setattr(polyverify, "binomial_power",
                        lambda base, m: calls.append(m) or binomial(base, m))
    got = polyverify.expand_side(entry.identity.rhs, 34)
    assert calls == []
    assert counts == {divisor: 34, factor: 595}
    monkeypatch.undo()
    point = {"n": 34, "t": DensePoly.variable()}
    assert got == walk(entry.identity.rhs.expr, point) == polyverify.expand_side(
        entry.identity.lhs, 34)


@pytest.mark.parametrize("text", [
    "sum(k, 0, n - 1, sum(j, 0, k, binom(k, j)/(j + 1)^2*t^(j + 1))*(1 + t)^(n - 1 - k))",
    "sum(k, 1, n, binom(n, k)*sum(j, 1, k, 1/j)*t^k)",
    "sum(k, 0, n, t^k)",
    "sum(k, 0, n, (1 - t)^(n - k)/(k + 1))",
])
def test_sum_compiles_each_node_once(text, monkeypatch):
    """A sum's body that runs as a monomial or by Horner's rule compiles no
    operand twice: the sum makes no more ``_compile`` calls than its
    bounds and body compiled alone, and running it at many n makes none."""
    expr = dsl.parse(text)
    calls = []
    compile_ = dsl._compile
    monkeypatch.setattr(dsl, "_compile", lambda e: calls.append(e) or compile_(e))
    for part in (expr.lower, expr.upper, expr.body):
        dsl._compile(part)
    alone = len(calls)
    calls.clear()
    compiled = dsl.compile(expr)
    assert len(calls) <= 1 + alone
    calls.clear()
    for n in range(6):
        compiled({"n": n, "t": DensePoly.variable()})
    assert calls == []


def test_sum_of_polynomials_builds_no_intermediate(monkeypatch):
    """sum(k, 0, 30, t^k) adds its 31 bodies into one accumulator; the left
    fold builds a new polynomial through ``DensePoly._combine`` at each."""
    calls = []
    combine = DensePoly._combine
    monkeypatch.setattr(DensePoly, "_combine",
                        lambda self, other, sign: calls.append(sign) or combine(self, other, sign))
    expr = dsl.parse("sum(k, 0, 30, t^k)")
    point = {"t": DensePoly.variable()}
    want = walk(expr, point)
    assert len(calls) == 31
    calls.clear()
    assert dsl.compile(expr)(point) == want
    assert calls == []


def test_monomial_sum_builds_no_power(monkeypatch):
    """sum(k, 0, 30, binom(30, k)*t^k) adds each binom(30, k) into its row
    at offset k: no t^k is built and none is scaled, where the left fold
    does both at each k."""
    calls = []
    for name in ("__pow__", "scale"):
        method = getattr(DensePoly, name)
        monkeypatch.setattr(DensePoly, name, lambda self, x, method=method, name=name:
                            calls.append(name) or method(self, x))
    expr = dsl.parse("sum(k, 0, 30, binom(30, k)*t^k)")
    point = {"t": DensePoly.variable()}
    want = walk(expr, point)
    assert calls.count("__pow__") == 31 and calls.count("scale") > 0
    calls.clear()
    assert dsl.compile(expr)(point) == want == DensePoly([math.comb(30, k) for k in range(31)])
    assert calls == []


@pytest.mark.parametrize("body, error", [
    ("binom(n, k)/(k-k)*t^k", DivisionByZero),     # c raises
    ("t^(k-2)*binom(n, k)", NegativeExponent),    # m < 0 at k = 0
    ("t^(k/2)*k", EvalTypeError),                 # m raises at k = 1
    ("t^k*U(2)", None),                           # c is a polynomial
    ("t^(k-1)*H(k-1)", NegativeExponent),         # c and m raise: the product's order decides
    ("binom(n, k)/t^k", EvalTypeError),           # a divided t-power is no monomial
    ("t*t^k", None),                              # nor are two t-powers
])
def test_monomial_sum_keeps_the_product_as_written(body, error):
    """A sum whose body is c * t^m by its syntax has the value, or raises the
    error with the text, of its body's product as written, added up k by k."""
    point = {"n": 4, "t": DensePoly.variable()}
    product = dsl.compile(dsl.parse(body))
    compiled = dsl.compile(dsl.parse(f"sum(k, 0, 4, {body})"))
    try:
        want = 0
        for k in range(5):
            want = want + product(dict(point, k=k))
    except FinsumError as exc:
        assert type(exc) is error
        with pytest.raises(error) as got:
            compiled(point)
        assert str(got.value) == str(exc)
    else:
        assert error is None
        got = compiled(point)
        assert type(got) is DensePoly and got.parts == want.parts


@pytest.mark.parametrize("t", [2, Fraction(1, 2), DensePoly([1, 1]), DensePoly([0, 2])])
def test_monomial_sum_reads_t_as_bound(t):
    """Only t bound to the variable itself puts a monomial body on the row
    path; bound to a scalar or another polynomial, the sum is its left fold."""
    expr = dsl.parse("sum(k, 0, 3, binom(3, k)*t^k)")
    got = dsl.compile(expr)({"t": t})
    assert (got if type(t) is DensePoly else lift(got)) == walk(expr, {"t": t})
    if t == 2:
        assert got == 27
