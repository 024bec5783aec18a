"""Identity document format: loading, saving, validation, and the t -> -t
substitution on standard sides."""

import json
from fractions import Fraction

import pytest

from finsum import dsl, model
from finsum.errors import EvalTypeError, FormatError, ShapeError
from finsum.field import HalfInt
from finsum.model import (Affine, ClosedSide, Identity, PolySide,
                          StandardSide, admissible, load_identity,
                          save_identity, substitute_neg_t)

STANDARD_DOC = {
    "name": "demo-standard",
    "paper_ref": "",
    "status": "verified",
    "lhs": {"kind": "standard", "terms": [
        {"coeff": "binom(n, k)*H(k)", "t_exp": [1, 0, 0],
         "base": "1-t", "base_exp": [0, 1, 0], "lower": "1", "upper": "n"},
    ]},
    "rhs": {"kind": "poly", "expr": "t*(1 - t)^n"},
}

CLOSED_DOC = {
    "name": "demo-closed",
    "status": "verified",
    "lhs": {"kind": "closed", "sums": [
        {"coeff": "sign(k)*binom(n, k)/(k + 1)", "lower": "0", "upper": "n"},
    ]},
    "rhs": {"kind": "closed", "expr": "1/(n + 1)"},
    "params": ["r", "s"],
    "notes": "example",
}


class TestAffine:
    def test_value(self):
        a = Affine(k=2, n=-1, const=3)
        point = {"k": HalfInt.from_value(5), "n": HalfInt.from_value(4)}
        assert a.value(point) == HalfInt.from_value(2 * 5 - 4 + 3)
        assert Affine().is_zero
        assert not a.is_zero
        assert a + Affine(r=1) - a == Affine(r=1)

    @pytest.mark.parametrize("affine", [
        Affine(k=1, n=2), Affine(k=-1, n=1), Affine(k=2, n=-3, const=-1),
        Affine(n=-1, const=4), Affine(),
    ])
    def test_render_parses_to_same_value(self, affine):
        point = {"k": HalfInt.from_value(3), "n": HalfInt.from_value(5)}
        got = dsl.eval_scalar(dsl.parse(affine.render()), point)
        assert got.as_halfint() == affine.value(point)

    @pytest.mark.parametrize("affine", [
        Affine(k=1, n=-1, r=1, s=-1), Affine(),
        Affine(k=Fraction(1), n=Fraction(-2), const=Fraction(3)),
    ])
    def test_compile_twice_matches_twice(self, affine):
        point = {name: HalfInt.from_value(Fraction(i + 2, 2)) for i, name in enumerate("knrs")}
        point["n"] = HalfInt.from_value(3)
        want = 2 * (affine.const + sum(getattr(affine, name) * point[name].as_fraction()
                                       for name in "knrs"))
        assert affine.compile_twice()(point) == affine.twice(point) == want
        assert all(type(getattr(affine, name)) is int for name in ("k", "n", "r", "s", "const"))
        if not affine.is_zero:
            with pytest.raises(KeyError):
                affine.compile_twice()({})

    @pytest.mark.parametrize("coeffs", [
        {"k": 2, "const": Fraction(1, 2)},
        {"k": Fraction(1, 2), "n": Fraction(1, 2)},
        {"k": 3, "n": Fraction(-1, 2), "const": Fraction(3, 2)},
    ])
    def test_non_integer_coefficient_refused(self, coeffs):
        with pytest.raises(EvalTypeError):
            Affine(**coeffs)


class TestAdmissible:
    @pytest.mark.parametrize("r,s,ok", [
        (1, 1, True),
        (Fraction(1, 2), Fraction(1, 2), True),
        (Fraction(5, 2), 3, True),       # r - s = -1/2 is fine
        (0, Fraction(1, 2), True),
        (1, 0, False),                   # s = 0
        (-1, 1, False),                  # r negative integer
        (1, -2, False),                  # s negative integer
        (1, 2, False),                   # r - s = -1
        (Fraction(-1, 2), Fraction(1, 2), False),   # r - s = -1
        (Fraction(-1, 2), Fraction(-1, 2), True),
    ])
    def test_truth_table(self, r, s, ok):
        assert admissible(r, s) is ok


class TestLoadSave:
    def test_standard_round_trip(self):
        ident = load_identity(STANDARD_DOC)
        assert ident.name == "demo-standard"
        assert not ident.is_closed
        assert not ident.is_standard  # rhs is a poly side
        term = ident.lhs.terms[0]
        assert term.base == "1-t"
        assert term.t_exp == Affine(k=1)
        assert term.base_exp == Affine(n=1)
        doc = save_identity(ident)
        assert load_identity(doc) == ident

    def test_closed_round_trip(self):
        ident = load_identity(json.dumps(CLOSED_DOC))
        assert ident.is_closed
        assert ident.param_constraints == ("r", "s")
        assert ident.notes == "example"
        doc = save_identity(ident)
        assert load_identity(doc) == ident

    def test_defaults(self):
        doc = dict(CLOSED_DOC)
        doc.pop("params")
        doc.pop("notes")
        doc.pop("status")
        ident = load_identity(doc)
        assert ident.status == "verified"
        assert ident.param_constraints == ()
        assert ident.notes == ""
        assert ident.paper_ref == ""

    def test_term_defaults(self):
        doc = dict(STANDARD_DOC)
        doc["lhs"] = {"kind": "standard", "terms": [{"coeff": "1"}]}
        ident = load_identity(doc)
        term = ident.lhs.terms[0]
        assert term.t_exp.is_zero and term.base_exp.is_zero
        assert dsl.render(term.lower) == "0"
        assert dsl.render(term.upper) == "0"

    def test_scalar_affine_shorthand(self):
        doc = dict(STANDARD_DOC)
        doc["lhs"] = {"kind": "standard", "terms": [
            {"coeff": "1", "t_exp": 2, "base_exp": 1}]}
        term = load_identity(doc).lhs.terms[0]
        assert term.t_exp == Affine(const=2)
        assert term.base_exp == Affine(const=1)


class TestValidation:
    def test_bad_json(self):
        with pytest.raises(FormatError):
            load_identity("{not json")
        with pytest.raises(FormatError):
            load_identity(json.dumps([1, 2]))

    def test_missing_fields(self):
        with pytest.raises(FormatError):
            load_identity({"name": "x"})

    def test_bad_status(self):
        doc = dict(CLOSED_DOC)
        doc["status"] = "maybe"
        with pytest.raises(FormatError):
            load_identity(doc)

    def test_mixed_sides_rejected(self):
        doc = dict(STANDARD_DOC)
        doc["rhs"] = CLOSED_DOC["rhs"]
        with pytest.raises(ShapeError):
            load_identity(doc)

    def test_poly_side_needs_t_or_chebyshev(self):
        doc = dict(STANDARD_DOC)
        doc["rhs"] = {"kind": "poly", "expr": "n + 1"}
        with pytest.raises(FormatError):
            load_identity(doc)
        doc["rhs"] = {"kind": "poly", "expr": "sign(n)*U(2*n)"}
        ident = load_identity(doc)
        assert isinstance(ident.rhs, PolySide)

    def test_closed_side_rejects_t(self):
        doc = dict(CLOSED_DOC)
        for expr in ("t + 1", "U(2)"):
            doc["rhs"] = {"kind": "closed", "expr": expr}
            with pytest.raises(FormatError):
                load_identity(doc)

    def test_empty_closed_side_rejected(self):
        doc = dict(CLOSED_DOC)
        doc["rhs"] = {"kind": "closed"}
        with pytest.raises(FormatError):
            load_identity(doc)

    @pytest.mark.parametrize("summand", [
        {"lower": "0", "upper": "n"},
        {"coeff": 1, "lower": "0", "upper": "n"},
        {"coeff": "1", "upper": "n"},
        {"coeff": "1", "lower": "0"},
        {"coeff": "1", "lower": True, "upper": "n"},
        {"coeff": "1", "lower": "0", "upper": ["n"]},
    ])
    def test_closed_summand_fields_checked(self, summand):
        doc = dict(CLOSED_DOC)
        doc["lhs"] = {"kind": "closed", "sums": [summand]}
        with pytest.raises(FormatError):
            load_identity(doc)

    def test_closed_side_shapes_checked(self):
        doc = dict(CLOSED_DOC)
        for side in ({"kind": "closed", "expr": 3}, {"kind": "closed", "sums": "k"},
                     {"kind": "closed", "sums": ["1"]}):
            doc["rhs"] = side
            with pytest.raises(FormatError):
                load_identity(doc)

    def test_closed_sum_bounds_may_be_integers(self):
        doc = dict(CLOSED_DOC)
        doc["lhs"] = {"kind": "closed", "sums": [
            {"coeff": "sign(k)*binom(n, k)/(k + 1)", "lower": 0, "upper": "n"}]}
        assert load_identity(doc).lhs.summands[0].lower == dsl.parse("0")

    def test_stray_variables_in_standard_coeff(self):
        doc = dict(STANDARD_DOC)
        doc["lhs"] = {"kind": "standard", "terms": [{"coeff": "binom(n, r)"}]}
        with pytest.raises(FormatError):
            load_identity(doc)

    def test_bad_base(self):
        doc = dict(STANDARD_DOC)
        doc["lhs"] = {"kind": "standard", "terms": [
            {"coeff": "1", "base": "1-x"}]}
        with pytest.raises(FormatError):
            load_identity(doc)

    def test_non_affine_exponent(self):
        doc = dict(STANDARD_DOC)
        for t_exp in ([1, 0], "k^2", True, [True, 0, 0]):
            doc["lhs"] = {"kind": "standard", "terms": [
                {"coeff": "1", "t_exp": t_exp}]}
            with pytest.raises(FormatError):
                load_identity(doc)

    def test_unknown_side_kind(self):
        doc = dict(CLOSED_DOC)
        doc["rhs"] = {"kind": "mystery"}
        with pytest.raises(FormatError):
            load_identity(doc)


def test_substitute_neg_t():
    doc = {
        "name": "neg-t-demo",
        "lhs": {"kind": "standard", "terms": [
            {"coeff": "binom(n, k)", "t_exp": [1, 0, 0],
             "base": "1+t", "base_exp": [0, 1, 0], "lower": "0", "upper": "n"},
        ]},
        "rhs": {"kind": "standard", "terms": [
            {"coeff": "1", "base": "1-t", "base_exp": [0, 0, 2]},
        ]},
    }
    flipped = substitute_neg_t(load_identity(doc))
    lterm = flipped.lhs.terms[0]
    assert lterm.base == "1-t"
    # t^k picked up a sign twist (-1)^k in the coefficient
    got = dsl.eval_scalar(lterm.coeff, {"k": HalfInt.from_value(3),
                                        "n": HalfInt.from_value(5)})
    assert got.as_rational() == -10
    rterm = flipped.rhs.terms[0]
    assert rterm.base == "1+t"
    assert dsl.render(rterm.coeff) == "1"
    # a second application restores the original bases
    twice = substitute_neg_t(flipped)
    assert twice.lhs.terms[0].base == "1+t"
    assert twice.rhs.terms[0].base == "1-t"

    closed = load_identity(CLOSED_DOC)
    with pytest.raises(ShapeError):
        substitute_neg_t(closed)
