"""Identity document format: loading, validation, and the t -> -t
substitution on standard sides."""

from fractions import Fraction

import pytest

from finsum import beta, corpus, dsl, special
from finsum.errors import EvalTypeError, FormatError, ShapeError, UnboundVariable
from finsum.field import half, to_twice
from finsum.model import (Affine, ClosedTerm, FBinom, PolySide, admissible, grid_params_read,
                          is_negative_integer, load_identity, substitute_neg_t)

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
    "notes": "example",
}


class TestAffine:
    def test_value(self):
        a = Affine(k=2, n=-1, const=3)
        point = {"k": 5, "n": 4}
        assert a.compile_twice()(point) == 2 * (2 * 5 - 4 + 3)
        assert Affine().is_zero
        assert not a.is_zero
        assert a + Affine(r=1) - a == Affine(r=1)

    @pytest.mark.parametrize("affine", [
        Affine(k=1, n=2), Affine(k=-1, n=1), Affine(k=2, n=-3, const=-1),
        Affine(n=-1, const=4), Affine(),
    ])
    def test_render_parses_to_same_value(self, affine):
        point = {"k": 3, "n": 5}
        got = dsl.eval_scalar(dsl.parse(affine.render()), point)
        assert to_twice(got) == affine.compile_twice()(point)

    @pytest.mark.parametrize("affine", [
        Affine(k=1, n=-1, r=1, s=-1), Affine(),
        Affine(k=Fraction(1), n=Fraction(-2), const=Fraction(3)),
    ])
    def test_compile_twice_matches_twice(self, affine):
        point = {name: half(Fraction(i + 2, 2)) for i, name in enumerate("knrs")}
        point["n"] = 3
        want = 2 * (affine.const + sum(getattr(affine, name) * point[name] for name in "knrs"))
        assert affine.compile_twice()(point) == want
        assert all(type(getattr(affine, name)) is int for name in ("k", "n", "r", "s", "const"))
        if not affine.is_zero:
            with pytest.raises(UnboundVariable, match="is unbound"):
                affine.compile_twice()({})

    def test_half_integer_constant(self):
        a = Affine(k=2, const=Fraction(1, 2))
        assert a.compile_twice()({"k": Fraction(3, 2)}) == 2 * 3 + 1
        binom = FBinom(Affine(k=2, const=1), Affine(k=1, const=Fraction(1, 2)))
        for k in range(6):
            assert beta.eval_term(ClosedTerm(dsl.parse("1"), (binom,)), {"k": k}) == \
                special.binom_at(4 * k + 2, 2 * k + 1)

    @pytest.mark.parametrize("text, want", [
        ("2*k + v", Affine(k=2, v=1)), ("k + v/2", Affine(k=1, v=Fraction(1, 2))),
        ("(n - 1 + v)/2", Affine(n=Fraction(1, 2), v=Fraction(1, 2), const=Fraction(-1, 2))),
        ("k/2 + v", None), ("v/0", None), ("t + 1", None), ("binom(k, 1)", None),
    ])
    def test_dsl_affine(self, text, want):
        assert dsl.affine(dsl.parse(text)) == want

    def test_half_coefficient_is_no_half_integer_at_a_half_odd_binding(self):
        """n, u and v take a coefficient of 1/2: twice ``k + v/2`` is an int
        at an integer v, and at v = 1/2 the value 5/4 is named."""
        a = dsl.affine(dsl.parse("k + v/2"))
        assert a.render() == "k + v/2"
        assert a.compile_twice()({"k": 1, "v": 3}) == 5
        with pytest.raises(EvalTypeError, match="^5/4 is not a half-integer$"):
            a.compile_twice()({"k": 1, "v": Fraction(1, 2)})

    @pytest.mark.parametrize("coeffs", [
        {"k": 2, "const": Fraction(1, 3)},
        {"k": Fraction(1, 2), "n": Fraction(1, 2)},
        {"k": 3, "s": Fraction(-1, 2), "const": Fraction(3, 2)},
        {"v": Fraction(1, 4)},
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

    def test_negative_integer(self):
        for q in (-1, -4, Fraction(-4), Fraction(-2, 2)):
            assert is_negative_integer(q)
        for q in (0, 3, Fraction(-1, 2), Fraction(5, 2), Fraction(0)):
            assert not is_negative_integer(q)


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

    def test_closed_round_trip(self):
        ident = load_identity(CLOSED_DOC)
        assert ident.is_closed
        assert ident.notes == "example"

    def test_defaults(self):
        doc = dict(CLOSED_DOC)
        doc.pop("notes")
        doc.pop("status")
        ident = load_identity(doc)
        assert ident.status == "verified"
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
        # document text is decoded by corpus.load_entry, not by load_identity
        with pytest.raises(FormatError):
            corpus.load_entry("{not json")
        with pytest.raises(FormatError):
            load_identity([1, 2])
        with pytest.raises(FormatError):
            load_identity("{}")

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
        for expr in ("t + 1", "U(2)", "t*binom(n + r, 2)"):
            doc["rhs"] = {"kind": "closed", "expr": expr}
            with pytest.raises(FormatError, match=r"^demo-closed: coefficient .* reads t or U"):
                load_identity(doc)

    def test_standalone_expression_reads_k_only_in_a_sum(self):
        """A free k would silently read k = 0; a sum's own k is bound."""
        doc = dict(CLOSED_DOC, rhs={"kind": "closed", "expr": "k + 1"})
        with pytest.raises(FormatError, match="^demo-closed: standalone expression reads k outside"):
            load_identity(doc)
        doc = dict(CLOSED_DOC, lhs={"kind": "closed", "expr": "sum(k, 0, n, binom(n, k))"},
                   rhs={"kind": "closed", "expr": "2^n"})
        report = beta.verify_closed(load_identity(doc), range(6))
        assert len(report.results) == 6 and report.all_equal and not report.undefined

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

    @pytest.mark.parametrize("field, value", [
        ("name", 5),
        ("paper_ref", 5),
        ("notes", [1]),
        ("lhs", {"kind": "standard", "terms": 5}),
        ("lhs", {"kind": "standard", "terms": [5]}),
        ("lhs", {"kind": "standard", "terms": [{"coeff": 5}]}),
        ("lhs", {"kind": "standard", "terms": [{"coeff": "1", "lower": 0.5}]}),
        ("lhs", {"kind": "standard", "terms": [{"coeff": "1", "lower": None}]}),
        ("rhs", {"kind": "poly", "expr": 5}),
        ("rhs", {"kind": "poly"}),
    ], ids=["name-not-string", "paper-ref-not-string", "notes-not-string", "terms-not-list", "term-not-object", "coeff-not-text",
            "lower-float", "lower-null", "poly-expr-not-text", "poly-expr-missing"])
    def test_standard_and_poly_fields_checked(self, field, value):
        doc = dict(STANDARD_DOC, **{field: value})
        with pytest.raises(FormatError):
            load_identity(doc)

    def test_standard_term_defaults(self):
        doc = dict(STANDARD_DOC, lhs={"kind": "standard", "terms": [{"coeff": "1", "upper": 3}]})
        term, = load_identity(doc).lhs.terms
        assert (term.base, term.lower, term.upper) == ("1-t", dsl.parse("0"), dsl.parse("3"))

    def test_closed_sum_bounds_may_be_integers(self):
        doc = dict(CLOSED_DOC)
        doc["lhs"] = {"kind": "closed", "sums": [
            {"coeff": "sign(k)*binom(n, k)/(k + 1)", "lower": 0, "upper": "n"}]}
        assert load_identity(doc).lhs.summands[0].lower == dsl.parse("0")

    def test_stray_variables_in_standard_coeff(self):
        doc = dict(STANDARD_DOC)
        # U(k) reads t: it used to load and fail only at expansion
        for coeff, stray in (("binom(n, r)", "r"), ("t", "t"), ("U(k)", "t"),
                             ("binom(n, k)*U(2*k)", "t")):
            doc["lhs"] = {"kind": "standard", "terms": [{"coeff": coeff}]}
            with pytest.raises(FormatError, match=rf"stray variables \['{stray}'\]"):
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


def test_grid_params_read():
    doc = dict(CLOSED_DOC, lhs={"kind": "closed", "sums": [
        {"coeff": "binom(n, k)*H(k + s)*rbinom(k + u, k)", "lower": "0", "upper": "n"}]},
        rhs={"kind": "closed", "expr": "sum(r, 0, n, r)"})
    assert grid_params_read(load_identity(doc)) == {"s", "u"}
    assert grid_params_read(load_identity(CLOSED_DOC)) == set()


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
    got = dsl.eval_scalar(lterm.coeff, {"k": 3, "n": 5})
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

