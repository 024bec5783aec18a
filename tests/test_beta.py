"""Transforms from polynomial identities to closed parametric sums: the Beta
kernel weight rule, the harmonic-difference derivative rule, the central
binomial transforms, exact evaluation, and the float derivative cross-check.

Soundness here always means: transform a polynomial identity that is known to
hold, then check the resulting closed identity exactly at many points."""

import hashlib
from fractions import Fraction

import pytest

from finsum import beta, corpus, dsl
from finsum.beta import (Affine, ClosedTerm, FBinom, FRecipAffine, HPiece,
                         RecipPiece, beta_transform, central_transform_uv,
                         central_transform_v, derivative_bracket,
                         differentiate, eval_closed, eval_side,
                         eval_side_float, eval_term, float_derivative_check,
                         normalized_for_beta, verify_closed)
from finsum.errors import (DivisionByZero, EvalTypeError, PoleError,
                           ShapeError)
from finsum.field import HalfInt, SymConst
from finsum.model import load_identity

F = Fraction
R = SymConst.rational

NAMES = {
    "binom-harmonic-gf", "kb-standard-delta", "ordertwo-standard-delta",
    "alt-binom-harmonic-rs", "central-ordertwo-v", "central-ordertwo-uv",
}
_ENTRIES = {e.name: e for e in corpus.load_entries(names=NAMES)}


def ident(name):
    return _ENTRIES[name].identity


def rs_grid(values=(F(1, 2), 1, F(3, 2), 2)):
    from finsum.model import admissible
    return tuple({"r": r, "s": s} for r in values for s in values
                 if admissible(r, s))


def bind(**kw):
    return {k: HalfInt.from_value(F(str(v))) for k, v in kw.items()}


# ---------------------------------------------------------------------------
# weight rule

def test_weight_rule_examples():
    cid = beta_transform(ident("binom-harmonic-gf"))
    # lhs summand coeff * t^k: weight 1/((k+s) * binom(k+r, k+s))
    fb, fr = cid.lhs.summands[0].term.factors
    assert fb == FBinom(Affine(k=F(1), r=F(1)), Affine(k=F(1), s=F(1)), -1)
    assert fb.render() == "1/binom(k + r, k + s)"
    assert fr == FRecipAffine(Affine(k=F(1), s=F(1)))
    assert fr.render() == "1/(k + s)"
    # rhs summand (1-t)^(n-k): weight 1/(s * binom(n-k+r, s))
    fb2, fr2 = cid.rhs.summands[1].term.factors
    assert fb2.top.render() == "-k + n + r"
    assert fb2.bot == Affine(s=F(1))
    assert fr2.affine == Affine(s=F(1))

    # numeric agreement with the defining integral weight at one point:
    # term t^2 (1-t)^3 at (r, s) = (1/2, 1) weighs 1/((2+1)*binom(5+1/2, 3))
    from finsum import special
    term = ClosedTerm(dsl.Lit(F(1)),
                      factors=(FBinom(Affine(k=F(1), n=F(1), r=F(1)),
                                      Affine(k=F(1), s=F(1)), -1),
                               FRecipAffine(Affine(k=F(1), s=F(1)))))
    pt = bind(k=2, n=3, r="1/2", s=1)
    want = (special.gen_binom(HalfInt.from_value(F(11, 2)),
                              HalfInt.from_value(3)).value.inverse()
            * R(F(1, 3)))
    assert eval_term(term, pt) == want


def test_transform_soundness_matches_lemma_form():
    seed = ident("binom-harmonic-gf")
    cid = beta_transform(seed)
    assert cid.provenance == "beta_transform(binom-harmonic-gf)"
    report = verify_closed(cid, range(0, 11), rs_grid())
    assert not report.undefined
    assert report.all_equal, report.failures[:1]

    # a seed carrying (1+t)^k must be flipped first, then transforms cleanly
    flipped = normalized_for_beta(ident("kb-standard-delta"))
    report = verify_closed(beta_transform(flipped), range(0, 9), rs_grid())
    assert not report.undefined
    assert report.all_equal, report.failures[:1]


def test_transform_rejects_unflipped_base():
    with pytest.raises(ShapeError) as exc:
        beta_transform(ident("kb-standard-delta"))
    assert "substitute_neg_t" in str(exc.value)
    with pytest.raises(ShapeError):
        beta_transform(ident("alt-binom-harmonic-rs"))  # closed, not standard


# ---------------------------------------------------------------------------
# derivative rule

def test_derivative_rule_examples():
    top = Affine(k=F(1), r=F(1))
    bot = Affine(k=F(1), s=F(1))
    factors = (FBinom(top, bot, -1), FRecipAffine(bot))
    ds = derivative_bracket(factors, "s")
    assert ds == (HPiece(F(1), bot), HPiece(F(-1), Affine(r=F(1), s=F(-1))),
                  RecipPiece(F(-1), bot))
    dr = derivative_bracket(factors, "r")
    assert dr == (HPiece(F(-1), top), HPiece(F(1), Affine(r=F(1), s=F(-1))))

    # d/ds of 1/binom(k+r, s) at (k, r, s) = (2, 3, 1) is (H(1) - H(4))/binom(5, 1)
    f = FBinom(Affine(k=F(1), r=F(1)), Affine(s=F(1)), -1)
    term = ClosedTerm(dsl.Lit(F(1)), factors=(f,),
                      extras=derivative_bracket((f,), "s"))
    got = eval_term(term, bind(k=2, r=3, s=1))
    assert got == F(-13, 60)  # eval_term returns a plain Fraction when rational


def test_bracket_harmonic_coefficients_cancel():
    # per binomial factor the H coefficients sum to zero; that cancellation
    # is what removes the digamma constant from every derivative
    for power in (1, -1):
        for param in ("r", "s"):
            f = FBinom(Affine(k=F(2), n=F(1), r=F(1)),
                       Affine(k=F(1), r=F(1), s=F(-1)), power)
            pieces = derivative_bracket((f,), param)
            assert sum(p.coeff for p in pieces if isinstance(p, HPiece)) == 0


def test_differentiated_transform_soundness():
    cid = beta_transform(ident("binom-harmonic-gf"))
    for param in ("s", "r"):
        report = verify_closed(differentiate(cid, param), range(0, 9), rs_grid())
        assert not report.undefined
        assert report.all_equal, (param, report.failures[:1])


def test_differentiate_shape_errors():
    cid = beta_transform(ident("binom-harmonic-gf"))
    with pytest.raises(EvalTypeError):
        differentiate(cid, "t")
    with pytest.raises(ShapeError):
        differentiate(differentiate(cid, "s"), "r")  # bracket already present
    plain = ident("alt-binom-harmonic-rs")
    with pytest.raises(ShapeError):
        differentiate(plain, "s")  # standalone expression / no factors


# ---------------------------------------------------------------------------
# specialization and limit conventions

def test_equal_parameter_specialization():
    # at r = s the lhs weight of the t^k summand collapses to 1/(k+s)
    cid = beta_transform(ident("binom-harmonic-gf"))
    for s in (F(1, 2), 1, 2):
        for n in range(0, 9):
            lhs, rhs = eval_closed(cid, n, r=s, s=s)
            assert lhs == rhs
            direct = dsl.eval_scalar(
                dsl.parse("sum(k, 1, n, sign(k-1)*binom(n,k)*H(k)/(k+s))"),
                bind(n=n, s=s))
            assert lhs == direct

    # for a t^k (1-t)^(n-k) summand it collapses to rbinom(n+s, k+s)/(k+s)
    seed = load_identity({
        "name": "binomial-theorem-local",
        "lhs": {"kind": "standard", "terms": [
            {"coeff": "binom(n,k)", "t_exp": [1, 0, 0],
             "base": "1-t", "base_exp": [-1, 1, 0],
             "lower": "0", "upper": "n"}]},
        "rhs": {"kind": "standard", "terms": [{"coeff": "1"}]},
    })
    cid = beta_transform(seed)
    for s in (F(1, 2), 1, F(5, 2)):
        for n in range(0, 9):
            lhs, rhs = eval_closed(cid, n, r=s, s=s)
            assert rhs == R(F(1) / s)
            direct = dsl.eval_scalar(
                dsl.parse("sum(k, 0, n, binom(n,k)*rbinom(n+s,k+s)/(k+s))"),
                bind(n=n, s=s))
            assert lhs == direct == rhs


def test_limit_convention_reproduces_true_identity():
    # outside the admissible region the reciprocal-binomial limit (infinite
    # binomial -> term contributes 0) still makes both sides agree
    cid = beta_transform(ident("binom-harmonic-gf"))
    for n in range(1, 7):
        lhs, rhs = eval_closed(cid, n, r=-1, s=F(-1, 2))
        assert lhs == rhs
    lhs, rhs = eval_closed(cid, 3, r=-1, s=F(-1, 2))
    assert not lhs.is_zero

    # the zeroing really happens: 1/binom(-1, 1/2) is the 0 limit
    term = ClosedTerm(dsl.Lit(F(1)),
                      factors=(FBinom(Affine(r=F(1)), Affine(s=F(1)), -1),))
    assert eval_term(term, bind(r=-1, s="1/2")) == 0


def test_eval_term_pole_handling():
    pt = bind(r=-1, s="1/2")
    direct = ClosedTerm(dsl.Lit(F(1)),
                        factors=(FBinom(Affine(r=F(1)), Affine(s=F(1)), 1),))
    with pytest.raises(PoleError):
        eval_term(direct, pt)
    recip_zero = ClosedTerm(dsl.Lit(F(1)),
                            factors=(FBinom(Affine(const=F(1)), Affine(const=F(2)), -1),))
    with pytest.raises(DivisionByZero):
        eval_term(recip_zero, bind())
    affine_zero = ClosedTerm(dsl.Lit(F(1)),
                             factors=(FRecipAffine(Affine(s=F(1))),))
    with pytest.raises(DivisionByZero):
        eval_term(affine_zero, bind(s=0))


def count_compiled_evaluations(monkeypatch):
    """Patch ``dsl.compile`` so that every call of a closure it returns
    appends the compiled expression to the returned list."""
    calls = []
    compile_ = dsl.compile

    def counting_compile(expr):
        value = compile_(expr)

        def counted(bindings):
            calls.append(expr)
            return value(bindings)
        return counted

    monkeypatch.setattr(dsl, "compile", counting_compile)
    return calls


def test_eval_term_infinite_reciprocal_is_zero_before_coefficient(monkeypatch):
    """1/binom(-1, 1/2) is the 0 limit; the term returns 0 at that factor,
    before the later factor, the coefficient or the bracket is evaluated,
    each of which would raise here."""
    calls = count_compiled_evaluations(monkeypatch)
    term = ClosedTerm(dsl.parse("1/(k - k)"),
                      factors=(FBinom(Affine(r=F(1)), Affine(s=F(1)), -1),
                               FRecipAffine(Affine())),
                      extras=(HPiece(F(1), Affine(const=F(-1))),))
    pt = bind(k=0, r=-1, s="1/2")
    assert eval_term(term, pt) == 0
    assert calls == []
    # the same term at a finite point does reach the zero factor
    with pytest.raises(DivisionByZero):
        eval_term(term, bind(k=0, r=1, s="1/2"))
    # and with only a finite factor, the counted coefficient is reached
    finite = ClosedTerm(term.coeff, factors=term.factors[:1])
    with pytest.raises(DivisionByZero, match="division by zero in 1/\\(k - k\\)"):
        eval_term(finite, bind(k=0, r=1, s="1/2"))
    assert calls == [term.coeff]


def test_verify_closed_records_undefined_points():
    cid = beta_transform(ident("binom-harmonic-gf"))
    report = verify_closed(cid, [2], ({"r": 1, "s": 2},))  # r - s = -1
    assert report.undefined
    assert report.undefined[0].error
    assert report.all_equal  # no defined unequal point


def test_memo_serves_every_grid_point(monkeypatch):
    """Coefficients depend on (k, n) only, so more (r, s) points cost no
    more evaluations.  Each grid gets a freshly loaded seed, whose
    expressions the memo has not seen."""
    calls = count_compiled_evaluations(monkeypatch)
    one_point = ({"r": F(1, 2), "s": F(1, 2)},)
    four_points = rs_grid((F(1, 2), 1))
    assert len(four_points) == 4
    counts = []
    for grid in (one_point, four_points):
        (entry,) = corpus.load_entries(names={"binomial-theorem"})
        cid = beta_transform(entry.identity)
        calls.clear()
        assert verify_closed(cid, range(0, 9), grid).all_equal
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_loaded_identity_verifies_as_it_is():
    """verify_closed takes a loaded identity with no conversion; its report
    on dattoli-ddr is pinned point for point by a sha256 of each point's n,
    parameters, values and error."""
    (entry,) = corpus.load_entries(names={"dattoli-ddr"})
    report = verify_closed(entry.identity, entry.n_values, entry.param_grid)
    assert (report.name, len(report.results)) == ("dattoli-ddr", 510)
    assert not report.failures and not report.undefined
    text = "\n".join(f"{p.n} {p.params} {p.lhs} {p.rhs} {p.error}" for p in report.results)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1353f836d94e847755cc3a638d025598cd64932d65c15f7dfcd9b20c0e0d552a")


def test_memo_holds_no_grid_coefficient():
    """A coefficient that reads r or s has a new key at every grid point, so
    it is evaluated directly and never stored."""
    (entry,) = corpus.load_entries(names={"dattoli-ddr"})
    cid = entry.identity
    grid_coeffs = [sm.term.coeff for side in (cid.lhs, cid.rhs) for sm in side.summands
                   if dsl.free_vars(sm.term.coeff) & {"r", "s"}]
    assert grid_coeffs
    report = verify_closed(cid, range(0, 4), entry.param_grid)
    assert len(report.results) == 4 * len(entry.param_grid) > 4
    for coeff in grid_coeffs:
        assert id(coeff) not in beta._expr_memo
    for expr, _, _ in beta._expr_memo.values():
        assert dsl.free_vars(expr).isdisjoint(beta.GRID_PARAMS)


def test_compiles_once_per_verification(monkeypatch):
    """The number of expressions compiled by one verify_closed does not grow
    with the n range or the grid."""
    compiled = []
    compile_ = dsl.compile

    def spy(expr):
        compiled.append(expr)
        return compile_(expr)

    monkeypatch.setattr(dsl, "compile", spy)
    cid = differentiate(beta_transform(ident("binom-harmonic-gf")), "r")
    counts = []
    for n_range, grid in ((range(0, 2), rs_grid((1,))), (range(0, 9), rs_grid())):
        compiled.clear()
        verify_closed(cid, n_range, grid)
        counts.append(len(compiled))
    assert counts[0] > 0 and counts[1] == counts[0]


# ---------------------------------------------------------------------------
# central binomial transforms

def test_central_transform_v_soundness():
    seed = ident("ordertwo-standard-delta")
    for v in range(0, 4):
        first, second = central_transform_v(seed, v)
        for cid in (first, second):
            report = verify_closed(cid, range(0, 9))
            assert not report.undefined, (v, cid.provenance, report.undefined[:1])
            assert report.all_equal, (v, cid.provenance, report.failures[:1])


def test_central_transform_uv_soundness():
    seed = ident("ordertwo-standard-delta")
    for u in range(0, 3):
        for v in range(0, 3):
            cid = central_transform_uv(seed, u, v)
            report = verify_closed(cid, range(0, 7))
            assert not report.undefined
            assert report.all_equal, (u, v, report.failures[:1])


def test_central_particular_displays():
    # the hand-encoded one- and two-parameter displays agree pointwise with
    # the machine transform of the same seed
    seed = ident("ordertwo-standard-delta")
    v_entry = _ENTRIES["central-ordertwo-v"]
    for params in v_entry.param_grid:
        v = params["v"].as_int()
        first, _ = central_transform_v(seed, v)
        for n in range(0, 7):
            t_lhs, t_rhs = eval_closed(first, n, v=v)
            d_lhs, d_rhs = eval_closed(v_entry.identity, n, v=v)
            assert t_lhs == t_rhs, (v, n)
            assert d_lhs == d_rhs, (v, n)
            # the display normalizes both sides by 2^n
            assert d_lhs == R(2) ** n * t_lhs, (v, n)
    # anchor value computed by hand from the display: v = 0, n = 2 gives 5/2
    d_lhs, d_rhs = eval_closed(v_entry.identity, 2, v=0)
    assert d_lhs == d_rhs == R(F(5, 2))

    uv_entry = _ENTRIES["central-ordertwo-uv"]
    for params in uv_entry.param_grid:
        u, v = params["u"].as_int(), params["v"].as_int()
        cid = central_transform_uv(seed, u, v)
        for n in range(0, 5):
            t_lhs, t_rhs = eval_closed(cid, n, u=u, v=v)
            d_lhs, d_rhs = eval_closed(uv_entry.identity, n, u=u, v=v)
            assert t_lhs == t_rhs, (u, v, n)
            assert d_lhs == d_rhs, (u, v, n)
            # the display divides both sides by the constant binom(u, u/2),
            # so it is the same identity up to one global factor
            assert d_lhs * t_rhs == d_rhs * t_lhs, (u, v, n)
            if u == 0:
                assert d_lhs == t_lhs, (v, n)
    # anchor value computed by hand: u = v = 0, n = 2 gives -17/32
    d_lhs, d_rhs = eval_closed(uv_entry.identity, 2, u=0, v=0)
    assert d_lhs == d_rhs == R(F(-17, 32))


def test_central_shape_errors():
    with pytest.raises(ShapeError):
        central_transform_v(ident("binom-harmonic-gf"), 0)
    seed = ident("ordertwo-standard-delta")
    with pytest.raises(EvalTypeError):
        central_transform_v(seed, -1)
    with pytest.raises(EvalTypeError):
        central_transform_v(seed, F(1, 2))
    with pytest.raises(EvalTypeError):
        central_transform_uv(seed, 1, -2)


# ---------------------------------------------------------------------------
# float evaluation and the derivative cross-check

def test_float_matches_exact_on_transformed_side():
    import mpmath
    cid = beta_transform(ident("binom-harmonic-gf"))
    pt = bind(n=4, r="3/2", s="1/2")
    with mpmath.workdps(40):
        for side in (cid.lhs, cid.rhs):
            exact = eval_side(side, pt).to_float(30)
            approx = eval_side_float(side, pt, 40)
            assert abs(exact - approx) < mpmath.mpf(10) ** -25


def test_float_derivative_check_passes():
    cid = beta_transform(ident("binom-harmonic-gf"))
    for param in ("s", "r"):
        check = float_derivative_check(cid, param, {"n": 3, "r": 2, "s": 1})
        assert check.passed, (param, check.max_rel_dev, check.tolerance)
        assert check.max_rel_dev < 1e-8


def test_float_rejects_standalone_expression():
    plain = ident("alt-binom-harmonic-rs")
    with pytest.raises(ShapeError):
        eval_side_float(plain.rhs, bind(n=2, r=1, s=1), 30)
