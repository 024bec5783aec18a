"""Transforms from polynomial identities to closed parametric sums: the Beta
kernel weight rule, the harmonic-difference derivative rule, the central
binomial transforms, exact evaluation, and the float derivative cross-check.

Soundness here always means: transform a polynomial identity that is known to
hold, then check the resulting closed identity exactly at many points."""

import collections
import functools
import gc
import hashlib
import itertools
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsum import beta, corpus, dsl, special
from finsum.beta import (Affine, ClosedTerm, FAffine, FBinom, HPiece,
                         RecipPiece, beta_transform, central_transform_uv,
                         central_transform_v, derivative_bracket,
                         differentiate, eval_closed, eval_side,
                         eval_side_float, eval_term, float_derivative_check,
                         normalized_for_beta, verify_closed)
from finsum.errors import (DivisionByZero, EvalTypeError, FinsumError, PoleError,
                           ShapeError, UnboundVariable)
from finsum.field import SymConst, half, lift, to_int, to_twice
from finsum.model import (ClosedSide, ClosedSummand, admissible, grid_params_read,
                          is_negative_integer, load_identity, split_closed_term)

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
    return {k: half(F(str(v))) for k, v in kw.items()}


# ---------------------------------------------------------------------------
# weight rule

def test_weight_rule_examples():
    cid = beta_transform(ident("binom-harmonic-gf"))
    # lhs summand coeff * t^k: weight 1/((k+s) * binom(k+r, k+s))
    fb, fr = cid.lhs.summands[0].term.factors
    assert fb == FBinom(Affine(k=F(1), r=F(1)), Affine(k=F(1), s=F(1)), -1)
    assert fb.render() == "1/binom(k + r, k + s)"
    assert fr == FAffine(Affine(k=F(1), s=F(1)), -1)
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
                               FAffine(Affine(k=F(1), s=F(1)), -1)))
    pt = bind(k=2, n=3, r="1/2", s=1)
    want = (special.gen_binom(F(11, 2), 3).value.inverse()
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
    factors = (FBinom(top, bot, -1), FAffine(bot, -1))
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


@pytest.mark.parametrize("power", [0, 2, -2, True, F(1), 1.0])
def test_binomial_factor_power_is_one_or_minus_one(power):
    """Any power but the int 1 or -1 is refused where the factor is built:
    the kernel and the float path would read it as -1, while
    ``derivative_bracket`` would multiply by it."""
    with pytest.raises(ShapeError) as exc:
        FBinom(Affine(k=F(1)), Affine(s=F(1)), power)
    assert str(exc.value) == f"binomial factor power must be 1 or -1, got {power!r}"
    assert FBinom(Affine(k=F(1)), Affine(s=F(1)), -1).power == -1


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
    side = {"kind": "closed", "sums": [{"coeff": "binom(n,k)", "lower": "0", "upper": "n"}],
            "expr": "s*rbinom(n+r,s)"}
    plain = load_identity({"name": "plain", "lhs": side, "rhs": side})
    # the binom(n, k) sum reads no s: its derivative is 0 and it is left out
    assert [sm.term.render() for sm in differentiate(plain, "s").lhs.summands] == [
        "1 * (s) * 1/binom(n + r, s) * [1/(s) + H(s) - H(n + r - s)]"]


def test_differentiate_refuses_an_identity_that_is_not_closed():
    # a standard identity has no closed summands to differentiate
    with pytest.raises(ShapeError, match=r"need a transformed identity \(use beta first\)"):
        differentiate(ident("binom-harmonic-gf"), "r")


def test_transform_outputs_are_the_seed_identity_with_new_sides():
    seed = ident("kb-standard-delta")
    derived = differentiate(beta_transform(normalized_for_beta(seed)), "s")
    outputs = [derived, *central_transform_v(seed, 1), central_transform_uv(seed, 1, 2)]
    assert [o.provenance for o in outputs] == [
        "d/ds(beta_transform(kb-standard-delta))", "central_v(kb-standard-delta, v=1)",
        "central_v_dual(kb-standard-delta, v=1)", "central_uv(kb-standard-delta, u=1, v=2)"]
    for out in outputs:
        assert type(out) is type(seed) and out.is_closed
        assert (out.name, out.paper_ref, out.status, out.notes) == \
            (seed.name, seed.paper_ref, seed.status, seed.notes)
    loaded = ident("alt-binom-harmonic-rs")
    assert beta.from_model(loaded) is loaded
    with pytest.raises(ShapeError):
        beta.from_model(seed)


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
                             factors=(FAffine(Affine(s=F(1)), -1),))
    with pytest.raises(DivisionByZero):
        eval_term(affine_zero, bind(s=0))


def count_compiled_evaluations(monkeypatch, at=None):
    """Patch ``dsl.compile`` so that every call of a closure it returns
    appends the compiled expression to the returned list; with ``at``, a
    tuple of names, the expression followed by the value each name is bound
    to in that call (None if unbound)."""
    calls = []
    compile_ = dsl.compile

    def counting_compile(expr):
        value = compile_(expr)

        def counted(bindings):
            calls.append(expr if at is None else (expr, *map(bindings.get, at)))
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
                               FAffine(Affine(), -1)),
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


def report_text(report):
    """One line per point: n, parameters, values and error."""
    return "\n".join(f"{p.n} {' '.join(f'{name}={val}' for name, val in p.params)}"
                     f" {p.lhs} {p.rhs} {p.error}" for p in report.results)


def test_loaded_identity_verifies_as_it_is():
    """verify_closed takes a loaded identity with no conversion; the report
    of every closed corpus entry on its shipped n range and grid is pinned
    point for point by a sha256 of its ``report_text``, taken before loaded
    coefficients were split into factors."""
    pinned = json.loads((Path(__file__).parent / "closed_report_sha256.json").read_text())
    got = {}
    for entry in corpus.load_entries():
        if entry.identity.is_closed:
            report = verify_closed(entry.identity, entry.n_values, entry.param_grid)
            got[entry.name] = hashlib.sha256(report_text(report).encode()).hexdigest()
    assert len(got) == 89
    assert got == pinned


# ---------------------------------------------------------------------------
# loaded coefficients split into factors

WIDE = [F(twice, 2) for twice in range(-4, 7)]     # -2, -3/2, ..., 3


def reachable(point):
    """A point that the corpus and the command line accept."""
    if "r" in point and "s" in point:
        return admissible(point["r"], point["s"])
    return not any(is_negative_integer(v) for v in point.values()) and point.get("s") != 0


def unsplit(identity, document):
    """The identity with each summand's coefficient, and its standalone
    expression as one k-free term, as written in the document."""
    def side(loaded, doc):
        sums = [replace(sm, term=ClosedTerm(dsl.parse(d["coeff"])))
                for sm, d in zip(loaded.summands, doc.get("sums", []))]
        if "expr" in doc:
            sums.append(ClosedSummand(ClosedTerm(dsl.parse(doc["expr"])), dsl.Lit(F(0)),
                                      dsl.Lit(F(0))))
        return ClosedSide(tuple(sums))
    return replace(identity, lhs=side(identity.lhs, document["lhs"]),
                   rhs=side(identity.rhs, document["rhs"]))


@functools.lru_cache(maxsize=None)
def wide_grid_reports():
    """(entry name, grid point, split point, unsplit point) over the wide
    grid and n = 0..4 for every closed entry that reads only r and/or s."""
    rows = []
    for file_name in corpus.load_manifest()["entries"]:
        document = json.loads((corpus.DEFAULT_DIR / file_name).read_text())
        identity = corpus.load_entry(document).identity
        read = sorted(grid_params_read(identity)) if identity.is_closed else []
        if not read or not set(read) <= {"r", "s"}:
            continue
        grid = [dict(zip(read, values)) for values in itertools.product(WIDE, repeat=len(read))]
        points = [point for _ in range(5) for point in grid]
        split_report = verify_closed(identity, range(5), grid)
        unsplit_report = verify_closed(unsplit(identity, document), range(5), grid)
        rows += zip([identity.name] * len(points), points,
                    split_report.results, unsplit_report.results)
    return rows


def test_split_matches_unsplit_at_every_reachable_point():
    """Value, defined status and error text agree at every point that the
    corpus and the command line accept, r = 0 of an r-only entry too."""
    rows = [row for row in wide_grid_reports() if reachable(row[1])]
    assert (len({row[0] for row in rows}), len(rows)) == (27, 3790)
    assert [row for row in rows if row[2] != row[3]] == []
    assert sum(1 for row in rows if row[2].error) == 166   # errors compared too


def test_split_differs_only_at_the_limit_convention():
    """Off the reachable points, a split term is zeroed at an Infinite
    reciprocal binomial before its bracket runs (``_run_term``'s limit
    convention); the unsplit product runs the bracket's H and meets its
    pole.  That happens at 100 points of cheb-ddr and dattoli-ddr."""
    differ = [row for row in wide_grid_reports() if row[2] != row[3]]
    assert not any(reachable(point) for _, point, _, _ in differ)
    assert collections.Counter(name for name, _, _, _ in differ) == {
        "cheb-ddr": 50, "dattoli-ddr": 50}
    for _, point, split_point, unsplit_point in differ:
        assert is_negative_integer(point["r"])
        assert split_point.defined
        assert re.fullmatch(r"H_-\d+ is a pole", unsplit_point.error)


def test_loaded_summands_off_the_factor_path_are_pinned():
    """53 of the 59 loaded summands that read r or s (and not u or v) are
    split, and 34 of the 36 k-free parts of the standalone expressions that
    read r or s.  Each summand or part whose coefficient still reads r or s
    is named here: six summands and two parts with no binomial or affine
    factor in r or s, and three split rests; a change that stops splitting
    another one fails here."""
    zero = dsl.Lit(F(0))
    split, reads = collections.Counter(), []
    for entry in corpus.load_entries():
        identity = entry.identity
        if not identity.is_closed:
            continue
        for side in (identity.lhs, identity.rhs):
            for sm in side.summands:
                term = sm.term
                kind = "part" if sm.lower == sm.upper == zero else "sum"
                if term.factors:
                    split[kind] += 1
                    assert term.source is not None
                    assert not term.coeff_vars & {"u", "v"}
                if term.coeff_vars & {"r", "s"} and not term.coeff_vars & {"u", "v"}:
                    reads.append((entry.name, kind, len(term.factors), dsl.render(term.coeff)))
    assert split == {"sum": 53, "part": 34}
    assert reads == [
        ("complement-harmonic-dds", "sum", 3,
         "H(n - 1 - k)*(s*(k + s)*(H(k + s) - H(r - s + 1)) + k)"),
        ("complement-setsr-display", "sum", 3, "H(n - 1 - k)*(r*(k + r)*(H(k + r) - 1) + k)"),
        ("complement-setsr-display", "part", 0, "-H(n)*H(r)"),
        ("dattoli-general-r", "sum", 0, "fact(n)/fact(n + r)*fact(k + r - 1)/fact(k)/(k + 2)"),
        ("dattoli-harmonic-r", "sum", 0,
         "fact(n)/fact(n + r)*H(n + r)*fact(k + r - 1)/fact(k)/(k + 2)"),
        ("dattoli-harmonic-r", "sum", 0,
         "-fact(n)/fact(n + r)*H(n - k)*fact(k + r - 1)/fact(k)/(k + 2)"),
        ("dattoli-setsr-display", "sum", 0,
         "fact(n)/fact(n + r)*(H(k + r) - H(n - k))*fact(k + r - 1)/fact(k)/(k + 2)"),
        ("dattoli-setsr-display", "sum", 0, "-fact(n)/fact(n + r)*fact(k + r - 1)/fact(k)/(k + 2)"),
        ("dattoli-square-r", "sum", 0,
         "fact(n)/fact(n + r)*(H(n + r) - H(k + r) + 1/(k + r))*fact(k + r - 1)/fact(k)/(k + 2)"),
        ("sqharmonic-full-r", "part", 0, "H(n)*H(r)"),
        ("sqharmonic-general-r", "part", 2, "H(r)"),
    ]


@pytest.mark.parametrize("coeff, rest, factors, extras", [
    # the rest keeps its operands in order; divisors come first, right to left
    ("binom(n,k)/((k+2)*(k+s))*rbinom(n+r,k+s)", "binom(n, k)/(k + 2)",
     ("1/(k + s)", "1/binom(n + r, k + s)"), ()),
    # a power of a divisor is flattened, a divided binom has power -1, a
    # multiplied affine power 1
    ("-(r+1)/(r-s+1)^2/binom(k+r,s)*k", "k",
     ("1/binom(k + r, s)", "1/(r - s + 1)", "1/(r - s + 1)", "(-r - 1)"), ()),
    # a multiplied binom keeps power 1 and a divided rbinom gets it
    ("binom(k+r,k)/rbinom(n+s,k)", "1", ("binom(n + s, k)", "binom(k + r, k)"), ()),
    # only the first multiplied sum of pieces is the bracket
    ("(H(k)-H(n+r)+1/(k+s))*H(k+r)/(k+s)", "H(k + r)", ("1/(k + s)",),
     (HPiece(F(1), Affine(k=1)), HPiece(F(-1), Affine(n=1, r=1)),
      RecipPiece(F(1), Affine(k=1, s=1)))),
    ("-H(n+r)*rbinom(n+r,k)", "1", ("1/binom(n + r, k)",), (HPiece(F(-1), Affine(n=1, r=1)),)),
])
def test_split_rules(coeff, rest, factors, extras):
    term = split_closed_term(dsl.parse(coeff))
    assert (dsl.render(term.coeff), tuple(f.render() for f in term.factors), term.extras) == (
        rest, factors, extras)
    assert term.source == dsl.parse(coeff)
    assert term.coeff_vars == frozenset(dsl.free_vars(term.coeff))


@pytest.mark.parametrize("expr, parts", [
    # a product distributed over its one sum in r or s, a sign on the first operand
    ("H(n)*(s/(r-s+1)*rbinom(n+r,r-s+1) - rbinom(r,s))",
     ["H(n) * 1/(r - s + 1) * (s) * 1/binom(n + r, r - s + 1)", "-H(n) * 1/binom(r, s)"]),
    # a bracket, and a sum that reads neither r nor s, are not distributed
    ("r/(n+r)*(H(n-1+r) - H(r-1)) - (n+1)*H(n)/(s*(n+1+s))",
     ["1 * 1/(n + r) * (r) * [H(n + r - 1) - H(r - 1)]",
      "-(n + 1)*H(n) * 1/(s) * 1/(n + s + 1)"]),
    ("(H(n+1)/s - H(n+s)/(n+1+s))/2", ["H(n + 1)/2 * 1/(s)", "1/2 * 1/(n + s + 1) * [-H(n + s)]"]),
    # an expression in n alone is one term as written
    ("H(n) + 1/(n+1)", ["H(n) + 1/(n + 1)"]),
])
def test_standalone_parts(expr, parts):
    """A standalone expression loads as k-free parts over k = 0..0, after
    the sums; each split part reports the whole expression's error."""
    doc = {"kind": "closed", "sums": [{"coeff": "binom(n,k)", "lower": "0", "upper": "n"}],
           "expr": expr}
    side = load_identity({"name": "parts", "lhs": doc, "rhs": doc}).lhs
    loaded = side.summands[1:]
    assert [sm.term.render() for sm in loaded] == parts
    assert all(sm.lower == sm.upper == dsl.Lit(F(0)) for sm in loaded)
    assert {sm.term.source for sm in loaded} == ({dsl.parse(expr)} if len(parts) > 1 else {None})


@pytest.mark.parametrize("coeff", [
    "binom(n,k)/(k+2)",                      # reads neither r nor s
    "H(k+r)*binom(n,k)",                     # a bracket alone is no factor
    "rbinom(k+r,v/2)/(k+s)",                 # reads v
    "rbinom(k/2+r,s)*fact(n+r)",             # an argument that is not integer-affine
    "(k+s)^5*binom(n+r,k)^2",                # a power beyond the limit, a multiplied power
])
def test_unsplit_coefficients_stay_as_written(coeff):
    term = split_closed_term(dsl.parse(coeff))
    assert (term.coeff, term.factors, term.extras, term.source) == (dsl.parse(coeff), (), (), None)


def test_loaded_display_is_the_derivative_of_its_parent():
    """d/dr and d/ds of the loaded dattoli-rs equal the shipped dattoli-ddr
    and dattoli-dds side by side, each side exactly, at all 510 points."""
    entries = {e.name: e for e in corpus.load_entries(
        names={"dattoli-rs", "dattoli-ddr", "dattoli-dds"})}
    parent = entries["dattoli-rs"].identity
    for param, name in (("r", "dattoli-ddr"), ("s", "dattoli-dds")):
        shipped = entries[name]
        derived = differentiate(parent, param)
        assert derived.provenance == f"d/d{param}(dattoli-rs)"
        ours = verify_closed(derived, shipped.n_values, shipped.param_grid).results
        theirs = verify_closed(shipped.identity, shipped.n_values, shipped.param_grid).results
        assert len(ours) == 510
        assert [(p.lhs, p.rhs) for p in ours] == [(p.lhs, p.rhs) for p in theirs]
        assert all(p.defined for p in ours)


def test_displays_that_are_not_the_derivative_of_their_parent():
    """Side by side on each display's own grid, d/ds of a split standalone
    parent against its shipped display: alt-binom-harmonic-dds agrees at
    only the 34 of 510 points where both are 0, being -d/ds of its parent
    on each side at all 510; the disputed complement-harmonic-dds agrees at
    2 of 9 points, its lhs at all 9."""
    names = {"alt-binom-harmonic-rs", "alt-binom-harmonic-dds", "complement-harmonic-rs",
             "complement-harmonic-dds"}
    entries = {e.name: e for e in corpus.load_entries(names=names)}
    counts = {}
    for parent in ("alt-binom-harmonic", "complement-harmonic"):
        shipped = entries[f"{parent}-dds"]
        derived = differentiate(entries[f"{parent}-rs"].identity, "s")
        ours = verify_closed(derived, shipped.n_values, shipped.param_grid).results
        theirs = verify_closed(shipped.identity, shipped.n_values, shipped.param_grid).results
        assert all(p.defined for p in ours + theirs)
        counts[parent] = (len(ours), sum(p.lhs == q.lhs for p, q in zip(ours, theirs)),
                          sum((p.lhs, p.rhs) == (q.lhs, q.rhs) for p, q in zip(ours, theirs)))
        if parent == "alt-binom-harmonic":
            assert [(-p.lhs, -p.rhs) for p in ours] == [(q.lhs, q.rhs) for q in theirs]
    assert counts == {"alt-binom-harmonic": (510, 34, 34), "complement-harmonic": (9, 9, 2)}


def test_derivative_leaves_out_terms_without_the_parameter():
    """cheb-general-r reads r alone, so its d/ds is 0 = 0: every term is
    left out, not kept with an empty bracket, which reads as the factor 1."""
    (entry,) = corpus.load_entries(names={"cheb-general-r"})
    derived = differentiate(entry.identity, "s")
    assert derived.lhs.summands == derived.rhs.summands == ()
    assert eval_closed(derived, 3, r=F(1, 2)) == (R(0), R(0))
    # a side keeps the terms whose factors read the parameter
    side = {"kind": "closed", "sums": [
        {"coeff": "binom(n,k)*rbinom(n+r,k)", "lower": "0", "upper": "n"},
        {"coeff": "binom(n,k)/(k+s)", "lower": "0", "upper": "n"}]}
    mixed = load_identity({"name": "mixed", "lhs": side, "rhs": side})
    (kept,) = differentiate(mixed, "s").lhs.summands
    assert kept.term.extras == (RecipPiece(F(-1), Affine(k=1, s=1)),)


def test_differentiate_refuses_a_coefficient_reading_r_or_s():
    """Only factors are differentiated, so an s left in the coefficient
    would be dropped from the derivative."""
    side = {"kind": "closed", "sums": [
        {"coeff": "s^2*binom(n,k)*rbinom(n+r,k+s)", "lower": "0", "upper": "n"}]}
    identity = load_identity({"name": "s-outside", "lhs": side, "rhs": side})
    assert identity.lhs.summands[0].term.factors
    for param in ("r", "s"):
        with pytest.raises(ShapeError, match=r"s-outside: coefficient s\^2\*binom\(n, k\) reads s"):
            differentiate(identity, param)


def test_derived_outputs_pinned_point_for_point():
    """The beta, d/dr and d/ds outputs of every standard seed and the central
    transforms of kb-standard-delta, on the (r, s) grid {1/2, 3/2} x {1/2, 1}
    and n = 0..4, pinned by a sha256 of each point's provenance, n,
    parameters, values and error (990 points, 12 of them undefined)."""
    seeds = [e for e in corpus.load_entries() if e.identity.is_standard]
    grid = [{"r": r, "s": s} for r in (F(1, 2), F(3, 2)) for s in (F(1, 2), 1)]
    outputs = []
    for entry in seeds:
        cid = beta_transform(normalized_for_beta(entry.identity))
        outputs += [(cid, grid), (differentiate(cid, "r"), grid), (differentiate(cid, "s"), grid)]
        if entry.name == "kb-standard-delta":
            for v in (1, 2):
                outputs += [(c, [{}]) for c in central_transform_v(entry.identity, v)]
            for u, v in ((1, 1), (2, 1)):
                outputs.append((central_transform_uv(entry.identity, u, v), [{}]))
    assert (len(seeds), len(outputs)) == (16, 54)
    lines = [f"{cid.provenance} {p.n} {' '.join(f'{name}={val}' for name, val in p.params)}"
             f" {p.lhs} {p.rhs} {p.error}"
             for cid, points in outputs for p in verify_closed(cid, range(5), points).results]
    assert (len(lines), sum(1 for line in lines if not line.endswith(" "))) == (990, 12)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "96bfee2954f0f703c37a6c969f79bdf9c7e39cc2c53a7395b51d4d0aa2734cf6")


def closed_side(*coeffs, extra=None):
    """A side of sums over k = 0..n of the given coefficients, then the
    k-free parts that the loader makes of a standalone expression."""
    sums = tuple(ClosedSummand(ClosedTerm(dsl.parse(c)), dsl.Lit(F(0)), dsl.Var("n"))
                 for c in coeffs)
    if extra is not None:
        doc = {"kind": "closed", "expr": extra}
        sums += load_identity({"name": "extra", "lhs": doc, "rhs": doc}).lhs.summands
    return ClosedSide(sums)


def test_side_sum_matches_term_by_term_sum():
    """A side sums every term, rational or SymConst, and the parts of its
    standalone expression per monomial in one unreduced accumulator, reduced
    once: it equals the sum taken term by term plus the expression."""
    extra = "H(n) + 1/(n+s)"
    side = closed_side("binom(n, k)", "sign(k)*binom(n, k)/(k+1)", "binom(n, k)/((k+2)*(k+s))",
                       "H(k+s)", "H(r)/(k+1)", "1/(k+r)", extra=extra)
    parts = side.summands[6:]
    assert [sm.term.render() for sm in parts] == ["H(n)", "1 * 1/(n + s)"]
    kinds = set()
    for n in range(6):
        for s in ("1/2", "1", "3/2"):
            point = bind(n=n, r="1/2", s=s)
            want = lift(dsl.compile(dsl.parse(extra))(point))
            for sm in side.summands[:6]:
                for k in range(n + 1):
                    value = eval_term(sm.term, dict(point, k=k))
                    kinds.add(type(value))
                    want = want + lift(value)
            assert eval_side(side, point) == want
    assert kinds == {int, Fraction, SymConst}


def test_integral_side_is_lift_of_an_int():
    # sum_k binom(n,k)*(n+1)/(k+1) = 2^(n+1) - 1, its terms mostly Fractions
    side = closed_side("binom(n, k)*(n+1)/(k+1)", "k/2 - (n-k)/2")
    for n in range(8):
        value = eval_side(side, bind(n=n))
        assert value == lift(2 ** (n + 1) - 1)
        assert value.terms == lift(2 ** (n + 1) - 1).terms
        assert value.as_rational() == 2 ** (n + 1) - 1


def test_grid_free_values_run_once_per_n_and_k(monkeypatch):
    """A coefficient that reads r is evaluated at every point and k it
    reaches, so its count grows with the grid; one that reads no grid
    parameter at most once per (n, k), however many points share that n.
    The fact(n)/fact(n + r) summands of dattoli-harmonic-r stay unsplit, so
    their coefficients read r."""
    (entry,) = corpus.load_entries(names={"dattoli-harmonic-r"})
    cid, grid = entry.identity, entry.param_grid
    coeffs = [sm.term.coeff for side in (cid.lhs, cid.rhs) for sm in side.summands]
    reads_grid = {id(c) for c in coeffs if dsl.free_vars(c) & set(beta.GRID_PARAMS)}
    assert 0 < len(reads_grid) < len(coeffs) and len(grid) == 3
    calls = count_compiled_evaluations(monkeypatch, at=("n", "k"))
    report = verify_closed(cid, range(0, 5), grid)
    assert report.all_equal and not report.undefined
    together = collections.Counter((id(expr), n, k) for expr, n, k in calls
                                   if any(expr is c for c in coeffs))
    alone = collections.Counter()
    for n in range(0, 5):
        for params in grid:
            calls.clear()
            verify_closed(cid, [n], [params])
            alone.update((id(expr), n, k) for expr, _, k in calls if any(expr is c for c in coeffs))
    assert together.keys() == alone.keys()
    for key, count in together.items():
        if key[0] in reads_grid:
            assert count == alone[key] == len(grid)
        else:
            assert count == 1 < alone[key]


def test_verify_keeps_no_expression_alive():
    """Nothing that verify_closed builds outlives the call: the reference
    count of every coefficient of both central_v outputs is what it was
    before."""
    outputs = central_transform_v(ident("kb-standard-delta"), 1)
    coeffs = [sm.term.coeff for cid in outputs for side in (cid.lhs, cid.rhs)
              for sm in side.summands]
    gc.collect()
    before = [sys.getrefcount(c) for c in coeffs]
    for cid in outputs:
        assert verify_closed(cid, range(0, 6)).all_equal
    gc.collect()
    assert [sys.getrefcount(c) for c in coeffs] == before


def _coefficient_errors():
    # the grid-free 1/(k - 2) raises at k = 2 and 1/(n - k - 3) at k = n - 3,
    # each unless binom(r, k) is 0 there
    def side(coeff):
        return {"kind": "closed", "sums": [{"coeff": coeff, "lower": "0", "upper": "n"}]}
    cid = load_identity({"name": "coefficient-errors", "lhs": side("binom(r, k)/(k - 2)"),
                         "rhs": side("binom(r, k)/(n - k - 3)")})
    return cid, range(0, 5), ({"r": F(5, 2)}, {"r": 1}, {"r": 3}, {"r": F(1, 2)})


def _n_major_cases():
    yield "beta-binom-harmonic-gf", (beta_transform(ident("binom-harmonic-gf")),
                                     range(-2, 3), rs_grid())
    (entry,) = corpus.load_entries(names={"complement-harmonic-dds"})
    assert entry.param_grid[0] in rs_grid()
    yield "complement-harmonic-dds", (entry.identity, entry.n_values, rs_grid())
    yield "coefficient-errors", _coefficient_errors()


@pytest.mark.parametrize("cid, ns, grid", [case for _, case in _n_major_cases()],
                         ids=[name for name, _ in _n_major_cases()])
def test_n_major_run_matches_each_point_alone(cid, ns, grid):
    """Running every point of an n together gives each point the result,
    error text included, that it gets when run alone."""
    report = verify_closed(cid, ns, grid)
    assert len(report.results) == len(ns) * len(grid)
    assert report.undefined or report.failures
    points = iter(report.results)
    for n in ns:
        for params in grid:
            assert next(points) == verify_closed(cid, [n], [params]).results[0]


def test_grid_free_errors_are_kept_per_n_or_per_call(monkeypatch):
    """1/(k - 2) reads no n, so it raises at k = 2 once in the whole call;
    1/(n - k - 3) raises at k = n - 3 once per n.  Neither runs again at
    another point that reaches it.  r = 1 skips the first, since binom(1, 2)
    is 0, and so meets the second at n = 3 and 4."""
    cid, ns, grid = _coefficient_errors()
    lhs, rhs = (side.summands[0].term.coeff for side in (cid.lhs, cid.rhs))
    calls = count_compiled_evaluations(monkeypatch, at=("n", "k"))
    report = verify_closed(cid, ns, grid)
    assert [p.where for p in report.undefined if "n - k - 3" in p.error] == [
        "(n=3, r=1)", "(n=4, r=1)"]
    assert len(report.undefined) == 11
    assert [n for expr, n, k in calls if expr is lhs and k == 2] == [2]
    assert [n for expr, n, k in calls if expr is rhs and k == n - 3] == [3, 4]


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
        v = to_int(params["v"])
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
        u, v = to_int(params["u"]), to_int(params["v"])
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
# the term kernel against a SymConst oracle

def twice_oracle(affine, point):
    """Twice the affine's value at the point, reading k, n, r, s in order."""
    total = 2 * affine.const
    for name in ("k", "n", "r", "s"):
        c = getattr(affine, name)
        if c:
            if name not in point:
                raise UnboundVariable(f"variable {name!r} is unbound")
            total += c * to_twice(point[name])
    return total


def oracle_term(term, point):
    """A term's value as a SymConst, multiplied out one ``special`` value at
    a time in the documented order: factors in order, an affine one by
    twice/2 or 2/twice, where an Infinite reciprocal binomial makes the term
    0 at once and a zero product makes it 0 after the last factor unless an
    affine factor is 0; then the coefficient; then the bracket pieces in
    order.  The first error met on the way is raised."""
    product, zero_affine = lift(1), False
    for f in term.factors:
        if isinstance(f, FBinom):
            b = special.binom_at(twice_oracle(f.top, point), twice_oracle(f.bot, point))
            if f.power == 1:
                if b is special.INFINITE:
                    raise PoleError(f"infinite binomial factor {f.render()}")
                product = product * lift(b)
            else:
                if b is special.INFINITE:
                    return lift(0)
                if b == 0:
                    raise DivisionByZero(f"zero binomial under reciprocal: {f.render()}")
                product = product * lift(b).inverse()
        else:
            twice = twice_oracle(f.affine, point)
            if f.power == 1:
                product = product * lift(F(twice, 2))
                zero_affine = zero_affine or twice == 0
            elif twice == 0:
                raise DivisionByZero(f"zero affine under reciprocal: {f.render()}")
            else:
                product = product * lift(F(2, twice))
    if product.is_zero and not zero_affine:
        return product
    value = lift(dsl.compile(term.coeff)(point)) * product
    if not term.extras:
        return value
    bracket = lift(0)
    for p in term.extras:
        twice = twice_oracle(p.argument, point)
        if isinstance(p, HPiece):
            bracket = bracket + lift(special.harmonic_at(twice)) * p.coeff
        else:
            if twice == 0:
                raise DivisionByZero(f"bracket reciprocal at zero: {term.render()}")
            bracket = bracket + lift(F(2, twice)) * p.coeff
    return value * bracket


def oracle_side(side, point):
    total = lift(0)
    for sm in side.summands:
        lo = to_int(dsl.compile(sm.lower)(point))
        hi = to_int(dsl.compile(sm.upper)(point))
        for k in range(lo, hi + 1):
            total = total + oracle_term(sm.term, dict(point, k=k))
    return total


def outcome(fn, *args):
    """The value as a SymConst, or the error as (type, text)."""
    try:
        return lift(fn(*args))
    except FinsumError as exc:
        return type(exc), str(exc)


small_ints = st.integers(min_value=-2, max_value=2)
affines = st.builds(Affine, k=small_ints, n=small_ints, r=small_ints, s=small_ints,
                    const=small_ints)
kernel_factors = st.one_of(st.builds(FBinom, affines, affines, st.sampled_from((1, -1))),
                           st.builds(FAffine, affines, st.sampled_from((1, -1))))
piece_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
kernel_pieces = st.one_of(st.builds(HPiece, piece_coeffs, affines),
                          st.builds(RecipPiece, piece_coeffs, affines))
# rational, sqrt(pi)-bearing and ln2-bearing coefficients; each may fail too
KERNEL_COEFFS = ("1", "-3/2", "binom(n, k)", "binom(k + 1/2, 1/2)/(k + 2)", "H(n - 1/2)")
kernel_terms = st.builds(
    lambda coeff, factors, pieces: ClosedTerm(dsl.parse(coeff), tuple(factors), tuple(pieces)),
    st.sampled_from(KERNEL_COEFFS), st.lists(kernel_factors, max_size=4),
    st.lists(kernel_pieces, max_size=3))
half_ints = st.integers(min_value=-6, max_value=6).map(lambda t: half(F(t, 2)))
# a binding is a half-integer, one time in ten absent (None) or not a half-integer
kernel_bindings = st.tuples(half_ints, st.integers(min_value=0, max_value=19)).map(
    lambda drawn: {9: None, 10: F(1, 3)}.get(drawn[1], drawn[0]))


def kernel_point(names, values):
    return {name: value for name, value in zip(names, values) if value is not None}


@settings(max_examples=400, deadline=None)
@given(kernel_terms, st.tuples(kernel_bindings, kernel_bindings, kernel_bindings, kernel_bindings))
def test_eval_term_matches_symconst_oracle(term, values):
    """Value, or error type and text, of random binomial, affine and
    bracket terms at random points, Infinite poles, zero binomials, H poles,
    unbound names and non-half-integer bindings among them."""
    point = kernel_point(("k", "n", "r", "s"), values)
    assert outcome(eval_term, term, point) == outcome(oracle_term, term, point)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(kernel_terms, st.integers(min_value=-2, max_value=1),
                          st.integers(min_value=-1, max_value=3)), min_size=1, max_size=2),
       st.tuples(kernel_bindings, kernel_bindings, kernel_bindings))
def test_eval_side_matches_symconst_oracle(summands, values):
    """The same over whole sides: each term summed over k = lo..hi in order,
    the first error ending the side."""
    side = ClosedSide(tuple(ClosedSummand(term, dsl.parse(str(lo)), dsl.parse(str(lo + span)))
                            for term, lo, span in summands))
    point = kernel_point(("n", "r", "s"), values)
    assert outcome(eval_side, side, point) == outcome(oracle_side, side, point)


def test_error_texts_reachable_only_from_the_api():
    """A beta output with s left unbound, and a term whose reciprocal
    binomial is Infinite at k = lo ahead of a factor reading the unbound s:
    the first k that reaches that factor raises, with these texts."""
    cid = beta_transform(ident("binom-harmonic-gf"))
    for call in (lambda: eval_closed(cid, 3, r=F(1, 2)),
                 lambda: eval_side(cid.lhs, bind(n=3, r="1/2"))):
        with pytest.raises(UnboundVariable) as exc:
            call()
        assert str(exc.value) == "variable 's' is unbound"
    term = ClosedTerm(dsl.Lit(F(1)), factors=(FBinom(Affine(k=1, r=1), Affine(n=1), -1),
                                              FAffine(Affine(k=1, s=1), -1)))
    side = ClosedSide((ClosedSummand(term, dsl.Lit(F(0)), dsl.Lit(F(2))),))
    cid = replace(cid, lhs=side, rhs=side)
    assert eval_term(term, bind(k=0, n="1/2", r=-1)) == 0     # 1/binom(-1, 1/2) = 0
    for call in (lambda: eval_closed(cid, F(1, 2), r=-1),
                 lambda: eval_side(side, bind(n="1/2", r=-1))):
        with pytest.raises(UnboundVariable) as exc:
            call()
        assert str(exc.value) == "variable 's' is unbound"
    # a binding that is not a half-integer fails where it is first read
    with pytest.raises(EvalTypeError) as exc:
        eval_side(side, {"n": F(1, 2), "r": -1, "s": F(1, 3)})
    assert str(exc.value) == "1/3 is not a half-integer"


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


def test_float_reads_split_parts_and_refuses_a_coefficient_in_r_or_s():
    """The split standalone rhs of alt-binom-harmonic-rs runs on the float
    path; a part left as written that reads r has no float evaluator."""
    import mpmath
    side = ident("alt-binom-harmonic-rs").rhs
    pt = bind(n=4, r="3/2", s="1/2")
    with mpmath.workdps(40):
        exact = eval_side(side, pt).to_float(30)
        assert abs(exact - eval_side_float(side, pt, 40)) < mpmath.mpf(10) ** -25
    (entry,) = corpus.load_entries(names={"sqharmonic-full-r"})
    with pytest.raises(ShapeError, match=r"coefficient H\(n\)\*H\(r\) reads r or s"):
        eval_side_float(entry.identity.rhs, bind(n=2, r=1), 30)


@pytest.mark.parametrize("parent", ["alt-binom-harmonic-rs", "complement-harmonic-rs",
                                    "ordertwo-rs"])
@pytest.mark.parametrize("param", ["r", "s"])
def test_float_derivative_check_of_split_parents(parent, param):
    """The parents of shipped d/ds displays differentiate in r and s, and
    each derivative matches a central difference of the float parent."""
    (entry,) = corpus.load_entries(names={parent})
    check = float_derivative_check(entry.identity, param, {"n": 3, "r": 2, "s": 1})
    assert check.passed, (check.max_rel_dev, check.tolerance)
    assert check.max_rel_dev < 1e-8
