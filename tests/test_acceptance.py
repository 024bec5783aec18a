"""Acceptance gate: seven end-to-end criteria over the shipped corpus and the
transform engine.  Each criterion prints one PASS/FAIL line directly to the
terminal (bypassing capture) so the verdicts always appear in run logs."""

import random
import sys
import time
from fractions import Fraction

import pytest

from finsum import beta, corpus, dsl, polyverify, special
from finsum.beta import (Affine, ClosedIdentity, ClosedSide, ClosedSummand,
                         ClosedTerm, FBinom, FRecipAffine)
from finsum.field import HalfInt, SymConst
from finsum.model import admissible

F = Fraction
R = SymConst.rational


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    """Route criterion verdict lines past pytest capture to the real stdout."""
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _announce(number, title, ok, detail=""):
    line = f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    _emit("\n" + line)
    assert ok, line


def _log(msg):
    _emit(f"  {msg}")


def _spot(entry_name, expect, n, **params):
    entries = corpus.load_entries(names={entry_name})
    lhs, rhs = beta.eval_closed(entries[0].identity, n, **params)
    pt = ", ".join([f"n={n}"] + [f"{k}={v}" for k, v in params.items()])
    _log(f"{entry_name} at ({pt}): lhs={lhs} rhs={rhs}")
    assert lhs == rhs == R(F(expect)), (entry_name, str(lhs), str(rhs))


def test_criterion_1_polynomial_suite():
    start = time.monotonic()
    entries = [e for e in corpus.load_entries() if not e.identity.is_closed]
    reports = [corpus.run_entry(e) for e in entries]
    bad = [r for r in reports if not (r.matched and r.actual == "equal")]
    elapsed = time.monotonic() - start
    ok = not bad and len(entries) >= 20 and elapsed < 10.0
    _announce(1, "polynomial suite", ok,
              f"{len(entries)} identities over their full n ranges in {elapsed:.1f}s"
              + (f"; failing: {[r.name for r in bad]}" if bad else ""))


def test_criterion_2_transform_soundness():
    start = time.monotonic()
    entries = [e for e in corpus.load_entries() if e.identity.is_standard]
    rs = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)]
    grid = tuple({"r": r, "s": s} for r in rs for s in rs if admissible(r, s))
    bad = []
    for e in entries:
        n_values = [n for n in e.n_values if n <= 12]
        cid = beta.beta_transform(beta.normalized_for_beta(e.identity))
        for c in (cid, beta.differentiate(cid, "s"), beta.differentiate(cid, "r")):
            rep = beta.verify_closed(c, n_values, grid)
            if rep.undefined or not rep.all_equal:
                bad.append((e.name, c.provenance))
    elapsed = time.monotonic() - start
    ok = not bad and len(entries) >= 15 and elapsed < 30.0
    _announce(2, "transform and derivative soundness", ok,
              f"{len(entries)} standard identities x (weight, d/ds, d/dr) x "
              f"{len(grid)} admissible (r, s) points in {elapsed:.1f}s"
              + (f"; failing: {bad}" if bad else ""))


def test_criterion_3_closed_form_suite():
    start = time.monotonic()
    entries = [e for e in corpus.load_entries()
               if e.identity.is_closed and e.identity.status == "verified"]
    reports = [corpus.run_entry(e) for e in entries]
    bad = [r for r in reports if not (r.matched and r.actual == "equal")]
    elapsed = time.monotonic() - start
    _spot("alt-binom-harmonic-rs", "1/2", 1, r=1, s=1)
    _spot("central-ratio-sum", "1/3", 1)
    _spot("cheb-binom-fraction", "-2", 1)
    _spot("choi-sqharmonic", "1/4", 2)
    _spot("ordertwo-halfshift", "7/12", 2)
    ok = not bad and len(entries) >= 70 and elapsed < 60.0
    _announce(3, "stated closed-form suite", ok,
              f"{len(entries)} closed identities on their declared grids in {elapsed:.1f}s"
              + (f"; failing: {[r.name for r in bad]}" if bad else ""))


def test_criterion_4_negative_detection():
    problems = []

    def expect_witness(name, n, want_lhs, want_rhs, status):
        entry = corpus.load_entries(names={name})[0]
        report = corpus.run_entry(entry)
        lhs, rhs = beta.eval_closed(entry.identity, n,
                                    **dict(entry.witness.params))
        good = (entry.identity.status == status
                and report.actual == "unequal" and report.matched
                and lhs == R(F(want_lhs)) and rhs == R(F(want_rhs)))
        _log(f"{name} at n={n}: lhs={lhs} rhs={rhs} (status {entry.identity.status})")
        if not good:
            problems.append(name)

    expect_witness("choi-ordertwo-claim", 2, "7/12", "-1/12", "erratum_claimed")
    expect_witness("central-harmonic-claim", 1, "-5/4", "-5/8", "disputed")

    # the engine's own limit convention keeps the transformed identity true
    # at an inadmissible point instead of flagging a false mismatch
    seed = corpus.load_entries(names={"binom-harmonic-gf"})[0].identity
    cid = beta.beta_transform(seed)
    for n in range(0, 9):
        lhs, rhs = beta.eval_closed(cid, n, r=-1, s=F(-1, 2))
        if lhs != rhs:
            problems.append(f"limit convention at n={n}")
    _announce(4, "negative detection with witnesses", not problems,
              f"problems: {problems}" if problems else
              "both false claims flagged, limit convention verified")


def test_criterion_5_special_function_suites():
    problems = []
    HALF = F(1, 2)
    LN2 = SymConst.monomial(1, ln2_exp=1)

    def H(q):
        return special.harmonic(HalfInt.from_value(F(q)))

    def B(x, y):
        return special.gen_binom(HalfInt.from_value(F(x)), HalfInt.from_value(F(y)))

    def O(n):
        return SymConst.rational(special.odd_harmonic_m(n, 1))

    # half-integer harmonic relations, n = 0..20
    for n in range(0, 21):
        checks = [
            H(n - HALF) == 2 * O(n) - 2 * LN2,
            H(n + HALF) - H(-HALF) == 2 * O(n + 1),
            H(n + HALF) - H(HALF) == 2 * (O(n + 1) - 1),
            H(n + HALF) - H(n - HALF) == R(F(2, 2 * n + 1)),
        ]
        if not all(checks):
            problems.append(f"harmonic relations at n={n}")

    # two-parameter binomial reductions, r, s = 0..12
    for r in range(0, 13):
        for s in range(0, r + 1):
            c2s, crs = B(2 * s, s).value, B(r, s).value
            ok = (B(r + HALF, s).value * crs * F(4) ** s
                  == B(2 * r + 1, 2 * s).value * c2s)
            ok = ok and (B(r - HALF, s).value * B(2 * (r - s), r - s).value * F(4) ** s
                         == B(2 * r, r).value * crs)
            want = (SymConst.monomial(1, sqrtpi_exp=-2)
                    * R(F(4) ** (r + 1) / (s + 1)) * crs
                    * B(2 * (r - s), r - s).value.inverse()
                    * B(2 * (s + 1), s + 1).value.inverse())
            ok = ok and B(r, s + HALF).value == want
            if not ok:
                problems.append(f"binomial reductions at r={r}, s={s}")

    # Pascal, symmetry, and the Gamma recurrence on |x|, |y| <= 10
    grid = [F(p, 2) for p in range(-20, 21)]
    for x in grid:
        for y in grid:
            parts = [B(x, y), B(x - 1, y), B(x - 1, y - 1)]
            if not any(p.infinite for p in parts):
                if parts[0].value != parts[1].value + parts[2].value:
                    problems.append(f"Pascal at ({x}, {y})")
            if not (x.denominator == 1 and x < 0):
                a, b = B(x, y), B(x, x - y)
                if not (a.infinite or b.infinite) and a.value != b.value:
                    problems.append(f"symmetry at ({x}, {y})")
    for p in range(-7, 12):
        q = F(p, 2)
        if q.denominator == 1:
            continue
        if special.gamma_half(HalfInt.from_value(q + 1)) != \
                R(q) * special.gamma_half(HalfInt.from_value(q)):
            problems.append(f"Gamma recurrence at {q}")

    # Beta integral oracle, u, v in [0, 8]
    from math import comb
    for u in range(0, 9):
        for v in range(0, 9):
            p = polyverify.DensePoly([R(0)] * u + [R(1)]) \
                * polyverify.binomial_power("1-t", v)
            if polyverify.integrate_unit(p).as_rational() != \
                    F(1, comb(u + v + 1, u + 1) * (u + 1)):
                problems.append(f"Beta integral at ({u}, {v})")

    # Chebyshev moment oracles, n = 0..10
    for n in range(0, 11):
        u2n = polyverify.eval_poly(dsl.parse("U(2*n)"), {"n": HalfInt.from_value(n)})
        if polyverify.integrate_unit(u2n).as_rational() != F(1, 2 * n + 1):
            problems.append(f"Chebyshev moment at n={n}")
        if n >= 1:
            got = polyverify.integrate_unit(polyverify.cheb_u_sqrt_poly(n)).as_rational()
            if got != F(2 * n - (-1) ** n + 1, 2 * n * (n + 1)):
                problems.append(f"compressed Chebyshev moment at n={n}")

    _announce(5, "special-function suites", not problems,
              f"problems: {problems[:3]}" if problems else
              "harmonic, binomial, Gamma, Beta-integral, and Chebyshev oracles exact")


def test_criterion_6_derivative_cross_check():
    rng = random.Random(20260826)
    worst = 0.0
    problems = []
    for i in range(20):
        # a random transformed-style term: binomial weight plus reciprocals
        c_top = F(rng.randint(0, 3))
        top = Affine(k=F(1), n=F(1), r=F(1), const=c_top)
        bot = Affine(k=F(1), s=F(1))
        power = rng.choice((1, -1))
        factors = [FBinom(top, bot, power), FRecipAffine(bot)]
        if rng.random() < 0.5:
            factors.append(FRecipAffine(Affine(k=F(1), r=F(1), const=F(1))))
        coeff = dsl.parse(rng.choice(("1", "binom(n, k)", "H(k)/(k + 1)",
                                      "sign(k)*binom(n, k)")))
        side = ClosedSide((ClosedSummand(ClosedTerm(coeff, tuple(factors)),
                                         dsl.parse("0"), dsl.parse("n")),))
        cid = ClosedIdentity(f"random-{i}", f"random-{i}", side, side)
        s_val = rng.choice((F(1), F(2), F(1, 2), F(3, 2)))
        r_val = s_val + rng.choice((F(0), F(1), F(1, 2), F(2)))
        point = {"n": rng.randint(2, 5), "r": r_val, "s": s_val}
        param = rng.choice(("r", "s"))
        check = beta.float_derivative_check(cid, param, point,
                                            h=F(1, 10 ** 6), precision_digits=40)
        worst = max(worst, check.max_rel_dev)
        if not check.passed or check.max_rel_dev > 1e-8:
            problems.append((i, param, point, check.max_rel_dev))
    _announce(6, "derivative cross-check", not problems,
              f"20 randomized terms, worst relative deviation {worst:.2e}"
              + (f"; problems: {problems}" if problems else ""))


def test_criterion_7_corpus_coverage():
    problems = corpus.check_coverage()
    manifest = corpus.load_manifest()
    n_items = len(manifest.get("paper_equations", []))
    _announce(7, "source coverage checklist", not problems and n_items > 100,
              f"{n_items} checklist items, {len(problems)} problem(s)"
              + (f": {problems[:3]}" if problems else ""))
