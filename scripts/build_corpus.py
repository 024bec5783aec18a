#!/usr/bin/env python3
"""Regenerate the shipped corpus (src/finsum/corpus_data/).

Every entry is a self-contained JSON document: the identity itself, its
verification grid, the expected verdict, and (for unequal entries) the
witness point with both exact side values.  The manifest lists the entry
files and carries the source-equation checklist used by the coverage check.

Entries whose source display is provably wrong are stored as printed with
status "disputed" and a witness; statements with unresolved reading issues
are stored as "check", with the verdict the engine reaches asserted and,
where it is unequal, a witness.
"""

import argparse
import json
from pathlib import Path

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "src" / "finsum" / "corpus_data"

RS6 = ["1/2", "1", "3/2", "2", "5/2", "3"]
GRID_RS = {"r": RS6, "s": RS6}
GRID_R = {"r": RS6}


def std(coeff, t=0, base="1-t", b=0, lo="0", hi="n"):
    return {"coeff": coeff, "t_exp": t, "base": base, "base_exp": b,
            "lower": lo, "upper": hi}


def standard(*terms):
    return {"kind": "standard", "terms": list(terms)}


def poly(expr):
    return {"kind": "poly", "expr": expr}


def closed(sums=(), expr=None):
    doc = {"kind": "closed"}
    if sums:
        doc["sums"] = [{"coeff": c, "lower": lo, "upper": hi} for c, lo, hi in sums]
    if expr is not None:
        doc["expr"] = expr
    return doc


K = [1, 0, 0]      # exponent k
N = [0, 1, 0]      # exponent n
NK = [-1, 1, 0]    # exponent n - k


def entries():
    out = []

    def add(name, ref, lhs, rhs, status="verified", n=None, grid=None,
            expected=None, witness=None, parity=None, notes=""):
        doc = {"name": name, "paper_ref": ref, "status": status,
               "lhs": lhs, "rhs": rhs}
        if n is not None:
            doc["n"] = n
        if grid is not None:
            doc["grid"] = grid
        if expected is not None:
            doc["expected"] = expected
        if witness is not None:
            doc["witness"] = witness
        if parity is not None:
            doc["parity"] = parity
        if notes:
            doc["notes"] = notes
        out.append(doc)

    # ------------------------------------------------------------------
    # polynomial seeds
    add("binom-harmonic-gf", "eq.1 (A)",
        standard(std("sign(k-1)*binom(n,k)*H(k)", t=K, lo="1")),
        standard(std("-H(n)", b=N, hi="0"),
                 std("1/k", b=NK, lo="1")),
        n=[0, 24])
    add("binom-harmonic-gf-complement", "eq.2 (B)",
        standard(std("sign(k)*binom(n,k)*H(k)", t=K)),
        standard(std("H(n)", b=N, hi="0"),
                 std("-H(n)", hi="0"),
                 std("H(n-1-k)", t=[0, 0, 1], b=K, hi="n-1")),
        n=[0, 24])
    add("binom-sqharmonic-gf", "eq.3 (C)",
        standard(std("binom(n,k)*H(k)^2", t=K)),
        standard(std("H(n)^2", base="1+t", b=N, hi="0"),
                 std("-(H(n)-2*H(k-1)+H(n-k))/k", base="1+t", b=NK, lo="1")),
        n=[0, 24])
    add("binom-sqharmonic-gf-alt", "eq.3 restatement (Sofo-Batir form)",
        standard(std("binom(n,k)*H(k)^2", t=K)),
        standard(std("H(n)^2", base="1+t", b=N, hi="0"),
                 std("-(H(n)-2*H(k)+H(n-k))/k", base="1+t", b=NK, lo="1"),
                 std("-2/k^2", base="1+t", b=NK, lo="1")),
        n=[0, 24])
    add("binom-ordertwo-gf", "eq.4 (D)",
        standard(std("binom(n,k)*Hm(k,2)", t=K)),
        standard(std("Hm(n,2)", base="1+t", b=N, hi="0"),
                 std("-(H(n)-H(n-k))/k", base="1+t", b=NK, lo="1")),
        n=[0, 24])
    add("binom-sqdiff-gf", "display after eq.3 (H^2 - H^(2) expansion)",
        standard(std("binom(n,k)*(H(k)^2-Hm(k,2))", t=K)),
        standard(std("H(n)^2-Hm(n,2)", base="1+t", b=N, hi="0"),
                 std("2*(H(k-1)-H(n-k))/k", base="1+t", b=NK, lo="1")),
        n=[0, 24])
    # the sequence a_j, spelled at j and at j + 1
    for tag, a_j, a_next in (("recip", "1/j", "1/(j+1)"),
                             ("recipsq", "1/j^2", "1/(j+1)^2"),
                             ("ones", "1", "1"),
                             ("altrecip", "sign(j+1)/j", "sign(j)/(j+1)")):
        add(f"partial-sum-gf-{tag}", "BaSo (3)",
            poly(f"sum(k,1,n,binom(n,k)*sum(j,1,k,{a_j})*t^k)"),
            poly(f"sum(k,0,n-1,sum(j,0,k,binom(k,j)*{a_next}*t^(j+1))*(1+t)^(n-1-k))"),
            n=[0, 24])
    add("dattoli-fraction", "eq.5 (E)",
        standard(std("binom(n,k)*sign(k)/(k+2)", t=K, base="1+t", b=NK)),
        standard(std("binom(n,k)/((k+1)*(k+2))", t=K)),
        n=[0, 24])
    add("chebyshev-poly-pair", "eq.Cheb (F)",
        standard(std("sign(k)*4^k*binom(n+k,n-k)", t=K)),
        standard(std("sign(n-k)*binom(2*n+1,2*k+1)", t=NK, b=K)),
        n=[0, 24])
    add("chebyshev-even-rep", "display before eq.Cheb (U_2n compression)",
        poly("sum(k,0,n,sign(k)*4^k*binom(n+k,n-k)*t^(2*k))"),
        poly("sign(n)*U(2*n)"),
        n=[0, 24])
    add("chebyshev-sqrt-rep", "display before eq.Cheb (U_n via (t^2-1)^k)",
        poly("U(n)"),
        poly("sum(k,0,floor(n/2),binom(n+1,2*k+1)*(t^2-1)^k*t^(n-2*k))"),
        n=[0, 24])
    add("binomial-theorem", "section 3.1 opening display",
        standard(std("1", b=N, hi="0")),
        standard(std("sign(k)*binom(n,k)", t=K)),
        n=[0, 24])
    add("telescoping-geometric", "section 3.1 second seed",
        standard(std("1", t=K, base="1+t", b=NK)),
        standard(std("binom(n+1,k)", t=K)),
        n=[0, 24],
        notes="The middle member (t+1)^(n+1) - t^(n+1) of the printed chain "
              "is the binomial theorem applied to the right side.")
    add("simons", "conclusion, first seed",
        standard(std("binom(n,k)*binom(n+k,k)", t=K)),
        standard(std("sign(n+k)*binom(n,k)*binom(n+k,k)", base="1+t", b=K)),
        n=[0, 24])
    add("narayana", "conclusion, second seed",
        standard(std("binom(n,k-1)*binom(n,k)/n", t=K)),
        standard(std("sign(k)*binom(n+1,k)*binom(2*n-k,n)/(n+1)", b=K)),
        n=[1, 24])
    add("central-binomial-seed", "conclusion, third seed",
        standard(std("4^(n-k)*binom(n,k)*binom(2*k,k)", t=K)),
        standard(std("binom(2*k,k)*binom(2*n-2*k,n-k)", base="1+t", b=K)),
        n=[0, 24])
    add("kb-standard-delta", "eq.uqblgup",
        standard(std("(kron(n,k)*(H(k)+1)-1)/(n-k+kron(n,k))", base="1+t", b=K)),
        standard(std("binom(n,k)*H(k)", t=K)),
        n=[0, 24])
    add("sqharmonic-standard-delta", "display after eq.uqblgup (f, g for eq.3)",
        standard(std("kron(n,k)*H(n)^2-(1-kron(n,k))*(H(n)-2*H(n-k-1+kron(n,k))+H(k))/(n-k+kron(n,k))",
                     base="1+t", b=K)),
        standard(std("binom(n,k)*H(k)^2", t=K)),
        n=[0, 24])
    add("ordertwo-standard-delta", "standard form of eq.4 used by section 5",
        standard(std("kron(n,k)*Hm(n,2)-(1-kron(n,k))*(H(n)-H(k))/(n-k+kron(n,k))",
                     base="1+t", b=K)),
        standard(std("binom(n,k)*Hm(k,2)", t=K)),
        n=[0, 24],
        notes="Section 5 cites the parameters of eq.uqblgup for this theorem; "
              "the substance uses the f, g of eq.4 encoded here.")

    # ------------------------------------------------------------------
    # closed: section 3.1
    add("alt-recip-shift", "eq:ex:_simple_binom_app_1",
        closed(expr="1/(n+1)"),
        closed([("sign(k)*binom(n,k)/(k+1)", "0", "n")]))
    add("alt-harmonic-shift", "second display of section 3.1 first pair",
        closed(expr="H(n)/(n+1)"),
        closed([("sign(k+1)*binom(n,k)*H(k+1)/(k+1)", "0", "n")]),
        status="disputed", n=[0, 8],
        witness={"n": 0, "lhs": "0", "rhs": "-1"},
        notes="The well-known identity carries H(k), not H(k+1); the right "
              "side as printed equals -1/(n+1)^2 at every tested n.")
    add("alt-harmonic-shift-fixed", "second display of section 3.1 first pair, H(k) reading",
        closed(expr="H(n)/(n+1)"),
        closed([("sign(k+1)*binom(n,k)*H(k)/(k+1)", "0", "n")]))
    add("shift-binom-zero", "section 3.1 third display",
        closed([("sign(k)*rbinom(n+1,k+1)/(k+1)", "0", "n")]),
        closed([("sign(k)*binom(n+1,k)/(k+1)", "0", "n")]),
        notes="Both sides are 0 for every n, by the first display of the section.")
    add("shift-binom-harmonic", "section 3.1 fourth display",
        closed([("sign(k)*(H(n-k)-H(n+1))*rbinom(n+1,k+1)/(k+1)", "0", "n")]),
        closed([("sign(k+1)*binom(n+1,k)*H(k+1)/(k+1)", "0", "n")]))

    # ------------------------------------------------------------------
    # closed: section 4.1
    add("alt-binom-harmonic-rs", "eq.bhi8kzc / eq:Intro_example",
        closed([("sign(k-1)*binom(n,k)*rbinom(k+r,s)*H(k)", "1", "n")]),
        closed([("s/(r-s+1)*rbinom(n-k+r,r-s+1)/k", "1", "n")],
               expr="-s/(r-s+1)*H(n)*rbinom(n+r,r-s+1)"),
        grid=GRID_RS)
    add("central-harmonic-claim", "eq.noy1xtq",
        closed([("sign(k)*binom(n,k)*(2*k+1)*binom(2*k,k)*H(k+1)/4^k", "0", "n")]),
        closed([("-2/(n+1)*binom(2*n-2*k,n-k)/(4^(n-k)*k)", "1", "n")],
               expr="binom(2*n,n)/4^n*H(n+1)/(n+1)"),
        status="disputed", n=[0, 8],
        witness={"n": 1, "lhs": "-5/4", "rhs": "-5/8"},
        notes="Stated as the r = -1, s = -1/2 limit of eq.bhi8kzc, but direct "
              "evaluation of that limit gives a different (true) identity; "
              "as printed the sides disagree from n = 1 on.")
    add("frisch-harmonic", "corollary of eq.bhi8kzc (set s = r)",
        closed([("sign(k-1)*binom(n,k)*rbinom(k+r,r)*H(k)", "1", "n")]),
        closed(expr="r/(n+r)*(H(n+r)-H(r))+n/(n+r)^2"),
        grid=GRID_R)
    add("frisch-sum-step", "first display in the proof of the Frisch corollary",
        closed([("sign(k-1)*binom(n,k)*rbinom(k+r,r)*H(k)", "1", "n")]),
        closed([("r/(k*(n-k+r))", "1", "n")], expr="-r/(n+r)*H(n)"),
        grid=GRID_R)
    add("frisch-partialfrac-step", "second display in the proof of the Frisch corollary",
        closed([("1/(k*(n-k+r))", "1", "n")]),
        closed(expr="(H(n)+H(n-1+r)-H(r-1))/(n+r)"),
        n=[1, 16], grid=GRID_R)
    add("frisch-final-step", "third display in the proof of the Frisch corollary",
        closed([("sign(k-1)*binom(n,k)*rbinom(k+r,r)*H(k)", "1", "n")]),
        closed(expr="r/(n+r)*(H(n-1+r)-H(r-1))"),
        grid=GRID_R)
    add("odd-harmonic-product", "theorem after the Frisch corollary, first display",
        closed([("sign(k)*(2*k+1)/(4^k*(k+1))*binom(n,k)*binom(2*k,k)*H(k+1)*O(k+1)",
                 "0", "n")]),
        closed([("1/(n+1)*binom(2*n-2*k,n-k)/(4^(n-k)*k)*(O(n-k)-1)", "1", "n")],
               expr="-binom(2*n,n)/(4^n*(n+1))*H(n+1)*(O(n)-1)"),
        n=[0, 12])
    add("alt-binom-harmonic-dds", "eq.boyhar2",
        closed([("sign(k-1)*binom(n,k)*H(k)*(H(k+r-s)-H(s))*rbinom(k+r,s)", "1", "n")]),
        closed([("-(r+1)/(r-s+1)^2*rbinom(n-k+r,r-s+1)/k", "1", "n"),
                ("-s/(r-s+1)*(H(n-k+s-1)-H(r-s+1))*rbinom(n-k+r,r-s+1)/k", "1", "n")],
               expr="(r+1)*H(n)/(r-s+1)^2*rbinom(n+r,r-s+1)"
                    "-s*H(n)*(H(r-s+1)-H(n+s-1))/(r-s+1)*rbinom(n+r,r-s+1)"),
        grid=GRID_RS)
    add("sqharmonic-general-r", "corollary of eq.boyhar2, main display",
        closed([("sign(k-1)*binom(n,k)*rbinom(k+r,r)*H(k)^2", "1", "n")]),
        closed([("-r*H(n-k+r-1)/(k*(n-k+r))", "1", "n")],
               expr="(H(n+r)-H(r))*(r*H(r)-1)/(n+r)+n/(n+r)^2*(H(r)-1/r)"
                    "+r/(n+r)*H(n)*H(n+r-1)"),
        grid=GRID_R)
    add("choi-sqharmonic", "eq.Choi_id",
        closed([("sign(k-1)*binom(n,k)*H(k)^2/(k+1)", "1", "n")]),
        closed(expr="(3*Hm(n,2)-H(n)^2)/(2*(n+1))"))
    add("wang-sqharmonic", "remark after eq.Choi_id",
        closed([("sign(k)*binom(n,k)*H(k)^2", "1", "n")]),
        closed(expr="H(n)/n-2/n^2"),
        n=[1, 16])
    add("complement-harmonic-rs", "eq.thmfr1",
        closed([("sign(k)*binom(n,k)*rbinom(k+r,s)*H(k)", "0", "n")]),
        closed([("s*H(n-1-k)/(k+s)*rbinom(r+k+1,r-s+1)", "0", "n-1")],
               expr="H(n)*(s/(r-s+1)*rbinom(n+r,r-s+1)-rbinom(r,s))"),
        grid=GRID_RS)
    add("complement-harmonic-compare", "corollary of eq.thmfr1, first display",
        closed([("H(n-1-k)/(k+s)*rbinom(r+k+1,r-s+1)", "0", "n-1")]),
        closed([("-1/(r-s+1)*rbinom(n-k+r,r-s+1)/k", "1", "n")],
               expr="H(n)/s*rbinom(r,s)"),
        grid=GRID_RS,
        notes="The printed right-hand sum starts at k = 0 with a 1/k factor; "
              "encoded from k = 1, which is what the comparison of the two "
              "source identities actually yields.")
    add("harmonic-window-two", "corollary of eq.thmfr1, second display",
        closed([("H(n-k)/((k+s)*(k+1+s))", "0", "n")]),
        closed(expr="(n+1)/(s*(n+1+s))*H(n+1)-(H(n+s)-H(s-1))/(n+1+s)"),
        grid={"s": RS6})
    add("harmonic-window-three", "eq.cor001",
        closed([("H(n-k)/((k+s)*(k+1+s)*(k+2+s))", "0", "n")]),
        closed(expr="(H(n+1)/(s*(s+1))-(H(n+1)+H(n+s)-H(s-1))/(n+1+s)"
                    "+(H(n+1)+H(n+1+s)-H(s))/(n+2+s))/2"),
        grid={"s": RS6})
    add("complement-harmonic-dds", "theorem after eq.cor001 (d/ds of eq.thmfr1)",
        closed([("sign(k)*binom(n,k)*(H(s)-H(k+r-s))*rbinom(k+r,s)*H(k)", "0", "n")]),
        closed([("H(n-1-k)*(s*(k+s)*(H(k+s)-H(r-s+1))+k)/(k+s)^2*rbinom(n+r,r-s+1)",
                 "0", "n-1")],
               expr="H(n)*((r+1)/(r-s+1)^2*rbinom(n+r,r-s+1)"
                    "+s/(r-s+1)*(H(n+s-1)-H(r-s+1))*rbinom(n+r,r-s+1))"
                    "+H(n)*(H(r-s)-H(s))*rbinom(r,s)"),
        status="disputed", n=[0, 8], grid={"r": ["2"], "s": ["1"]},
        witness={"n": 2, "params": {"r": "2", "s": "1"}, "lhs": "1/48", "rhs": "5/48"},
        notes="As printed the final sum carries the k-independent weight "
              "rbinom(n+r, r-s+1); replacing it by rbinom(r+k+1, r-s+1), as in "
              "the parent identity, makes every tested point agree.")
    add("complement-setsr-display", "proof display 'Set s = r in ...'",
        closed([("sign(k)*binom(n,k)*(H(r)-H(k))*rbinom(k+r,r)*H(k)", "0", "n")]),
        closed([("H(n-1-k)*(r*(k+r)*(H(k+r)-1)+k)/((k+r)^2*(n+r))", "0", "n-1")],
               expr="H(n)*((r+1)/(n+r)+r/(n+r)*(H(n+r-1)-1))-H(n)*H(r)"),
        status="disputed", n=[0, 8], grid=GRID_R,
        witness={"n": 3, "params": {"r": "1"}, "lhs": "-53/144", "rhs": "-59/144"},
        notes="Inherits the parent misprint: with 1/(k+r+1) in place of the "
              "1/(n+r) inside the final sum every tested point agrees.")
    add("sqharmonic-full-r", "corollary after the d/ds theorem, main display",
        closed([("sign(k)*binom(n,k)*H(k)^2*rbinom(k+r,r)", "0", "n")]),
        closed([("-r/(n+r)*H(n-1-k)*H(k+r)/(k+r)", "0", "n-1"),
                ("r/(n+r)*H(n-k-1)/(k+r)", "0", "n-1"),
                ("-1/(n+r)*k*H(n+k)/(k+r)^2", "0", "n-1")],
               expr="H(n)*H(r)-H(n)*(1/(n+r)+r/(n+r)*H(n+r-1))"
                    "-r/(n+r)*(H(n-1+r)-H(r-1))"),
        status="check", n=[0, 8], grid={"r": ["1"]}, expected="unequal",
        witness={"n": 2, "params": {"r": "1"}, "lhs": "-1/4", "rhs": "-29/72"},
        notes="Recorded verdict: unequal from n = 2 on (at r = 1 the sides are "
              "-1/4 and -29/72); the H(n+k) factor in the last sum is the "
              "likely misprint.")
    add("sqharmonic-full-particular", "corollary after the d/ds theorem, r = 1 display",
        closed([("sign(k)*binom(n,k)*H(k)^2/(k+1)", "0", "n")]),
        closed([("-1/(n+1)*H(n-k)*H(k)/k", "1", "n"),
                ("-1/(n+1)*k*H(n+k)/(k+1)^2", "0", "n-1")],
               expr="(n*H(n)-H(n)-H(n)^2)/(n+1)+(H(n)^2+Hm(n,2))/(n+1)"),
        status="check", n=[0, 8], expected="unequal",
        witness={"n": 1, "lhs": "-1/2", "rhs": "1/2"},
        notes="The unsubscripted H^2 in the source is read as H(n)^2. "
              "Recorded verdict: unequal from n = 1 on.")

    # ------------------------------------------------------------------
    # closed: section 4.2
    add("ordertwo-rs", "eq.harorder2",
        closed([("sign(k)*binom(n,k)*rbinom(k+r,s)*Hm(k,2)", "0", "n")]),
        closed([("-s/(r-s+1)*(H(n)-H(n-k))/k*rbinom(n-k+r,r-s+1)", "1", "n")],
               expr="s/(r-s+1)*Hm(n,2)*rbinom(n+r,r-s+1)"),
        grid=GRID_RS)
    add("ordertwo-general-r", "corollary of eq.harorder2, main display",
        closed([("sign(k+1)*binom(n,k)*rbinom(k+r,r)*Hm(k,2)", "0", "n")]),
        closed([("-r/(n+r)*H(k)/(k+r)", "0", "n-1")],
               expr="r/(n+r)*H(n)*(H(n-1+r)-H(r-1))"),
        grid=GRID_R)
    add("ordertwo-halfshift", "corollary of eq.harorder2, first particular",
        closed([("sign(k+1)*binom(n,k)*Hm(k,2)/(k+1)", "0", "n")]),
        closed(expr="(H(n)^2+Hm(n,2))/(2*(n+1))"))
    add("ordertwo-double-shift", "corollary of eq.harorder2, second particular",
        closed([("sign(k)*binom(n,k)*Hm(k,2)/((k+1)*(k+2))", "0", "n")]),
        closed(expr="((H(n+1)^2-Hm(n+1,2))/2+H(n)-H(n)*H(n+1)-n/(n+1))/(n+2)"),
        notes="The source prints an overall prefactor 1/(n+1); the sides agree "
              "at every tested n only with 1/(n+2), encoded here.")
    add("choi-ordertwo-claim", "remark after eq.harorder2 corollary (Choi (2.23))",
        closed([("sign(k+1)*binom(n,k)*Hm(k,2)/(k+1)", "1", "n")]),
        closed(expr="(5*Hm(n,2)-3*H(n)^2)/(2*(n+1))"),
        status="erratum_claimed", n=[1, 8],
        witness={"n": 2, "lhs": "7/12", "rhs": "-1/12"},
        notes="The source remark already flags this printed form as incorrect.")

    # ------------------------------------------------------------------
    # closed: section 4.3
    add("dattoli-rs", "eq1.final",
        closed([("binom(n,k)/((k+2)*(k+s))*rbinom(n+r,k+s)", "0", "n")]),
        closed([("sign(k)*binom(n,k)/((k+1)*(k+2)*(k+s))*rbinom(k+r,k+s)", "0", "n")]),
        grid=GRID_RS)
    add("dattoli-general-r", "eq2.final",
        closed([("sign(k)*binom(n,k)/((k+1)*(k+2)*(k+r))", "0", "n")]),
        closed([("fact(n)/fact(n+r)*fact(k+r-1)/fact(k)/(k+2)", "0", "n")]),
        grid={"r": ["1", "2", "3"]})
    add("dattoli-r1", "eq2.final first particular",
        closed([("sign(k)*binom(n,k)/((k+1)^2*(k+2))", "0", "n")]),
        closed(expr="(H(n+2)-1)/(n+1)"))
    add("dattoli-r2", "eq2.final second particular",
        closed([("sign(k)*binom(n,k)/((k+1)*(k+2)^2)", "0", "n")]),
        closed(expr="(n+2-H(n+2))/((n+1)*(n+2))"))
    add("dattoli-r3", "eq2.final third particular",
        closed([("sign(k)*binom(n,k)/((k+1)*(k+2)*(k+3))", "0", "n")]),
        closed(expr="1/(2*(n+3))"))
    add("dattoli-ddr", "eq3.final",
        closed([("binom(n,k)*H(n-k+r-s)/((k+2)*(k+s))*rbinom(n+r,k+s)", "0", "n"),
                ("-H(n+r)*binom(n,k)/((k+2)*(k+s))*rbinom(n+r,k+s)", "0", "n")]),
        closed([("H(r-s)*sign(k)*binom(n,k)/((k+1)*(k+2)*(k+s))*rbinom(k+r,k+s)", "0", "n"),
                ("-sign(k)*binom(n,k)*H(k+r)/((k+1)*(k+2)*(k+s))*rbinom(k+r,k+s)", "0", "n")]),
        grid=GRID_RS)
    add("dattoli-harmonic-r", "eq4.final",
        closed([("sign(k)*binom(n,k)*H(k+r)/((k+1)*(k+2)*(k+r))", "0", "n")]),
        closed([("fact(n)/fact(n+r)*H(n+r)*fact(k+r-1)/fact(k)/(k+2)", "0", "n"),
                ("-fact(n)/fact(n+r)*H(n-k)*fact(k+r-1)/fact(k)/(k+2)", "0", "n")]),
        grid={"r": ["1", "2", "3"]})
    add("dattoli-harmonic-r1", "eq4.final first particular",
        closed([("sign(k)*binom(n,k)*H(k+1)/((k+1)^2*(k+2))", "0", "n")]),
        closed([("-H(n-k)/((k+2)*(n+1))", "0", "n")],
               expr="H(n+1)*(H(n+2)-1)/(n+1)"))
    add("dattoli-harmonic-r2", "eq4.final second particular",
        closed([("sign(k)*binom(n,k)*H(k+2)/((k+1)*(k+2)^2)", "0", "n")]),
        closed([("H(n-k)/((k+2)*(n+1)*(n+2))", "0", "n")],
               expr="1/(n+1)-(H(n+2)^2-H(n+1))/((n+1)*(n+2))"))
    add("dattoli-harmonic-r3", "eq4.final third particular",
        closed([("sign(k)*binom(n,k)*H(k+3)/((k+1)*(k+2)*(k+3))", "0", "n")]),
        closed(expr="(H(n+3)-H(n+1)+(3*n+4)/(2*(n+2)))/(2*(n+3))"))
    add("dattoli-dds", "eq5.final",
        closed([("binom(n,k)*(H(k+s)-H(n-k+r-s))/((k+2)*(k+s))*rbinom(n+r,k+s)", "0", "n"),
                ("-binom(n,k)/((k+2)*(k+s)^2)*rbinom(n+r,k+s)", "0", "n")]),
        closed([("sign(k)*binom(n,k)*(H(k+s)-H(r-s))/((k+1)*(k+2)*(k+s))*rbinom(k+r,k+s)",
                 "0", "n"),
                ("-sign(k)*binom(n,k)/((k+1)*(k+2)*(k+s)^2)*rbinom(k+r,k+s)", "0", "n")]),
        grid=GRID_RS)
    add("dattoli-square-r", "eq6.final",
        closed([("sign(k)*binom(n,k)/((k+1)*(k+2)*(k+r)^2)", "0", "n")]),
        closed([("fact(n)/fact(n+r)*(H(n+r)-H(k+r)+1/(k+r))*fact(k+r-1)/fact(k)/(k+2)",
                 "0", "n")]),
        grid={"r": ["1", "2", "3"]})
    add("dattoli-square-r1", "eq6.final first particular",
        closed([("sign(k)*binom(n,k)/((k+1)^3*(k+2))", "0", "n")]),
        closed(expr="1/(n+2)+H(n+1)*(H(n+2)-1)/(n+1)-(H(n+2)^2-Hm(n+2,2))/(2*(n+1))"))
    add("dattoli-square-r2", "eq6.final second particular",
        closed([("sign(k)*binom(n,k)/((k+1)*(k+2)^3)", "0", "n")]),
        closed(expr="1/(n+1)-(H(n+2)^2+Hm(n+2,2))/(2*(n+1)*(n+2))"))
    add("dattoli-square-r3", "eq6.final third particular",
        closed([("sign(k)*binom(n,k)/((k+1)*(k+2)*(k+3)^2)", "0", "n")]),
        closed(expr="H(n+3)/((n+1)*(n+2)*(n+3))+(n-2)/(4*(n+1)*(n+2))"))
    add("dattoli-setsr-display", "display in the proof of eq6.final",
        closed([("fact(n)/fact(n+r)*(H(k+r)-H(n-k))*fact(k+r-1)/fact(k)/(k+2)", "0", "n"),
                ("-fact(n)/fact(n+r)*fact(k+r-1)/fact(k)/(k+2)", "0", "n")]),
        closed([("sign(k)*binom(n,k)*H(k+r)/((k+1)*(k+2)*(k+r))", "0", "n"),
                ("-sign(k)*binom(n,k)/((k+1)*(k+2)*(k+r)^2)", "0", "n")]),
        status="disputed", n=[0, 8], grid={"r": ["1", "2", "3"]},
        witness={"n": 0, "params": {"r": "2"}, "lhs": "1/8", "rhs": "1/4"},
        notes="Subtracting the two parent identities puts an extra 1/(k+r) "
              "under the second left-hand sum; with it every tested point "
              "agrees, as printed the sides differ from r = 1, n = 1 on.")

    # auxiliary standard sums cited in the section 4 proofs
    add("aux-harmonic-over-k", "Choi_id proof, first standard sum",
        closed([("H(n-k)/k", "1", "n")]),
        closed(expr="H(n)^2-Hm(n,2)"))
    add("aux-harmonic-over-complement", "Choi_id proof, second standard sum",
        closed([("H(n-k)/(n-k+1)", "1", "n")]),
        closed(expr="(H(n)^2-Hm(n,2))/2"))
    add("aux-sum-harmonic", "eq4.final proof, first standard sum",
        closed([("H(n-k)", "0", "n")]),
        closed(expr="(n+1)*(H(n+1)-1)"),
        notes="The source display also lists the reflected form sum H(k).")
    add("aux-sum-k-harmonic", "eq4.final proof, second standard sum",
        closed([("k*H(k)", "0", "n")]),
        closed(expr="n*(n+1)*(2*H(n+1)-1)/4"))
    add("aux-sum-recip-shift2", "eq2.final proof, first standard sum",
        closed([("1/(k+2)", "0", "n")]),
        closed(expr="H(n+2)-1"))
    add("aux-sum-ratio-shift2", "eq2.final proof, second standard sum",
        closed([("(k+1)/(k+2)", "0", "n")]),
        closed(expr="n+2-H(n+2)"))
    add("aux-sum-linear", "eq2.final proof, third standard sum",
        closed([("k+1", "0", "n")]),
        closed(expr="(n+1)*(n+2)/2"))
    add("aux-sum-harmonic-shift1", "eq6.final proof, first standard sum",
        closed([("H(k+1)/(k+2)", "0", "n")]),
        closed(expr="(H(n+2)^2-Hm(n+2,2))/2"))
    add("aux-sum-recip-product", "eq6.final proof, second standard sum",
        closed([("1/((k+1)*(k+2))", "0", "n")]),
        closed(expr="(n+1)/(n+2)"))
    add("aux-sum-harmonic-shift2", "eq6.final proof, third standard sum",
        closed([("H(k+2)/(k+2)", "0", "n")]),
        closed(expr="(H(n+2)^2+Hm(n+2,2))/2-1"))
    add("aux-sum-harmonic-shift3-weighted", "eq6.final proof, fourth standard sum",
        closed([("H(k+3)*(k+1)", "0", "n")]),
        closed(expr="(2*(n-1)*(n+4)*H(n+4)-n^2+n+24)/4"))

    # ------------------------------------------------------------------
    # closed: section 4.4
    add("cheb-rs", "Cheb.eq1",
        closed([("sign(k)*4^k*binom(n+k,n-k)/(k+s)*rbinom(k+r,k+s)", "0", "n")]),
        closed([("sign(n-k)*binom(2*n+1,2*k+1)/(n-k+s)*rbinom(n+r,n-k+s)", "0", "n")]),
        grid=GRID_RS)
    add("cheb-general-r", "Cheb.eq2",
        closed([("sign(k)*4^k*binom(n+k,n-k)/(k+r)", "0", "n")]),
        closed([("sign(n-k)*binom(2*n+1,2*k+1)/(n-k+r)*rbinom(n+r,k)", "0", "n")]),
        grid=GRID_R)
    add("cheb-binom-fraction", "Cheb_binfrac",
        closed([("sign(n-k)*binom(2*n+1,2*k+1)*rbinom(n,k)", "0", "n")]),
        closed(expr="(sign(n)*(2*n+1)-1)/(2*n)"),
        n=[1, 16])
    add("cheb-moment-step", "display in the Cheb_binfrac proof, alternating form",
        closed([("sign(k)*4^k*binom(n+k,n-k)/(k+1)", "0", "n")]),
        closed(expr="(sign(n)*(2*n+1)-1)/(2*n*(n+1))"),
        n=[1, 16])
    add("cheb-sqrt-moment-sum", "display in the Cheb_binfrac proof, moment form",
        closed([("sign(n-k)*4^k*binom(n+k,n-k)/(k+1)", "0", "n")]),
        closed(expr="(2*n-sign(n)+1)/(2*n*(n+1))"),
        n=[1, 16],
        notes="cos(pi n) in the source equals sign(n) here; the integral form "
              "of the left side is the Chebyshev moment oracle of the tests.")
    add("central-ratio-sum", "eqincor:sum=1/2n+1",
        closed([("sign(k)*4^k/(2*k+1)*binom(n,k)*rbinom(2*k,k)", "0", "n")]),
        closed(expr="1/(2*n+1)"))
    add("central-ratio-sum-k", "second display of the eqincor corollary",
        closed([("sign(k+1)*4^k*k/(2*k+1)*binom(n,k)*rbinom(2*k,k)", "0", "n")]),
        closed(expr="2*n/((2*n+1)*(2*n-1))"))
    add("cheb-half-half", "eq:cor28sum",
        closed([("sign(k)*4^k*binom(n+k,n-k)/(2*k+1)", "0", "n")]),
        closed([("sign(n-k)*4^k/(2*(n-k)+1)*binom(n,k)*binom(2*n+1,2*k+1)"
                 "*rbinom(2*k,k)*rbinom(2*n+1,2*k)", "0", "n")]))
    add("cheb-alt-sign-sum", "eq:sum-1^n/2n+1",
        closed([("sign(k)*4^k*binom(n+k,n-k)/(2*k+1)", "0", "n")]),
        closed(expr="sign(n)/(2*n+1)"))
    add("cheb-moment-even", "display below eq:sum-1^n/2n+1 (U_2n moment)",
        closed([("sign(n-k)*4^k*binom(n+k,n-k)/(2*k+1)", "0", "n")]),
        closed(expr="1/(2*n+1)"),
        notes="sin(pi n) vanishes at every integer n.")
    add("central-ratio-alt", "eq:sum=1/2n-1",
        closed([("sign(k+1)*4^k*binom(n,k)*rbinom(2*k,k)", "0", "n")]),
        closed(expr="1/(2*n-1)"))
    add("cheb-three-half", "corollary with r = s = 3/2",
        closed([("sign(n-k)*4^k/(2*(n-k)+3)*binom(n+1,k)*binom(2*n+1,2*k+1)"
                 "*rbinom(2*k,k)*rbinom(2*n+3,2*k)", "0", "n")]),
        closed(expr="sign(n)*(4*n^2+4*n-1)/((2*n-1)*(2*n+1)*(2*n+3))"))
    add("cheb-t2-moment", "display in the r = s = 3/2 proof (t^2 moment)",
        closed([("sign(n-k)*4^k*binom(n+k,n-k)/(2*k+3)", "0", "n")]),
        closed(expr="(4*n^2+4*n-1)/((2*n-1)*(2*n+1)*(2*n+3))"))
    add("cheb-kweighted-claim", "corollary with the k-weighted fraction, general branch",
        closed([("sign(n-k)*k*binom(2*n+1,2*k+1)*rbinom(n,k)", "0", "n")]),
        closed(expr="(sign(n)*(2*n+1)*(2*n-1)-(2*n^2+1))/(4*(n-1)*n)"),
        status="disputed", n=[2, 8],
        witness={"n": 2, "lhs": "-3", "rhs": "3/4"},
        notes="Splitting the (n+1-k)-weighted sum with Cheb_binfrac gives "
              "-(sign(n)*(2n+1)*(2n-1)+2n^2+1)/(4(n-1)n), which matches every "
              "tested point; as printed the branch is off from n = 2 on.")
    add("cheb-kweighted-n1", "corollary with the k-weighted fraction, n = 1 branch",
        closed([("sign(n-k)*k*binom(2*n+1,2*k+1)*rbinom(n,k)", "0", "n")]),
        closed(expr="1"),
        n=[1, 1])
    add("cheb-k2-display", "first display in the k-weighted corollary proof",
        closed([("sign(n-k)*4^k*binom(n+k,n-k)/(k+2)", "0", "n")]),
        closed([("sign(n-k)*(n+1-k)*binom(2*n+1,2*k+1)*rbinom(n,k)"
                 "/((n+2)*(n+1))", "0", "n")]),
        status="disputed", n=[0, 8],
        witness={"n": 1, "lhs": "5/6", "rhs": "-5/6"},
        notes="Setting r = 2 in Cheb.eq2 carries sign(k), not sign(n-k), on "
              "the left; as printed the display only holds for even n.")
    add("cheb-t3-moment", "display in the k-weighted corollary proof (t^3 moment)",
        closed([("sign(n-k)*4^k*binom(n+k,n-k)/(k+2)", "0", "n")]),
        closed(expr="((2*n+1)*(2*n*(n+1)-3)+3*sign(n))/(4*(n-1)*n*(n+1)*(n+2))"),
        n=[2, 16])
    add("cheb-weighted-aux", "piecewise display in the k-weighted proof, general branch",
        closed([("sign(n-k)*(n+1-k)*binom(2*n+1,2*k+1)*rbinom(n,k)", "0", "n")]),
        closed(expr="(sign(n)*(2*n+1)*(2*n*(n+1)-3)+3)/(4*(n-1)*n)"),
        n=[2, 16])
    add("cheb-weighted-aux-n1", "piecewise display in the k-weighted proof, n = 1 branch",
        closed([("sign(n-k)*(n+1-k)*binom(2*n+1,2*k+1)*rbinom(n,k)", "0", "n")]),
        closed(expr="-5"),
        n=[1, 1])
    add("cheb-ddr", "Cheb_eq3",
        closed([("sign(k+1)*4^k*binom(n+k,n-k)/(k+s)*rbinom(k+r,k+s)*H(k+r)", "0", "n")]),
        closed([("sign(n-k)*binom(2*n+1,2*k+1)/(n-k+s)*rbinom(n+r,n-k+s)"
                 "*(H(k+r-s)-H(n+r)-H(r-s))", "0", "n")]),
        grid=GRID_RS)
    add("cheb-ddr-r", "corollary of Cheb_eq3, first display",
        closed([("sign(k+1)*4^k*binom(n+k,n-k)/(k+r)*H(k+r)", "0", "n")]),
        closed([("sign(n-k)*binom(2*n+1,2*k+1)/(n-k+r)*rbinom(n+r,k)"
                 "*(H(k)-H(n+r))", "0", "n")]),
        grid=GRID_R)
    add("cheb-odd-harmonic", "corollary of Cheb_eq3, second display",
        closed([("sign(k+1)*2*4^k/(2*k+1)*binom(n+k,n-k)*O(k+1)", "0", "n")]),
        closed([("sign(n-k)*4^k/(2*k+1)*binom(n,k)*rbinom(2*k,k)*H(k)", "0", "n")],
               expr="2*sign(n+1)/(2*n+1)*O(n+1)"))
    add("cheb-log-step", "display in the Cheb_eq3 corollary proof",
        closed([("sign(k+1)*4^k/(2*k+1)*binom(n+k,n-k)*H(k+1/2)", "0", "n")]),
        closed([("sign(n-k)*4^k/(2*k+1)*binom(n,k)*rbinom(2*k,k)*(H(k)-H(n+1/2))",
                 "0", "n")]),
        notes="2*O(m+1) - 2*ln2 is written H(m+1/2); the ln2 monomials must "
              "cancel exactly across the sides.")
    add("chu-guo-odd", "remark after the k-weighted corollary, first evaluation",
        closed([("sign(k)*binom(n+2,2*k+1)*rbinom(n,k)", "0", "n")]),
        closed(expr="2"))
    add("chu-guo-even", "remark after the k-weighted corollary, second evaluation",
        closed([("sign(k)*binom(n+2,2*k)*rbinom(n,k)", "0", "n")]),
        closed(expr="-2/n"),
        n=[1, 16])

    # ------------------------------------------------------------------
    # closed: section 5
    add("central-ordertwo-expand", "section 5 theorem 1, first display",
        closed([("binom(n,2*k)*2^(n-2*k)*binom(2*k,k)*Hm(2*k,2)", "0", "floor(n/2)")]),
        closed([("-binom(2*k,k)*2^(n-k)*(H(n)-H(k))/(n-k)", "0", "n-1")],
               expr="binom(2*n,n)*Hm(n,2)"))
    add("central-ordertwo-alt-even", "section 5 theorem 1, second display (even n)",
        closed([("sign(k)*binom(n,k)*binom(2*k,k)/2^k*Hm(k,2)", "0", "n")]),
        closed([("-binom(2*k,k)/4^k*(H(n)-H(2*k))/(n-2*k)", "0", "floor(n/2)-1")],
               expr="binom(n,n/2)/2^n*Hm(n,2)"),
        parity="even")
    add("central-ordertwo-alt-odd", "section 5 theorem 1, second display (odd n)",
        closed([("sign(k)*binom(n,k)*binom(2*k,k)/2^k*Hm(k,2)", "0", "n")]),
        closed([("-binom(2*k,k)/4^k*(H(n)-H(2*k))/(n-2*k)", "0", "floor(n/2)-1")],
               expr="-2*binom(n-1,(n-1)/2)/(2^n*n)"),
        parity="odd", n=[1, 16])
    add("central-ordertwo-v", "eq.d0e2dlw",
        closed([("binom(n,2*k)*2^(n-2*k)*binom(2*k,k)*rbinom(k+v/2,v/2)*Hm(2*k,2)",
                 "0", "floor(n/2)")]),
        closed([("-binom(2*k+v,k+v/2)*2^(n-k)*rbinom(k+v,v/2)*(H(n)-H(k))/(n-k)",
                 "0", "n-1")],
               expr="binom(2*n+v,n+v/2)*rbinom(n+v,v/2)*Hm(n,2)"),
        grid={"v": ["0", "1", "2", "3"]})
    add("central-ordertwo-alt-v-even", "eq.r66cnje (even n)",
        closed([("sign(k)*binom(n,k)/2^k*binom(2*k+v,k+v/2)*rbinom(k+v,v/2)*Hm(k,2)",
                 "0", "n")]),
        closed([("-binom(2*k,k)/4^k*rbinom(k+v/2,v/2)*(H(n)-H(2*k))/(n-2*k)",
                 "0", "floor(n/2)-1")],
               expr="binom(n,n/2)/2^n*rbinom((n+v)/2,v/2)*Hm(n,2)"),
        parity="even", grid={"v": ["0", "1", "2", "3"]})
    add("central-ordertwo-alt-v-odd", "eq.r66cnje (odd n)",
        closed([("sign(k)*binom(n,k)/2^k*binom(2*k+v,k+v/2)*rbinom(k+v,v/2)*Hm(k,2)",
                 "0", "n")]),
        closed([("-binom(2*k,k)/4^k*rbinom(k+v/2,v/2)*(H(n)-H(2*k))/(n-2*k)",
                 "0", "floor(n/2)-1")],
               expr="-2*binom(n-1,(n-1)/2)/(2^n*n)*rbinom((n-1+v)/2,v/2)"),
        parity="odd", n=[1, 16], grid={"v": ["0", "1", "2", "3"]})
    add("central-ordertwo-sym", "section 5 theorem 2, first display",
        closed([("sign(k)*binom(n,k)*binom(2*k,k)/4^k*Hm(k,2)", "0", "n")]),
        closed([("-(H(n)-H(k))/(n-k)*binom(2*k,k)/4^k", "0", "n-1")],
               expr="binom(2*n,n)/4^n*Hm(n,2)"))
    add("central-ordertwo-uv", "section 5 theorem 2, second display",
        closed([("sign(k)*binom(n,k)/4^k*binom(2*k+v,k+v/2)*rbinom(k+(u+v)/2,u/2)"
                 "*Hm(k,2)", "0", "n")]),
        closed([("-binom(v,v/2)*rbinom(u,u/2)*(H(n)-H(k))/(n-k)"
                 "*binom(2*k+u,k+u/2)/4^k*rbinom(k+(u+v)/2,v/2)", "0", "n-1")],
               expr="binom(v,v/2)*rbinom(u,u/2)*binom(2*n+u,n+u/2)"
                    "*rbinom(n+(u+v)/2,v/2)/4^n*Hm(n,2)"),
        grid={"u": ["0", "1", "2"], "v": ["0", "1", "2"]})

    return out


def checklist():
    """(label, category, note) triples covering every source display."""
    c = []

    def item(label, category, note=""):
        c.append({"label": label, "category": category, **({"note": note} if note else {})})

    # section 1 and 2
    item("Boyadzhiev", "entry:binom-harmonic-gf", "same identity as eq.1 up to t -> -t")
    item("Frontczak", "entry:binom-harmonic-gf-complement")
    item("BaSo", "entry:partial-sum-gf-recip,partial-sum-gf-recipsq,"
                 "partial-sum-gf-ones,partial-sum-gf-altrecip")
    item("eq:Intro_example", "entry:alt-binom-harmonic-rs")
    item("intro-cheb-display", "entry:central-ratio-sum")
    item("harmonic-definitions", "definition")
    item("gen_harmonic", "definition")
    item("beta", "suite:tests/test_polyverify.py::test_beta_integral_oracle")
    item("lem.ho", "suite:tests/test_special.py::test_half_integer_harmonic_relations")
    item("psi-half-integer", "definition")
    item("lem.binomial", "suite:tests/test_special.py::test_binomial_reduction_relations")

    # section 3
    item("eq:polynomial_fgWV", "definition")
    item("BP-set", "definition")
    item("eq:side_1", "definition")
    item("eq:side_1-weighted", "suite:tests/test_beta.py::test_weight_rule_examples")
    item("eq:side_1_final", "suite:tests/test_beta.py::test_weight_rule_examples")
    item("eq:side_1_final_diff_s", "suite:tests/test_beta.py::test_derivative_rule_examples")
    item("eq:side_1_final_diff_r", "suite:tests/test_beta.py::test_derivative_rule_examples")
    for i in range(1, 7):
        item(f"eq:id_gen_{i}", "definition")
    item("oneplus-t-remark", "suite:tests/test_model.py::test_substitute_neg_t")
    item("eq:general_idenitty_f(k)g(k)", "definition")
    item("eq:general_idenitty_f(k)g(k)_2",
         "suite:tests/test_beta.py::test_transform_soundness_matches_lemma_form")
    item("eq:general_idenitty_f(k)g(k)_2_diff_s",
         "suite:tests/test_beta.py::test_differentiated_transform_soundness")
    item("eq:general_idenitty_f(k)g(k)x(1-x)x",
         "suite:tests/test_beta.py::test_transform_soundness_matches_lemma_form")
    item("eq:general_idenitty_f(k)g(k)x(1-x)x_diff_s",
         "suite:tests/test_beta.py::test_differentiated_transform_soundness")
    item("cor:general_identity_f(k)g(k)",
         "suite:tests/test_beta.py::test_equal_parameter_specialization")
    item("cor:general_identity_f(k)g(k)x(1-x)",
         "suite:tests/test_beta.py::test_equal_parameter_specialization")
    item("simple-application-seed", "entry:binomial-theorem")
    item("eq:ex:_simple_binom_app_1", "entry:alt-recip-shift")
    item("simple-application-harmonic",
         "entry:alt-harmonic-shift,alt-harmonic-shift-fixed")
    item("telescoping-seed", "entry:telescoping-geometric")
    item("simple-application-pair-1", "entry:shift-binom-zero")
    item("simple-application-pair-2", "entry:shift-binom-harmonic")

    # section 4.1
    item("eq.1", "entry:binom-harmonic-gf")
    item("eq.2", "entry:binom-harmonic-gf-complement")
    item("eq.noy1xtq", "entry:central-harmonic-claim")
    item("eq.bhi8kzc", "entry:alt-binom-harmonic-rs")
    item("rbinom-limit-remark",
         "suite:tests/test_beta.py::test_limit_convention_reproduces_true_identity")
    item("Frisch_thm7", "entry:frisch-harmonic")
    item("frisch-proof-display-1", "entry:frisch-sum-step")
    item("frisch-proof-display-2", "entry:frisch-partialfrac-step")
    item("frisch-proof-display-3", "entry:frisch-final-step")
    item("odd-harmonic-product-display", "entry:odd-harmonic-product")
    item("eq.boyhar2", "entry:alt-binom-harmonic-dds")
    item("sqharmonic-corollary-main", "entry:sqharmonic-general-r")
    item("Choi_id", "entry:choi-sqharmonic")
    item("wang-riordan-display", "entry:wang-sqharmonic")
    item("eq.thmfr1", "entry:complement-harmonic-rs")
    item("thmfr1-corollary-compare", "entry:complement-harmonic-compare")
    item("thmfr1-corollary-window2", "entry:harmonic-window-two")
    item("eq.cor001", "entry:harmonic-window-three")
    item("cor001-partialfrac", "out-of-scope",
         "bare partial-fraction rearrangement, no sum to verify")
    item("thmfr1-dds-theorem", "entry:complement-harmonic-dds")
    item("setsr-proof-display", "entry:complement-setsr-display")
    item("sqharmonic-full-main", "entry:sqharmonic-full-r")
    item("sqharmonic-full-particular", "entry:sqharmonic-full-particular")

    # section 4.2
    item("eq.3", "entry:binom-sqharmonic-gf")
    item("eq.4", "entry:binom-ordertwo-gf")
    item("sofo-batir-restatement", "entry:binom-sqharmonic-gf-alt")
    item("sqdiff-expansion", "entry:binom-sqdiff-gf")
    item("eq.harorder2", "entry:ordertwo-rs")
    item("harorder2-corollary-main", "entry:ordertwo-general-r")
    item("harorder2-corollary-halfshift", "entry:ordertwo-halfshift")
    item("harorder2-corollary-doubleshift", "entry:ordertwo-double-shift")
    item("choi-2.23", "entry:choi-ordertwo-claim")

    # section 4.3
    item("eq.5", "entry:dattoli-fraction")
    item("eq1.final", "entry:dattoli-rs")
    item("eq2.final", "entry:dattoli-general-r")
    item("eq2-particular-1", "entry:dattoli-r1")
    item("eq2-particular-2", "entry:dattoli-r2")
    item("eq2-particular-3", "entry:dattoli-r3")
    item("binom-ratio-display", "out-of-scope",
         "termwise binomial quotient; subsumed by the Pascal/symmetry suite")
    item("eq3.final", "entry:dattoli-ddr")
    item("eq4.final", "entry:dattoli-harmonic-r")
    item("eq4-particular-1", "entry:dattoli-harmonic-r1")
    item("eq4-particular-2", "entry:dattoli-harmonic-r2")
    item("eq4-particular-3", "entry:dattoli-harmonic-r3")
    item("eq5.final", "entry:dattoli-dds")
    item("eq6.final", "entry:dattoli-square-r")
    item("eq6-particular-1", "entry:dattoli-square-r1")
    item("eq6-particular-2", "entry:dattoli-square-r2")
    item("eq6-particular-3", "entry:dattoli-square-r3")
    item("eq6-setsr-display", "entry:dattoli-setsr-display")
    item("aux-sum-recip-shift2", "entry:aux-sum-recip-shift2")
    item("aux-sum-ratio-shift2", "entry:aux-sum-ratio-shift2")
    item("aux-sum-linear", "entry:aux-sum-linear")
    item("aux-sum-harmonic", "entry:aux-sum-harmonic")
    item("aux-sum-k-harmonic", "entry:aux-sum-k-harmonic")
    item("aux-harmonic-over-k", "entry:aux-harmonic-over-k")
    item("aux-harmonic-over-complement", "entry:aux-harmonic-over-complement")
    item("aux-sum-harmonic-shift1", "entry:aux-sum-harmonic-shift1")
    item("aux-sum-recip-product", "entry:aux-sum-recip-product")
    item("aux-sum-harmonic-shift2", "entry:aux-sum-harmonic-shift2")
    item("aux-sum-harmonic-shift3-weighted", "entry:aux-sum-harmonic-shift3-weighted")

    # section 4.4
    item("chebyshev-recurrence", "definition")
    item("u2n-representation", "entry:chebyshev-even-rep")
    item("un-representation", "entry:chebyshev-sqrt-rep")
    item("eq.Cheb", "entry:chebyshev-poly-pair")
    item("Cheb.eq1", "entry:cheb-rs")
    item("Cheb.eq2", "entry:cheb-general-r")
    item("Cheb_binfrac", "entry:cheb-binom-fraction")
    item("cheb-binfrac-proof-sum", "entry:cheb-moment-step")
    item("cheb-binfrac-proof-moment", "entry:cheb-sqrt-moment-sum")
    item("eqincor:sum=1/2n+1", "entry:central-ratio-sum")
    item("eqincor-k-weighted", "entry:central-ratio-sum-k")
    item("eq:cor28sum", "entry:cheb-half-half")
    item("cor28-binom-quotient", "out-of-scope",
         "termwise binomial quotient; subsumed by the Pascal/symmetry suite")
    item("eq:sum-1^n/2n+1", "entry:cheb-alt-sign-sum")
    item("u2n-moment-display", "entry:cheb-moment-even")
    item("eq:sum=1/2n-1", "entry:central-ratio-alt")
    item("cheb-rs32-corollary", "entry:cheb-three-half")
    item("cheb-rs32-moment", "entry:cheb-t2-moment")
    item("cheb-kweighted-corollary",
         "entry:cheb-kweighted-claim,cheb-kweighted-n1")
    item("cheb-kweighted-proof-display-1", "entry:cheb-k2-display")
    item("cheb-kweighted-proof-moment", "entry:cheb-t3-moment")
    item("cheb-kweighted-proof-piecewise",
         "entry:cheb-weighted-aux,cheb-weighted-aux-n1")
    item("Cheb_eq3", "entry:cheb-ddr")
    item("cheb-eq3-corollary-1", "entry:cheb-ddr-r")
    item("cheb-eq3-corollary-2", "entry:cheb-odd-harmonic")
    item("cheb-eq3-proof-display", "entry:cheb-log-step")
    item("chu-guo-remark", "entry:chu-guo-odd,chu-guo-even")

    # section 5
    item("eq.a1lk6eb", "definition")
    item("eq.ly7bawk", "suite:tests/test_beta.py::test_central_transform_v_soundness")
    item("eq.a1vfu08", "suite:tests/test_beta.py::test_central_transform_v_soundness")
    item("lemma17-particular-1",
         "suite:tests/test_beta.py::test_central_particular_displays")
    item("lemma17-particular-2",
         "suite:tests/test_beta.py::test_central_particular_displays")
    item("eq.cnwt5zb", "suite:tests/test_beta.py::test_central_transform_uv_soundness")
    item("lemma18-particular",
         "suite:tests/test_beta.py::test_central_particular_displays")
    item("eq.uqblgup", "entry:kb-standard-delta")
    item("sqharmonic-delta-display", "entry:sqharmonic-standard-delta")
    item("s5-theorem1-display-1", "entry:central-ordertwo-expand")
    item("s5-theorem1-display-2",
         "entry:central-ordertwo-alt-even,central-ordertwo-alt-odd")
    item("eq.d0e2dlw", "entry:central-ordertwo-v")
    item("eq.r66cnje",
         "entry:central-ordertwo-alt-v-even,central-ordertwo-alt-v-odd")
    item("s5-theorem2-display-1", "entry:central-ordertwo-sym")
    item("s5-theorem2-display-2", "entry:central-ordertwo-uv")

    # conclusion
    item("simons-seed", "entry:simons")
    item("narayana-seed", "entry:narayana")
    item("central-binomial-seed", "entry:central-binomial-seed")
    return c


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(DEFAULT_OUT), help="output directory")
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    docs = entries()
    names = [d["name"] for d in docs]
    assert len(names) == len(set(names)), "duplicate entry names"

    files = []
    for doc in docs:
        file_name = doc["name"] + ".json"
        (out_dir / file_name).write_text(json.dumps(doc, indent=1) + "\n")
        files.append(file_name)

    manifest = {"entries": sorted(files), "paper_equations": checklist()}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(files)} entries + manifest to {out_dir}")


if __name__ == "__main__":
    main()
