"""An oracle for the benchmark's output checks that shares no code with finsum.

It parses the documents' DSL text itself and evaluates it with sympy:
``binom`` at half-odd arguments through Gamma, ``H`` and ``Hm`` through
``sympy.harmonic``, ``sign``, ``floor`` and the ``a_*`` sequences directly.
Transform outputs are checked from their definitions, applied to the power
basis of the seed polynomial that sympy expands: the Beta transform is the
integral against t^(s-1) (1-t)^(r-s), its d/dr and d/ds come from digamma,
and the central transforms are linear functionals given by their moments.
Engine values arrive as rendered text, read with L = log 2 and P = sqrt(pi),
and are compared exactly.

Run alone, it checks one seeded point of every closed corpus entry and the
coefficient vectors of every polynomial entry at one n:

    python3 perfbench/oracle.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import sympy as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

T = sp.Symbol("t")
Q = sp.Rational


class Undefined(Exception):
    """The expression has a pole or divides by zero at this point."""


# ---------------------------------------------------------------------------
# DSL text -> tuples

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,]))")


def _tokens(text):
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise SyntaxError(f"bad DSL text at {pos}: {text!r}")
        out.append(("int", int(m.group(1))) if m.group(1) else
                   ("name", m.group(2)) if m.group(2) else ("op", m.group(3)))
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    out.append(("end", None))
    return out


def parse(text):
    """DSL text to nested tuples: ("lit", Rational), ("var", name),
    (op, a, b) for + - * / ^, ("neg", a), ("call", fn, args),
    ("sum", index, lo, hi, body)."""
    toks = _tokens(str(text))
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take(kind=None, value=None):
        tok = toks[pos[0]]
        if (kind and tok[0] != kind) or (value is not None and tok[1] != value):
            raise SyntaxError(f"expected {value or kind}, got {tok} in {text!r}")
        pos[0] += 1
        return tok

    def expr():
        node = term()
        while peek() in (("op", "+"), ("op", "-")):
            node = (take()[1], node, term())
        return node

    def term():
        node = unary()
        while peek() in (("op", "*"), ("op", "/")):
            node = (take()[1], node, unary())
        return node

    def unary():
        if peek() == ("op", "-"):
            take()
            return ("neg", unary())
        base = atom()
        if peek() == ("op", "^"):
            take()
            return ("^", base, unary())
        return base

    def atom():
        kind, value = take()
        if kind == "int":
            return ("lit", Q(value))
        if (kind, value) == ("op", "("):
            node = expr()
            take("op", ")")
            return node
        if kind == "name":
            if peek() == ("op", "("):
                take()
                args = [expr()]
                while peek() == ("op", ","):
                    take()
                    args.append(expr())
                take("op", ")")
                if value == "sum":
                    return ("sum", args[0][1], args[1], args[2], args[3])
                return ("call", value, tuple(args))
            return ("var", value)
        raise SyntaxError(f"unexpected {value!r} in {text!r}")

    node = expr()
    take("end")
    return node


# ---------------------------------------------------------------------------
# special values

def _half(x):
    x = sp.nsimplify(x)
    if not (x.is_Rational and (2 * x).is_Integer):
        raise ValueError(f"{x} is not a half-integer")
    return x


def _is_int(x):
    return x.is_Integer


def _gamma(x):
    if _is_int(x) and x <= 0:
        raise Undefined(f"Gamma pole at {x}")
    return sp.gamma(x)


def binom(x, y, reciprocal=False):
    """Generalized binomial at half-integers with the engine's documented
    conventions: a Gamma pole in the denominator gives 0, a sole pole in the
    numerator gives Infinite (and 1/Infinite = 0)."""
    x, y = _half(x), _half(y)
    if _is_int(y):
        if y < 0:
            value = sp.Integer(0)
        else:
            value = sp.Integer(1)
            for i in range(int(y)):
                value *= x - i
            value /= sp.factorial(y)
    elif _is_int(x - y) and x - y >= 0:
        return binom(x, x - y, reciprocal)
    elif _is_int(x - y) and x - y < 0:
        value = sp.Integer(0)
    elif _is_int(x) and x < 0:
        if reciprocal:
            return sp.Integer(0)
        raise Undefined(f"binom({x}, {y}) is infinite")
    else:
        value = sp.gamma(x + 1) / (sp.gamma(y + 1) * sp.gamma(x - y + 1))
    if reciprocal:
        if value == 0:
            raise Undefined(f"1/binom({x}, {y}) with binom = 0")
        return 1 / value
    return value


_H = {}


def harmonic(x):
    x = _half(x)
    if _is_int(x) and x < 0:
        raise Undefined(f"H({x}) is a pole")
    if x not in _H:
        value = sp.harmonic(x)
        if not _is_int(x):
            value = sp.expand(value.rewrite(sp.digamma))
        _H[x] = value
    return _H[x]


def _int(x, what):
    x = sp.nsimplify(x)
    if not x.is_Integer:
        raise ValueError(f"{what} must be an integer, got {x}")
    return int(x)


def _call(fn, args):
    if fn == "binom":
        return binom(*args)
    if fn == "rbinom":
        return binom(*args, reciprocal=True)
    if fn == "H":
        return harmonic(args[0])
    if fn == "Hm":
        return sp.harmonic(_int(args[0], "Hm n"), _int(args[1], "Hm m"))
    if fn in ("O", "Om"):
        n = _int(args[0], fn)
        m = _int(args[1], fn) if fn == "Om" else 1
        return sum((Q(1, (2 * j - 1) ** m) for j in range(1, n + 1)), sp.Integer(0))
    if fn == "kron":
        return sp.Integer(1 if _half(args[0]) == _half(args[1]) else 0)
    if fn == "fact":
        return sp.factorial(_int(args[0], "fact"))
    if fn == "sign":
        return sp.Integer((-1) ** (_int(args[0], "sign") % 2))
    if fn == "floor":
        return sp.floor(_half(args[0]))
    if fn in ("a_recip", "a_recipsq", "a_altrecip"):
        j = _int(args[0], fn)
        if j == 0:
            raise Undefined(f"{fn}(0)")
        return {"a_recip": Q(1, j), "a_recipsq": Q(1, j * j),
                "a_altrecip": Q((-1) ** ((j + 1) % 2), j)}[fn]
    if fn == "a_one":
        _half(args[0])
        return sp.Integer(1)
    raise ValueError(f"unknown function {fn!r}")


# ---------------------------------------------------------------------------
# evaluation: scalars are sympy numbers, t-bearing values are Poly in t

def _poly(x):
    return x if isinstance(x, sp.Poly) else sp.Poly(x, T, domain="EX")


def evaluate(node, env):
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "var":
        if node[1] == "t" and "t" not in env:
            return sp.Poly(T, T, domain="EX")
        return env[node[1]]
    if kind == "neg":
        return -evaluate(node[1], env)
    if kind in ("+", "-", "*"):
        a, b = evaluate(node[1], env), evaluate(node[2], env)
        if isinstance(a, sp.Poly) or isinstance(b, sp.Poly):
            a, b = _poly(a), _poly(b)
        return a + b if kind == "+" else a - b if kind == "-" else a * b
    if kind == "/":
        a, b = evaluate(node[1], env), evaluate(node[2], env)
        if isinstance(b, sp.Poly):
            if b.degree() > 0:
                raise ValueError("division by a polynomial")
            b = b.as_expr()
        if b == 0:
            raise Undefined("division by zero")
        return _poly(a) * (1 / b) if isinstance(a, sp.Poly) else a / b
    if kind == "^":
        base, exponent = evaluate(node[1], env), _int(evaluate(node[2], env), "exponent")
        if exponent < 0 and (isinstance(base, sp.Poly) or base == 0):
            raise Undefined("negative power of zero or of a polynomial")
        return base ** exponent
    if kind == "call":
        if node[1] == "U":
            return sp.Poly(sp.chebyshevu(_int(evaluate(node[2][0], env), "U"), T), T, domain="EX")
        return _call(node[1], [evaluate(a, env) for a in node[2]])
    if kind == "sum":
        _, index, lo, hi, body = node
        total = sp.Integer(0)
        inner = dict(env)
        for i in range(_int(evaluate(lo, env), "sum bound"), _int(evaluate(hi, env), "sum bound") + 1):
            inner[index] = sp.Integer(i)
            value = evaluate(body, inner)
            total = _poly(total) + value if isinstance(value, sp.Poly) else total + value
        return total
    raise ValueError(f"bad node {node!r}")


def _env(n, params):
    env = {"n": sp.Integer(n)}
    for name, value in (params or {}).items():
        env[name] = Q(str(value))
    return env


def closed_side(side, n, params):
    """Value of a closed document side at one point."""
    env = _env(n, params)
    total = sp.Integer(0)
    for s in side.get("sums", ()):
        body = parse(s["coeff"])
        inner = dict(env)
        for k in range(_int(evaluate(parse(s["lower"]), env), "lower"),
                       _int(evaluate(parse(s["upper"]), env), "upper") + 1):
            inner["k"] = sp.Integer(k)
            total += evaluate(body, inner)
    if "expr" in side:
        total += evaluate(parse(side["expr"]), env)
    return sp.expand(total)


def _affine(value, k, n):
    ck, cn, c = workloads.affine(value)
    return ck * k + cn * n + c


def poly_side(side, n):
    """Coefficient vector (ascending powers of t) of a polynomial side."""
    env = _env(n, {})
    if side["kind"] == "poly":
        value = _poly(evaluate(parse(side["expr"]), env))
    else:
        value = sp.Poly(0, T, domain="EX")
        for term in side["terms"]:
            coeff = parse(term["coeff"])
            sign = -1 if term.get("base", "1-t") == "1-t" else 1
            inner = dict(env)
            for k in range(_int(evaluate(parse(str(term.get("lower", "0"))), env), "lower"),
                           _int(evaluate(parse(str(term.get("upper", "0"))), env), "upper") + 1):
                inner["k"] = sp.Integer(k)
                c = evaluate(coeff, inner)
                if c == 0:
                    continue
                a = _affine(term.get("t_exp", 0), k, n)
                b = _affine(term.get("base_exp", 0), k, n)
                value += sp.Poly(c * T ** a * (1 + sign * T) ** b, T, domain="EX")
    coeffs = [sp.expand(c) for c in reversed(value.all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# transforms, from the seed polynomial's power basis

def seed_coefficients(doc, n):
    lhs, rhs = poly_side(doc["lhs"], n), poly_side(doc["rhs"], n)
    if not equal_lists(lhs, rhs):
        raise AssertionError(f"{doc['name']}: seed sides differ at n={n}")
    return rhs


def transform_values(job, doc, n, params):
    """Value of each output of a transform job at one point; both sides of
    every output must equal it."""
    p = seed_coefficients(doc, n)
    ops = job["ops"]
    if ops[0] == "beta":
        r, s = Q(params["r"]), Q(params["s"])
        total = sp.Integer(0)
        for j, c in enumerate(p):
            if job["flip"]:
                c = c * (-1) ** j
            weight = _gamma(j + s) * _gamma(r - s + 1) / _gamma(j + r + 1)
            if ops[1:] == ["ddr"]:
                weight *= sp.digamma(r - s + 1) - sp.digamma(j + r + 1)
            elif ops[1:] == ["dds"]:
                weight *= sp.digamma(j + s) - sp.digamma(r - s + 1)
            total += c * weight
        return [sp.expand(total)]
    v = Q(job["v"])
    if ops == ["central_v"]:
        def moment(j):
            if j % 2:
                return 0
            i = j // 2
            return Q(1, 4 ** i) * binom(2 * i, i) * binom(i + v / 2, v / 2, reciprocal=True)
        dual = sp.Poly(sum(c * T ** j for j, c in enumerate(p)), T).compose(sp.Poly(-1 - T, T))
        dual = list(reversed(dual.all_coeffs()))
        return [sp.expand(sum(c * moment(j) for j, c in enumerate(coeffs)))
                for coeffs in (p, dual)]
    u = Q(job["u"])
    total = sp.Integer(0)
    for j, c in enumerate(p):
        total += (c * (-1) ** j * Q(1, 4 ** j) * binom(u, u / 2) * binom(2 * j + v, j + v / 2)
                  * binom(j + (u + v) / 2, u / 2, reciprocal=True))
    return [sp.expand(total)]


# ---------------------------------------------------------------------------
# engine values and exact comparison

_L, _P = sp.log(2), sp.sqrt(sp.pi)


def engine_value(text):
    """Rendered engine constant (p/q, L = ln2, P = sqrt(pi)) as a sympy number.
    Terms are joined by " + " and " - "; exponents carry no spaces."""
    pieces = re.split(r"\s([+-])\s", text.strip())
    total = sp.Integer(0)
    for sign, body in [("+", pieces[0])] + list(zip(pieces[1::2], pieces[2::2])):
        value = sp.Integer(-1 if sign == "-" else 1)
        if body.startswith("-"):
            value, body = -value, body[1:]
        for factor in body.split("*"):
            m = re.fullmatch(r"([LP])(?:\^(-?\d+))?", factor)
            if m:
                value *= (_L if m.group(1) == "L" else _P) ** int(m.group(2) or 1)
            else:
                value *= Q(factor)
        total += value
    return total


def same(a, b):
    return sp.expand_log(sp.expand(a - b), force=True) == 0


def equal_lists(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return all(same(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# stand-alone check of the corpus

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads.require_layout()
    import checks
    import run as bench
    job = workloads.unit_jobs("corpus", args.seed)[0]
    job["samples_only"] = True
    out = bench.run_job(job)
    problems = checks.oracle_problems(job, out["samples"], workloads.load_documents(),
                                      workloads.load_recorded())
    for line in problems:
        print(line)
    counts = {kind: len(out["samples"].get(kind, ())) for kind in ("closed", "poly", "check")}
    print(json.dumps({"agree": not problems, "checked": counts}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
