"""Identity data model and the on-disk (JSON) document format.

An identity has two sides; each side is either

* ``StandardSide``: a list of terms coeff(k,n) * t^a * (1+-t)^b with affine
  exponents a, b in (k, n),
* ``PolySide``: a single DSL expression containing the indeterminate t, or
* ``ClosedSide``: t-free summands plus an optional standalone expression.

Both sides must be closed, or both t-bearing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from . import dsl
from .errors import EvalTypeError, FormatError, ShapeError
from .field import HalfInt

STATUSES = ("verified", "check", "disputed", "erratum_claimed")


@dataclass(frozen=True)
class Affine:
    """Affine exponent or binomial argument k*k + n*n + r*r + s*s + const.

    Document exponents have integer coefficients in k and n; the transforms
    add r and s.  Hand-built terms may use Fraction coefficients.
    """

    k: int = 0
    n: int = 0
    r: int = 0
    s: int = 0
    const: int = 0

    @property
    def is_zero(self):
        return not (self.k or self.n or self.r or self.s or self.const)

    def value(self, bindings):
        """Half-integer value under bindings of the names it mentions."""
        return HalfInt(self.twice(bindings))

    def twice(self, bindings):
        """Twice the half-integer value, as an int; EvalTypeError when the
        value is not a half-integer."""
        # integer fast path in quarter units; coefficients are halves in
        # every transform the engine produces
        quarters = 0
        for name in ("k", "n", "r", "s"):
            c = getattr(self, name)
            if c:
                t = 2 * c.numerator * bindings[name].twice
                if t % c.denominator:
                    return self._twice_slow(bindings)
                quarters += t // c.denominator
        t = 4 * self.const.numerator
        if t % self.const.denominator:
            return self._twice_slow(bindings)
        quarters += t // self.const.denominator
        if quarters % 2:
            return self._twice_slow(bindings)
        return quarters // 2

    def compile_twice(self):
        """A closure equal to ``self.twice``: integer arithmetic on the
        bindings' twice values when every coefficient is an integer."""
        terms = [(name, getattr(self, name)) for name in ("k", "n", "r", "s")
                 if getattr(self, name)]
        return dsl.twice_sum(terms, self.const) or self.twice

    def _twice_slow(self, bindings):
        total = Fraction(self.const)
        for name in ("k", "n", "r", "s"):
            c = getattr(self, name)
            if c:
                total += c * bindings[name].as_fraction()
        return HalfInt.from_value(total).twice

    def derivative(self, param):
        return getattr(self, param)

    def __add__(self, other):
        return Affine(self.k + other.k, self.n + other.n, self.r + other.r,
                      self.s + other.s, self.const + other.const)

    def __sub__(self, other):
        return Affine(self.k - other.k, self.n - other.n, self.r - other.r,
                      self.s - other.s, self.const - other.const)

    def render(self):
        """DSL text, e.g. ``k + 2*n - 1``."""
        parts = []
        for name in ("k", "n", "r", "s"):
            c = getattr(self, name)
            if c == 0:
                continue
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


@dataclass(frozen=True)
class StdTerm:
    """One standard-form summand: coeff * t^t_exp * base^base_exp, k = lower..upper."""

    coeff: object            # SeqExpr over {k, n}
    t_exp: Affine
    base: str                # "1-t" or "1+t"
    base_exp: Affine
    lower: object            # SeqExpr over {n}
    upper: object            # SeqExpr over {n}


@dataclass(frozen=True)
class StandardSide:
    terms: tuple


@dataclass(frozen=True)
class PolySide:
    expr: object


@dataclass(frozen=True)
class ClosedSummand:
    coeff: object            # SeqExpr over {k, n, r, s, u, v}
    lower: object
    upper: object


@dataclass(frozen=True)
class ClosedSide:
    summands: tuple = ()
    extra: object = None     # optional standalone SeqExpr (may contain sum(...))


@dataclass(frozen=True)
class Identity:
    name: str
    paper_ref: str
    status: str
    lhs: object
    rhs: object
    param_constraints: tuple = ()
    notes: str = ""

    @property
    def is_closed(self):
        return isinstance(self.lhs, ClosedSide)

    @property
    def is_standard(self):
        return isinstance(self.lhs, StandardSide) and isinstance(self.rhs, StandardSide)


def admissible(r, s):
    """Parameter constraint of the transform lemmas:
    r, s not negative integers, s != 0, r - s not a negative integer."""
    r = HalfInt.from_value(r)
    s = HalfInt.from_value(s)
    if r.is_negative_integer or s.is_negative_integer:
        return False
    if s.twice == 0:
        return False
    diff = r - s
    return not diff.is_negative_integer


# ---------------------------------------------------------------------------
# document format

def load_identity(document):
    """Parse an identity document (dict or JSON text) into an Identity."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise FormatError("identity document must be a JSON object")
    try:
        name = document["name"]
        lhs_doc = document["lhs"]
        rhs_doc = document["rhs"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc}") from exc
    status = document.get("status", "verified")
    if status not in STATUSES:
        raise FormatError(f"unknown status {status!r}")
    lhs = _load_side(lhs_doc, name)
    rhs = _load_side(rhs_doc, name)
    if isinstance(lhs, ClosedSide) != isinstance(rhs, ClosedSide):
        raise ShapeError(f"{name}: one side is closed, the other t-bearing")
    return Identity(
        name=name,
        paper_ref=document.get("paper_ref", ""),
        status=status,
        lhs=lhs,
        rhs=rhs,
        param_constraints=tuple(document.get("params", ())),
        notes=document.get("notes", ""),
    )


def _load_side(doc, name):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"{name}: side must be an object with a 'kind'")
    kind = doc["kind"]
    if kind == "standard":
        terms = tuple(_load_term(t, name) for t in doc.get("terms", ()))
        return StandardSide(terms)
    if kind == "poly":
        expr = dsl.parse(doc["expr"])
        if not dsl.is_polynomial(expr):
            raise FormatError(f"{name}: poly side contains no t")
        return PolySide(expr)
    if kind == "closed":
        sums = doc.get("sums", [])
        if not isinstance(sums, list) or not all(isinstance(s, dict) for s in sums):
            raise FormatError(f"{name}: closed 'sums' must be a list of objects")
        summands = tuple(
            ClosedSummand(_closed_field(s, "coeff", name), _closed_field(s, "lower", name, bound=True),
                          _closed_field(s, "upper", name, bound=True))
            for s in sums
        )
        extra = _closed_field(doc, "expr", name) if "expr" in doc else None
        if not summands and extra is None:
            raise FormatError(f"{name}: empty closed side")
        for e in [s.coeff for s in summands] + ([extra] if extra is not None else []):
            if dsl.is_polynomial(e):
                raise FormatError(f"{name}: closed side contains t or U(...)")
        return ClosedSide(summands, extra)
    raise FormatError(f"{name}: unknown side kind {kind!r}")


def _closed_field(doc, key, name, bound=False):
    """The parsed DSL text of a closed-side field; a sum bound may also be an integer."""
    if key not in doc:
        raise FormatError(f"{name}: closed side missing {key!r}")
    value = doc[key]
    if not (isinstance(value, str) or (bound and is_json_int(value))):
        raise FormatError(f"{name}: closed side {key!r} must be DSL text, got {value!r}")
    return dsl.parse(str(value))


def _load_term(doc, name):
    try:
        coeff = dsl.parse(doc["coeff"])
        t_exp = _load_affine(doc.get("t_exp", [0, 0, 0]), name)
        base = doc.get("base", "1-t")
        base_exp = _load_affine(doc.get("base_exp", [0, 0, 0]), name)
        lower = dsl.parse(str(doc.get("lower", "0")))
        upper = dsl.parse(str(doc.get("upper", "0")))
    except KeyError as exc:
        raise FormatError(f"{name}: standard term missing {exc}") from exc
    if base not in ("1-t", "1+t"):
        raise FormatError(f"{name}: bad base {base!r}")
    bad = dsl.free_vars(coeff) - {"k", "n"}
    if bad:
        raise FormatError(f"{name}: standard coeff has stray variables {sorted(bad)}")
    return StdTerm(coeff, t_exp, base, base_exp, lower, upper)


def is_json_int(x):
    """An integer document field; JSON ``true`` is a Python int but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _load_affine(val, name):
    if is_json_int(val):
        return Affine(const=val)
    if isinstance(val, (list, tuple)) and len(val) == 3 and all(map(is_json_int, val)):
        return Affine(k=val[0], n=val[1], const=val[2])
    raise FormatError(f"{name}: exponent {val!r} is not an integer affine form [ck, cn, c]")


def save_identity(identity):
    """Inverse of load_identity (canonical dict form)."""
    return {
        "name": identity.name,
        "paper_ref": identity.paper_ref,
        "status": identity.status,
        "lhs": _save_side(identity.lhs),
        "rhs": _save_side(identity.rhs),
        "params": list(identity.param_constraints),
        "notes": identity.notes,
    }


def _save_side(side):
    if isinstance(side, StandardSide):
        return {"kind": "standard", "terms": [
            {
                "coeff": dsl.render(t.coeff),
                "t_exp": [t.t_exp.k, t.t_exp.n, t.t_exp.const],
                "base": t.base,
                "base_exp": [t.base_exp.k, t.base_exp.n, t.base_exp.const],
                "lower": dsl.render(t.lower),
                "upper": dsl.render(t.upper),
            }
            for t in side.terms
        ]}
    if isinstance(side, PolySide):
        return {"kind": "poly", "expr": dsl.render(side.expr)}
    if isinstance(side, ClosedSide):
        doc = {"kind": "closed"}
        if side.summands:
            doc["sums"] = [
                {"coeff": dsl.render(s.coeff), "lower": dsl.render(s.lower), "upper": dsl.render(s.upper)}
                for s in side.summands
            ]
        if side.extra is not None:
            doc["expr"] = dsl.render(side.extra)
        return doc
    raise EvalTypeError(f"not a side: {side!r}")


def substitute_neg_t(identity):
    """Apply t -> -t: flips (1+t) <-> (1-t) and sign-twists t^a coefficients."""
    if not identity.is_standard:
        raise ShapeError(f"{identity.name}: substitute_neg_t needs standard sides")

    def flip(side):
        out = []
        for term in side.terms:
            coeff = term.coeff
            if not term.t_exp.is_zero:
                coeff = dsl.Mul(dsl.Call("sign", (dsl.parse(term.t_exp.render()),)), coeff)
            base = term.base
            if not term.base_exp.is_zero:
                base = "1+t" if base == "1-t" else "1-t"
            out.append(replace(term, coeff=coeff, base=base))
        return StandardSide(tuple(out))

    return replace(identity, lhs=flip(identity.lhs), rhs=flip(identity.rhs))
