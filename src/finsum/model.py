"""Identity data model and the on-disk (JSON) document format.

An identity has two sides; each side is either

* ``StandardSide``: a list of terms coeff(k,n) * t^a * (1+-t)^b with affine
  exponents a, b in (k, n),
* ``PolySide``: a single DSL expression containing the indeterminate t, or
* ``ClosedSide``: t-free summands plus an optional standalone expression.

Both sides must be closed, or both t-bearing.  A closed summand holds a
``ClosedTerm``: a loaded document gives it only a coefficient, and the
``beta`` transforms add binomial and reciprocal factors and a derivative
bracket, so loaded and derived closed sums are the same objects.
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

    Every coefficient is an integer: document exponents are integer forms in
    k and n, and the transforms add integer multiples of r and s.  An
    integral Fraction is stored as an int; any other value raises
    EvalTypeError.
    """

    k: int = 0
    n: int = 0
    r: int = 0
    s: int = 0
    const: int = 0

    def __post_init__(self):
        for name in ("k", "n", "r", "s", "const"):
            c = getattr(self, name)
            if c != int(c):
                raise EvalTypeError(f"affine coefficient {name} = {c} is not an integer")
            object.__setattr__(self, name, int(c))

    @property
    def is_zero(self):
        return not (self.k or self.n or self.r or self.s or self.const)

    def value(self, bindings):
        """Half-integer value under bindings of the names it mentions."""
        return HalfInt(self.twice(bindings))

    def twice(self, bindings):
        """Twice the value under half-integer bindings, as an int."""
        return self.compile_twice()(bindings)

    def compile_twice(self):
        """A closure for ``twice``: integer arithmetic on the bindings'
        ``twice`` values.  An unbound name raises KeyError."""
        terms = [(name, getattr(self, name)) for name in ("k", "n", "r", "s")
                 if getattr(self, name)]
        return dsl.twice_sum(terms, self.const)

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
class FBinom:
    """binom(top, bot)^power factor, power in {1, -1}."""

    top: Affine
    bot: Affine
    power: int = 1

    def render(self):
        body = f"binom({self.top.render()}, {self.bot.render()})"
        return body if self.power == 1 else f"1/{body}"


@dataclass(frozen=True)
class FRecipAffine:
    """1/affine^power factor."""

    affine: Affine
    power: int = 1

    def render(self):
        body = f"({self.affine.render()})"
        return f"1/{body}" if self.power == 1 else f"1/{body}^{self.power}"


@dataclass(frozen=True)
class HPiece:
    """Summand coeff * H(argument) of a derivative bracket."""

    coeff: Fraction
    argument: Affine


@dataclass(frozen=True)
class RecipPiece:
    """Summand coeff / argument of a derivative bracket."""

    coeff: Fraction
    argument: Affine


@dataclass(frozen=True)
class ClosedTerm:
    """coeff times binomial/reciprocal factors times an optional
    harmonic-difference bracket produced by differentiation."""

    coeff: object            # SeqExpr over {k, n, r, s, u, v}
    factors: tuple = ()
    extras: tuple = ()       # bracket pieces; () means no bracket (factor 1)

    def render(self):
        parts = [dsl.render(self.coeff)] + [f.render() for f in self.factors]
        body = " * ".join(parts)
        if self.extras:
            bracket = []
            for p in self.extras:
                c = "" if p.coeff == 1 else ("-" if p.coeff == -1 else f"{p.coeff}*")
                inner = (f"H({p.argument.render()})" if isinstance(p, HPiece)
                         else f"1/({p.argument.render()})")
                bracket.append(f"{c}{inner}")
            body += " * [" + " + ".join(bracket) + "]"
        return body


@dataclass(frozen=True)
class ClosedSummand:
    term: ClosedTerm
    lower: object            # SeqExpr over {n}
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
            ClosedSummand(ClosedTerm(_closed_field(s, "coeff", name)),
                          _closed_field(s, "lower", name, bound=True),
                          _closed_field(s, "upper", name, bound=True))
            for s in sums
        )
        extra = _closed_field(doc, "expr", name) if "expr" in doc else None
        if not summands and extra is None:
            raise FormatError(f"{name}: empty closed side")
        for e in [s.term.coeff for s in summands] + ([extra] if extra is not None else []):
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
                {"coeff": dsl.render(s.term.coeff), "lower": dsl.render(s.lower), "upper": dsl.render(s.upper)}
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
