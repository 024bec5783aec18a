"""Identity data model and the on-disk (JSON) document format.

An identity has two sides; each side is either

* ``StandardSide``: a list of terms coeff(k,n) * t^a * (1+-t)^b with affine
  exponents a, b in (k, n),
* ``PolySide``: a single DSL expression containing the indeterminate t, or
* ``ClosedSide``: t-free summands.

Both sides must be closed, or both t-bearing.  A closed summand holds a
``ClosedTerm``: coefficient times binomial and affine factors times an
optional derivative bracket.  Exponents, factors and bracket pieces read
``dsl.Affine`` arguments; ``model.Affine`` is that type.  The ``beta``
transforms build the factors and the bracket; the loader splits them out of
a document's coefficient once (``split_closed_term``), and loads a
standalone expression as k-free summands over k = 0..0, so loaded and
derived closed sums are the same objects and run the same factor path.  A derived identity is an
``Identity`` too, its ``provenance`` naming its transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import dsl
from .dsl import Affine
from .errors import FormatError, ShapeError
from .field import half

STATUSES = ("verified", "check", "disputed", "erratum_claimed")
GRID_PARAMS = ("r", "s", "u", "v")   # the parameters of a closed identity's grid


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
    """binom(top, bot)^power factor, power in {1, -1}; any other power is a
    ShapeError."""

    top: Affine
    bot: Affine
    power: int = 1

    def __post_init__(self):
        if type(self.power) is not int or self.power not in (1, -1):
            raise ShapeError(f"binomial factor power must be 1 or -1, got {self.power!r}")

    def render(self):
        body = f"binom({self.top.render()}, {self.bot.render()})"
        return body if self.power == 1 else f"1/{body}"


@dataclass(frozen=True)
class FAffine:
    """affine^power factor, power in {1, -1}: the 1/(a+s) of the Beta
    weight, or a loaded coefficient's r/s-reading affine operand."""

    affine: Affine
    power: int = 1

    def __post_init__(self):
        if type(self.power) is not int or self.power not in (1, -1):
            raise ShapeError(f"affine factor power must be 1 or -1, got {self.power!r}")

    def render(self):
        return f"({self.affine.render()})" if self.power == 1 else f"1/({self.affine.render()})"


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
    """coeff times binomial and affine factors times an optional
    harmonic-difference bracket, from differentiation or from the split of
    a loaded coefficient (``split_closed_term``).

    ``coeff_vars`` holds the free variables of ``coeff``, walked once when
    the term is built; a term made by ``replace`` with a new ``coeff`` must
    not pass the old one on.  A split term keeps the coefficient as written
    in ``source``, so that a point where it fails reports the error the
    unsplit coefficient raises."""

    coeff: object            # SeqExpr over {k, n, r, s, u, v}
    factors: tuple = ()
    extras: tuple = ()       # bracket pieces; () means no bracket (factor 1)
    coeff_vars: frozenset = field(default=None, compare=False, repr=False)
    source: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.coeff_vars is None:
            object.__setattr__(self, "coeff_vars", frozenset(dsl.free_vars(self.coeff)))

    def render(self):
        parts = [dsl.render(self.coeff)] + [f.render() for f in self.factors]
        body = " * ".join(parts)
        if self.extras:
            bracket = ""
            for p in self.extras:
                c, x = p.coeff, p.argument
                if isinstance(p, RecipPiece) and x.render().startswith("-"):
                    c, x = -c, -x           # c/(-a) reads -c/a
                if bracket:
                    bracket += " - " if c < 0 else " + "
                elif c < 0:
                    bracket = "-"
                if abs(c) != 1:
                    bracket += f"{abs(c)}*"
                bracket += f"H({x.render()})" if isinstance(p, HPiece) else f"1/({x.render()})"
            body += f" * [{bracket}]"
        return body


@dataclass(frozen=True)
class ClosedSummand:
    """A term summed over k = lower..upper.  ``bound_vars`` holds the free
    variables of ``lower`` and of ``upper``, walked once when the summand
    is built."""

    term: ClosedTerm
    lower: object            # SeqExpr over {n}
    upper: object
    bound_vars: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bound_vars", (frozenset(dsl.free_vars(self.lower)),
                                                frozenset(dsl.free_vars(self.upper))))


@dataclass(frozen=True)
class ClosedSide:
    summands: tuple = ()


@dataclass(frozen=True)
class Identity:
    name: str
    paper_ref: str
    status: str
    lhs: object
    rhs: object
    notes: str = ""
    provenance: str = ""     # e.g. "d/ds(beta_transform(name))"; "" when loaded

    @property
    def is_closed(self):
        return isinstance(self.lhs, ClosedSide)

    @property
    def is_standard(self):
        return isinstance(self.lhs, StandardSide) and isinstance(self.rhs, StandardSide)


def grid_params_read(identity):
    """The grid parameters that a closed identity reads: in a factor, a
    bracket argument, a coefficient or a sum bound."""
    names = set()
    for side in (identity.lhs, identity.rhs):
        for sm in side.summands:
            names.update(sm.term.coeff_vars, *sm.bound_vars)
            affines = [p.argument for p in sm.term.extras]
            for f in sm.term.factors:
                affines += (f.top, f.bot) if isinstance(f, FBinom) else (f.affine,)
            names.update(name for a in affines for name, _ in a.terms)
    return names.intersection(GRID_PARAMS)


def admissible(r, s):
    """Parameter constraint of the transform lemmas:
    r, s not negative integers, s != 0, r - s not a negative integer."""
    r, s = half(r), half(s)
    return not (is_negative_integer(r) or is_negative_integer(s) or s == 0
                or is_negative_integer(r - s))


def is_negative_integer(q):
    """True for a negative integral int or Fraction."""
    return q < 0 and q.denominator == 1


# ---------------------------------------------------------------------------
# document format

def load_identity(document):
    """Parse a decoded identity document into an Identity."""
    if not isinstance(document, dict):
        raise FormatError("identity document must be a JSON object")
    try:
        name = document["name"]
        lhs_doc = document["lhs"]
        rhs_doc = document["rhs"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc}") from exc
    for key in ("name", "paper_ref", "notes"):
        value = document.get(key, "")
        if not isinstance(value, str):
            raise FormatError(f"identity {key!r} must be a string, got {value!r}")
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
        notes=document.get("notes", ""),
    )


def _load_side(doc, name):
    """A side document as a ``StandardSide``, ``PolySide`` or ``ClosedSide``.

    Each closed summand's coefficient is walked once and split into factors,
    a bracket and a rest (``split_closed_term``); a standalone expression
    follows the sums as k-free summands (``_standalone``).  The names of
    that one walk serve the ``t`` check here and later ``grid_params_read``
    and ``beta``'s compilation."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"{name}: side must be an object with a 'kind'")
    kind = doc["kind"]
    if kind == "standard":
        return StandardSide(tuple(_load_term(t, name) for t in _objects(doc, "terms", name)))
    if kind == "poly":
        expr = _dsl_field(doc, "expr", name)
        if "t" not in dsl.free_vars(expr):
            raise FormatError(f"{name}: poly side contains no t")
        return PolySide(expr)
    if kind == "closed":
        summands = [
            ClosedSummand(split_closed_term(_dsl_field(s, "coeff", name)),
                          _dsl_field(s, "lower", name, bound=True),
                          _dsl_field(s, "upper", name, bound=True))
            for s in _objects(doc, "sums", name)
        ]
        if "expr" in doc:
            summands += [ClosedSummand(term, _ZERO, _ZERO)
                         for term in _standalone(_dsl_field(doc, "expr", name), name)]
        if not summands:
            raise FormatError(f"{name}: empty closed side")
        # a split factor or bracket reads only k, n, r and s, so t stays in coeff
        if any("t" in sm.term.coeff_vars for sm in summands):
            raise FormatError(f"{name}: closed side contains t or U(...)")
        return ClosedSide(tuple(summands))
    raise FormatError(f"{name}: unknown side kind {kind!r}")


_SPLIT_PARAMS = ("r", "s")
_ONE = dsl.Lit(Fraction(1))
_ZERO = dsl.Lit(Fraction(0))
_MAX_SPLIT_POWER = 4        # (k+s)^m in a divisor splits into m factors up to this m


def _standalone(expr, name):
    """The terms, summed over k = 0..0, of a standalone expression; a free k
    is a FormatError.  One in r or s, not u or v, is split (``_parts``) and
    each part goes through ``split_closed_term`` with the whole expression
    as its ``source``, where a failing point takes its error from.  Any
    other is one term as written."""
    names = frozenset(dsl.free_vars(expr))
    if "k" in names:
        raise FormatError(f"{name}: standalone expression reads k outside a sum")
    if names.isdisjoint(_SPLIT_PARAMS) or "u" in names or "v" in names:
        return [ClosedTerm(expr, coeff_vars=names)]
    return [replace(split_closed_term(_chain(operands, negated)), source=expr)
            for negated, operands in _parts(expr)]


def _parts(e, negated=False):
    """(negated, operands) of each top-level ``+``/``-`` term of ``e``, a
    product distributed over its first multiplied non-bracket sum in r or s."""
    parts = []
    for term, subtracted in zip(e.operands, e.inverted) if type(e) is dsl.Add else ((e, False),):
        operands = _operands(term)
        i = next((i for i, (divided, node) in enumerate(operands)
                  if not divided and type(node) is dsl.Add and not _bracket(node)
                  and not dsl.free_vars(node).isdisjoint(_SPLIT_PARAMS)), None)
        if i is None:
            parts.append((negated != subtracted, operands))
        else:
            parts += [(neg, operands[:i] + inner + operands[i + 1:])
                      for neg, inner in _parts(operands[i][1], negated != subtracted)]
    return parts


def _operands(e):
    """(divided, node) of each operand of a ``*``/``/`` chain, left to right."""
    return list(zip(e.inverted, e.operands)) if type(e) is dsl.Mul else [(False, e)]


def _chain(operands, negated=False):
    """The ``*``/``/`` chain of (divided, node) operands, or 1; ``negated``
    puts a minus on the first, which is then a multiplied one."""
    if not operands or operands[0][0]:
        operands = [(False, _ONE)] + operands
    elif negated:
        operands = [(False, dsl.Neg(operands[0][1]))] + operands[1:]
    inverted, nodes = zip(*operands)
    return dsl.Mul(nodes, inverted) if len(nodes) > 1 else nodes[0]


def split_closed_term(coeff):
    """The ``ClosedTerm`` of a loaded coefficient: its r/s-reading binomial
    and affine factors and its bracket split out once, so that the
    grid-free rest runs once per (n, k) and the factors on twice-int affines.

    One pass down the top-level ``*``/``/`` chain, whose divisors are
    flattened through products and small integer powers:

    * ``binom``/``rbinom`` of integer-affine arguments in k, n, r, s that
      read r or s become ``FBinom``, of power -1 for a divided ``binom`` or
      a multiplied ``rbinom`` and 1 otherwise;
    * an integer-affine operand that reads r or s becomes ``FAffine``, of
      power -1 when divided and 1 otherwise;
    * the first multiplied sum of ``±H(affine)`` and ``±1/affine`` pieces
      that reads r or s becomes the bracket (one piece may read neither).

    Factors are listed as the product evaluates its operands: divisors
    from right to left, then multiplied operands from left to right.  All
    other operands stay in the coefficient, in order.  A coefficient that
    reads u or v, reads neither r nor s, or has no binomial or affine
    factor to give stays exactly as written.

    The split term has the value of the unsplit one wherever that is
    defined, and fails where it fails with the same error (its ``source``
    gives the error).  It differs only where ``beta._run_term`` zeroes a
    term at an Infinite reciprocal binomial or a zero binomial before its
    other operands run, while the unsplit product runs them and may fail:
    a point no admissible (r, s) reaches in the shipped corpus."""
    operands = _operands(coeff)
    reads = [dsl.free_vars(node) for _, node in operands]   # the one walk of coeff
    names = frozenset().union(*reads)
    if names.isdisjoint(_SPLIT_PARAMS) or "u" in names or "v" in names:
        return ClosedTerm(coeff, coeff_vars=names)
    divisors, multiplied, extras = [], [], ()
    kept, kept_names = [], set()       # (divided, node) left in the coefficient, in order
    for (divided, node), node_names in zip(operands, reads):
        if node_names.isdisjoint(_SPLIT_PARAMS):
            pass                       # kept below
        elif divided:
            parts = _divisor_parts(node)
            found = [_factor(part, True) for part in parts]
            rest = [part for part, f in zip(parts, found) if f is None]
            divisors.append([f for f in found if f is not None])
            if len(rest) < len(parts):
                if rest:
                    kept.append((True, _chain([(False, part) for part in rest])))
                    kept_names.update(*map(dsl.free_vars, rest))
                continue
        else:
            f = _factor(node, False)
            if f is not None:
                multiplied.append(f)
                continue
            if not extras:
                extras = _bracket(node)
                if extras:
                    continue
        kept.append((divided, node))
        kept_names |= node_names
    factors = tuple(f for group in reversed(divisors) for f in group) + tuple(multiplied)
    if not factors:
        return ClosedTerm(coeff, coeff_vars=names)
    return ClosedTerm(_chain(kept), factors, extras, coeff_vars=frozenset(kept_names),
                      source=coeff)


def _divisor_parts(node):
    """A divisor's operands, left to right: its operands up to its last ``/``
    as one part, and each after it flattened through ``*`` and through
    ``^`` by a literal integer from 1 to ``_MAX_SPLIT_POWER``."""
    parts, stack = [], [node]
    while stack:
        e = stack.pop()
        if type(e) is dsl.Mul:
            last = max((i for i, divided in enumerate(e.inverted) if divided), default=0)
            if last:
                parts.append(dsl.Mul(e.operands[:last + 1], e.inverted[:last + 1]))
            stack += reversed(e.operands[last + 1:] if last else e.operands)
        elif (type(e) is dsl.Pow and type(e.exponent) is dsl.Lit
              and e.exponent.value.denominator == 1
              and 1 <= e.exponent.value <= _MAX_SPLIT_POWER):
            stack += [e.base] * e.exponent.value.numerator
        else:
            parts.append(e)
    return parts


def _affine(node):
    """The ``dsl.affine`` of ``node`` when it reads only k, n, r and s; else
    None."""
    affine = dsl.affine(node)
    return None if affine is None or affine.j or affine.u or affine.v else affine


def _reads_grid(affine):
    return affine is not None and bool(affine.r or affine.s)


def _factor(node, divided):
    """The ``FBinom`` or ``FAffine`` that an operand reading r or s spells,
    or None."""
    if type(node) is dsl.Call and node.fn in ("binom", "rbinom"):
        top, bot = (_affine(a) for a in node.args)
        if top is None or bot is None or not (_reads_grid(top) or _reads_grid(bot)):
            return None
        return FBinom(top, bot, -1 if divided == (node.fn == "binom") else 1)
    affine = _affine(node)
    return FAffine(affine, -1 if divided else 1) if _reads_grid(affine) else None


def _bracket(node):
    """The bracket pieces of a sum of ``±H(affine)`` and ``±1/affine``
    terms, left to right, when one of them reads r or s; else ()."""
    pieces, stack = [], [(node, 1)]
    while stack:
        e, sign = stack.pop()
        cls = type(e)
        if cls is dsl.Add:
            stack += reversed([(x, -sign if sub else sign) for x, sub in zip(e.operands, e.inverted)])
        elif cls is dsl.Neg:
            stack.append((e.operand, -sign))
        elif cls is dsl.Call and e.fn == "H":
            affine = _affine(e.args[0])
            if affine is None:
                return ()
            pieces.append(HPiece(Fraction(sign), affine))
        elif cls is dsl.Mul and e.inverted == (False, True) and e.operands[0] == _ONE:
            affine = _affine(e.operands[1])
            if affine is None:
                return ()
            pieces.append(RecipPiece(Fraction(sign), affine))
        else:
            return ()
    return tuple(pieces) if any(_reads_grid(p.argument) for p in pieces) else ()


def _objects(doc, key, name):
    """A side's list of term objects under ``key``; none when it is absent."""
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise FormatError(f"{name}: {doc['kind']} {key!r} must be a list of objects")
    return items


def _dsl_field(doc, key, name, default=None, bound=False):
    """The parsed DSL text of a side or term field; a sum bound may also be
    an integer.  An absent field is ``default`` when one is given."""
    if key not in doc:
        if default is None:
            raise FormatError(f"{name}: missing field {key!r}")
        return dsl.parse(default)
    value = doc[key]
    if not (isinstance(value, str) or (bound and is_json_int(value))):
        raise FormatError(f"{name}: field {key!r} must be DSL text, got {value!r}")
    return dsl.parse(str(value))


def _load_term(doc, name):
    coeff = _dsl_field(doc, "coeff", name)
    t_exp = _load_affine(doc.get("t_exp", [0, 0, 0]), name)
    base = doc.get("base", "1-t")
    base_exp = _load_affine(doc.get("base_exp", [0, 0, 0]), name)
    lower = _dsl_field(doc, "lower", name, default="0", bound=True)
    upper = _dsl_field(doc, "upper", name, default="0", bound=True)
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


def substitute_neg_t(identity):
    """Apply t -> -t: flips (1+t) <-> (1-t) and sign-twists t^a coefficients."""
    if not identity.is_standard:
        raise ShapeError(f"{identity.name}: substitute_neg_t needs standard sides")

    def flip(side):
        out = []
        for term in side.terms:
            coeff = term.coeff
            if not term.t_exp.is_zero:
                coeff = dsl.Mul((dsl.Call("sign", (dsl.parse(term.t_exp.render()),)), coeff), (False, False))
            base = term.base
            if not term.base_exp.is_zero:
                base = "1+t" if base == "1-t" else "1-t"
            out.append(replace(term, coeff=coeff, base=base))
        return StandardSide(tuple(out))

    return replace(identity, lhs=flip(identity.lhs), rhs=flip(identity.rhs))
