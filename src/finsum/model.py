"""Identity data model and the on-disk (JSON) document format.

An identity has two sides; each side is either

* ``StandardSide``: a list of terms coeff(k,n) * t^a * (1+-t)^b with affine
  exponents a, b in (k, n),
* ``PolySide``: a single DSL expression containing the indeterminate t, or
* ``ClosedSide``: t-free summands.

Both sides must be closed, or both t-bearing.  A closed summand holds a
``ClosedTerm``: a coefficient that reads no grid parameter and no t, times
binomial, affine, factorial and H factors, times an optional derivative
bracket.
Exponents, factors and bracket pieces read ``dsl.Affine`` arguments;
``model.Affine`` is that type.  The ``beta`` transforms build the factors
and the bracket; the loader splits them out of a document's coefficient once
(``split_closed_term``), and loads a standalone expression as k-free
summands over k = 0..0, so loaded and derived closed sums are the same
objects and run the same factor path.  A derived identity is an
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


class FFact(FAffine):
    """fact(affine)^power factor, Gamma(affine + 1)^power: a loaded
    coefficient's grid-reading factorial operand."""

    def render(self):
        return ("" if self.power == 1 else "1/") + f"fact({self.affine.render()})"


class FHarm(FAffine):
    """H(affine) factor, power 1: a lone multiplied H of a loaded coefficient
    that already has its bracket, which the factor multiplies."""

    def render(self):
        return f"H({self.affine.render()})"


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
    """coeff times binomial, affine, factorial and H factors times an
    optional harmonic-difference bracket, from differentiation or from the
    split of a loaded coefficient (``split_closed_term``).

    The coefficient reads no grid parameter and no t: one that does, or
    calls ``U(m)``, is a FormatError here, where the term is built, and so
    is an ``FHarm`` in a term without a bracket.  A split term keeps the
    coefficient as written in ``source``, so that a point where it fails
    reports the error the unsplit coefficient raises."""

    coeff: object            # SeqExpr over {k, n}
    factors: tuple = ()
    extras: tuple = ()       # bracket pieces; () means no bracket (factor 1)
    source: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _refuse_grid_or_t("coefficient", self.coeff)
        if not self.extras and any(type(f) is FHarm for f in self.factors):
            raise FormatError(f"an H factor multiplies a bracket, and {self.render()} has none")

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
    """A term summed over k = lower..upper.  Each bound is walked once when
    the summand is built, and one that reads a grid parameter or t, or
    calls ``U(m)``, is a FormatError."""

    term: ClosedTerm
    lower: object            # SeqExpr over {n}
    upper: object

    def __post_init__(self):
        for bound in (self.lower, self.upper):
            _refuse_grid_or_t("sum bound", bound)


def _grid_read(names):
    """The grid parameters among ``names``, in ``GRID_PARAMS`` order."""
    return [name for name in GRID_PARAMS if name in names]


def _refuse_grid_or_t(what, expr):
    """FormatError naming ``expr`` when, by one walk, it reads a grid
    parameter, which only a factor or a bracket piece reads, or t, which
    no closed term reads (``U(m)`` reads t)."""
    names = dsl.free_vars(expr)
    read = _grid_read(names)
    if read:
        raise FormatError(f"{what} {dsl.render(expr)} reads {', '.join(read)}:"
                          " only a factor or a bracket may read a grid parameter")
    if "t" in names:
        raise FormatError(f"{what} {dsl.render(expr)} reads t or U(...):"
                          " a closed term is free of t")


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
    """The grid parameters that a closed identity reads, all of them in a
    factor or a bracket argument."""
    names = set()
    for side in (identity.lhs, identity.rhs):
        for sm in side.summands:
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

    Each closed summand's coefficient, and a standalone expression as
    k-free summands after the sums, is distributed and split into terms
    (``_split``); a coefficient that keeps a grid parameter, or reads t,
    is a FormatError, and so is a sum bound that reads either."""
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
        summands = []
        for s in _objects(doc, "sums", name):
            terms = _split(_dsl_field(s, "coeff", name), name)
            lower, upper = (_dsl_field(s, key, name, bound=True) for key in ("lower", "upper"))
            try:
                summands += [ClosedSummand(term, lower, upper) for term in terms]
            except FormatError as exc:
                raise FormatError(f"{name}: {exc}") from None
        if "expr" in doc:
            expr = _dsl_field(doc, "expr", name)
            if "k" in dsl.free_vars(expr):
                raise FormatError(f"{name}: standalone expression reads k outside a sum")
            summands += [ClosedSummand(term, _ZERO, _ZERO) for term in _split(expr, name)]
        if not summands:
            raise FormatError(f"{name}: empty closed side")
        return ClosedSide(tuple(summands))
    raise FormatError(f"{name}: unknown side kind {kind!r}")


_ONE = dsl.Lit(Fraction(1))
_ZERO = dsl.Lit(Fraction(0))
_MAX_SPLIT_POWER = 4        # (k+s)^m in a divisor splits into m factors up to this m


def _split(expr, name):
    """The terms of a loaded coefficient or standalone expression.  One
    that reads a grid parameter is split into its ``+ -`` terms, each
    distributed over its multiplied sums (``_parts``), and each part is
    split (``split_closed_term``) with the whole ``expr`` as its
    ``source``, where a failing point takes its error from.  Any other is
    one term as written.  A term that ``ClosedTerm`` refuses is a
    FormatError naming the identity."""
    try:
        if not _grid_read(dsl.free_vars(expr)):
            return [ClosedTerm(expr)]
        return [split_closed_term(_chain(operands, negated), source=expr)
                for term, sign in dsl.signed_terms(expr)
                for negated, operands in _parts(dsl._operands(term), sign < 0)]
    except FormatError as exc:
        raise FormatError(f"{name}: {exc}") from None


def _parts(operands, negated=False):
    """(negated, operands) of each product that the product of the
    (divided, node) ``operands`` distributes into: over its first
    multiplied sum that reads a grid parameter and is neither one affine
    factor nor a bracket, term by term (``dsl.signed_terms``), and so on
    over each product made."""
    i = next((i for i, (divided, node) in enumerate(operands)
              if not divided and type(node) is dsl.Add and _grid_read(dsl.free_vars(node))
              and _factor(node, False) is None and not _bracket(node)), None)
    if i is None:
        return [(negated, operands)]
    return [part for term, sign in dsl.signed_terms(operands[i][1])
            for part in _parts(operands[:i] + dsl._operands(term) + operands[i + 1:],
                               negated != (sign < 0))]


def _chain(operands, negated=False):
    """The ``*``/``/`` chain of (divided, node) operands, or 1
    (``dsl._chain``); ``negated`` puts a minus on the first, which is then
    a multiplied one."""
    if negated:
        if not operands or operands[0][0]:
            operands = [(False, _ONE)] + operands
        operands = [(False, dsl.Neg(operands[0][1]))] + operands[1:]
    return dsl._chain(operands)


def split_closed_term(coeff, source=None):
    """The ``ClosedTerm`` of a loaded product: its grid-reading factors and
    its bracket split out once, so that the grid-free rest runs once per
    (n, k) and the factors on twice-int affines.  Its ``source`` is
    ``source`` when given, else ``coeff`` once split.

    One pass down the top-level ``*``/``/`` chain, whose divisors are
    flattened through products and small integer powers:

    * ``binom``/``rbinom`` of affine arguments that read a grid parameter,
      negated or not, become ``FBinom``, of power -1 for a divided
      ``binom`` or a multiplied ``rbinom`` and 1 otherwise;
    * ``fact`` of such an affine becomes ``FFact``, and such an affine
      operand ``FAffine``, of power -1 when divided and 1 otherwise;
    * the first multiplied sum of ``±H(affine)`` and ``±1/affine`` pieces
      that reads a grid parameter, or lone ``H(affine)``, becomes the
      bracket (one piece may read none); a later lone ``H(affine)`` becomes
      ``FHarm``.

    Factors are listed as the product evaluates its operands: divisors
    from right to left, then multiplied operands from left to right.  All
    other operands stay in the coefficient, in order; if they read a grid
    parameter, building the term is a FormatError.

    The split term has the value of the unsplit one wherever that is
    defined, and fails where it fails with the same error (its ``source``
    gives the error).  It differs only where ``beta._run_term`` zeroes a
    term at an Infinite reciprocal binomial or a zero binomial before its
    other operands run, while the unsplit product runs them and may fail:
    a point no admissible (r, s) reaches in the shipped corpus."""
    operands = dsl._operands(coeff)
    reads = [dsl.free_vars(node) for _, node in operands]   # the one walk of coeff
    if not _grid_read(frozenset().union(*reads)):
        return ClosedTerm(coeff, source=source)
    divisors, multiplied, extras, negated = [], [], (), False
    kept = []                          # (divided, node) left in the coefficient, in order
    for (divided, node), node_names in zip(operands, reads):
        if not _grid_read(node_names):
            pass                       # kept below
        elif divided:
            parts = _divisor_parts(node)
            found = [_factor(part, True) for part in parts]
            rest = [part for part, f in zip(parts, found) if f is None]
            divisors.append([f for f in found if f is not None])
            if len(rest) < len(parts):
                if rest:
                    kept.append((True, _chain([(False, part) for part in rest])))
                continue
        else:
            f = _factor(node, False)
            minus = f is None and type(node) is dsl.Neg     # -binom(...): the minus stays
            if minus:
                f = _factor(node.operand, False)
            if f is not None:
                multiplied.append(f)
                negated ^= minus
                continue
            pieces = _bracket(node)
            if pieces and not extras:
                extras = pieces
                continue
            if pieces and type(node) is dsl.Call:      # a second lone H
                multiplied.append(FHarm(pieces[0].argument))
                continue
        kept.append((divided, node))
    factors = tuple(f for group in reversed(divisors) for f in group) + tuple(multiplied)
    return ClosedTerm(_chain(kept, negated), factors, extras,
                      source=coeff if source is None else source)


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
    """The ``dsl.affine`` of ``node`` when it reads no j; else None."""
    affine = dsl.affine(node)
    return None if affine is None or affine.j else affine


def _reads_grid(affine):
    return affine is not None and bool(_grid_read(dict(affine.terms)))


def _factor(node, divided):
    """The ``FBinom``, ``FFact`` or ``FAffine`` that an operand reading a
    grid parameter spells, or None."""
    if type(node) is dsl.Call and node.fn in ("binom", "rbinom"):
        top, bot = (_affine(a) for a in node.args)
        if top is None or bot is None or not (_reads_grid(top) or _reads_grid(bot)):
            return None
        return FBinom(top, bot, -1 if divided == (node.fn == "binom") else 1)
    cls = FFact if type(node) is dsl.Call and node.fn == "fact" else FAffine
    affine = _affine(node.args[0] if cls is FFact else node)
    return cls(affine, -1 if divided else 1) if _reads_grid(affine) else None


def _bracket(node):
    """The bracket pieces of a sum of ``±H(affine)`` and ``±1/affine``
    terms, or of a lone ``H(affine)``, left to right, when one of them
    reads a grid parameter; else ()."""
    pieces = []
    for e, sign in dsl.signed_terms(node):
        if type(e) is dsl.Call and e.fn == "H":
            piece, affine = HPiece, _affine(e.args[0])
        elif type(e) is dsl.Mul and e.inverted == (False, True) and e.operands[0] == _ONE:
            piece, affine = RecipPiece, _affine(e.operands[1])
        else:
            return ()
        if affine is None:
            return ()
        pieces.append(piece(Fraction(sign), affine))
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
