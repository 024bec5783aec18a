"""Transforms from polynomial identities to closed combinatorial sums.

Three transform families are implemented:

* ``beta_transform``: integrate each coeff * t^a * (1-t)^b summand against the
  Beta kernel, producing the parametric weight 1/((a+s) * binom(a+b+r, a+s)),
* ``differentiate``: d/dr and d/ds of a transformed identity via the
  logarithmic-derivative rule for binomials (harmonic differences; the
  Euler-Mascheroni constant cancels per factor by construction),
* ``central_transform_v`` / ``central_transform_uv``: rewrite an identity of
  the shape  sum f(k)(1+t)^k = sum g(k)t^k  into central-binomial sums with
  one or two free integer parameters; their binomial weights are factors,
  and only f or g and a power of 2 stay in the coefficient.

Every identity, loaded or derived, is a ``model.Identity``, and every closed
side a ``model.ClosedSide`` of ``ClosedTerm`` summands.  A transform returns
its input with new sides and a ``provenance`` naming the transforms applied,
so ``verify_closed`` and ``eval_closed`` take a loaded closed identity and a
derived one alike.

Closed identities are evaluated exactly over half-integer parameter points;
the float evaluator that backs the derivative cross-check is a test oracle
(``tests/float_oracle.py``).  Exact evaluation compiles an identity's sides
once per ``verify_closed`` or ``eval_closed`` call, never at load time and
never per point: each coefficient and sum bound becomes a ``dsl.compile``
closure, and the factors and bracket keep their affine arguments.  A loaded term runs this factor
path too: the loader has split its grid-reading binomials, factorials,
affines and bracket out of its coefficient (``model.split_closed_term``),
and has loaded a standalone expression as k-free terms.  So no coefficient
or sum bound reads a grid parameter (r, s, u, v); the model refuses one.

``verify_closed`` runs n-major: the grid points of one n go through each
summand together (``_run_points``), so each sum bound is evaluated once per
n and each coefficient once per (n, k), not once per point.  The loop
order shares them: a summand's coefficient values live for one n, and
nothing outlives the call.  Each term runs as an integer kernel on
twice-values (``_run_term``), and each side of a point is summed in one
``field.Sum``, reduced and lifted once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import dsl, special
from .errors import (DivisionByZero, EvalTypeError, PoleError, ShapeError,
                     UnboundVariable)
from .field import Sum, SymConst, half, lift, lower, to_int, to_twice
from .model import (GRID_PARAMS, Affine, ClosedSide, ClosedSummand, ClosedTerm, FAffine,
                    FBinom, FFact, FHarm, HPiece, RecipPiece, substitute_neg_t)


def from_model(identity):
    """The closed identity itself, or ShapeError; only the benchmark harness
    still calls this, since ``verify_closed`` takes a loaded identity."""
    if not identity.is_closed:
        raise ShapeError(f"{identity.name}: not a closed identity")
    return identity


# ---------------------------------------------------------------------------
# Beta transform

def beta_transform(identity):
    """Integrate both sides against the Beta kernel.

    Each summand coeff * t^a * (1-t)^b turns into
    coeff * rbinom(a+b+r, a+s) / (a+s); the polynomial identity in t becomes
    a two-parameter family of closed identities in (r, s).
    """
    if not identity.is_standard:
        raise ShapeError(f"{identity.name}: beta_transform needs standard sides")
    for side in (identity.lhs, identity.rhs):
        for term in side.terms:
            if term.base == "1+t" and not term.base_exp.is_zero:
                raise ShapeError(
                    f"{identity.name}: base 1+t; apply substitute_neg_t first")

    def conv(side):
        out = []
        for term in side.terms:
            top = term.t_exp + term.base_exp + Affine(r=1)
            bot = term.t_exp + Affine(s=1)
            ct = ClosedTerm(term.coeff,
                            factors=(FBinom(top, bot, power=-1),
                                     FAffine(bot, -1)))
            out.append(ClosedSummand(ct, term.lower, term.upper))
        return ClosedSide(tuple(out))

    return replace(identity, lhs=conv(identity.lhs), rhs=conv(identity.rhs),
                   provenance=f"beta_transform({identity.name})")


def derivative_bracket(factors, param):
    """Logarithmic-derivative bracket of a factor product in r or s.

    For binom(B, C)^p the contribution is
    p*(B' H(B) - C' H(C) - (B'-C') H(B-C)); the H-coefficients sum to zero,
    which is exactly why the digamma constant never appears.  For a^p it is
    p*a'/a.  For fact(a)^p = Gamma(a + 1)^p it is p*a'*H(a), which is exact
    only when these p*a' sum to 0 over the factorials: each digamma carries
    an Euler constant, which the field lacks, so any other sum is a
    ShapeError.  An ``FHarm`` factor comes only with a bracket, which
    ``differentiate`` refuses before it gets here.
    """
    pieces, euler = [], 0
    for f in factors:
        if type(f) is FBinom:
            bp, cp = getattr(f.top, param), getattr(f.bot, param)
            p = f.power
            candidates = ((p * bp, f.top), (-p * cp, f.bot),
                          (-p * (bp - cp), f.top - f.bot))
            assert sum(c for c, _ in candidates) == 0
            pieces.extend(HPiece(c, arg) for c, arg in candidates if c)
        elif getattr(f.affine, param):
            c = f.power * getattr(f.affine, param)
            pieces.append((HPiece if type(f) is FFact else RecipPiece)(Fraction(c), f.affine))
            euler += c if type(f) is FFact else 0
    if euler:
        raise ShapeError(f"d/d{param} of {' * '.join(f.render() for f in factors)}: the"
                         f" factorials' weights in {param} sum to {euler}, not 0, so an"
                         " Euler constant is left")
    return tuple(pieces)


def differentiate(identity, param):
    """d/dr or d/ds of every term of a transformed or loaded identity.

    Only the factors are differentiated: no coefficient reads r or s.  A
    term that already has a bracket is a ShapeError, and so is one whose
    factorials leave an Euler constant (``derivative_bracket``).  A term
    none of whose factors reads ``param`` has derivative 0 and is left
    out, since an empty bracket would read as the factor 1."""
    if param not in ("r", "s"):
        raise EvalTypeError(f"param must be 'r' or 's', not {param!r}")
    if not identity.is_closed:
        raise ShapeError("dds/ddr need a transformed identity (use beta first)")

    def conv(side):
        out = []
        for sm in side.summands:
            term = sm.term
            if term.extras:
                raise ShapeError(f"{identity.name}: term already carries a derivative bracket")
            bracket = derivative_bracket(term.factors, param)
            if bracket:
                out.append(replace(sm, term=replace(term, extras=bracket)))
        return ClosedSide(tuple(out))

    return replace(identity, lhs=conv(identity.lhs), rhs=conv(identity.rhs),
                   provenance=f"d/d{param}({identity.provenance or identity.name})")


# ---------------------------------------------------------------------------
# central-binomial transforms

def _lit(q):
    return dsl.Lit(Fraction(q))


def _over_pow2(coeff, c):
    """AST for coeff / 2^(c*k), c = 1 or 2."""
    k = dsl.Var("k") if c == 1 else dsl.Mul((_lit(c), dsl.Var("k")), (False, False))
    return dsl.Mul((coeff, dsl.Mul((_lit(1), dsl.Pow(_lit(2), k)), (False, True))), (False, False))


def _floor_half(expr, shift=0):
    inner = dsl.Add((expr, _lit(shift)), (False, False)) if shift else expr
    return dsl.Call("floor", (dsl.Mul((inner, _lit(2)), (False, True)),))


def _central_shape(identity):
    """Extract (f, f_lo, f_hi, g, g_lo, g_hi) from a sum f(k)(1+t)^k = sum g(k)t^k."""
    if not identity.is_standard:
        raise ShapeError(f"{identity.name}: central transforms need standard sides")
    if len(identity.lhs.terms) != 1 or len(identity.rhs.terms) != 1:
        raise ShapeError(f"{identity.name}: central transforms need one summand per side")
    ft = identity.lhs.terms[0]
    gt = identity.rhs.terms[0]
    if not (ft.base == "1+t" and ft.base_exp == Affine(k=1) and ft.t_exp.is_zero):
        raise ShapeError(f"{identity.name}: left side must be sum f(k)*(1+t)^k")
    if not (gt.t_exp == Affine(k=1) and gt.base_exp.is_zero):
        raise ShapeError(f"{identity.name}: right side must be sum g(k)*t^k")
    return ft.coeff, ft.lower, ft.upper, gt.coeff, gt.lower, gt.upper


def _central_binom(v):
    """binom(2k+v, k+v/2) as a factor."""
    return FBinom(Affine(k=2, const=v), Affine(k=1, const=Fraction(v, 2)))


def _closed_side(coeff, factors, lower, upper):
    return ClosedSide((ClosedSummand(ClosedTerm(coeff, factors), lower, upper),))


def _double_k(expr):
    return dsl.substitute(expr, "k", dsl.Mul((_lit(2), dsl.Var("k")), (False, False)))


def central_transform_v(identity, v):
    """Both one-parameter central-binomial transforms of the identity.

    The first reindexes the f side with weight
    2^-k binom(2k+v, (2k+v)/2)/binom(k+v, v/2) against the even-index g side,
    weighted 2^-2k binom(2k, k)/binom(k+v/2, v/2); the second is its (-1)^k
    dual with the roles of f and g exchanged.  The binomials are factors;
    only f or g and the power of 2 are in the coefficient.
    """
    if not isinstance(v, int) or v < 0:
        raise EvalTypeError("v must be a nonnegative integer")
    f, f_lo, f_hi, g, g_lo, g_hi = _central_shape(identity)
    name = identity.name
    half_v = Fraction(v, 2)
    weight = (_central_binom(v), FBinom(Affine(k=1, const=v), Affine(const=half_v), -1))
    dual_weight = (_central_binom(0), FBinom(Affine(k=1, const=half_v), Affine(const=half_v), -1))

    first = replace(
        identity, provenance=f"central_v({name}, v={v})",
        lhs=_closed_side(_over_pow2(f, 1), weight, f_lo, f_hi),
        rhs=_closed_side(_over_pow2(_double_k(g), 2), dual_weight,
                         _floor_half(g_lo, 1), _floor_half(g_hi)))

    alt_g = dsl.Mul((dsl.Call("sign", (dsl.Var("k"),)), g), (False, False))
    second = replace(
        identity, provenance=f"central_v_dual({name}, v={v})",
        lhs=_closed_side(_over_pow2(alt_g, 1), weight, g_lo, g_hi),
        rhs=_closed_side(_over_pow2(_double_k(f), 2), dual_weight,
                         _floor_half(f_lo, 1), _floor_half(f_hi)))
    return first, second


def central_transform_uv(identity, u, v):
    """Two-parameter central-binomial transform of the identity: f weighted
    2^-2k binom(v, v/2) binom(2k+u, k+u/2)/binom(k+(u+v)/2, v/2) against
    (-1)^k g weighted the same with u and v exchanged."""
    for val in (u, v):
        if not isinstance(val, int) or val < 0:
            raise EvalTypeError("u and v must be nonnegative integers")
    f, f_lo, f_hi, g, g_lo, g_hi = _central_shape(identity)
    mid = Affine(k=1, const=Fraction(u + v, 2))

    def weight(a, b):
        return (FBinom(Affine(const=a), Affine(const=Fraction(a, 2))), _central_binom(b),
                FBinom(mid, Affine(const=Fraction(a, 2)), -1))

    alt_g = dsl.Mul((dsl.Call("sign", (dsl.Var("k"),)), g), (False, False))
    return replace(
        identity, provenance=f"central_uv({identity.name}, u={u}, v={v})",
        lhs=_closed_side(_over_pow2(f, 2), weight(v, u), f_lo, f_hi),
        rhs=_closed_side(_over_pow2(alt_g, 2), weight(u, v), g_lo, g_hi))


# ---------------------------------------------------------------------------
# exact evaluation

_UNDEFINED = (PoleError, DivisionByZero, EvalTypeError)   # an undefined point

# Nothing reads or calls these two: the benchmark's tracer still wraps them
# for its beta.memo.* metrics, which read 0.  ROADMAP item 1 deletes them.
_expr_memo = {}
_eval_memo = None


def _twice_point(bindings):
    """The twice-values of the point's half-integer bindings, by name."""
    twice = {}
    for name, value in bindings.items():
        try:
            twice[name] = to_twice(value)
        except EvalTypeError:
            pass
    return twice


def _at_point(term, twice):
    """The term's factors and bracket at one point, as the kernel reads
    them: each affine becomes its twice-value at k = 0 and its step 2*c_k,
    so that at k it is ``base + step*k``.  A factor is (power, top base,
    top step, bottom base, bottom step, factor): the ``FBinom.power``, 1 for
    a binomial or -1 for a reciprocal one; an ``FAffine`` is (0, base, step,
    its power, 0, factor) and an ``FFact`` (None, base, step, its power, 0,
    factor).  An ``FHarm`` is (base, step) in a third list.  A bracket piece
    is (1 for H or 0 for a reciprocal, coefficient numerator, denominator,
    base, step).  The first one whose affine reads a name missing from
    ``twice``, or is no half-integer there, becomes (None, fail, 0, 0, ...)
    and ends its list: the kernel never gets past it, and
    ``fail(bindings)`` raises the error of ``Affine.compile_twice``."""

    def at(a):
        base = a.twice_const
        for name, c in a.terms:
            x = twice.get(name)
            if x is None:
                return None
            base += c * x
        if type(base) is not int:       # a half coefficient
            if base.denominator != 1:
                return None
            base = base.numerator
        return base, 2 * a.k

    factors, harm = [], []
    for f in term.factors:
        if type(f) is FBinom:
            top, bot = at(f.top), at(f.bot)
            if top and bot:
                factors.append((f.power, *top, *bot, f))
                continue
            failing = f.bot if top else f.top
        else:
            x = at(f.affine)
            if x and type(f) is FHarm:
                harm.append(x)
                continue
            if x:
                factors.append((0 if type(f) is FAffine else None, *x, f.power, 0, f))
                continue
            failing = f.affine
        factors.append((None, failing.compile_twice(), 0, 0, 0, f))
        return factors, (), ()
    bracket = []
    for p in term.extras:
        x = at(p.argument)
        if x is None:
            bracket.append((None, 0, 0, p.argument.compile_twice(), 0))
            break
        bracket.append((int(type(p) is HPiece), p.coeff.numerator, p.coeff.denominator, *x))
    return factors, bracket, harm


def _run_term(plan, point, bindings, ks, total, values):
    """Add the exact value of a compiled term at each k of ``ks`` to the
    ``Sum`` total, in order; with ``ks`` None, add its value at the k that
    ``bindings`` holds, which ``point`` then reads too.  ``values`` holds
    the lowered coefficient, or the error it raised, at each k where it
    has run: the coefficient reads no grid parameter, so every point of
    one n shares it, and it runs at k only when a point's factors get
    there.

    The kernel runs on ints.  Each affine argument is ``base + step*k``
    (``_at_point``).  An affine factor's twice-value multiplies into an
    unreduced int numerator, or its denominator when divided.  A binomial
    from ``special.binom_at`` is rational or one monomial c*sqrt(pi)^e: c
    multiplies in the same way, e into an int exponent (negated for a
    reciprocal), and so does a factorial's Gamma(a + 1) = c*sqrt(pi)^e
    from ``special.fact_at``, which has no limit reading: at its pole the
    term fails, divided or not, as the unsplit product does.  Factors are
    evaluated first and in order: a reciprocal binomial at the Infinite pole
    makes the term 0 at that k before anything after it is looked at, which
    is the limit reading of the transformed identities, and a zero binomial
    makes it 0 after the last factor; a zero affine only once the
    coefficient and bracket have run, as the unsplit product runs them.
    The coefficient then multiplies in, and the term goes into ``total`` by
    one add at sqrt(pi) offset e; a bracket's pieces, c*H(x) and c/x, go in
    one by one the same way.  Only a coefficient that is itself a SymConst,
    or a term with ``FHarm`` factors, sums the pieces apart and multiplies
    them in as a SymConst, times those H values.

    A term split at load that fails re-runs its ``source``, so the point
    reports the error the coefficient as written raises: that product runs
    every operand the factor path does, so it fails too."""
    coeff, term = plan
    factors, bracket, harm = _at_point(term, point)
    binom_at, infinite = special.binom_at, special.INFINITE
    stepped = ks is not None
    try:
        for k in ks if stepped else (0,):
            if stepped:
                bindings["k"] = k
            num = den = 1
            e = 0
            for power, xb, xs, yb, ys, f in factors:
                if power == 0:
                    twice = xb + xs * k
                    if yb == 1:
                        num *= twice
                        den *= 2
                        continue
                    if not twice:
                        raise DivisionByZero(f"zero affine under reciprocal: {f.render()}")
                    num *= 2
                    den *= twice
                    continue
                if power is None:
                    if not yb:
                        xb(bindings)    # raises
                    c, p = special.fact_at(xb + xs * k)     # Gamma(a + 1)^yb
                    if yb == 1:
                        num *= c.numerator
                        den *= c.denominator
                    else:
                        num *= c.denominator
                        den *= c.numerator
                    e += yb * p
                    continue
                b = binom_at(xb + xs * k, yb + ys * k)
                kind = type(b)
                if power == 1:
                    if kind is int:
                        num *= b
                    elif kind is Fraction:
                        num *= b.numerator
                        den *= b.denominator
                    elif b is infinite:
                        raise PoleError(f"infinite binomial factor {f.render()}")
                    else:
                        ((_, p), c), = b.terms.items()
                        num *= c.numerator
                        den *= c.denominator
                        e += p
                elif kind is int:
                    if not b:
                        raise DivisionByZero(f"zero binomial under reciprocal: {f.render()}")
                    den *= b
                elif kind is Fraction:
                    num *= b.denominator
                    den *= b.numerator
                elif b is infinite:
                    break
                else:
                    ((_, p), c), = b.terms.items()
                    num *= c.denominator
                    den *= c.numerator
                    e -= p
            else:
                if not num and not any(p == 0 and up == 1 and not base + step * k
                                       for p, base, step, up, _, _ in factors):
                    continue
                value = values.get(k)
                if value is None:
                    try:
                        value = values[k] = lower(coeff(bindings))
                    except _UNDEFINED as exc:
                        values[k] = exc
                        raise
                elif isinstance(value, Exception):
                    raise value.with_traceback(None)
                if not bracket:
                    total.add(value, num, den, e)
                    continue
                if type(value) is SymConst or harm:
                    pieces, shift = Sum(), 0
                    for xb, xs in harm:
                        value = value * special.harmonic_at(xb + xs * k)
                else:
                    pieces, shift = total, e
                    if type(value) is int:
                        num *= value
                    else:
                        num *= value.numerator
                        den *= value.denominator
                for is_harmonic, cn, cd, xb, xs in bracket:
                    if is_harmonic is None:
                        xb(bindings)    # raises
                    twice = xb + xs * k
                    if is_harmonic:
                        pieces.add(special.harmonic_at(twice), cn * num, cd * den, shift)
                    else:
                        if not twice:
                            raise DivisionByZero(f"bracket reciprocal at zero: {term.render()}")
                        pieces.add(2 * cn * num, 1, cd * den * twice, shift)  # c / (twice/2)
                if pieces is not total:
                    total.add(value * pieces.value(), 1, 1, e)
    except (PoleError, DivisionByZero, EvalTypeError, UnboundVariable):
        if term.source is not None:
            dsl.compile(term.source)(bindings)
        raise


def eval_term(term, bindings):
    """Exact value of one closed term at a fully bound point: a plain int or
    Fraction when rational, a SymConst otherwise."""
    total = Sum()
    _run_term((dsl.compile(term.coeff), term), _twice_point(bindings), bindings, None, total, {})
    return total.value()


def _compile_sides(sides):
    """The plan of closed sides: per summand its two compiled bounds and its
    term's plan (compiled coefficient, term)."""
    return tuple(tuple((dsl.compile(sm.lower), dsl.compile(sm.upper),
                        (dsl.compile(sm.term.coeff), sm.term))
                       for sm in side.summands)
                 for side in sides)


def _run_points(plan, points):
    """Per point of one n (a bindings dict), its side values as a tuple of
    SymConst, or the error that left it undefined.  Each summand runs at
    every live point before the next.  No bound or coefficient reads a grid
    parameter, so the points share them: the two bounds run once, and the
    coefficient's values at each k go in one dict for the summand, which
    ``_run_term`` fills as the points reach each k.  A point meets the
    summands in order, lhs before rhs, and drops out at its first error,
    which is the error it raises when run alone."""
    outcomes = [None] * len(points)
    # at k = 0 in the twice-point, each affine's k part is its step
    live = [(i, b, dict(_twice_point(b), k=0), dict(b), []) for i, b in enumerate(points)]
    for side in plan:
        for *_, totals in live:
            totals.append(Sum())
        for lower_bound, upper_bound, term in side:
            if not live:
                return outcomes
            bindings = live[0][1]
            try:
                ks = range(to_int(lower(lower_bound(bindings))),
                           to_int(lower(upper_bound(bindings))) + 1)
            except _UNDEFINED as exc:
                for i, *_ in live:
                    outcomes[i] = exc
                return outcomes
            if not ks:
                continue
            values, kept = {}, []
            for point in live:
                i, _, twice, inner, totals = point
                try:
                    _run_term(term, twice, inner, ks, totals[-1], values)
                    kept.append(point)
                except _UNDEFINED as exc:
                    outcomes[i] = exc
            live = kept
    for i, *_, totals in live:
        outcomes[i] = tuple(lift(total.value()) for total in totals)
    return outcomes


def eval_side(side, bindings):
    """Exact value of one side at a fully bound point, as a SymConst."""
    (outcome,) = _run_points(_compile_sides((side,)), [bindings])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[0]


def _point(n, r=None, s=None, u=None, v=None):
    return {"n": half(n), **{name: half(val) for name, val in zip(GRID_PARAMS, (r, s, u, v))
                             if val is not None}}


def eval_closed(cid, n, r=None, s=None, u=None, v=None):
    """Exact values of both sides at one parameter point."""
    bindings = _point(n, r, s, u, v)
    return eval_side(cid.lhs, bindings), eval_side(cid.rhs, bindings)


@dataclass(frozen=True)
class PointResult:
    n: int
    params: tuple                 # sorted ((name, half-integer), ...)
    lhs: object                   # SymConst or None when undefined
    rhs: object
    error: str = ""

    @property
    def defined(self):
        return not self.error

    @property
    def where(self):
        """The point as text, e.g. ``(n=2, r=1/2)``."""
        return "(" + ", ".join([f"n={self.n}"] + [f"{name}={val}" for name, val in self.params]) + ")"

    @property
    def equal(self):
        return self.defined and self.lhs == self.rhs


@dataclass(frozen=True)
class ClosedReport:
    name: str
    results: tuple

    @property
    def all_equal(self):
        return all(p.equal for p in self.results if p.defined)

    @property
    def failures(self):
        return tuple(p for p in self.results if p.defined and not p.equal)

    @property
    def undefined(self):
        return tuple(p for p in self.results if not p.defined)


def verify_closed(cid, n_range, param_grid=({},)):
    """Pointwise comparison over n in n_range and parameter dicts in param_grid, n-major:
    the sides are compiled once, and each n runs all its points together
    (``_run_points``).  An evaluation error is recorded as an undefined
    point, never skipped."""
    plan = _compile_sides((cid.lhs, cid.rhs))
    grid = [(tuple(sorted((name, half(val)) for name, val in params.items())), params)
            for params in param_grid]
    results = []
    for n in n_range:
        try:
            outcomes = _run_points(plan, [_point(n, **params) for _, params in grid])
        except EvalTypeError as exc:    # n is no half-integer
            outcomes = [exc] * len(grid)
        results.extend(PointResult(n, key, None, None, error=str(outcome))
                       if isinstance(outcome, Exception) else PointResult(n, key, *outcome)
                       for (key, _), outcome in zip(grid, outcomes))
    return ClosedReport(cid.name, tuple(results))


def normalized_for_beta(identity):
    """Flip any 1+t bases via t -> -t so beta_transform applies."""
    needs = any(t.base == "1+t" and not t.base_exp.is_zero
                for side in (identity.lhs, identity.rhs) for t in side.terms)
    return substitute_neg_t(identity) if needs else identity
