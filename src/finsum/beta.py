"""Transforms from polynomial identities to closed combinatorial sums.

Three transform families are implemented:

* ``beta_transform``: integrate each coeff * t^a * (1-t)^b summand against the
  Beta kernel, producing the parametric weight 1/((a+s) * binom(a+b+r, a+s)),
* ``differentiate``: d/dr and d/ds of a transformed identity via the
  logarithmic-derivative rule for binomials (harmonic differences; the
  Euler-Mascheroni constant cancels per factor by construction),
* ``central_transform_v`` / ``central_transform_uv``: rewrite an identity of
  the shape  sum f(k)(1+t)^k = sum g(k)t^k  into central-binomial sums with
  one or two free integer parameters.

Every closed side, loaded or derived, is a ``model.ClosedSide`` of
``ClosedTerm`` summands; a transform's output is a ``ClosedIdentity`` that
also records its provenance, and ``verify_closed`` and ``eval_closed`` take
it or a loaded closed ``model.Identity`` alike.

Closed identities are evaluated exactly over half-integer parameter points;
a float evaluator (mpmath) backs the derivative cross-check.  Exact
evaluation compiles each term of an identity once per ``verify_closed`` or
``eval_closed`` call, never at load time and never per point: the
coefficient becomes a ``dsl.compile`` closure, each factor and bracket
argument a closure for twice its value, and the factor product is
accumulated as an int numerator and denominator.  Rational values stay plain
``int``/``Fraction``, special values come from the ``special`` accessors at
twice-int arguments, and ``eval_side`` lifts each side's sum to SymConst
once.  The module's one cache, the coefficient memo ``_expr_memo``, holds
the lowered values of the coefficients, sum bounds and standalone
expressions that read no grid parameter (r, s, u, v), since only those
repeat from one grid point to the next; it lives for the whole process and
keeps every expression it has evaluated alive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import dsl, special
from .errors import DivisionByZero, EvalTypeError, PoleError, ShapeError
from .field import HalfInt, SymConst, exact_div, lift, lower, to_int
from .model import (Affine, ClosedSide, ClosedSummand, ClosedTerm, FBinom,
                    FRecipAffine, HPiece, RecipPiece, substitute_neg_t)


@dataclass(frozen=True)
class ClosedIdentity:
    name: str
    provenance: str
    lhs: ClosedSide
    rhs: ClosedSide


def from_model(identity):
    """A loaded closed identity as a ClosedIdentity over its own sides.

    ``verify_closed`` and ``eval_closed`` take a loaded identity as it is;
    this is kept only for the benchmark harness, which still calls it."""
    if not identity.is_closed:
        raise ShapeError(f"{identity.name}: not a closed identity")
    return ClosedIdentity(identity.name, f"loaded({identity.name})", identity.lhs, identity.rhs)


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
                                     FRecipAffine(bot)))
            out.append(ClosedSummand(ct, term.lower, term.upper))
        return ClosedSide(tuple(out))

    return ClosedIdentity(identity.name, f"beta_transform({identity.name})",
                          conv(identity.lhs), conv(identity.rhs))


def derivative_bracket(factors, param):
    """Logarithmic-derivative bracket of a factor product in r or s.

    For binom(B, C)^p the contribution is
    p*(B' H(B) - C' H(C) - (B'-C') H(B-C)); the H-coefficients sum to zero,
    which is exactly why the digamma constant never appears.
    """
    pieces = []
    for f in factors:
        if isinstance(f, FBinom):
            bp = f.top.derivative(param)
            cp = f.bot.derivative(param)
            p = f.power
            candidates = ((p * bp, f.top), (-p * cp, f.bot),
                          (-p * (bp - cp), f.top - f.bot))
            assert sum(c for c, _ in candidates) == 0
            pieces.extend(HPiece(c, arg) for c, arg in candidates if c)
        elif isinstance(f, FRecipAffine):
            ap = f.affine.derivative(param)
            if ap:
                pieces.append(RecipPiece(-f.power * ap, f.affine))
        else:
            raise ShapeError(f"cannot differentiate factor {f!r}")
    return tuple(pieces)


def differentiate(cid, param):
    """d/dr or d/ds of every term of a transformed identity."""
    if param not in ("r", "s"):
        raise EvalTypeError(f"param must be 'r' or 's', not {param!r}")

    def conv(side):
        if side.extra is not None:
            raise ShapeError(f"{cid.name}: standalone expression is not differentiable")
        out = []
        for sm in side.summands:
            term = sm.term
            if term.extras:
                raise ShapeError(f"{cid.name}: term already carries a derivative bracket")
            if not term.factors:
                raise ShapeError(f"{cid.name}: term has no parametric factors")
            out.append(replace(sm, term=replace(term, extras=derivative_bracket(term.factors, param))))
        return ClosedSide(tuple(out))

    lhs, rhs = conv(cid.lhs), conv(cid.rhs)
    return ClosedIdentity(cid.name, f"d/d{param}({cid.provenance})", lhs, rhs)


# ---------------------------------------------------------------------------
# central-binomial transforms

def _lit(q):
    q = Fraction(q)
    return dsl.Lit(q) if q >= 0 else dsl.Neg(dsl.Lit(-q))


def _mul(*nodes):
    out = nodes[0]
    for nd in nodes[1:]:
        out = dsl.Mul(out, nd)
    return out


def _kv(coef_k, shift):
    """AST for coef_k*k + shift."""
    k = dsl.Var("k")
    base = k if coef_k == 1 else dsl.Mul(_lit(coef_k), k)
    if shift == 0:
        return base
    return dsl.Add(base, _lit(shift))


def _pow2(exponent_coef):
    """AST for 2^(-exponent_coef*k)."""
    return dsl.Div(_lit(1), dsl.Pow(_lit(2), _kv(exponent_coef, 0)))


def _floor_half(expr, shift=0):
    inner = dsl.Add(expr, _lit(shift)) if shift else expr
    return dsl.Call("floor", (dsl.Div(inner, _lit(2)),))


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


def _central_weight(v):
    """2^-k * binom(2k+v, k+v/2) * rbinom(k+v, v/2) as an AST."""
    half_v = Fraction(v, 2)
    return _mul(_pow2(1),
                dsl.Call("binom", (_kv(2, v), _kv(1, half_v))),
                dsl.Call("rbinom", (_kv(1, v), _lit(half_v))))


def _central_dual_weight(v):
    """2^-2k * binom(2k, k) * rbinom(k+v/2, v/2) as an AST."""
    half_v = Fraction(v, 2)
    return _mul(_pow2(2),
                dsl.Call("binom", (_kv(2, 0), _kv(1, 0))),
                dsl.Call("rbinom", (_kv(1, half_v), _lit(half_v))))


def _double_k(expr):
    return dsl.substitute(expr, "k", dsl.Mul(_lit(2), dsl.Var("k")))


def central_transform_v(identity, v):
    """Both one-parameter central-binomial transforms of the identity.

    The first reindexes the f side with weight
    2^-k binom(2k+v, (2k+v)/2)/binom(k+v, v/2) against the even-index g side;
    the second is its (-1)^k dual with the roles of f and g exchanged.
    """
    if not isinstance(v, int) or v < 0:
        raise EvalTypeError("v must be a nonnegative integer")
    f, f_lo, f_hi, g, g_lo, g_hi = _central_shape(identity)
    name = identity.name

    first = ClosedIdentity(
        name, f"central_v({name}, v={v})",
        ClosedSide((ClosedSummand(ClosedTerm(_mul(f, _central_weight(v))), f_lo, f_hi),)),
        ClosedSide((ClosedSummand(ClosedTerm(_mul(_double_k(g), _central_dual_weight(v))),
                              _floor_half(g_lo, 1), _floor_half(g_hi)),)))

    alt_g = _mul(dsl.Call("sign", (dsl.Var("k"),)), g)
    second = ClosedIdentity(
        name, f"central_v_dual({name}, v={v})",
        ClosedSide((ClosedSummand(ClosedTerm(_mul(alt_g, _central_weight(v))), g_lo, g_hi),)),
        ClosedSide((ClosedSummand(ClosedTerm(_mul(_double_k(f), _central_dual_weight(v))),
                              _floor_half(f_lo, 1), _floor_half(f_hi)),)))
    return first, second


def central_transform_uv(identity, u, v):
    """Two-parameter central-binomial transform of the identity."""
    for val in (u, v):
        if not isinstance(val, int) or val < 0:
            raise EvalTypeError("u and v must be nonnegative integers")
    f, f_lo, f_hi, g, g_lo, g_hi = _central_shape(identity)
    half_u, half_v = Fraction(u, 2), Fraction(v, 2)
    half_uv = half_u + half_v

    lhs_coeff = _mul(f, _pow2(2),
                     dsl.Call("binom", (_lit(v), _lit(half_v))),
                     dsl.Call("binom", (_kv(2, u), _kv(1, half_u))),
                     dsl.Call("rbinom", (_kv(1, half_uv), _lit(half_v))))
    rhs_coeff = _mul(dsl.Call("sign", (dsl.Var("k"),)), g, _pow2(2),
                     dsl.Call("binom", (_lit(u), _lit(half_u))),
                     dsl.Call("binom", (_kv(2, v), _kv(1, half_v))),
                     dsl.Call("rbinom", (_kv(1, half_uv), _lit(half_u))))
    return ClosedIdentity(
        identity.name, f"central_uv({identity.name}, u={u}, v={v})",
        ClosedSide((ClosedSummand(ClosedTerm(lhs_coeff), f_lo, f_hi),)),
        ClosedSide((ClosedSummand(ClosedTerm(rhs_coeff), g_lo, g_hi),)))


# ---------------------------------------------------------------------------
# exact evaluation
#
# A plan is a compiled side or term.  ``verify_closed`` compiles both sides
# once and runs their plans at every point; ``eval_closed``, ``eval_side``
# and ``eval_term`` compile what they are given and run it once.

GRID_PARAMS = ("r", "s", "u", "v")   # the keyword parameters of eval_closed

_expr_memo = {}


def _eval_memo(expr, bindings, value):
    """``lower(value(bindings))``, memoized per expression on its free
    variables, for an expression that reads no grid parameter.

    Grid verification revisits the same coefficient at every parameter point
    even though it usually depends on (k, n) only; the memo collapses that.
    Keyed by object identity with the expression kept alive in the entry.
    Values are held lowered: a plain int or Fraction when rational."""
    entry = _expr_memo.get(id(expr))
    if entry is None or entry[0] is not expr:
        entry = (expr, tuple(sorted(dsl.free_vars(expr))), {})
        _expr_memo[id(expr)] = entry
    _, names, cache = entry
    try:
        key = tuple(bindings[name].twice for name in names)
    except KeyError:
        return lower(value(bindings))  # unbound: uniform error path
    result = cache.get(key)
    if result is None:
        result = cache[key] = lower(value(bindings))
    return result


def _compile_value(expr):
    """A closure for the lowered value of a coefficient, a sum bound or a
    standalone expression.  One that reads a grid parameter is evaluated
    directly: its key would differ at every grid point, so the memo would
    only keep it alive.  Any other goes through ``_eval_memo``."""
    value = dsl.compile(expr)
    if dsl.free_vars(expr).isdisjoint(GRID_PARAMS):
        return lambda b: _eval_memo(expr, b, value)
    return lambda b: lower(value(b))


def _compile_term(term):
    """The plan of a closed term: (factors, coefficient, bracket, term)."""
    factors = []
    for f in term.factors:
        if isinstance(f, FBinom):
            factors.append((f, f.top.compile_twice(), f.bot.compile_twice()))
        elif isinstance(f, FRecipAffine):
            factors.append((f, f.affine.compile_twice(), None))
        else:
            factors.append((f, None, None))  # raises when it is reached
    bracket = tuple((isinstance(p, HPiece), p.coeff, p.argument.compile_twice())
                    for p in term.extras)
    return tuple(factors), _compile_value(term.coeff), bracket, term


def _run_term(plan, bindings):
    """Exact value of a compiled term at a fully bound point.

    Factors are evaluated first: a reciprocal binomial hitting the Infinite
    pole sends the whole term to 0 before the coefficient or the bracket is
    looked at, which is the limit reading of the transformed identities.
    The rational part of the factor product is an int numerator and
    denominator, normalised once; a binomial with sqrt(pi) in it is kept
    apart as a SymConst."""
    factors, coeff, bracket, term = plan
    num = den = 1
    sym = None
    for f, x, y in factors:
        if isinstance(f, FBinom):
            b = special.binom_at(x(bindings), y(bindings))
            if f.power == 1:
                if b is special.INFINITE:
                    raise PoleError(f"infinite binomial factor {f.render()}")
            else:
                if b is special.INFINITE:
                    return 0
                if b == 0:
                    raise DivisionByZero(f"zero binomial under reciprocal: {f.render()}")
            if type(b) is SymConst:
                if f.power != 1:
                    b = b.inverse()
                sym = b if sym is None else sym * b
            elif f.power == 1:
                num *= b.numerator
                den *= b.denominator
            else:
                num *= b.denominator
                den *= b.numerator
        elif isinstance(f, FRecipAffine):
            twice = x(bindings)
            if twice == 0:
                raise DivisionByZero(f"zero affine under reciprocal: {f.render()}")
            if f.power >= 0:
                num *= 2 ** f.power
                den *= twice ** f.power
            else:
                num *= twice ** -f.power
                den *= 2 ** -f.power
        else:
            raise EvalTypeError(f"unknown factor {f!r}")
    if num == 0:
        return 0
    value = coeff(bindings)
    if factors:
        product = num if den == 1 else Fraction(num, den)
        if sym is not None:
            product = sym * product
        value = value * product
    if bracket:
        total = 0
        for is_harmonic, c, x in bracket:
            twice = x(bindings)
            if is_harmonic:
                total = total + special.harmonic_at(twice) * c
            else:
                if twice == 0:
                    raise DivisionByZero(f"bracket reciprocal at zero: {term.render()}")
                total = total + exact_div(2 * c, twice)
        value = value * total
    return value


def eval_term(term, bindings):
    """Exact value of one closed term at a fully bound point: a plain int or
    Fraction when rational, a SymConst otherwise."""
    return _run_term(_compile_term(term), bindings)


def _compile_side(side):
    summands = tuple((_compile_value(sm.lower), _compile_value(sm.upper), _compile_term(sm.term))
                     for sm in side.summands)
    extra = None if side.extra is None else _compile_value(side.extra)
    return summands, extra


def _run_side(plan, bindings):
    summands, extra = plan
    total = 0
    for lower_bound, upper_bound, term in summands:
        lo = to_int(lower_bound(bindings))
        hi = to_int(upper_bound(bindings))
        inner = dict(bindings)
        for k in range(lo, hi + 1):
            inner["k"] = HalfInt(2 * k)
            total = total + _run_term(term, inner)
    if extra is not None:
        total = total + extra(bindings)
    return lift(total)


def eval_side(side, bindings):
    """Exact value of one side at a fully bound point, as a SymConst.  The
    terms are summed as plain values where rational and lifted once."""
    return _run_side(_compile_side(side), bindings)


def _point(n, r=None, s=None, u=None, v=None):
    bindings = {"n": HalfInt.from_value(n)}
    for name, val in zip(GRID_PARAMS, (r, s, u, v)):
        if val is not None:
            bindings[name] = HalfInt.from_value(val)
    return bindings


def eval_closed(cid, n, r=None, s=None, u=None, v=None):
    """Exact values of both sides at one parameter point."""
    bindings = _point(n, r, s, u, v)
    return eval_side(cid.lhs, bindings), eval_side(cid.rhs, bindings)


@dataclass(frozen=True)
class PointResult:
    n: int
    params: tuple                 # sorted ((name, HalfInt), ...)
    lhs: object                   # SymConst or None when undefined
    rhs: object
    error: str = ""

    @property
    def defined(self):
        return not self.error

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
    """Pointwise comparison over n in n_range and parameter dicts in param_grid.

    Evaluation errors (poles, zero divisions) are recorded as undefined
    points, never silently skipped.
    """
    lhs_plan, rhs_plan = _compile_side(cid.lhs), _compile_side(cid.rhs)
    results = []
    for n in n_range:
        for params in param_grid:
            key = tuple(sorted((name, HalfInt.from_value(val)) for name, val in params.items()))
            try:
                bindings = _point(n, **params)
                lhs, rhs = _run_side(lhs_plan, bindings), _run_side(rhs_plan, bindings)
                results.append(PointResult(n, key, lhs, rhs))
            except (PoleError, DivisionByZero, EvalTypeError) as exc:
                results.append(PointResult(n, key, None, None, error=str(exc)))
    return ClosedReport(cid.name, tuple(results))


# ---------------------------------------------------------------------------
# float evaluation and the derivative cross-check

def _require_mpmath():
    import mpmath
    return mpmath


def eval_side_float(side, bindings, precision_digits=30):
    """Numeric value of a side at a point whose r/s need not be half-integers.

    Only factor-bearing terms support this; their coefficients are exact in
    (k, n) and only the factors carry the continuous parameters.
    """
    mp = _require_mpmath()
    with mp.workdps(precision_digits):
        num = {}
        exact = {}
        for name, val in bindings.items():
            if isinstance(val, HalfInt):
                exact[name] = val
                num[name] = mp.mpf(val.twice) / 2
            else:
                num[name] = mp.mpf(val.numerator) / val.denominator if isinstance(val, Fraction) else mp.mpf(val)
        total = mp.mpf(0)
        for sm in side.summands:
            lo = dsl.eval_scalar(sm.lower, exact).as_int()
            hi = dsl.eval_scalar(sm.upper, exact).as_int()
            coeff = dsl.compile(sm.term.coeff)
            for k in range(lo, hi + 1):
                kb = dict(exact)
                kb["k"] = HalfInt(2 * k)
                kn = dict(num)
                kn["k"] = mp.mpf(k)
                total += _eval_term_float(sm.term, coeff, kb, kn, mp)
        if side.extra is not None:
            raise ShapeError("standalone expression has no float evaluator")
        return total


def _affine_float(aff, num):
    total = num["k"] * 0 + aff.const
    for name in ("k", "n", "r", "s"):
        coef = getattr(aff, name)
        if coef:
            total += num[name] * coef
    return total


def _eval_term_float(term, coeff, exact_bindings, num, mp):
    product = mp.mpf(1)
    for f in term.factors:
        if isinstance(f, FBinom):
            b = mp.binomial(_affine_float(f.top, num), _affine_float(f.bot, num))
            product *= b if f.power == 1 else 1 / b
        elif isinstance(f, FRecipAffine):
            product *= 1 / _affine_float(f.affine, num) ** f.power
        else:
            raise EvalTypeError(f"unknown factor {f!r}")
    value = lift(coeff(exact_bindings)).to_float(mp.mp.dps) * product
    if term.extras:
        bracket = mp.mpf(0)
        for p in term.extras:
            c = mp.mpf(p.coeff.numerator) / p.coeff.denominator
            x = _affine_float(p.argument, num)
            if isinstance(p, HPiece):
                bracket += c * (mp.digamma(x + 1) + mp.euler)
            else:
                bracket += c / x
        value *= bracket
    return value


@dataclass(frozen=True)
class DerivativeCheck:
    param: str
    point: dict
    h: Fraction
    lhs_numeric: object
    lhs_symbolic: object
    rhs_numeric: object
    rhs_symbolic: object
    max_rel_dev: float
    tolerance: float
    passed: bool


def float_derivative_check(cid_parent, param, point, h=Fraction(1, 10 ** 6),
                           precision_digits=40):
    """Cross-check the symbolic d/d(param) against a central difference.

    ``point`` binds n and the continuous parameters to half-integers;
    the parent identity is evaluated numerically at param +- h and the
    quotient is compared against the exact derivative pushed to floats.
    """
    mp = _require_mpmath()
    h = Fraction(h)
    derived = differentiate(cid_parent, param)
    exact_point = {name: HalfInt.from_value(val) for name, val in point.items()}
    sym = {side: eval_side(getattr(derived, side), exact_point).to_float(precision_digits)
           for side in ("lhs", "rhs")}

    with mp.workdps(precision_digits):
        num = {}
        for side in ("lhs", "rhs"):
            shifted = dict(exact_point)
            base = exact_point[param].as_fraction()
            shifted[param] = base + h
            hi = eval_side_float(getattr(cid_parent, side), shifted, precision_digits)
            shifted[param] = base - h
            lo = eval_side_float(getattr(cid_parent, side), shifted, precision_digits)
            num[side] = (hi - lo) / (2 * mp.mpf(h.numerator) / h.denominator)

        devs = []
        for side in ("lhs", "rhs"):
            scale = max(abs(num[side]), abs(sym[side]), mp.mpf(1))
            devs.append(abs(num[side] - sym[side]) / scale)
        max_dev = float(max(devs))
    tol = max(10 * float(h) ** 2, 10.0 ** (4 - precision_digits))
    return DerivativeCheck(param, dict(point), h,
                           num["lhs"], sym["lhs"], num["rhs"], sym["rhs"],
                           max_dev, tol, max_dev <= tol)


def normalized_for_beta(identity):
    """Flip any 1+t bases via t -> -t so beta_transform applies."""
    needs = any(t.base == "1+t" and not t.base_exp.is_zero
                for side in (identity.lhs, identity.rhs) for t in side.terms)
    return substitute_neg_t(identity) if needs else identity
