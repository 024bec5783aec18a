"""The float evaluation of closed sides and the derivative cross-check: a
numeric oracle that only the tests use.  ``eval_side_float`` runs the
coefficients and sum bounds, which read no grid parameter, on the exact
evaluator, and the factors and bracket on mpmath numbers, so r and s need
not be half-integers there; ``float_derivative_check`` holds the exact
d/dr and d/ds of ``beta.differentiate`` to a central difference of it."""

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from finsum import dsl
from finsum.beta import differentiate, eval_side
from finsum.field import half, lift, to_int
from finsum.model import FBinom, FFact, FHarm, HPiece


def eval_side_float(side, bindings, precision_digits=30):
    """Numeric value of a side at a point whose r/s need not be half-integers.

    Coefficients and sum bounds, which read no grid parameter, run on the
    exact evaluator with r and s left unbound; only the factors and the
    bracket read r and s, as numbers: a factorial as a Gamma value and an
    H factor or piece as a digamma value."""
    with mp.workdps(precision_digits):
        exact = {name: val for name, val in bindings.items() if name not in ("r", "s")}
        num = {name: mp.mpf(val.numerator) / val.denominator for name, val in bindings.items()}
        total = mp.mpf(0)
        for sm in side.summands:
            lo = to_int(dsl.compile(sm.lower)(exact))
            hi = to_int(dsl.compile(sm.upper)(exact))
            coeff = dsl.compile(sm.term.coeff)
            for k in range(lo, hi + 1):
                total += _eval_term_float(sm.term, coeff, dict(exact, k=k),
                                          dict(num, k=mp.mpf(k)))
        return total


def _affine_float(aff, num):
    return sum((num[name] * c for name, c in aff.terms), num["k"] * 0 + aff.const)


def _harmonic_float(x):
    return mp.digamma(x + 1) + mp.euler


def _eval_term_float(term, coeff, exact_bindings, num):
    product = mp.mpf(1)
    for f in term.factors:
        if isinstance(f, FBinom):
            b = mp.binomial(_affine_float(f.top, num), _affine_float(f.bot, num))
        else:
            b = _affine_float(f.affine, num)
            if type(f) is FFact:
                b = mp.gamma(b + 1)
            elif type(f) is FHarm:
                b = _harmonic_float(b)
        product *= b if f.power == 1 else 1 / b
    value = lift(coeff(exact_bindings)).to_float(mp.mp.dps) * product
    if term.extras:
        bracket = mp.mpf(0)
        for p in term.extras:
            c = mp.mpf(p.coeff.numerator) / p.coeff.denominator
            x = _affine_float(p.argument, num)
            if isinstance(p, HPiece):
                bracket += c * _harmonic_float(x)
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
    h = Fraction(h)
    derived = differentiate(cid_parent, param)
    exact_point = {name: half(val) for name, val in point.items()}
    sym = {side: eval_side(getattr(derived, side), exact_point).to_float(precision_digits)
           for side in ("lhs", "rhs")}

    with mp.workdps(precision_digits):
        num = {}
        for side in ("lhs", "rhs"):
            shifted = dict(exact_point)
            base = exact_point[param]
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
