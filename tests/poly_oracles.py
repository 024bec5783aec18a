"""Oracles over ``polyverify.DensePoly`` that only the tests use: the exact
integral over [0, 1], and U_2n(sqrt(t)) as a polynomial in t.  The
polynomial and acceptance suites hold expansions to known moments with
them."""

from finsum.field import SymConst
from finsum.polyverify import DensePoly, chebyshev_u


def integrate_unit(poly):
    """Exact integral of the polynomial over [0, 1], as a SymConst."""
    total = SymConst.rational(0)
    for i, c in enumerate(poly.coeffs):
        total = total + c / (i + 1)
    return total


def cheb_u_sqrt_poly(n):
    """U_{2n}(sqrt(t)) as a polynomial in t (even-coefficient compression)."""
    return DensePoly(chebyshev_u(2 * n).coeffs[::2])
