"""The multiplicative characteristic class P and its deformation.

P(E) is the product of pi(c_1(L)) = 1 + b_1 c_1(L) + b_2 c_1(L)^2 + ... over
the line summands L of a virtual split bundle, times the product of
(1/pi)(c_1(L)) over its negative part.  With coefficients in the b-ring, the
b^alpha coefficient of P(E) is the alpha-indexed class of E, so every
partition-indexed Chern number of a variety is a coefficient of its
fundamental class.  The deformed class shifts every root by a formal
variable y; the residue pushforward is built from it."""

from __future__ import annotations

from .core_algebra import TRING, TEPS, BDomain, TruncatedSeries
from .chow_models import multiplicative_class


# ---------------------------------------------------------------------------
# the multiplicative class P and its deformation

def b_image_for(dom):
    """How the universal coefficients b_i land in a target domain."""
    if isinstance(dom, BDomain):
        return dom.gen
    from .fgl import chx_b_image, cha_b_image

    if dom is TRING:
        return chx_b_image
    if dom is TEPS:
        return cha_b_image
    raise ValueError("no b-coefficient image for domain %s" % dom.name)


def pi_series(dom, order):
    """1 + b_1 y + b_2 y^2 + ... transported into dom, as a univariate
    truncated series in y."""
    img = b_image_for(dom)
    coeffs = {(0,): dom.one()}
    for i in range(1, order):
        coeffs[(i,)] = img(i)
    return TruncatedSeries(dom, ("y",), order, coeffs)


def total_P_deformed(E, dom, y_max):
    """total_P of E with every line root u shifted to u + y (and trivial
    roots to y), as a y-polynomial truncated at y^y_max."""
    return multiplicative_class(E, pi_series(dom, E.model.dim + y_max + 1), y_max)


def total_P(E, dom):
    """Product of pi(c_1) over the lines of E, with 1/pi for the negative
    part; trivial summands contribute pi(0) = 1."""
    return total_P_deformed(E, dom, 0)[0]

