"""The multiplicative characteristic class P and its deformation.

P(E) is the product of pi(c_1(L)) = 1 + b_1 c_1(L) + b_2 c_1(L)^2 + ... over
the line summands L of a virtual split bundle, with inverted factors for the
negative part.  With coefficients in the b-ring, the b^alpha coefficient of
P(E) is the alpha-indexed class of E, so every partition-indexed Chern number
of a variety is a coefficient of its fundamental class.  The deformed class
shifts every root by a formal variable y; the residue pushforward is built
from it."""

from __future__ import annotations

from math import comb

from .core_algebra import (
    ZZ, TRING, TEPS, BDomain, TruncatedSeries, sparse_add, sparse_from_int, sparse_scale,
)
from .fgl import chx_b_image, cha_b_image
from .chow_models import VirtualSplitBundle

__all__ = [
    "total_P",
    "total_P_deformed",
    "class_coefficient",
    "b_image_for",
    "pi_series",
    "VirtualSplitBundle",
]


# ---------------------------------------------------------------------------
# the multiplicative class P and its deformation

def b_image_for(dom):
    """How the universal coefficients b_i land in a target domain."""
    if isinstance(dom, BDomain):
        return dom.gen
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


def _pi_shifted(model, dom, img, u, y_max):
    """pi(u + y) for a codim-1 element u, as a y-polynomial {y power:
    element}: [y^k] pi(u + y) = sum_d C(k + d, k) b_(k+d) u^d."""
    powers = [model.one(ZZ)]
    for _ in range(model.dim):
        nxt = model.mul(ZZ, powers[-1], u)
        if not nxt:
            break
        powers.append(nxt)
    out = {}
    for k in range(y_max + 1):
        elt = model.one(dom) if k == 0 else {}
        for d, u_d in enumerate(powers):
            if k + d:
                coeff = dom.int_scale(img(k + d), comb(k + d, k))
                elt = sparse_add(dom, elt, sparse_scale(dom, sparse_from_int(dom, u_d), coeff))
        if elt:
            out[k] = elt
    return out


def total_P_deformed(E, dom, y_max):
    """total_P of E with every line root u shifted to u + y (and trivial
    roots to y), as a y-polynomial truncated at y^y_max."""
    model = E.model
    img = b_image_for(dom)

    def factors(lines, trivial):
        return [_pi_shifted(model, dom, img, u, y_max) for u in lines + ({},) * trivial]

    return model.product(dom, factors(E.plus_lines, E.plus_trivial),
                         factors(E.minus_lines, E.minus_trivial), y_max)


def total_P(E, dom):
    """Product of pi(c_1) over the lines of E, with inverted factors for the
    negative part; trivial summands contribute pi(0) = 1."""
    model = E.model
    img = b_image_for(dom)

    def factors(lines):
        return [_pi_shifted(model, dom, img, u, 0) for u in lines]

    return model.product(dom, factors(E.plus_lines), factors(E.minus_lines), 0)[0]


def class_coefficient(P, alpha):
    """The b^alpha coefficient of a total_P-shaped element (exponent ->
    b-ring element), as an int-coefficient element of the same model."""
    out = {}
    for e, coeff in P.items():
        v = coeff.get(alpha)
        if v:
            out[e] = v
    return out
