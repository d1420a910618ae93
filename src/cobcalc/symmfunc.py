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

from .core_algebra import ZZ, TRING, TEPS, BDomain, TruncatedSeries
from .fgl import chx_b_image, cha_b_image
from .chow_models import VirtualSplitBundle, cm_add, cm_convert, cm_scale

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


def _pi_of_element(model, dom, img, u):
    """pi evaluated on a nilpotent codim-1 element: 1 + b_1 u + b_2 u^2 + ..."""
    out = model.one(dom)
    p = model.one(ZZ)
    for i in range(1, model.dim + 1):
        p = model.mul(ZZ, p, u)
        if not p:
            break
        bi = img(i)
        out = cm_add(dom, out, cm_scale(dom, cm_convert(dom, p), bi))
    return out


def total_P(E, dom):
    """Product of pi(c_1) over the lines of E, with inverted factors for the
    negative part; trivial summands contribute pi(0) = 1."""
    model = E.model
    img = b_image_for(dom)
    out = model.one(dom)
    for line in E.plus_lines:
        out = model.mul(dom, out, _pi_of_element(model, dom, img, line))
    for line in E.minus_lines:
        f = _pi_of_element(model, dom, img, line)
        out = model.mul(dom, out, model.inverse_unit(dom, f))
    return out


def _ypoly_mul(model, dom, A, B, y_max):
    out = {}
    for ka, ea in A.items():
        for kb, eb in B.items():
            k = ka + kb
            if k > y_max:
                continue
            term = model.mul(dom, ea, eb)
            if not term:
                continue
            out[k] = cm_add(dom, out.get(k, {}), term)
    return {k: v for k, v in out.items() if v}


def _ypoly_inverse(model, dom, A, y_max):
    one = {0: model.one(dom)}
    zero_exp = (0,) * len(model.gens)
    c00 = A.get(0, {}).get(zero_exp, dom.zero())
    if not dom.eq(c00, dom.one()):
        raise ValueError("y-polynomial inverse needs constant term 1")
    M = {k: dict(v) for k, v in A.items()}
    M[0] = dict(M.get(0, {}))
    M[0].pop(zero_exp, None)
    if not M[0]:
        M.pop(0, None)
    acc = one
    term = one
    for _ in range(model.dim + y_max + 1):
        term = _ypoly_mul(model, dom, term, M, y_max)
        term = {k: cm_scale(dom, v, dom.from_int(-1)) for k, v in term.items()}
        if not term:
            break
        for k, v in term.items():
            acc[k] = cm_add(dom, acc.get(k, {}), v)
        acc = {k: v for k, v in acc.items() if v}
    return acc


def _pi_shifted(model, dom, img, u, y_max):
    """pi(u + y) as a y-polynomial: dict {y power: element}."""
    n = model.dim
    powers = [model.one(ZZ)]
    for _ in range(n):
        nxt = model.mul(ZZ, powers[-1], u)
        if not nxt:
            break
        powers.append(nxt)
    out = {}
    for k in range(0, y_max + 1):
        elt = {}
        for d, updeg in enumerate(powers):
            i = k + d
            if i == 0:
                elt = cm_add(dom, elt, model.one(dom))
                continue
            c = comb(i, k)
            bi = img(i)
            elt = cm_add(dom, elt, cm_scale(dom, cm_convert(dom, updeg), dom.int_scale(bi, c)))
        if elt:
            out[k] = elt
    return out


def total_P_deformed(E, dom, y_max):
    """total_P of E with every line root u shifted to u + y (and trivial
    roots to y), as a y-polynomial truncated at y^y_max."""
    model = E.model
    img = b_image_for(dom)
    zero = {}
    out = {0: model.one(dom)}
    for line in E.plus_lines:
        out = _ypoly_mul(model, dom, out, _pi_shifted(model, dom, img, line, y_max), y_max)
    for _ in range(E.plus_trivial):
        out = _ypoly_mul(model, dom, out, _pi_shifted(model, dom, img, zero, y_max), y_max)
    for line in E.minus_lines:
        f = _pi_shifted(model, dom, img, line, y_max)
        out = _ypoly_mul(model, dom, out, _ypoly_inverse(model, dom, f, y_max), y_max)
    for _ in range(E.minus_trivial):
        f = _pi_shifted(model, dom, img, zero, y_max)
        out = _ypoly_mul(model, dom, out, _ypoly_inverse(model, dom, f, y_max), y_max)
    return out


def class_coefficient(P, alpha):
    """The b^alpha coefficient of a total_P-shaped element (exponent ->
    b-ring element), as an int-coefficient element of the same model."""
    out = {}
    for e, coeff in P.items():
        v = coeff.get(alpha)
        if v:
            out[e] = v
    return out
