"""Formal group laws over graded coefficient domains.

A law is a bivariate truncated series F(x, y) with F(x, 0) = x, F(0, y) = y,
symmetric in x and y, associative up to the checked order, and graded: the
coefficient of x^i y^j is homogeneous of degree 1 - i - j.  Construction
verifies all of this, so a FormalGroupLaw instance is trusted downstream.

The universal law and its reductions mod p are read off one coefficient
store, together with the table L_k(n) = [x^n] log(x)^k.  Their multiples
[a](x) = exp(a log x), the formal inverse [-1](x) among them, are read off
that table as well, and since every truncation of such a law holds the
same store coefficients, their associativity check runs once per domain in
a process, at order ASSOC_CHECK_CAP; the other axioms hold by
construction.  Laws built any other way (the closed forms, the additive
law, images under `specialize`) get [a](x) by composing the law with
itself, the inverse by a fixed-point iteration, and the full check at every
construction.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb

from .core_algebra import (
    ZZ, TRING, TEPS, b_ring, int_mod, is_prime, sparse_from_int, TruncatedSeries,
)

# associativity is a trivariate identity; comparing it in full at high order
# is the dominant cost, so it is checked at min(order, this cap)
ASSOC_CHECK_CAP = 9


class FormalGroupLaw:
    __slots__ = ("dom", "order", "series", "_mult_cache", "_inverse")

    def __init__(self, series):
        if series.vars != ("x", "y"):
            raise ValueError("law series must have variables (x, y)")
        self.dom = series.dom
        self.order = series.order
        self.series = series
        self._mult_cache = {}
        self._inverse = None
        self._check_axioms()

    def coefficient(self, i, j):
        return self.series.coefficient((i, j))

    def _check_axioms(self):
        dom = self.dom
        if self.order > 1 and not dom.eq(self.coefficient(1, 0), dom.one()):
            raise ValueError("law fails F(x,0) = x at the linear term")
        for (i, j), c in self.series.coeffs.items():
            if j == 0 and i != 1:
                raise ValueError("law fails F(x,0) = x at x^%d" % i)
            if i == 0 and j != 1:
                raise ValueError("law fails F(0,y) = y at y^%d" % j)
            if not dom.eq(c, self.coefficient(j, i)):
                raise ValueError("law is not commutative at x^%d y^%d" % (i, j))
            if not dom.is_homogeneous(c, 1 - i - j):
                raise ValueError(
                    "coefficient of x^%d y^%d is not homogeneous of degree %d"
                    % (i, j, 1 - i - j)
                )
        _check_associativity(self.series.truncate(min(self.order, ASSOC_CHECK_CAP)))

    def formal_inverse(self):
        """The series m(x) with F(x, m(x)) = 0: the fixed point of
        m = -x - mixed(x, m), for the terms `mixed` of F divisible by xy.
        Each step fixes one more degree, so order - 1 steps reach it."""
        if self._inverse is None:
            dom = self.dom
            x = TruncatedSeries.variable(dom, ("x",), self.order, "x")
            mixed = TruncatedSeries(
                dom,
                ("x", "y"),
                self.order,
                {e: c for e, c in self.series.coeffs.items() if e[0] >= 1 and e[1] >= 1},
                _trusted=True,
            )
            m = x.neg()
            for _ in range(self.order - 1):
                nxt = x.add(mixed.compose({"x": x, "y": m})).neg()
                if nxt == m:
                    break
                m = nxt
            self._inverse = m
        return self._inverse

    def formal_mult(self, a):
        """The a-fold formal sum [a](x); [0] = 0, [a] = F([a-1](x), x),
        [-a] = inverse([a])."""
        if a in self._mult_cache:
            return self._mult_cache[a]
        dom = self.dom
        x = TruncatedSeries.variable(dom, ("x",), self.order, "x")
        if a == 0:
            r = TruncatedSeries.zero(dom, ("x",), self.order)
        elif a > 0:
            r = self.series.compose({"x": self.formal_mult(a - 1), "y": x})
        else:
            r = self.formal_inverse().compose({"x": self.formal_mult(-a)})
        self._mult_cache[a] = r
        return r


def _check_associativity(f):
    """Raise ValueError unless F(F(x, y), z) = F(x, F(y, z)) for the law
    series f, to its order."""
    A = f.order
    if A < 3:
        return
    vars3 = ("x", "y", "z")
    X = TruncatedSeries.variable(f.dom, vars3, A, "x")
    Y = TruncatedSeries.variable(f.dom, vars3, A, "y")
    Z = TruncatedSeries.variable(f.dom, vars3, A, "z")
    lhs = f.compose({"x": f.compose({"x": X, "y": Y}), "y": Z})
    rhs = f.compose({"x": X, "y": f.compose({"x": Y, "y": Z})})
    if lhs != rhs:
        raise ValueError("law is not associative to order %d" % A)


def formal_inverse(law):
    return law.formal_inverse()


def formal_mult(law, a):
    return law.formal_mult(a)


# ---------------------------------------------------------------------------
# the universal law and its standard specializations

# The universal law F(x, y) = exp(log x + log y), with exp(x) = x + b1 x^2 +
# b2 x^3 + ...  A coefficient of total degree d does not depend on the
# truncation order, so one store grows degree by degree and serves every
# order.  With L_k(n) = [x^n] log(x)^k and b_0 = 1:
#   L_k(n) = sum_{a=1}^{n-k+1} L_1(a) L_{k-1}(n-a)       (k >= 2)
#   L_1(n) = -sum_{k=2}^{n} b_{k-1} L_k(n)                 ([x^n] exp(log x) = 0)
#   F_ab   = sum_{j,l >= 1} b_{j+l-1} C(j+l, j) L_j(a) L_l(b)
#   [x^n][a](x) = sum_{k=1}^{n} a^k b_{k-1} L_k(n)          ([a](x) = exp(a log x))
# _LOG_POWERS[n] maps k to L_k(n), _EXP_LOG[n] maps k to b_{k-1} L_k(n), and
# _LAW_BY_DEGREE[d] maps (i, j), i + j = d, to F_ij.  Zero entries are not
# stored.
_B = b_ring(ZZ)
_LOG_POWERS = [{}, {1: _B.one()}]
_EXP_LOG = [{}, {1: _B.one()}]
_LAW_BY_DEGREE = [{}, {(1, 0): _B.one(), (0, 1): _B.one()}]
# the name of every domain whose store image passed the associativity check
# at order ASSOC_CHECK_CAP in this process
_ASSOC_CHECKED = set()


def _grow_log_powers(n):
    """Extend the tables L_k(.) and b_{k-1} L_k(.) through degree n."""
    B = _B
    while len(_LOG_POWERS) <= n:
        d = len(_LOG_POWERS)
        row = {}
        terms = {}
        for k in range(2, d + 1):
            acc = B.zero()
            for a in range(1, d - k + 2):
                lower = _LOG_POWERS[d - a].get(k - 1)
                if lower:
                    acc = B.add(acc, B.mul(_LOG_POWERS[a][1], lower))
            if acc:
                row[k] = acc
                terms[k] = B.mul(B.gen(k - 1), acc)
        l1 = B.zero()
        for v in terms.values():
            l1 = B.add(l1, v)
        if l1:
            row[1] = terms[1] = B.neg(l1)
        _LOG_POWERS.append(row)
        _EXP_LOG.append(terms)


def _grow_universal(degree):
    """Extend the store of law coefficients through total degree `degree`."""
    B = _B
    _grow_log_powers(degree - 1)
    while len(_LAW_BY_DEGREE) <= degree:
        d = len(_LAW_BY_DEGREE)
        row = {}
        for a in range(1, d // 2 + 1):
            b = d - a
            by_k = {}
            for j, lj in _LOG_POWERS[a].items():
                for l, ll in _LOG_POWERS[b].items():
                    term = B.int_scale(B.mul(lj, ll), comb(j + l, j))
                    by_k[j + l] = B.add(by_k.get(j + l, B.zero()), term)
            c = B.zero()
            for k, v in by_k.items():
                c = B.add(c, B.mul(B.gen(k - 1), v))
            if c:
                row[(a, b)] = row[(b, a)] = c
        _LAW_BY_DEGREE.append(row)


def _store_series(dom, order, image):
    """The law series to `order` read off the store through `image`."""
    _grow_universal(order - 1)
    coeffs = {}
    for d in range(1, order):
        for e, c in _LAW_BY_DEGREE[d].items():
            v = image(c)
            if not dom.is_zero(v):
                coeffs[e] = v
    return TruncatedSeries(dom, ("x", "y"), order, coeffs, _trusted=True)


class _StoreLaw(FormalGroupLaw):
    """A law read off the shared store through the ring map `image` from
    ZZ[b] to `dom`: the identity for the universal law, reduction mod p for
    its reductions.  Its truncation to any order is the image of the same
    store coefficients, so one associativity check at order ASSOC_CHECK_CAP
    per dom covers every order, and [a](x) is the image of the universal
    [a](x)."""

    __slots__ = ("_image",)

    def __init__(self, dom, order, image):
        if order < 2:
            raise ValueError("the universal law needs order >= 2, got %d" % order)
        self._image = image
        super().__init__(_store_series(dom, order, image))

    def _check_axioms(self):
        """Check associativity only, once per dom, on the store image to
        order ASSOC_CHECK_CAP: every lower truncation holds the same
        coefficients, and every higher one is checked to that order anyway.
        Unit, symmetry and grading hold by construction: the store holds x
        and y, sets F_ab = F_ba, holds no other pure power of x or y, and
        each F_ab is homogeneous of degree 1 - a - b by its formula; `image`
        is a ring map, so it keeps all three."""
        if self.dom.name not in _ASSOC_CHECKED:
            _check_associativity(_store_series(self.dom, ASSOC_CHECK_CAP, self._image))
            _ASSOC_CHECKED.add(self.dom.name)

    def formal_inverse(self):
        return self.formal_mult(-1)

    def formal_mult(self, a):
        """[a](x) = exp(a log x), whose x^n coefficient is
        sum_k a^k b_{k-1} L_k(n), mapped into the law's domain."""
        r = self._mult_cache.get(a)
        if r is None:
            B, dom = _B, self.dom
            _grow_log_powers(self.order - 1)
            coeffs = {}
            for n in range(1, self.order):
                acc = B.zero()
                for k, term in _EXP_LOG[n].items():
                    acc = B.add(acc, B.int_scale(term, a ** k))
                v = self._image(acc)
                if not dom.is_zero(v):
                    coeffs[(n,)] = v
            r = self._mult_cache[a] = TruncatedSeries(dom, ("x",), self.order, coeffs, _trusted=True)
        return r


@lru_cache(maxsize=None)
def universal_fgl(order):
    """Universal formal group law over ZZ[b1, b2, ...] to total degree
    < order: exp(log x + log y) for the universal exponential
    x + b1 x^2 + b2 x^3 + ..., read off the shared coefficient store."""
    return _StoreLaw(_B, order, lambda c: c)


def specialize(law, new_dom, coeff_fn):
    """Apply coeff_fn to every coefficient of the law; the result is
    re-validated (including the grading), so an image that breaks the
    degree convention is rejected."""
    return FormalGroupLaw(law.series.map_coefficients(new_dom, coeff_fn))


def additive_fgl(order):
    x = TruncatedSeries.variable(ZZ, ("x", "y"), order, "x")
    y = TruncatedSeries.variable(ZZ, ("x", "y"), order, "y")
    return FormalGroupLaw(x.add(y))


@lru_cache(maxsize=None)
def chx_fgl(order):
    """Closed-form law (x + y - 2txy) / (1 - t^2 xy) over ZZ[t]."""
    dom = TRING
    X = TruncatedSeries.variable(dom, ("x", "y"), order, "x")
    Y = TruncatedSeries.variable(dom, ("x", "y"), order, "y")
    XY = X.mul(Y)
    num = X.add(Y).add(XY.scale(dom.monomial(1, -2)))
    den = TruncatedSeries.constant(dom, ("x", "y"), order, dom.one()).sub(
        XY.scale(dom.monomial(2, 1))
    )
    return FormalGroupLaw(num.mul(den.inverse()))


@lru_cache(maxsize=None)
def cha_fgl(order):
    """Closed-form law x + y + eps * sum_i t^i ((x+y)^{i+1} - x^{i+1} - y^{i+1})
    over ZZ[t, eps]/eps^2."""
    dom = TEPS
    X = TruncatedSeries.variable(dom, ("x", "y"), order, "x")
    Y = TruncatedSeries.variable(dom, ("x", "y"), order, "y")
    S = X.add(Y)
    F = S
    Sp, Xp, Yp = S.mul(S), X.mul(X), Y.mul(Y)
    for i in range(1, order - 1):
        F = F.add(Sp.sub(Xp).sub(Yp).scale(dom.monomial(i, 1, 1)))
        Sp, Xp, Yp = Sp.mul(S), Xp.mul(X), Yp.mul(Y)
    return FormalGroupLaw(F)


@lru_cache(maxsize=None)
def universal_fgl_mod_p(order, p):
    """The universal law with every coefficient reduced mod the prime p,
    over (ZZ/p)[b1, b2, ...]."""
    if not is_prime(p):
        raise ValueError("the universal law mod p needs a prime p, got %d" % p)
    Fp = int_mod(p)
    return _StoreLaw(b_ring(Fp), order, partial(sparse_from_int, Fp))


# ---------------------------------------------------------------------------
# transport of ZZ[b] elements along b_i |-> (image in another domain)

def b_transport(elt, new_dom, gen_image):
    """Push a BDomain element through b_i |-> gen_image(i)."""
    out = new_dom.zero()
    for parts, c in elt.items():
        term = new_dom.mul(new_dom.from_int(c), _monomial_image(new_dom, gen_image, parts))
        out = new_dom.add(out, term)
    return out


# the b-monomials of degree <= 17, the universal law's at order 18, number
# about 1,200; the bound keeps a caller that passes a new gen_image on every
# call from growing the memo without limit
@lru_cache(maxsize=4096)
def _monomial_image(new_dom, gen_image, parts):
    """The image of the b-monomial `parts` (a partition) under
    b_i |-> gen_image(i), built on the image of its longest proper prefix."""
    if not parts:
        return new_dom.one()
    return new_dom.mul(_monomial_image(new_dom, gen_image, parts[:-1]), gen_image(parts[-1]))


def chx_b_image(i):
    """b_i |-> (-t)^i, the substitution carrying the universal law to chx_fgl."""
    return TRING.monomial(i, (-1) ** i)


def cha_b_image(i):
    """b_i |-> eps * t^i, carrying the universal law to cha_fgl."""
    return TEPS.monomial(i, 1, 1)
