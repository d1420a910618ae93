"""Formal group laws over graded coefficient domains.

Every law is the universal law pushed along a ring map.  The universal law
F(x, y) = exp(log x + log y) over ZZ[b1, b2, ...] is read off one
coefficient store, built in Horner form from the table L_k(n) = [x^n] log(x)^k.
A `FormalGroupLaw(dom, order, image)` is that store truncated below total
degree `order`, with each coefficient pair F_ab = F_ba mapped once through
`image`, a ring map from ZZ[b] into `dom`.  Its multiples [a](x) = exp(a log x),
the inverse [-1](x) among them, are the store's multiples mapped the same way.

The constructors differ only in the image: the identity (`universal_fgl`),
reduction mod p (`universal_fgl_mod_p`), b_i |-> (-t)^i into ZZ[t]
(`chx_fgl`), b_i |-> eps t^i into ZZ[t, eps]/eps^2 (`cha_fgl`) and
b_i |-> 0 into ZZ (`additive_fgl`).  The store has the unit, the symmetry
and the grading (the coefficient of x^i y^j is homogeneous of degree
1 - i - j) by construction, and a ring map keeps them.  Every truncation of
such a law holds the same mapped coefficients, so its associativity check,
one composition F(F(x, y), z) compared with its rotation, runs once per
(domain, image) in a process, at order ASSOC_CHECK_CAP.  `specialize`
pushes a law further along a caller's coefficient function, which nothing
here can vouch for, so its result gets the full check once per distinct
coefficient table: the check reads only the series, and a table equal to
one that passed at the same (domain, order) passes again.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb

from .core_algebra import (
    ZZ, TRING, TEPS, _series_power, b_ring, int_mod, is_int, is_prime, sparse_from_int,
    TruncatedSeries,
)

# associativity is a trivariate identity; comparing it in full at high order
# is the dominant cost, so it is checked at min(order, this cap)
ASSOC_CHECK_CAP = 9


class FormalGroupLaw:
    """The universal law's store truncated below total degree `order`, with
    each coefficient mapped through the ring map `image` from ZZ[b] into
    `dom`.  The class trusts `image` to be a ring map; the constructors
    and `specialize`, which check the laws they build, are the way in."""

    __slots__ = ("dom", "order", "image", "series", "_mult_cache")

    def __init__(self, dom, order, image):
        if not is_int(order) or order < 2:
            raise ValueError("a formal group law needs an int order >= 2, got %r" % (order,))
        self.dom = dom
        self.order = order
        self.image = image
        self.series = _store_series(dom, order, image)
        self._mult_cache = {}

    def coefficient(self, i, j):
        return self.series.coefficient((i, j))

    def formal_mult(self, a):
        """The a-fold formal sum [a](x) = exp(a log x) for an integer a: its
        x^n coefficient is sum_k a^k b_{k-1} L_k(n), mapped into the law's
        domain.  [0](x) = 0 and [-1](x) is the formal inverse."""
        if not is_int(a):
            raise ValueError("the formal multiple [a](x) needs an integer a, got %r" % (a,))
        r = self._mult_cache.get(a)
        if r is None:
            dom = self.dom
            coeffs = {}
            for n in range(1, self.order):
                v = self.image(mult_coefficient(n, a))
                if not dom.is_zero(v):
                    coeffs[(n,)] = v
            r = self._mult_cache[a] = TruncatedSeries(dom, ("x",), self.order, coeffs, _trusted=True)
        return r


def formal_mult(law, a):
    return law.formal_mult(a)


def check_law_series(series):
    """Raise ValueError unless the series F(x, y) is a formal group law to
    its order: F(x, 0) = x, F(0, y) = y, the coefficient of x^i y^j
    homogeneous of degree 1 - i - j, F symmetric in x and y, and associative
    up to order min(order, ASSOC_CHECK_CAP)."""
    if series.vars != ("x", "y"):
        raise ValueError("law series must have variables (x, y)")
    dom = series.dom
    if series.order > 1 and not dom.eq(series.coefficient((1, 0)), dom.one()):
        raise ValueError("law fails F(x,0) = x at the linear term")
    for (i, j), c in series.coeffs.items():
        if j == 0 and i != 1:
            raise ValueError("law fails F(x,0) = x at x^%d" % i)
        if i == 0 and j != 1:
            raise ValueError("law fails F(0,y) = y at y^%d" % j)
        if not dom.is_homogeneous(c, 1 - i - j):
            raise ValueError("coefficient of x^%d y^%d is not homogeneous of degree %d"
                             % (i, j, 1 - i - j))
    _check_associativity(series)


def _check_associativity(f):
    """Raise ValueError unless the law series f is commutative and, to order
    A = min(order, ASSOC_CHECK_CAP), associative.  For a commutative F,
    F(x, F(y, z)) = F(F(y, z), x) = G(y, z, x) with G(x, y, z) = F(F(x, y), z),
    so F is associative exactly when G[(a, b, c)] = G[(b, c, a)] for all a, b, c."""
    dom = f.dom
    for (i, j), c in f.coeffs.items():
        if not dom.eq(c, f.coefficient((j, i))):
            raise ValueError("law is not commutative at x^%d y^%d" % (i, j))
    A = min(f.order, ASSOC_CHECK_CAP)
    if A < 3:
        return
    f = f.truncate(A)
    X, Y, Z = (TruncatedSeries.variable(dom, ("x", "y", "z"), A, v) for v in "xyz")
    G = f.compose({"x": f.compose({"x": X, "y": Y}), "y": Z})
    for (a, b, c), v in G.coeffs.items():
        if not dom.eq(v, G.coefficient((b, c, a))):
            raise ValueError("law is not associative to order %d" % A)


# ---------------------------------------------------------------------------
# the universal law's coefficient store

# The universal law F(x, y) = exp(log x + log y), with exp(x) = x + b1 x^2 +
# b2 x^3 + ...  A coefficient of total degree d does not depend on the
# truncation order, so one store grows degree by degree and serves every
# order.  With L_k(n) = [x^n] log(x)^k, b_0 = 1 and phi(z) = exp(z)/z =
# 1 + b1 z + b2 z^2 + ...:
#   L_k(n) = (k/n) [z^{n-k}] phi(z)^{-n}                  (Lagrange inversion)
# as log is the compositional inverse of exp; phi^{-n} is one pass of
# Miller's recurrence, each step a monomial b_j times a polynomial, so a row
# reads no lower row.  Then
#   F_ab   = sum_{j,l >= 1} b_{j+l-1} C(j+l, j) L_j(a) L_l(b) = sum_{j=1}^{a} L_j(a) M_j(b)
#   M_j(b) = sum_{l=1}^{b} C(j+l, j) b_{j+l-1} L_l(b)       (Horner form, a <= b)
#   [x^n][a](x) = sum_{k=1}^{n} a^k b_{k-1} L_k(n)          ([a](x) = exp(a log x))
# _LOG_POWERS[n] maps k to L_k(n), _EXP_LOG[n] maps k to b_{k-1} L_k(n),
# _HORNER[n] maps j to M_j(n) for j up to the largest a <= n read so far, and
# _LAW_BY_DEGREE[d] maps (i, j), i + j = d, to F_ij.  None of them stores a
# zero; no M_j(b) or F_ab is zero, as it holds C(j+b, j) b_{j+b-1} (j = a).
_B = b_ring(ZZ)
_LOG_POWERS = [{}, {1: _B.one()}]
_EXP_LOG = [{}, {1: _B.one()}]
_HORNER = [{}, {}]
_LAW_BY_DEGREE = [{}, {(1, 0): _B.one(), (0, 1): _B.one()}]


def _grow_log_powers(n):
    """Extend the tables L_k(.) and b_{k-1} L_k(.) through degree n, each
    row read off phi^(-d) by Lagrange inversion."""
    B = _B
    while len(_LOG_POWERS) <= n:
        d = len(_LOG_POWERS)
        phi = TruncatedSeries(B, ("z",), d, {(0,): B.one(), **{(j,): B.gen(j) for j in range(1, d)}},
                              _trusted=True)
        power = _series_power(phi, -d).coeffs
        row, terms = {}, {}
        for k in (*range(2, d + 1), 1):
            c = power.get((d - k,))
            if not c:
                continue
            if any(k * v % d for v in c.values()):
                raise AssertionError("Lagrange inversion leaves a remainder at L_%d(%d)" % (k, d))
            row[k] = {e: k * v // d for e, v in c.items()}
            terms[k] = B.mul(B.gen(k - 1), row[k]) if k > 1 else row[k]
        _LOG_POWERS.append(row)
        _EXP_LOG.append(terms)
        _HORNER.append({})


def _grow_universal(degree):
    """Extend the store of law coefficients through total degree `degree`."""
    B = _B
    _grow_log_powers(degree - 1)
    while len(_LAW_BY_DEGREE) <= degree:
        d = len(_LAW_BY_DEGREE)
        row = {}
        for a in range(1, d // 2 + 1):
            b = d - a
            m = _HORNER[b]
            for j in range(len(m) + 1, a + 1):
                m[j] = B.dot([(B.gen(j + l - 1), v, comb(j + l, j))
                              for l, v in _LOG_POWERS[b].items()])
            row[(a, b)] = row[(b, a)] = B.dot([(v, m[j], 1) for j, v in _LOG_POWERS[a].items()])
        _LAW_BY_DEGREE.append(row)


def mult_coefficient(n, a):
    """[x^n][a](x) over B(ZZ) for an int n >= 0 and an int a, read off the
    store as one `lincomb`: sum_k a^k b_{k-1} L_k(n).  Anything else,
    a bool included, raises ValueError before the store grows."""
    if not (is_int(n) and n >= 0 and is_int(a)):
        raise ValueError("[x^n][a](x) needs an int n >= 0 and an int a, got n=%r, a=%r" % (n, a))
    _grow_log_powers(n)
    return _B.lincomb([(term, a ** k) for k, term in _EXP_LOG[n].items()])


def _store_series(dom, order, image):
    """The law series to `order`: the store through `image`, once per pair F_ab = F_ba."""
    _grow_universal(order - 1)
    coeffs, mapped = {}, {}
    for d in range(1, order):
        for (a, b), c in _LAW_BY_DEGREE[d].items():
            v = mapped[(a, b)] = mapped[(b, a)] if (b, a) in mapped else image(c)
            if not dom.is_zero(v):
                coeffs[(a, b)] = v
    return TruncatedSeries(dom, ("x", "y"), order, coeffs, _trusted=True)


# ---------------------------------------------------------------------------
# transport of ZZ[b] elements along b_i |-> (image in another domain)

def b_transport(elt, new_dom, gen_image):
    """Push a BDomain element through b_i |-> gen_image(i): the sum of
    c * image(m) over its monomials m, as one `lincomb`, with each image
    read off the table of (new_dom, gen_image)."""
    table = _image_table(new_dom, gen_image)
    return new_dom.lincomb([(table[parts], c) for parts, c in elt.items()])


class _ImageTable(dict):
    """b-partition -> its image under b_i |-> gen_image(i) in `dom`, each
    entry built on the entry of its longest proper prefix on first lookup."""

    __slots__ = ("dom", "gen_image")

    def __init__(self, dom, gen_image):
        super().__init__({(): dom.one()})
        self.dom = dom
        self.gen_image = gen_image

    def __missing__(self, parts):
        v = self[parts] = self.dom.mul(self[parts[:-1]], self.gen_image(parts[-1]))
        return v


# the universal law at order 18 holds 915 distinct b-monomials, so a table
# stays small; the bound keeps a caller that passes a new gen_image on every
# call from keeping every table it made
@lru_cache(maxsize=8)
def _image_table(new_dom, gen_image):
    """The image table of one (target domain, generator map)."""
    return _ImageTable(new_dom, gen_image)


def chx_b_image(i):
    """b_i |-> (-t)^i, the substitution carrying the universal law to chx_fgl."""
    return TRING.monomial(i, (-1) ** i)


def cha_b_image(i):
    """b_i |-> eps * t^i, carrying the universal law to cha_fgl."""
    return TEPS.monomial(i, 1, 1)


# ---------------------------------------------------------------------------
# the constructors: the universal law and its standard images

# every (domain, image) of a constructor whose law passed the associativity
# check at order ASSOC_CHECK_CAP in this process.  The map is part of the
# key: two maps into one domain give two different laws.
_ASSOC_CHECKED = set()


def _store_law(dom, order, image):
    """The law along one of the constructors' fixed images, whose
    associativity is checked once per (dom, image): every lower truncation
    holds the same coefficients, and every higher one is checked to
    ASSOC_CHECK_CAP anyway."""
    law = FormalGroupLaw(dom, order, image)
    key = (dom, image)
    if key not in _ASSOC_CHECKED:
        _check_associativity(_store_series(dom, ASSOC_CHECK_CAP, image))
        _ASSOC_CHECKED.add(key)
    return law


def _identity(c):
    return c


def _constant_term(c):
    """b_i |-> 0 into ZZ: the constant term of a b-polynomial."""
    return c.get((), 0)


def _chx_image(c):
    return b_transport(c, TRING, chx_b_image)


def _cha_image(c):
    return b_transport(c, TEPS, cha_b_image)


# the reduction ZZ[b] -> (ZZ/p)[b], one object per p, so that the
# associativity memo meets the same map on every call
_REDUCTIONS = {}


# typed, as are the laws below, so that 4.0 does not find the law of order 4
@lru_cache(maxsize=None, typed=True)
def universal_fgl(order):
    """Universal formal group law over ZZ[b1, b2, ...] to total degree
    < order: exp(log x + log y) for the universal exponential
    x + b1 x^2 + b2 x^3 + ..., the store itself."""
    return _store_law(_B, order, _identity)


# typed: 3.0 == 3 must not find the law of the prime 3
@lru_cache(maxsize=None, typed=True)
def universal_fgl_mod_p(order, p):
    """The universal law with every coefficient reduced mod the prime p,
    over (ZZ/p)[b1, b2, ...]."""
    if not is_prime(p):
        raise ValueError("the universal law mod p needs a prime p, got %r" % (p,))
    Fp = int_mod(p)
    image = _REDUCTIONS.setdefault(p, partial(sparse_from_int, Fp))
    return _store_law(b_ring(Fp), order, image)


@lru_cache(maxsize=None, typed=True)
def chx_fgl(order):
    """The law (x + y - 2txy) / (1 - t^2 xy) over ZZ[t]: the universal law
    along b_i |-> (-t)^i."""
    return _store_law(TRING, order, _chx_image)


@lru_cache(maxsize=None, typed=True)
def cha_fgl(order):
    """The law x + y + eps * sum_{i>=1} t^i ((x+y)^{i+1} - x^{i+1} - y^{i+1})
    over ZZ[t, eps]/eps^2: the universal law along b_i |-> eps t^i."""
    return _store_law(TEPS, order, _cha_image)


@lru_cache(maxsize=None, typed=True)
def additive_fgl(order):
    """The additive law x + y over ZZ: the universal law along b_i |-> 0."""
    return _store_law(ZZ, order, _constant_term)


@lru_cache(maxsize=16)
def _passed_table(dom, order):
    """A one-slot list: the last table of a law over `dom` to `order` that
    passed the check in `specialize`."""
    return []


def specialize(law, new_dom, coeff_fn):
    """The law pushed along coeff_fn, which must be a ring map from law.dom
    to new_dom: the result is the store along coeff_fn o law.image, so its
    [a](x) is coeff_fn applied to the law's [a](x) only for a ring map.
    coeff_fn comes from the caller, so it runs on every call, and the
    result's series gets the full check of `check_law_series`, the grading
    included, unless a table equal to it already passed at the same domain
    and order: an image that breaks the degree convention is rejected."""
    image = law.image
    out = FormalGroupLaw(new_dom, law.order, lambda c: coeff_fn(image(c)))
    passed = _passed_table(new_dom, law.order)
    if out.series.coeffs not in passed:
        check_law_series(out.series)
        passed[:] = [out.series.coeffs]
    return out
