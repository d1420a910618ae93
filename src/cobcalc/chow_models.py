"""Chow rings of towers of projective bundles, with exact intersection
products, degrees, bundle pushforwards, and virtual split vector bundles.

Projective spaces, their products and projective bundles over them are all
towers: each generator xi_i, of codimension 1, is the relative hyperplane
class of P(V_i) over the generators below it, where V_i is a sum of lines
x_1..x_r, and xi_i^r = -(c_1(V_i) xi_i^(r-1) + ... + c_r(V_i)) (Fulton,
Intersection Theory, Rem. 3.2.4).  P^n is P(O^(n+1)) over a point, so its
relation is xi^(n+1) = 0, and a product joins the towers of its factors.
Ring elements are sparse dicts mapping exponent tuples to coefficients in a
chosen Domain; reduction to normal form happens inside multiplication.
Every total class of a split bundle (Chern, P, deformed P) is one
`multiplicative_class`: a `ChowModel.product` with one factor per distinct
root, the power of phi by the root's net multiplicity, shifted by that
root.

P(E) is that class for pi(x) = 1 + b_1 x + b_2 x^2 + ... over B(ZZ).  Its
b^alpha coefficient is the alpha-indexed class of E, so every Chern number
of a variety is a coefficient of its fundamental class, and the residue
pushforward is built from its y-deformation.  A class in another theory is
the image of this one along its group law's ring map (`fgl.b_transport`).
"""

from __future__ import annotations

import json
from functools import reduce
from math import comb
from operator import add as _plus

from .core_algebra import (
    ZZ, TruncatedSeries, _series_power, b_ring, dot_groups, is_int, is_partition, lincomb_groups,
    sparse_lincomb,
)

B = b_ring(ZZ)


# ---------------------------------------------------------------------------
# variety specifications

class VarietySpec:
    """Shape of a variety: multiproj / projbundle / product / disjoint."""

    __slots__ = ("kind", "dims", "base", "lines", "factors", "components")

    def __init__(self, kind, dims=None, base=None, lines=None, factors=None, components=None):
        self.kind = kind
        self.dims = dims
        self.base = base
        self.lines = lines
        self.factors = factors
        self.components = components

    @classmethod
    def multiproj(cls, dims):
        dims = tuple(dims)
        if not all(is_int(d) and d >= 0 for d in dims):
            raise ValueError("multiproj dims must be non-negative integers")
        return cls("multiproj", dims=dims)

    @classmethod
    def point(cls):
        return cls.multiproj(())

    @classmethod
    def projbundle(cls, base, lines):
        lines = tuple(tuple(v) for v in lines)
        if not lines:
            raise ValueError("projbundle needs at least one line")
        for v in lines:
            if not all(is_int(a) for a in v):
                raise ValueError("line vectors must be integer")
        if base.kind == "disjoint":
            raise ValueError("projbundle base must be connected")
        return cls("projbundle", base=base, lines=lines)

    @classmethod
    def product(cls, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product needs at least one factor")
        if any(f.kind == "disjoint" for f in factors):
            raise ValueError("product factors must be connected")
        return cls("product", factors=factors)

    @classmethod
    def disjoint(cls, components):
        components = tuple(components)
        if not components:
            raise ValueError("disjoint union needs at least one component")
        if any(c.kind == "disjoint" for c in components):
            raise ValueError("nested disjoint unions: flatten first")
        d = components[0].dim()
        if any(c.dim() != d for c in components):
            raise ValueError("disjoint components must have equal dimension")
        return cls("disjoint", components=components)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "type" not in obj:
            raise ValueError("variety spec must be an object with a 'type' field")
        t = obj["type"]

        def field(name, kind):
            val = obj.get(name)
            if not isinstance(val, kind):
                raise ValueError("%s spec needs a field %r holding a JSON %s"
                                 % (t, name, "object" if kind is dict else "list"))
            return val

        if t == "multiproj":
            return cls.multiproj(field("dims", list))
        if t == "projbundle":
            lines = field("lines", list)
            if not all(isinstance(v, list) for v in lines):
                raise ValueError("projbundle spec needs a field 'lines' holding a JSON list of lists")
            return cls.projbundle(cls.from_json(field("base", dict)), lines)
        if t == "product":
            return cls.product([cls.from_json(f) for f in field("factors", list)])
        if t == "disjoint":
            return cls.disjoint([cls.from_json(c) for c in field("components", list)])
        raise ValueError("unknown variety type %r" % t)

    def to_json(self):
        if self.kind == "multiproj":
            return {"type": "multiproj", "dims": list(self.dims)}
        if self.kind == "projbundle":
            return {"type": "projbundle", "base": self.base.to_json(), "lines": [list(v) for v in self.lines]}
        if self.kind == "product":
            return {"type": "product", "factors": [f.to_json() for f in self.factors]}
        return {"type": "disjoint", "components": [c.to_json() for c in self.components]}

    def dim(self):
        if self.kind == "multiproj":
            return sum(self.dims)
        if self.kind == "projbundle":
            return self.base.dim() + len(self.lines) - 1
        if self.kind == "product":
            return sum(f.dim() for f in self.factors)
        return self.components[0].dim()

    def canonical(self):
        """Flatten products and merge products of projective spaces."""
        if self.kind == "multiproj":
            return self
        if self.kind == "projbundle":
            return VarietySpec.projbundle(self.base.canonical(), self.lines)
        if self.kind == "disjoint":
            return VarietySpec.disjoint([c.canonical() for c in self.components])
        flat = []
        for f in self.factors:
            f = f.canonical()
            if f.kind == "product":
                flat.extend(f.factors)
            else:
                flat.append(f)
        if all(f.kind == "multiproj" for f in flat):
            dims = []
            for f in flat:
                dims.extend(f.dims)
            return VarietySpec.multiproj(dims)
        if len(flat) == 1:
            return flat[0]
        return VarietySpec.product(flat)

    def key(self):
        return json.dumps(self.to_json(), sort_keys=True)

    def __repr__(self):
        return "<spec %s>" % self.key()

    def __eq__(self, other):
        return isinstance(other, VarietySpec) and self.key() == other.key()


# ---------------------------------------------------------------------------
# element helpers (sparse elements: exponent tuple -> domain element; their
# sums, multiples and conversions are the core_algebra kernel's)

def cm_graded(u, k):
    return {e: c for e, c in u.items() if sum(e) == k}


# ---------------------------------------------------------------------------
# virtual split bundles

class VirtualSplitBundle:
    """Formal difference of sums of line bundles and trivial summands.  A
    line is the int vector v of its first Chern class sum_i v_i xi_i, with
    one entry per generator of the model; the lines are kept as tuples of
    such vectors.  Equal plus/minus trivial ranks cancel on construction."""

    __slots__ = ("model", "plus_lines", "minus_lines", "plus_trivial", "minus_trivial")

    def __init__(self, model, plus_lines=(), minus_lines=(), plus_trivial=0, minus_trivial=0):
        if not all(is_int(k) and k >= 0 for k in (plus_trivial, minus_trivial)):
            raise ValueError("trivial ranks must be ints >= 0, got %r" % ((plus_trivial, minus_trivial),))
        n = len(model.gens)
        plus_lines, minus_lines = tuple(plus_lines), tuple(minus_lines)
        for vec in plus_lines + minus_lines:
            if not isinstance(vec, (tuple, list)):
                raise ValueError("a line is a vector of ints, got %r" % (vec,))
            if len(vec) != n:
                raise ValueError("line vector has %d entries, model has %d generators" % (len(vec), n))
            if not all(is_int(a) for a in vec):
                raise ValueError("line vector entries must be integers, got %r" % (vec,))
        t = min(plus_trivial, minus_trivial)
        self.model = model
        self.plus_lines = tuple(map(tuple, plus_lines))
        self.minus_lines = tuple(map(tuple, minus_lines))
        self.plus_trivial = plus_trivial - t
        self.minus_trivial = minus_trivial - t

    @property
    def rank(self):
        return (
            len(self.plus_lines)
            + self.plus_trivial
            - len(self.minus_lines)
            - self.minus_trivial
        )

    def is_honest(self):
        return not self.minus_lines and self.minus_trivial == 0

    def neg(self):
        return VirtualSplitBundle(
            self.model, self.minus_lines, self.plus_lines, self.minus_trivial, self.plus_trivial
        )

    def add_trivial(self, k=1):
        return VirtualSplitBundle(
            self.model, self.plus_lines, self.minus_lines, self.plus_trivial + k, self.minus_trivial
        )

    def __repr__(self):
        return "<bundle rank %d: +%d lines +%d triv -%d lines -%d triv>" % (
            self.rank,
            len(self.plus_lines),
            self.plus_trivial,
            len(self.minus_lines),
            self.minus_trivial,
        )


# ---------------------------------------------------------------------------
# the models

_model_cache = {}


def _layers(spec):
    """The tower of a connected spec: one tuple of line vectors per
    generator, each vector over the generators below it.  P^n is n + 1 zero
    vectors, a product joins its factors' towers (each vector prefixed with
    zeros for the generators of the factors before it), and P(V) is its
    base's tower plus the lines of V."""
    if spec.kind == "multiproj":
        return tuple(((0,) * i,) * (n + 1) for i, n in enumerate(spec.dims))
    if spec.kind == "product":
        out = []
        for f in spec.factors:
            pad = (0,) * len(out)
            out.extend(tuple(pad + v for v in lines) for lines in _layers(f))
        return tuple(out)
    if spec.kind == "projbundle":
        base = _layers(spec.base)
        if any(len(v) != len(base) for v in spec.lines):
            raise ValueError("line vectors must have one entry per base generator (%d)" % len(base))
        return base + (spec.lines,)
    if spec.kind == "disjoint":
        raise ValueError("a disjoint union has no single Chow model: take its components")
    raise ValueError("unknown spec kind %r" % spec.kind)


def build_model(spec):
    """Chow model of a connected spec, cached by its tower, so specs with
    one tower (a product of projective spaces and the equal multiproj, or a
    bundle of a trivial bundle) share one model.  A disjoint union has no
    single model: its callers take its components."""
    layers = _layers(spec)
    model = _model_cache.get(layers)
    if model is None:
        model = _model_cache[layers] = ChowModel(spec)
    return model


class ChowModel:
    """The Chow ring of the tower of a connected spec (see `_layers`), with
    one generator xi_i per layer.  Layer i is a bundle V_i of rank r_i, and
    its relation xi_i^r_i = -(c_1(V_i) xi_i^(r_i-1) + ... + c_r_i(V_i)) takes
    c(V_i) from `chern_total` on this model, whose lower relations are set by
    then.  The normal monomials are those with exponent i below r_i, and the
    point class is the one with every exponent r_i - 1."""

    __slots__ = (
        "layers",
        "gens",
        "dim",
        "_relations",
        "_bounds",
        "_reduce_cache",
        "_residues",
        "_tangent",
        "_p_neg_tangent",
        "_fundamental",
    )

    def __init__(self, spec):
        self.layers = _layers(spec)
        self.gens = tuple("xi%d" % i for i in range(len(self.layers)))
        self._bounds = tuple(len(lines) - 1 for lines in self.layers)
        self.dim = sum(self._bounds)
        self._reduce_cache = {}
        self._residues = {}
        self._tangent = None
        self._p_neg_tangent = None
        self._fundamental = None
        # (generator, r, rule) with xi^r = rule; the vanishing relations
        # (empty rule) come first, so a monomial that one of them kills is
        # never expanded by a bundle relation
        self._relations = ()
        relations = []
        for i, lines in enumerate(self.layers):
            r = len(lines)
            pad = (0,) * (len(self.gens) - i)
            V = VirtualSplitBundle(self, [v + pad for v in lines])
            rule = {e[:i] + (r - sum(e),) + e[i + 1:]: -c
                    for e, c in chern_total(V).items() if sum(e)}
            relations.append((i, r, rule))
            self._relations = tuple(sorted(relations, key=lambda rel: (bool(rel[2]), -rel[0])))

    # -- ring structure ----------------------------------------------------
    def one(self, dom=ZZ):
        return {(0,) * len(self.gens): dom.one()}

    def line_class(self, vec):
        """The codimension-1 int element sum_i vec[i] xi_i of a line vector
        with one entry per generator."""
        n = len(self.gens)
        return {(0,) * i + (1,) + (0,) * (n - i - 1): a for i, a in enumerate(vec) if a}

    def reduce(self, exp):
        """Normal form of a monomial as a dict {normal exponent: int}."""
        hit = self._reduce_cache.get(exp)
        if hit is not None:
            return hit
        out = {exp: 1}
        for i, r, rule in self._relations:
            if exp[i] >= r:
                rest = exp[:i] + (exp[i] - r,) + exp[i + 1:]
                out = sparse_lincomb(ZZ, [(self.reduce(tuple(map(_plus, rest, me))), mc)
                                          for me, mc in rule.items()])
                break
        self._reduce_cache[exp] = out
        return out

    def normalize(self, dom, u):
        """Normal form of an element: the reductions of its monomials, summed
        by one `lincomb` per normal monomial.  A monomial already in normal
        form with no other contribution keeps its coefficient as it is."""
        groups = {}
        for e, c in u.items():
            for e2, k in self.reduce(tuple(e)).items():
                groups.setdefault(e2, []).append((c, k))
        return lincomb_groups(dom, groups)

    def _group_pairs(self, groups, u, v):
        """Add the coefficient pairs of u * v to `groups`, as (a, b, 1)
        triples keyed by exponent sum.  Pairs whose exponent sum reduces to
        zero are left out."""
        reduce = self.reduce
        for e1, c1 in u.items():
            for e2, c2 in v.items():
                e = tuple(map(_plus, e1, e2))
                terms = groups.get(e)
                if terms is not None:
                    terms.append((c1, c2, 1))
                elif reduce(e):
                    groups[e] = [(c1, c2, 1)]

    def mul(self, dom, u, v):
        """The product: the coefficient pairs are summed by one `dot` per
        exponent sum, then normalized.  Pairs whose exponent sum reduces to
        zero are never multiplied."""
        groups = {}
        self._group_pairs(groups, u, v)
        return self.normalize(dom, dot_groups(dom, groups))

    def product(self, dom, factors, y_max):
        """The product of the y-polynomials {k: element} in `factors`,
        truncated above y^y_max.  For each factor, the pairs of every
        (ka, kb) with ka + kb = k are summed by one `dot` per exponent sum
        and normalized once per y power k."""
        out = {0: self.one(dom)}
        for f in factors:
            by_power = {}
            for ka, ea in out.items():
                for kb, eb in f.items():
                    if ka + kb <= y_max:
                        self._group_pairs(by_power.setdefault(ka + kb, {}), ea, eb)
            out = {}
            for k, groups in by_power.items():
                elt = self.normalize(dom, dot_groups(dom, groups))
                if elt:
                    out[k] = elt
        return out

    def degree(self, dom, u):
        """Coefficient of the point class: the one normal monomial of
        codimension dim, whose exponents are the bounds."""
        return self.normalize(dom, u).get(self._bounds, dom.zero())

    # -- tangent bundles ----------------------------------------------------
    def tangent(self):
        """T = sum_i sum_(x in V_i) O(x + xi_i) - (number of layers) O: the
        relative Euler sequence of every layer."""
        if self._tangent is None:
            n = len(self.gens)
            plus = [v + (1,) + (0,) * (n - len(v) - 1) for lines in self.layers for v in lines]
            self._tangent = VirtualSplitBundle(self, plus, (), 0, len(self.layers))
        return self._tangent


# ---------------------------------------------------------------------------
# characteristic classes and pushforwards

def _shifted_factor(model, phi, u, y_max):
    """phi(u + y) for a codim-1 int element u, as a y-polynomial {y power:
    element}: [y^k] phi(u + y) = sum_d C(k + d, k) phi_(k+d) u^d."""
    dom = phi.dom
    powers = [model.one(ZZ)]
    while u and len(powers) <= model.dim:
        nxt = model.mul(ZZ, powers[-1], u)
        if not nxt:
            break
        powers.append(nxt)
    out = {}
    for k in range(y_max + 1):
        groups = {}
        for d, u_d in enumerate(powers):
            c = phi.coeffs.get((k + d,))
            if c is not None:
                binom = comb(k + d, k)
                for e, n in u_d.items():
                    groups.setdefault(e, []).append((c, binom * n))
        elt = lincomb_groups(dom, groups)
        if elt:
            out[k] = elt
    return out


def multiplicative_class(E, phi, y_max):
    """The multiplicative class of the virtual split bundle E fixed by the
    univariate series phi, phi(0) = 1, with every root shifted by y: the
    product of phi(u + y) over the plus roots u and of (1/phi)(v + y) over
    the minus roots v, as a y-polynomial {k: element} truncated above
    y^y_max.  Trivial roots are 0, so they only count when y_max > 0.  The
    order of phi must exceed dim + y_max.

    Equal roots are grouped by line vector, a trivial root with the zero
    vector, each with its net multiplicity k (plus roots count +1, minus
    roots -1, so an equal plus and minus line cancel), and each group is one
    factor (phi^k)(u + y), with the power taken in one pass by
    `_series_power`, negative k included."""
    model = E.model
    if phi.order <= model.dim + y_max:
        raise ValueError("phi needs order > dim + y_max")
    zero = (0,) * len(model.gens)
    net = {}
    for sign, lines, trivial in ((1, E.plus_lines, E.plus_trivial),
                                 (-1, E.minus_lines, E.minus_trivial)):
        for v in lines:
            net[v] = net.get(v, 0) + sign
        if y_max:
            net[zero] = net.get(zero, 0) + sign * trivial
    factors = []
    for v, k in net.items():
        if k and (y_max or any(v)):
            factors.append(_shifted_factor(model, _series_power(phi, k), model.line_class(v), y_max))
    return model.product(phi.dom, factors, y_max)


def chern_total(E):
    """Total Chern class of a virtual split bundle, over ZZ: the
    multiplicative class of 1 + t."""
    phi = TruncatedSeries(ZZ, ("t",), E.model.dim + 1, {(0,): 1, (1,): 1})
    return multiplicative_class(E, phi, 0)[0]


def pi_series(order):
    """1 + b_1 y + b_2 y^2 + ... over B(ZZ), as a univariate truncated series
    in y."""
    return TruncatedSeries(B, ("y",), order, {(i,): B.gen(i) if i else B.one() for i in range(order)})


def total_P_deformed(E, y_max):
    """total_P of E with every line root u shifted to u + y (and trivial
    roots to y), as a y-polynomial truncated at y^y_max."""
    return multiplicative_class(E, pi_series(E.model.dim + y_max + 1), y_max)


def total_P(E):
    """Product of pi(c_1) over the lines of E, with 1/pi for the negative
    part; trivial summands contribute pi(0) = 1."""
    return total_P_deformed(E, 0)[0]


def quillen_pushforward(V, m):
    """Degree of the m-th power of the relative hyperplane class of
    P(V + nothing) over V's base, pushed all the way to the point: computed
    on V's model by a residue formula, so P(V) itself is never built.

    V must be an honest bundle and m an int >= 0.  The value, in B(ZZ), is
    read off the residue record of V (see `_residues`), which holds every
    twist below rank + dim; every higher twist is 0."""
    if not V.is_honest():
        raise ValueError("quillen_pushforward needs an honest bundle")
    if not is_int(m) or m < 0:
        raise ValueError("m must be an int >= 0, got %r" % (m,))
    if V.rank < 1:
        raise ValueError("bundle rank must be >= 1")
    values = _residues(V)[0]
    return values[m] if m < len(values) else B.zero()


def _p_neg_tangent(model):
    """P(-T) of the model, memoized on the model: the fundamental class and
    the residue records both read it."""
    if model._p_neg_tangent is None:
        model._p_neg_tangent = total_P(model.tangent().neg())
    return model._p_neg_tangent


def _residue_series(V):
    """The twist-independent part of the residue pushforward of the honest
    bundle V: the truncation order and the series d_i(y) = deg(c_i(-V) *
    P(-T) * P_y(-V)) for every nonzero c_i(-V)."""
    model = V.model
    ns = model.dim
    order = V.rank + ns
    p_tan = _p_neg_tangent(model)
    p_vy = total_P_deformed(V.neg(), order - 1)
    prod_y = {k: model.mul(B, elt, p_tan) for k, elt in p_vy.items()}
    cneg = chern_total(V.neg())
    series = []
    for i in range(ns + 1):
        ci = {e: B.from_int(c) for e, c in cm_graded(cneg, i).items()}
        if not ci:
            continue
        d_coeffs = {}
        for k, elt in prod_y.items():
            v = model.degree(B, model.mul(B, ci, elt))
            if not B.is_zero(v):
                d_coeffs[(k,)] = v
        series.append((i, TruncatedSeries(B, ("y",), order, d_coeffs)))
    return order, tuple(series)


def _residues(V):
    """The residue record of the honest bundle V over B(ZZ), memoized on the
    model by its line vectors and trivial rank: the pushforward values of
    the twists m below the order rank + dim, each checked once to be
    homogeneous of degree m - (dim + rank - 1), and the ks integral, the sum
    of every coefficient of pi(y) * sum_i d_i(y) (see `_residue_series`)."""
    model = V.model
    key = (V.plus_lines, V.plus_trivial)
    hit = model._residues.get(key)
    if hit is not None:
        return hit
    order, series = _residue_series(V)
    r = V.rank
    pi = pi_series(order)
    pi_m = TruncatedSeries.constant(B, ("y",), order, B.one())
    values = []
    for m in range(order):
        if m:
            pi_m = pi_m.mul(pi)
        # the residue at y = 0 of y^(m-r-i) pi^m d_i is [y^(r+i-m-1)] of
        # pi^m d_i, zero when that exponent is negative
        terms = []
        for i, di in series:
            e = r + i - m - 1
            for (k,), c in di.coeffs.items():
                if k <= e and (e - k,) in pi_m.coeffs:
                    terms.append((pi_m.coeffs[(e - k,)], c, 1))
        value = B.dot(terms)
        expected = m - (model.dim + r - 1)
        if not B.is_homogeneous(value, expected):
            raise AssertionError("pushforward value is not homogeneous of degree %d" % expected)
        values.append(value)
    ks = B.dot([(pi.coeffs[(j,)], c, 1) for _, di in series for (k,), c in di.coeffs.items()
                  for j in range(order - k) if (j,) in pi.coeffs])
    hit = model._residues[key] = (tuple(values), ks)
    return hit


# ---------------------------------------------------------------------------
# numerical invariants and fundamental classes

def euler_number(spec):
    """The degree of the top Chern class of the tangent bundle, read off the
    fundamental class: b_i -> (-t)^i sends pi(x) to 1/(1 + t x), so P(-T) to
    c_t(T), and every b-monomial of weight dim to (-t)^dim."""
    return (-1) ** spec.dim() * sum(fundamental_class(spec, "L").values())


def chern_number(spec, alpha):
    """The alpha-indexed Chern number, the degree of the alpha class of the
    negated tangent bundle: the b^alpha coefficient of the fundamental class
    (zero unless the weight of alpha equals dim)."""
    alpha = tuple(alpha)
    if not is_partition(alpha):
        raise ValueError("alpha must be a partition")
    return fundamental_class(spec, "L").get(alpha, 0)


def additive_chern_number(spec):
    """Chern number of the single-row partition (dim,); in dimension zero,
    that of the empty partition, the number of points."""
    n = spec.dim()
    return fundamental_class(spec, "L").get((n,) if n else (), 0)


def fundamental_class(spec, theory="L"):
    """Class of the variety in the universal theory L, the only one taken:
    the sum of its weight-n Chern numbers times their b-monomials.  Another
    theory's class is its `fgl.b_transport` along that theory's ring map."""
    if theory != "L":
        raise ValueError("unknown theory %r: only 'L' is computed" % (theory,))
    if spec.kind == "disjoint":
        return reduce(B.add, map(fundamental_class, spec.components), B.zero())
    model = build_model(spec)
    if model._fundamental is None:
        model._fundamental = model.degree(B, _p_neg_tangent(model))
    return model._fundamental
