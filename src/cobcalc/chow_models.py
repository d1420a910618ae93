"""Chow rings of products of projective spaces and iterated projective
bundles, with exact intersection products, degrees, bundle pushforwards, and
virtual split vector bundles.

Every generator has codimension 1: hyperplane classes h_i with h_i^{n_i+1}=0
and relative classes xi_k subject to xi^r = -(c_1(V) xi^{r-1} + ... + c_r(V))
for the bundle V of the layer, whose line roots are x_1..x_r.  Ring elements
are sparse dicts mapping exponent tuples to coefficients in a chosen Domain;
reduction to normal form happens inside multiplication.  Every total class
of a split bundle (Chern, P, deformed P) is one `multiplicative_class`: a
`ChowModel.product` of a series phi shifted by the plus roots and of 1/phi
shifted by the minus roots.
"""

from __future__ import annotations

import json
from math import comb
from operator import add as _plus

from .core_algebra import (
    TEPS, TRING, ZZ, TruncatedSeries, b_ring, dot_groups, int_mod, is_int, is_partition, is_prime,
    sparse_add, sparse_from_int, sparse_int_scale,
)


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


def _pad(elt, off, width):
    out = {}
    for e, c in elt.items():
        out[(0,) * off + tuple(e) + (0,) * (width - off - len(e))] = c
    return out


# ---------------------------------------------------------------------------
# virtual split bundles

class VirtualSplitBundle:
    """Formal difference of sums of line bundles (given by their first Chern
    classes, int-coefficient codim-1 elements) and trivial summands.  Equal
    plus/minus trivial ranks cancel on construction."""

    __slots__ = ("model", "plus_lines", "minus_lines", "plus_trivial", "minus_trivial")

    def __init__(self, model, plus_lines=(), minus_lines=(), plus_trivial=0, minus_trivial=0):
        if plus_trivial < 0 or minus_trivial < 0:
            raise ValueError("trivial ranks must be >= 0")
        for line in tuple(plus_lines) + tuple(minus_lines):
            for e, c in line.items():
                if c and sum(e) != 1:
                    raise ValueError("line class must be homogeneous of codimension 1")
        t = min(plus_trivial, minus_trivial)
        self.model = model
        self.plus_lines = tuple(dict(l) for l in plus_lines)
        self.minus_lines = tuple(dict(l) for l in minus_lines)
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

    def add(self, other):
        if other.model is not self.model:
            raise ValueError("bundle sum needs a common model")
        return VirtualSplitBundle(
            self.model,
            self.plus_lines + other.plus_lines,
            self.minus_lines + other.minus_lines,
            self.plus_trivial + other.plus_trivial,
            self.minus_trivial + other.minus_trivial,
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


def build_model(spec):
    """Chow model of a canonicalized connected spec (cached).  A disjoint
    union has no single model: its callers take its components."""
    spec = spec.canonical()
    key = spec.key()
    if key not in _model_cache:
        _model_cache[key] = ChowModel(spec)
    return _model_cache[key]


class ChowModel:
    __slots__ = (
        "spec",
        "gens",
        "caps",
        "xi",
        "dim",
        "base_model",
        "bundle_lines",
        "_bounds",
        "_reduce_cache",
        "_residue_cache",
        "_pi_powers",
        "_tangent",
        "_p_neg_tangent",
        "_fundamental",
    )

    def __init__(self, spec):
        if spec.kind == "disjoint":
            raise ValueError("a disjoint union has no single Chow model: take its components")
        self.spec = spec
        self.base_model = None
        self.bundle_lines = None
        if spec.kind == "multiproj":
            self.gens = tuple("h%d" % i for i in range(len(spec.dims)))
            self.caps = {i: spec.dims[i] for i in range(len(spec.dims))}
            self.xi = {}
            self.dim = sum(spec.dims)
        elif spec.kind == "product":
            parts = [build_model(f) for f in spec.factors]
            gens = []
            caps = {}
            xi = {}
            off = 0
            for k, pm in enumerate(parts):
                gens.extend("f%d_%s" % (k, g) for g in pm.gens)
                for i, cap in pm.caps.items():
                    caps[off + i] = cap
                off += len(pm.gens)
            width = off
            off = 0
            for pm in parts:
                for i, (r, rule) in pm.xi.items():
                    xi[off + i] = (r, _pad(rule, off, width))
                off += len(pm.gens)
            self.gens = tuple(gens)
            self.caps = caps
            self.xi = xi
            self.dim = sum(pm.dim for pm in parts)
        elif spec.kind == "projbundle":
            base = build_model(spec.base)
            r = len(spec.lines)
            if any(len(v) != len(base.gens) for v in spec.lines):
                raise ValueError(
                    "line vectors must have one entry per base generator (%d)" % len(base.gens)
                )
            self.base_model = base
            nb = len(base.gens)
            self.gens = base.gens + ("xi%d" % len(base.xi),)
            self.caps = dict(base.caps)
            width = nb + 1
            # roots as base elements, then the defining relation for xi^r
            lines = []
            for v in spec.lines:
                elt = {}
                for i, a in enumerate(v):
                    if a:
                        e = [0] * nb
                        e[i] = 1
                        elt[tuple(e)] = a
                lines.append(elt)
            self.bundle_lines = tuple(lines)
            # xi^r = -(c_1(V) xi^(r-1) + ... + c_r(V)), with c(V) on the base
            c_v = chern_total(base, ZZ, VirtualSplitBundle(base, lines))
            rule = {e + (r - sum(e),): -c for e, c in c_v.items() if sum(e)}
            self.xi = {off: (rr, _pad(rl, 0, width)) for off, (rr, rl) in base.xi.items()}
            self.xi[nb] = (r, rule)
            self.dim = base.dim + r - 1
        else:
            raise ValueError("unknown spec kind %r" % spec.kind)
        bounds = []
        for i in range(len(self.gens)):
            if i in self.caps:
                bounds.append(self.caps[i])
            else:
                bounds.append(self.xi[i][0] - 1)
        self._bounds = tuple(bounds)
        self._reduce_cache = {}
        self._residue_cache = {}
        self._pi_powers = {}
        self._tangent = None
        self._p_neg_tangent = {}
        self._fundamental = None
        assert sum(self._bounds) == self.dim

    # -- ring structure ----------------------------------------------------
    def zero(self):
        return {}

    def one(self, dom=ZZ):
        return {(0,) * len(self.gens): dom.one()}

    def gen_element(self, i, dom=ZZ):
        e = [0] * len(self.gens)
        e[i] = 1
        return {tuple(e): dom.one()}

    def reduce(self, exp):
        """Normal form of a monomial as a dict {normal exponent: int}."""
        hit = self._reduce_cache.get(exp)
        if hit is not None:
            return hit
        for i, cap in self.caps.items():
            if exp[i] > cap:
                self._reduce_cache[exp] = {}
                return {}
        for idx in sorted(self.xi, reverse=True):
            r, rule = self.xi[idx]
            if exp[idx] >= r:
                rest = list(exp)
                rest[idx] -= r
                rest = tuple(rest)
                out = {}
                for me, mc in rule.items():
                    sub = self.reduce(tuple(a + b for a, b in zip(rest, me)))
                    out = sparse_add(ZZ, out, sparse_int_scale(ZZ, sub, mc))
                self._reduce_cache[exp] = out
                return out
        self._reduce_cache[exp] = {exp: 1}
        return {exp: 1}

    def normalize(self, dom, u):
        """Normal form of an element: the reductions of its monomials, summed
        by one `dot` per normal monomial.  A monomial already in normal form
        with no other contribution keeps its coefficient as it is."""
        one = dom.one()
        groups = {}
        for e, c in u.items():
            for e2, k in self.reduce(tuple(e)).items():
                groups.setdefault(e2, []).append((c, one, k))
        out = {}
        for e2, terms in groups.items():
            v = terms[0][0] if len(terms) == 1 and terms[0][2] == 1 else dom.dot(terms)
            if not dom.is_zero(v):
                out[e2] = v
        return out

    def mul(self, dom, u, v):
        """The product: the coefficient pairs are summed by one `dot` per
        exponent sum, then normalized.  Pairs whose exponent sum reduces to
        zero are never multiplied."""
        reduce = self.reduce
        groups = {}
        for e1, c1 in u.items():
            for e2, c2 in v.items():
                e = tuple(map(_plus, e1, e2))
                terms = groups.get(e)
                if terms is not None:
                    terms.append((c1, c2, 1))
                elif reduce(e):
                    groups[e] = [(c1, c2, 1)]
        return self.normalize(dom, dot_groups(dom, groups))

    def product(self, dom, factors, y_max):
        """The product of the y-polynomials {k: element} in `factors`,
        truncated above y^y_max."""

        def mul(a, b):
            out = {}
            for ka, ea in a.items():
                for kb, eb in b.items():
                    k = ka + kb
                    if k <= y_max:
                        term = self.mul(dom, ea, eb)
                        if term:
                            out[k] = sparse_add(dom, out[k], term) if k in out else term
            return {k: v for k, v in out.items() if v}

        out = {0: self.one(dom)}
        for f in factors:
            out = mul(out, f)
        return out

    def degree(self, dom, u):
        """Coefficient of the point class: the one normal monomial of
        codimension dim, whose exponents are the bounds."""
        return self.normalize(dom, u).get(self._bounds, dom.zero())

    # -- tangent bundles ----------------------------------------------------
    def tangent(self):
        if self._tangent is not None:
            return self._tangent
        spec = self.spec
        if spec.kind == "multiproj":
            plus = []
            for i, n in enumerate(spec.dims):
                plus.extend([self.gen_element(i)] * (n + 1))
            E = VirtualSplitBundle(self, plus, (), 0, len(spec.dims))
        elif spec.kind == "product":
            plus, minus = [], []
            pt, mt = 0, 0
            off = 0
            width = len(self.gens)
            for f in spec.factors:
                fm = build_model(f)
                ft = fm.tangent()
                plus.extend(_pad(l, off, width) for l in ft.plus_lines)
                minus.extend(_pad(l, off, width) for l in ft.minus_lines)
                pt += ft.plus_trivial
                mt += ft.minus_trivial
                off += len(fm.gens)
            E = VirtualSplitBundle(self, plus, minus, pt, mt)
        else:  # projbundle
            base = self.base_model
            bt = base.tangent()
            width = len(self.gens)
            xi = self.gen_element(len(self.gens) - 1)
            plus = [_pad(l, 0, width) for l in bt.plus_lines]
            minus = [_pad(l, 0, width) for l in bt.minus_lines]
            for x in self.bundle_lines:
                plus.append(sparse_add(ZZ, _pad(x, 0, width), xi))
            E = VirtualSplitBundle(self, plus, minus, bt.plus_trivial, bt.minus_trivial + 1)
        self._tangent = E
        return E


def tangent_bundle(spec):
    return build_model(spec).tangent()


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
    one = dom.one()
    out = {}
    for k in range(y_max + 1):
        groups = {}
        for d, u_d in enumerate(powers):
            c = phi.coeffs.get((k + d,))
            if c is not None:
                binom = comb(k + d, k)
                for e, n in u_d.items():
                    groups.setdefault(e, []).append((c, one, binom * n))
        elt = dot_groups(dom, groups)
        if elt:
            out[k] = elt
    return out


def multiplicative_class(E, phi, y_max):
    """The multiplicative class of the virtual split bundle E fixed by the
    univariate series phi, phi(0) = 1, with every root shifted by y: the
    product of phi(u + y) over the plus roots u and of (1/phi)(v + y) over
    the minus roots v, as a y-polynomial {k: element} truncated above
    y^y_max.  Trivial roots are 0, so they only count when y_max > 0.  The
    order of phi must exceed dim + y_max."""
    model = E.model
    if phi.order <= model.dim + y_max:
        raise ValueError("phi needs order > dim + y_max")

    def roots(lines, trivial):
        return lines + ({},) * trivial if y_max else lines

    factors = [_shifted_factor(model, phi, u, y_max) for u in roots(E.plus_lines, E.plus_trivial)]
    minus = roots(E.minus_lines, E.minus_trivial)
    if minus:
        inv = phi.inverse()
        factors += [_shifted_factor(model, inv, v, y_max) for v in minus]
    return model.product(phi.dom, factors, y_max)


def chern_total(model, dom, E):
    """Total Chern class of a virtual split bundle: the multiplicative class
    of 1 + t."""
    if E.model is not model:
        raise ValueError("bundle lives on a different model")
    one = dom.one()
    phi = TruncatedSeries(dom, ("t",), model.dim + 1, {(0,): one, (1,): one})
    return multiplicative_class(E, phi, 0)[0]


def chern_class(model, dom, E, k):
    return cm_graded(chern_total(model, dom, E), k)


def quillen_pushforward(S, V, m, dom):
    """Degree of the m-th power of the relative hyperplane class of
    P(V + nothing) over S, pushed all the way to the point: computed on S by
    a residue formula, so P(V) itself is never built.

    S may be a spec or a model; V must be an honest bundle on it.  Only the
    factor pi(y)^m depends on m: the rest comes from _residue_series, which
    computes it once per bundle and domain, and the powers of pi are kept on
    the model per domain and order."""
    model = build_model(S) if isinstance(S, VarietySpec) else S
    if V.model is not model:
        raise ValueError("bundle lives on a different model")
    if not V.is_honest():
        raise ValueError("quillen_pushforward needs an honest bundle")
    if m < 0:
        raise ValueError("m must be >= 0")
    r = V.rank
    if r < 1:
        raise ValueError("bundle rank must be >= 1")
    order, series = _residue_series(model, V, dom)
    pi_m = _pi_power(model, dom, order, m)
    # the residue at y = 0 of y^(m-r-i) pi^m d_i is [y^(r+i-m-1)] of pi^m d_i,
    # zero when that exponent is negative (it is always below the order)
    terms = []
    for i, di in series:
        e = r + i - m - 1
        for (k,), c in di.coeffs.items():
            if k <= e and (e - k,) in pi_m.coeffs:
                terms.append((pi_m.coeffs[(e - k,)], c, 1))
    total = dom.dot(terms)
    expected = m - (model.dim + r - 1)
    if not dom.is_homogeneous(total, expected):
        raise AssertionError("pushforward value is not homogeneous of degree %d" % expected)
    return total


def _pi_power(model, dom, order, m):
    """pi(y)^m truncated at `order`, for pi(y) = 1 + b_1 y + b_2 y^2 + ...
    in dom.  The powers are memoized on the model per domain and order and
    grown one product at a time on demand."""
    from . import symmfunc as sf

    key = (dom.name, order)
    powers = model._pi_powers.get(key)
    if powers is None:
        one = TruncatedSeries.constant(dom, ("y",), order, dom.one())
        powers = model._pi_powers[key] = [one, sf.pi_series(dom, order)]
    while len(powers) <= m:
        powers.append(powers[-1].mul(powers[1]))
    return powers[m]


def _p_neg_tangent(model, dom):
    """P(-T) of the model over dom, memoized on the model per domain: the
    fundamental class, the residue pushforwards and the additive verifier
    all read it."""
    from . import symmfunc as sf

    hit = model._p_neg_tangent.get(dom.name)
    if hit is None:
        hit = model._p_neg_tangent[dom.name] = sf.total_P(model.tangent().neg(), dom)
    return hit


def _residue_series(model, V, dom):
    """The twist-independent part of the residue pushforward of the honest
    bundle V: the truncation order and the series d_i(y) = deg(c_i(-V) *
    P(-T) * P_y(-V)) for every nonzero c_i(-V).  Memoized on the model by the
    line classes and trivial rank of V and the coefficient domain."""
    from . import symmfunc as sf

    key = (tuple(tuple(sorted(l.items())) for l in V.plus_lines), V.plus_trivial, dom.name)
    hit = model._residue_cache.get(key)
    if hit is not None:
        return hit
    ns = model.dim
    order = V.rank + ns
    p_tan = _p_neg_tangent(model, dom)
    p_vy = sf.total_P_deformed(V.neg(), dom, order - 1)
    prod_y = {k: model.mul(dom, elt, p_tan) for k, elt in p_vy.items()}
    cneg = chern_total(model, dom, V.neg())
    series = []
    for i in range(ns + 1):
        ci = cm_graded(cneg, i)
        if not ci:
            continue
        d_coeffs = {}
        for k, elt in prod_y.items():
            v = model.degree(dom, model.mul(dom, ci, elt))
            if not dom.is_zero(v):
                d_coeffs[(k,)] = v
        series.append((i, TruncatedSeries(dom, ("y",), order, d_coeffs)))
    hit = (order, tuple(series))
    model._residue_cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# numerical invariants and fundamental classes

def euler_number(spec):
    """Degree of the top Chern class of the tangent bundle."""
    spec = spec.canonical()
    if spec.kind == "disjoint":
        return sum(euler_number(c) for c in spec.components)
    model = build_model(spec)
    return model.degree(ZZ, chern_class(model, ZZ, model.tangent(), model.dim))


def chern_number(spec, alpha):
    """The alpha-indexed Chern number, the degree of the alpha class of the
    negated tangent bundle: the b^alpha coefficient of the fundamental class
    (zero unless the weight of alpha equals dim)."""
    alpha = tuple(alpha)
    if not is_partition(alpha):
        raise ValueError("alpha must be a partition")
    return fundamental_class(spec, "L").get(alpha, 0)


def additive_chern_number(spec):
    """Chern number of the single-row partition (dim,); Euler number in
    dimension zero."""
    n = spec.dim()
    if n == 0:
        return euler_number(spec)
    return fundamental_class(spec, "L").get((n,), 0)


def fundamental_class(spec, theory="L", p=None):
    """Class of the variety in the chosen theory:
      L    -- sum of all weight-n Chern numbers times their b-monomials,
      L_p  -- the same reduced mod p,
      CHX  -- euler number times t^n,
      CHA  -- additive Chern number times eps t^n (euler number for n = 0).
    """
    spec = spec.canonical()
    n = spec.dim()
    if theory == "L":
        B = b_ring(ZZ)
        if spec.kind == "disjoint":
            out = B.zero()
            for c in spec.components:
                out = B.add(out, fundamental_class(c, "L"))
            return out
        model = build_model(spec)
        if model._fundamental is None:
            model._fundamental = model.degree(B, _p_neg_tangent(model, B))
        return model._fundamental
    if theory == "L_p":
        if not (is_int(p) and is_prime(p)):
            raise ValueError("theory L_p needs a prime p")
        return sparse_from_int(int_mod(p), fundamental_class(spec, "L"))
    if theory == "CHX":
        return TRING.monomial(n, euler_number(spec))
    if theory == "CHA":
        if n == 0:
            return TEPS.from_int(euler_number(spec))
        return TEPS.monomial(n, 1, additive_chern_number(spec))
    raise ValueError("unknown theory %r" % theory)
