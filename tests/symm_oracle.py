"""Reference implementations of the characteristic classes, kept as test
oracles for the production path.

The first part holds the multiplicative classes as they were computed
before every one of them became a product of unit factors in
`ChowModel.product`, and the product route as it was before equal roots
were grouped, one factor phi(u + y) per root: each routine with its own accumulation loops, inverses
by geometric series, and the projective-bundle relation from unreduced
elementary symmetric polynomials.  With it goes the pushforward along a
projective bundle by the Segre-class formula, which checks the relations of
the bundle's Chow model, and the normal-form basis of a model in each
codimension, whose top piece is the one monomial `ChowModel.degree` reads.

With them goes the additive verifier's earlier route: the additive number
and twisted terms of each fixed component's projective completion, taken
on a Chow model of the completion, which production now reads off the
residue record of the component's bundle.

With them goes the power of a series as `multiplicative_class` took it
before Miller's recurrence: binary powering, after the series inverse when
the power is negative (`binary_power`, `power_by_inverse`).

Production takes every class over B(ZZ), and Chern classes over ZZ.  The
oracles here still take any domain: `b_image_for` says where b_i lands in
each one, and `transport` pushes a production class there, so that the two
can be compared.

The rest is the alpha-indexed classes through symmetric functions.

The production code reads every alpha class off the multiplicative class
P (`chow_models.total_P`) and every Chern number off the fundamental class.
This module computes the same classes a second, independent way: the
monomial symmetric polynomial m_alpha is rewritten in elementary symmetric
polynomials (the m -> e transition matrix, Macdonald, Symmetric Functions
and Hall Polynomials, I.6) and evaluated on Chern classes.  It also holds
the monomial-basis structure constants and the coefficients expressing the
classes of a negated bundle.  Its cost grows factorially with the weight
(`msym` enumerates permutations), which is why it lives here.

Partitions index everything; a symmetric polynomial in N variables is a
sparse dict mapping exponent tuples (length N) to integers."""

from functools import lru_cache
from itertools import permutations
from math import comb

from cobcalc.chow_models import (
    VirtualSplitBundle, _shifted_factor, additive_chern_number, build_model, chern_total,
    cm_graded, total_P,
)
from cobcalc.core_algebra import TEPS, TRING, ZZ, BDomain, is_partition, sparse_add, sparse_from_int
from cobcalc.fgl import b_transport, cha_b_image, chx_b_image
from kernel_oracle import inverse_by_geometric_sum, series_inverse


# ---------------------------------------------------------------------------
# the image of the universal coefficients b_i in each domain

def b_image_for(dom):
    """How the universal coefficients b_i land in a target domain."""
    if isinstance(dom, BDomain):
        return dom.gen
    if dom is TRING:
        return chx_b_image
    if dom is TEPS:
        return cha_b_image
    raise ValueError("no b-coefficient image for domain %s" % dom.name)


def transport(u, dom):
    """A sparse element with B(ZZ) coefficients (a Chow-ring element or a
    series' coefficient table) pushed into dom along `b_image_for(dom)`;
    coefficients that map to zero are dropped."""
    img = b_image_for(dom)
    out = {}
    for e, c in u.items():
        v = b_transport(c, dom, img)
        if not dom.is_zero(v):
            out[e] = v
    return out


# ---------------------------------------------------------------------------
# multiplicative classes, one routine each

def _add(dom, u, v):
    out = dict(u)
    for e, c in v.items():
        s = dom.add(out.get(e, dom.zero()), c)
        if dom.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _scale(dom, u, c):
    if dom.is_zero(c):
        return {}
    out = {}
    for e, v in u.items():
        p = dom.mul(v, c)
        if not dom.is_zero(p):
            out[e] = p
    return out


def _raw_mul_int(u, v):
    """Unreduced product of int-coefficient elements."""
    out = {}
    for e1, c1 in u.items():
        for e2, c2 in v.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def projbundle_relation(lines, nb):
    """The rule for xi^r on a projective bundle with the given line roots
    (int elements over nb base generators): -sum_i e_i(x) xi^(r-i), with
    e_i the unreduced elementary symmetric polynomials of the roots."""
    r = len(lines)
    e_polys = [{(0,) * nb: 1}]
    for x in lines:
        nxt = [dict(e_polys[0])]
        for i in range(1, len(e_polys) + 1):
            prev = e_polys[i] if i < len(e_polys) else {}
            nxt.append(_add(ZZ, prev, _raw_mul_int(e_polys[i - 1], x)))
        e_polys = nxt
    rule = {}
    for i in range(1, r + 1):
        for e, c in e_polys[i].items():
            rule = _add(ZZ, rule, {tuple(e) + (r - i,): -c})
    return rule


def line_element(vec):
    """The int element sum_i vec[i] x_i over len(vec) generators."""
    return {tuple(int(j == i) for j in range(len(vec))): a for i, a in enumerate(vec) if a}


def pushforward_projbundle(spec, u):
    """Pushforward along p: P(V) -> S on raw elements of the model of the
    projbundle spec: xi^j beta |-> c_{j+1-r}(-V) beta, zero for j < r-1,
    with V the sum of the spec's lines on its base S.  Returns (base model,
    element), over ZZ."""
    if spec.kind != "projbundle":
        raise ValueError("pushforward needs a projbundle spec")
    base = build_model(spec.base)
    r = len(spec.lines)
    minus_v = VirtualSplitBundle(base, (), spec.lines, 0, 0)
    cneg = chern_total(minus_v)
    out = {}
    for e, c in u.items():
        j = e[-1]
        if j < r - 1:
            continue
        k = j + 1 - r
        ck = cm_graded(cneg, k)
        if not ck:
            continue
        out = sparse_add(ZZ, out, base.mul(ZZ, {tuple(e[:-1]): c}, ck))
    return base, out


@lru_cache(maxsize=None)
def normal_basis(model, codim):
    """Normal-form monomials of the given codimension, sorted: exponent
    tuples bounded by the model's caps and relation degrees, with their
    count checked against the generating function prod_i (1 + ... + t^b_i)."""
    bounds = model._bounds
    out = []

    def rec(i, left, acc):
        if i == len(bounds):
            if left == 0:
                out.append(tuple(acc))
            return
        lo = max(0, left - sum(bounds[i + 1:]))
        for e in range(min(bounds[i], left), lo - 1, -1):
            acc.append(e)
            rec(i + 1, left - e, acc)
            acc.pop()

    rec(0, codim, [])
    gf = [1]
    for b in bounds:
        nxt = [0] * (len(gf) + b)
        for i, c in enumerate(gf):
            for j in range(b + 1):
                nxt[i + j] += c
        gf = nxt
    want = gf[codim] if 0 <= codim < len(gf) else 0
    if len(out) != want:
        raise AssertionError("basis enumeration disagrees with rank count")
    return sorted(out)


def _inverse_unit(model, dom, u):
    """Inverse of 1 + (positive-codimension part) by geometric series."""
    one = model.one(dom)
    zero_exp = (0,) * len(model.gens)
    if not dom.eq(u.get(zero_exp, dom.zero()), dom.one()):
        raise ValueError("inverse_unit needs constant term 1")
    nu = dict(u)
    nu.pop(zero_exp, None)
    acc = one
    term = one
    for _ in range(model.dim + 1):
        term = _scale(dom, model.mul(dom, term, nu), dom.from_int(-1))
        if not term:
            break
        acc = _add(dom, acc, term)
    return acc


def chern_total_oracle(model, dom, E):
    out = model.one(dom)
    for line in map(model.line_class, E.plus_lines):
        out = model.mul(dom, out, _add(dom, model.one(dom), sparse_from_int(dom, line)))
    for line in map(model.line_class, E.minus_lines):
        f = _add(dom, model.one(dom), sparse_from_int(dom, line))
        out = model.mul(dom, out, _inverse_unit(model, dom, f))
    return out


def _pi_of_element(model, dom, img, u):
    """pi evaluated on a nilpotent codim-1 element: 1 + b_1 u + b_2 u^2 + ..."""
    out = model.one(dom)
    p = model.one(ZZ)
    for i in range(1, model.dim + 1):
        p = model.mul(ZZ, p, u)
        if not p:
            break
        out = _add(dom, out, _scale(dom, sparse_from_int(dom, p), img(i)))
    return out


def total_P_oracle(E, dom):
    model = E.model
    img = b_image_for(dom)
    out = model.one(dom)
    for line in map(model.line_class, E.plus_lines):
        out = model.mul(dom, out, _pi_of_element(model, dom, img, line))
    for line in map(model.line_class, E.minus_lines):
        f = _pi_of_element(model, dom, img, line)
        out = model.mul(dom, out, _inverse_unit(model, dom, f))
    return out


def _ypoly_mul(model, dom, A, B, y_max):
    out = {}
    for ka, ea in A.items():
        for kb, eb in B.items():
            k = ka + kb
            if k > y_max:
                continue
            term = model.mul(dom, ea, eb)
            if term:
                out[k] = _add(dom, out.get(k, {}), term)
    return {k: v for k, v in out.items() if v}


def _ypoly_inverse(model, dom, A, y_max):
    zero_exp = (0,) * len(model.gens)
    if not dom.eq(A.get(0, {}).get(zero_exp, dom.zero()), dom.one()):
        raise ValueError("y-polynomial inverse needs constant term 1")
    M = {k: dict(v) for k, v in A.items()}
    M[0] = dict(M.get(0, {}))
    M[0].pop(zero_exp, None)
    if not M[0]:
        M.pop(0, None)
    acc = {0: model.one(dom)}
    term = acc
    for _ in range(model.dim + y_max + 1):
        term = _ypoly_mul(model, dom, term, M, y_max)
        term = {k: _scale(dom, v, dom.from_int(-1)) for k, v in term.items()}
        if not term:
            break
        for k, v in term.items():
            acc[k] = _add(dom, acc.get(k, {}), v)
        acc = {k: v for k, v in acc.items() if v}
    return acc


def _pi_shifted(model, dom, img, u, y_max):
    """pi(u + y) as a y-polynomial: dict {y power: element}."""
    powers = [model.one(ZZ)]
    for _ in range(model.dim):
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
                elt = _add(dom, elt, model.one(dom))
                continue
            c = comb(i, k)
            elt = _add(dom, elt, _scale(dom, sparse_from_int(dom, updeg), dom.int_scale(img(i), c)))
        if elt:
            out[k] = elt
    return out


def total_P_deformed_oracle(E, dom, y_max):
    model = E.model
    img = b_image_for(dom)
    out = {0: model.one(dom)}
    plus = [model.line_class(v) for v in E.plus_lines] + [{}] * E.plus_trivial
    minus = [model.line_class(v) for v in E.minus_lines] + [{}] * E.minus_trivial
    for line in plus:
        out = _ypoly_mul(model, dom, out, _pi_shifted(model, dom, img, line, y_max), y_max)
    for line in minus:
        f = _ypoly_inverse(model, dom, _pi_shifted(model, dom, img, line, y_max), y_max)
        out = _ypoly_mul(model, dom, out, f, y_max)
    return out


def chern_series_oracle(model, plus_roots, minus_roots, z_max):
    """Graded pieces c_0..c_{z_max} of prod (1 + r) / prod (1 + s) over the
    given root elements, tracked by an auxiliary formal degree so the roots
    may be inhomogeneous."""
    c = [model.one(ZZ)] + [{} for _ in range(z_max)]
    for r in plus_roots:
        for j in range(z_max, 0, -1):
            c[j] = _add(ZZ, c[j], model.mul(ZZ, r, c[j - 1]))
    for s in minus_roots:
        for j in range(1, z_max + 1):
            c[j] = _add(ZZ, c[j], _scale(ZZ, model.mul(ZZ, s, c[j - 1]), -1))
    return c


def multiplicative_class_by_factors(E, phi, y_max):
    """`chow_models.multiplicative_class` with one factor per root: phi(u + y)
    for every plus root u and (1/phi)(v + y) for every minus root v, 1/phi
    by the geometric sum, trivial roots 0 and taken only when y_max > 0."""
    model = E.model

    def roots(lines, trivial):
        lines = tuple(map(model.line_class, lines))
        return lines + ({},) * trivial if y_max else lines

    factors = [_shifted_factor(model, phi, u, y_max) for u in roots(E.plus_lines, E.plus_trivial)]
    minus = roots(E.minus_lines, E.minus_trivial)
    if minus:
        inv = inverse_by_geometric_sum(phi)
        factors += [_shifted_factor(model, inv, v, y_max) for v in minus]
    return model.product(phi.dom, factors, y_max)


def binary_power(phi, k):
    """phi^k for k >= 1, by binary powering: one full series product per
    squaring and per set bit of k."""
    out = None
    while True:
        if k & 1:
            out = phi if out is None else out.mul(phi)
        k >>= 1
        if not k:
            return out
        phi = phi.mul(phi)


def power_by_inverse(phi, k):
    """phi^k for an int k != 0 as `multiplicative_class` took it before
    Miller's recurrence: the binary power of phi, or of the series inverse
    1/phi when k < 0."""
    return binary_power(phi if k > 0 else series_inverse(phi), abs(k))


def class_coefficient(P, alpha):
    """The b^alpha coefficient of a total_P-shaped element (exponent ->
    b-ring element), as an int-coefficient element of the same model."""
    out = {}
    for e, coeff in P.items():
        v = coeff.get(alpha)
        if v:
            out[e] = v
    return out


def additive_terms_by_completion(comp):
    """The list [s, D_1, ..., D_n] of the additive number and the twisted
    terms of the projective completion P(N + O) of a fixed component, n the
    ambient dimension, computed on the completion itself: s is its (n,)
    Chern number, D_j = -deg(xi^j [b_(n-j)]P(-T)) for j < n, since
    [b_k]P(T) is the k-th power sum of the tangent roots and so
    -[b_k]P(-T), and D_n = deg(xi^n)."""
    n = comp.dim() + comp.codim
    pb = comp.proj_spec()
    model = build_model(pb)
    p_neg_tan = total_P(model.tangent().neg())
    xi = model.line_class((0,) * (len(model.gens) - 1) + (1,))
    xi_j = model.one(ZZ)
    d = [additive_chern_number(pb)] + [0] * n
    for j in range(1, n + 1):
        xi_j = model.mul(ZZ, xi_j, xi)
        if j == n:
            d[j] = model.degree(ZZ, xi_j)
        else:
            d[j] = -model.degree(ZZ, model.mul(ZZ, xi_j, class_coefficient(p_neg_tan, (n - j,))))
    return d


# ---------------------------------------------------------------------------
# symmetric polynomials in N variables

def msym(alpha, n):
    """Monomial symmetric polynomial m_alpha in n variables (zero if alpha
    has more parts than variables)."""
    alpha = tuple(alpha)
    if len(alpha) > n:
        return {}
    padded = alpha + (0,) * (n - len(alpha))
    return {e: 1 for e in set(permutations(padded))}


def _poly_mul(u, v):
    out = {}
    for e1, c1 in u.items():
        for e2, c2 in v.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _conjugate(alpha):
    if not alpha:
        return ()
    return tuple(sum(1 for a in alpha if a >= j) for j in range(1, alpha[0] + 1))


def _to_elementary(poly, n):
    """Symmetric polynomial (exponent dict over n variables) rewritten as a
    dict {partition mu: int} standing for prod_i e_{mu_i}, by leading-term
    elimination."""
    e_single = [None] * (n + 1)
    for k in range(n + 1):
        e_single[k] = msym((1,) * k, n)
    out = {}
    work = dict(poly)
    while work:
        lead = max(work)
        c = work[lead]
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise ValueError("polynomial is not symmetric")
        lam = tuple(a for a in lead if a)
        mu = _conjugate(lam)
        if any(k > n for k in mu):
            raise ValueError("leading term needs e_k beyond the variable count")
        prod = {(0,) * n: 1}
        for k in mu:
            prod = _poly_mul(prod, e_single[k])
        for e, v in prod.items():
            s = work.get(e, 0) - c * v
            if s:
                work[e] = s
            else:
                work.pop(e, None)
        out[mu] = out.get(mu, 0) + c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def q_alpha(alpha, n_vars=None):
    """m_alpha written in elementary symmetric polynomials, as a dict
    {partition mu: int} meaning sum of coeff * prod e_{mu_i}.  Computed at
    two variable counts and compared, so an unstable answer cannot escape."""
    alpha = tuple(alpha)
    if not is_partition(alpha):
        raise ValueError("alpha must be a partition")
    if not alpha:
        return {(): 1}
    n = max(n_vars or 0, sum(alpha))
    a = _to_elementary(msym(alpha, n), n)
    b = _to_elementary(msym(alpha, n + 1), n + 1)
    if a != b:
        raise AssertionError("elementary expansion is not stable in the variable count")
    return a


def _sub_multisets(alpha):
    """Distinct sub-multisets of a partition, each as a sorted tuple."""
    from collections import Counter

    items = sorted(Counter(alpha).items(), reverse=True)
    subs = [()]
    for part, mult in items:
        subs = [s + (part,) * k for s in subs for k in range(mult + 1)]
    return [tuple(sorted(s, reverse=True)) for s in subs]


def _multiset_minus(alpha, gamma):
    rem = list(alpha)
    for g in gamma:
        rem.remove(g)
    return tuple(rem)


@lru_cache(maxsize=None)
def m_product(gamma, beta):
    """Structure constants of m_gamma * m_beta in the monomial basis."""
    if not gamma:
        return {beta: 1}
    if not beta:
        return {gamma: 1}
    n = len(gamma) + len(beta)
    prod = _poly_mul(msym(gamma, n), msym(beta, n))
    out = {}
    for e, c in prod.items():
        mu = tuple(sorted((a for a in e if a), reverse=True))
        rep = mu + (0,) * (n - len(mu))
        if e == rep:
            out[mu] = c
    return out


@lru_cache(maxsize=None)
def lambda_coeffs(alpha):
    """Integers n_beta with  c_alpha(-E) = sum_beta n_beta c_beta(E), from
    the recursion forced by P(E) P(-E) = 1, with products of classes pushed
    back into the class basis through m_product."""
    alpha = tuple(alpha)
    if not is_partition(alpha):
        raise ValueError("alpha must be a partition")
    if not alpha:
        return {(): 1}
    acc = {}
    for gamma in _sub_multisets(alpha):
        if not gamma:
            continue
        delta = _multiset_minus(alpha, gamma)
        for beta, nb in lambda_coeffs(delta).items():
            for mu, g in m_product(gamma, beta).items():
                s = acc.get(mu, 0) - nb * g
                if s:
                    acc[mu] = s
                else:
                    acc.pop(mu, None)
    return acc


# ---------------------------------------------------------------------------
# the alpha-indexed classes

def elementary_class(E, alpha):
    """The alpha class of a virtual split bundle from the elementary-basis
    expansion of m_alpha, evaluated on the Chern classes of E."""
    model = E.model
    ctot = chern_total(E)
    out = {}
    for mu, c in q_alpha(alpha).items():
        term = model.one(ZZ)
        for k in mu:
            term = model.mul(ZZ, term, cm_graded(ctot, k))
            if not term:
                break
        if term:
            out = _add(ZZ, out, _scale(ZZ, term, c))
    return out


def cf_class(E, alpha):
    """The alpha class of a virtual split bundle, computed two independent
    ways (coefficient extraction from total_P, and the elementary-basis
    expansion evaluated on Chern classes) and cross-checked."""
    alpha = tuple(alpha)
    if not is_partition(alpha):
        raise ValueError("alpha must be a partition")
    route_a = class_coefficient(total_P(E), alpha)
    route_b = elementary_class(E, alpha)
    if route_a != route_b:
        raise AssertionError("class routes disagree for alpha=%r" % (alpha,))
    return route_a
