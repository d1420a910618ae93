"""Reference implementation of the alpha-indexed classes through symmetric
functions, kept as a test oracle for the production path.

The production code reads every alpha class off the multiplicative class
P (`symmfunc.total_P`) and every Chern number off the fundamental class.
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

from cobcalc.chow_models import chern_total, cm_add, cm_graded, cm_scale
from cobcalc.core_algebra import ZZ, b_ring, is_partition
from cobcalc.symmfunc import class_coefficient, total_P


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
    ctot = chern_total(model, ZZ, E)
    out = {}
    for mu, c in q_alpha(alpha).items():
        term = model.one(ZZ)
        for k in mu:
            term = model.mul(ZZ, term, cm_graded(ctot, k))
            if not term:
                break
        if term:
            out = cm_add(ZZ, out, cm_scale(ZZ, term, c))
    return out


def cf_class(E, alpha):
    """The alpha class of a virtual split bundle, computed two independent
    ways (coefficient extraction from total_P, and the elementary-basis
    expansion evaluated on Chern classes) and cross-checked."""
    alpha = tuple(alpha)
    if not is_partition(alpha):
        raise ValueError("alpha must be a partition")
    route_a = class_coefficient(total_P(E, b_ring(ZZ)), alpha)
    route_b = elementary_class(E, alpha)
    if route_a != route_b:
        raise AssertionError("class routes disagree for alpha=%r" % (alpha,))
    return route_a
