"""Reference sparse-polynomial products, kept as a test oracle for the
interned-monomial kernel.

Production multiplies monomials of B, T and TEPS through a MonomialTable
(int ids and product rows) and sums products in one accumulator per `dot`.
This module multiplies the plain way: every pair of monomials is merged by
its key product (`merge_partitions` for b-monomials, exponent addition for
t and eps), and a sum of products is a fold of sparse additions.

It also keeps the series inverse as a geometric sum, one full series
product per term, against the degree-by-degree recurrence of
`TruncatedSeries.inverse`."""

from cobcalc.core_algebra import (
    TEPS, TRING, BDomain, TruncatedSeries, merge_partitions, sparse_add, sparse_int_scale,
)


def sparse_mul(base, a, b, key):
    """Product of sparse elements whose monomials multiply by key(m1, m2)."""
    out = {}
    zero = base.zero()
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = key(k1, k2)
            s = base.add(out.get(k, zero), base.mul(v1, v2))
            if base.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


def oracle_mul(dom, a, b):
    """a * b in one of the sparse domains B(base), TRING and TEPS."""
    if isinstance(dom, BDomain):
        return sparse_mul(dom.base, a, b, merge_partitions)
    if dom is TRING:
        return sparse_mul(dom.base, a, b, lambda e1, e2: e1 + e2)
    if dom is TEPS:
        prod = sparse_mul(dom.base, a, b, lambda e1, e2: (e1[0] + e2[0], e1[1] + e2[1]))
        return {k: v for k, v in prod.items() if k[1] < 2}
    raise ValueError("no oracle product for %s" % dom.name)


def oracle_dot(dom, terms):
    """sum of k * a * b over the (a, b, k) triples, one addition at a time."""
    out = {}
    for a, b, k in terms:
        out = sparse_add(dom.base, out, sparse_int_scale(dom.base, oracle_mul(dom, a, b), k))
    return out


def inverse_by_geometric_sum(f):
    """1/f for a series f with unit constant term c: (1/c) sum_k r^k with
    r = 1 - f/c, summed until r^k vanishes in the truncation."""
    dom = f.dom
    c_inv = dom.inv(f.coefficient((0,) * len(f.vars)))
    one = TruncatedSeries.constant(dom, f.vars, f.order, dom.one())
    r = one.sub(f.scale(c_inv))
    acc = term = one
    for _ in range(f.order - 1):
        term = term.mul(r)
        if term.is_zero():
            break
        acc = acc.add(term)
    return acc.scale(c_inv)
