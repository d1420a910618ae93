"""Reference sparse-polynomial products, kept as a test oracle for the
interned-monomial kernel.

Production multiplies monomials of B, T and TEPS through a MonomialTable
(int ids and product rows) and sums products in one accumulator per `dot`.
This module multiplies the plain way: every pair of monomials is merged by
its key product (`merge_partitions` for b-monomials, exponent addition for
t and eps), and a sum of products is a fold of sparse additions.

It also keeps the series inverse and exact division that production no
longer needs, since every reciprocal there is a power -1 by Miller's
recurrence (`core_algebra._series_power`): `series_inverse` by a
degree-by-degree recurrence, `series_divide` by factoring out the common
monomial of the divisor and inverting the rest, and the inverse again as a
geometric sum, one full series product per term
(`inverse_by_geometric_sum`), to check the recurrence.  Then two
renderings of an element against the names that `Domain.monomials` and
`Domain.fmt` read off the monomial table: one dict per monomial
(`monomials_by_dicts`, `fmt_by_dicts`), and one sorted list of (weight, t,
eps, b-partition, coefficient string) terms whose factors are rebuilt for
every term (`fmt_by_terms`).

Last, the row HNF and lattice membership on dense rows, as they were
before `hnf_rows` walked sparse reducers (`dense_hnf_rows`,
`dense_member`): every remaining row is scanned at every column, and each
row operation rewrites the whole tail from the pivot column on.

To compare `dot`, `mul` and `lincomb` of every domain with the oracle on
seeded random draws, on an interpreter without pytest or Hypothesis, run

    PYTHONPATH=src python tests/kernel_oracle.py --check

which exits 1 on a mismatch."""

import argparse
import random
import sys
from itertools import groupby
from operator import add as _plus

from cobcalc.core_algebra import (
    TEPS, TRING, ZHALF, ZZ, BDomain, SparseDomain, TruncatedSeries, b_ring, dot_groups, int_mod,
    merge_partitions, sparse_add, sparse_int_scale,
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
    """sum of k * a * b over the (a, b, k) triples, one addition at a time;
    over a domain of constants, by its own add, mul and from_int."""
    if not isinstance(dom, SparseDomain):
        out = dom.zero()
        for a, b, k in terms:
            out = dom.add(out, dom.mul(dom.mul(a, b), dom.from_int(k)))
        return out
    out = {}
    for a, b, k in terms:
        out = sparse_add(dom.base, out, sparse_int_scale(dom.base, oracle_mul(dom, a, b), k))
    return out


def series_inverse(f):
    """1/f for a series f with unit constant term.  Degree by degree over
    the homogeneous parts f_j: g_0 = 1/f_0 and g_d = sum over j = 1..d of
    h_j g_(d-j), where h_j = -g_0 f_j, one `dot` per exponent of degree d."""
    dom = f.dom
    zero = (0,) * len(f.vars)
    g0 = dom.inv(f.coefficient(zero))
    scale = dom.neg(g0)
    h = [[] for _ in range(f.order)]
    for e, c in f.coeffs.items():
        if e != zero:
            h[sum(e)].append((e, dom.mul(scale, c)))
    g = [[(zero, g0)]]
    out = {zero: g0}
    for d in range(1, f.order):
        groups = {}
        for j in range(1, d + 1):
            for e1, c1 in h[j]:
                for e2, c2 in g[d - j]:
                    groups.setdefault(tuple(map(_plus, e1, e2)), []).append((c1, c2, 1))
        part = dot_groups(dom, groups)
        out.update(part)
        g.append(list(part.items()))
    return TruncatedSeries(dom, f.vars, f.order, out, _trusted=True)


def _shift_down(f, emin, new_order):
    """f / x^emin, truncated at new_order; every exponent of f is >= emin."""
    out = {}
    for e, c in f.coeffs.items():
        e2 = tuple(a - b for a, b in zip(e, emin))
        if sum(e2) < new_order:
            out[e2] = c
    return TruncatedSeries(f.dom, f.vars, new_order, out, _trusted=True)


def series_divide(f, g):
    """Exact division f/g.  The common monomial of g is factored out, so
    the quotient's order drops by its total degree."""
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero series")
    keys = list(g.coeffs)
    emin = tuple(min(k[i] for k in keys) for i in range(len(f.vars)))
    new_order = f.order - sum(emin)
    if new_order < 1:
        raise ValueError("inexact division: divisor valuation exceeds order")
    for e in f.coeffs:
        if any(a < b for a, b in zip(e, emin)):
            raise ValueError("inexact division: %r not divisible by divisor monomial" % (e,))
    g0 = _shift_down(g, emin, new_order)
    c0 = g0.coefficient((0,) * len(f.vars))
    if not f.dom.is_unit(c0):
        raise ValueError("inexact division: divisor lowest coefficient is not a unit")
    return _shift_down(f, emin, new_order).mul(series_inverse(g0))


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


def monomials_by_dicts(dom, a):
    """The serialization of `a` as {"b", "t", "eps", "coeff"} dicts, one per
    monomial, sorted by weight, then t, eps and b-partition."""
    if not isinstance(dom, SparseDomain):
        return [] if dom.is_zero(a) else [{"b": [], "t": 0, "eps": 0, "coeff": dom.coeff_str(a)}]
    items = []
    for k, v in a.items():
        b, t, eps = dom._parts(k)
        items.append({"b": list(b), "t": t, "eps": eps, "coeff": dom.base.coeff_str(v)})
    items.sort(key=lambda it: (sum(it["b"]) + it["t"], it["t"], it["eps"], it["b"]))
    return items


def fmt_by_dicts(dom, a):
    """The rendering of `a`, read off `monomials_by_dicts` with a dict of
    part multiplicities per monomial."""
    items = monomials_by_dicts(dom, a)
    if not items:
        return "0"
    chunks = []
    for it in items:
        factors = []
        seen = {}
        for part in it["b"]:
            seen[part] = seen.get(part, 0) + 1
        for part in sorted(seen, reverse=True):
            e = seen[part]
            factors.append("b%d" % part + ("^%d" % e if e > 1 else ""))
        if it["t"]:
            factors.append("t" + ("^%d" % it["t"] if it["t"] > 1 else ""))
        if it["eps"]:
            factors.append("eps")
        c = it["coeff"]
        neg = c.startswith("-")
        mag = c[1:] if neg else c
        if factors and mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors) if factors else mag
        chunks.append(("- " if neg else "+ ") + body)
    s = " ".join(chunks)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _terms(dom, a):
    """The monomials of `a` as one sorted list of (weight, t, eps,
    b-partition, coefficient string) tuples."""
    if not isinstance(dom, SparseDomain):
        return [] if dom.is_zero(a) else [(0, 0, 0, (), dom.coeff_str(a))]
    coeff_str = dom.base.coeff_str
    return sorted((sum(b) + t, t, eps, b, coeff_str(v))
                  for (b, t, eps), v in zip(map(dom._parts, a), a.values()))


def fmt_by_terms(dom, a):
    """The rendering of `a` from `_terms`, with each run of equal parts of a
    b-partition grouped into one power, term by term."""
    chunks = []
    for _w, t, eps, b, c in _terms(dom, a):
        factors = []
        for p, run in groupby(b):
            e = len(list(run))
            factors.append("b%d^%d" % (p, e) if e > 1 else "b%d" % p)
        if t:
            factors.append("t^%d" % t if t > 1 else "t")
        if eps:
            factors.append("eps")
        neg = c.startswith("-")
        mag = c[1:] if neg else c
        body = "*".join(factors if factors and mag == "1" else [mag] + factors)
        chunks.append(("- " if neg else "+ ") + body)
    if not chunks:
        return "0"
    s = " ".join(chunks)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def dense_hnf_rows(rows):
    """(pivot_rows, pivot_cols) of the row HNF, with pivots positive and the
    entries above each pivot in [0, pivot), by dense row operations."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    res, pivcols = [], []
    col = 0
    while rows and col < ncols:
        have = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not have:
            rows = rest
            col += 1
            continue
        while len(have) > 1:
            have.sort(key=lambda r: abs(r[col]))
            r0 = have[0]
            tail0 = r0[col:]
            nxt = [r0]
            for r in have[1:]:
                q = r[col] // r0[col]
                rr = r[:col]
                rr += [a - q * b for a, b in zip(r[col:], tail0)]
                if rr[col] != 0:
                    nxt.append(rr)
                elif any(rr):
                    rest.append(rr)
            have = nxt
        piv = have[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        res.append(piv)
        pivcols.append(col)
        rows = rest
        col += 1
    for i in range(len(res)):
        for j in range(i + 1, len(res)):
            c = pivcols[j]
            q = res[i][c] // res[j][c]
            if q:
                res[i][c:] = [a - q * b for a, b in zip(res[i][c:], res[j][c:])]
    return res, pivcols


def dense_member(hnf, pivcols, v):
    """Whether v lies in the span of the HNF rows, reducing v by dense
    slices."""
    v = list(v)
    for row, c in zip(hnf, pivcols):
        if v[c]:
            if v[c] % row[c]:
                return False
            q = v[c] // row[c]
            v[c:] = [a - q * b for a, b in zip(v[c:], row[c:])]
    return not any(v)


def _partition(rng):
    return tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True))


def _nonzero(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _half(rng):
    return ZHALF.mul((_nonzero(rng), 0), ZHALF.inv((1 << rng.randint(0, 2), 0)))


# (domain, random monomial key or None for a constant, random nonzero
# coefficient in canonical form)
_CHECK_DOMAINS = [
    (b_ring(ZZ), _partition, _nonzero),
    (b_ring(int_mod(2)), _partition, lambda rng: 1),
    (b_ring(ZHALF), _partition, _half),
    (TRING, lambda rng: rng.randint(0, 4), _nonzero),
    (TEPS, lambda rng: (rng.randint(0, 3), rng.randint(0, 1)), _nonzero),
    (ZZ, None, _nonzero),
    (int_mod(3), None, lambda rng: rng.randint(1, 2)),
    (ZHALF, None, _half),
]


def _element(rng, key, coeff):
    if key is None:
        return coeff(rng)
    return {key(rng): coeff(rng) for _ in range(rng.randint(0, 4))}


def check(cases=300, seed=0):
    """Compare dot, mul and lincomb of every domain in _CHECK_DOMAINS with
    the oracle on `cases` random term lists each; return 1 on a mismatch.
    The factors come from a pool that holds zero, the unit, drawn elements
    and the negative of the first, so terms can vanish, have a unit factor
    or cancel each other."""
    rng = random.Random(seed)
    bad = total = 0
    for dom, key, coeff in _CHECK_DOMAINS:
        for _ in range(cases):
            drawn = [_element(rng, key, coeff) for _ in range(rng.randint(1, 3))]
            pool = [dom.zero(), dom.one(), dom.neg(drawn[0])] + drawn
            terms = [(rng.choice(pool), rng.choice(pool), rng.randint(-2, 2))
                     for _ in range(rng.randint(0, 5))]
            if terms and rng.random() < 0.5:
                a, b, k = terms[0]
                terms.append((b, a, -k))
            pairs = [(a, k) for a, _b, k in terms]
            problems = []
            if dom.dot(terms) != oracle_dot(dom, terms):
                problems.append("dot")
            if isinstance(dom, SparseDomain) and any(dom.mul(a, b) != oracle_mul(dom, a, b)
                                                     for a, b, _k in terms):
                problems.append("mul")
            if dom.lincomb(pairs) != oracle_dot(dom, [(a, dom.one(), k) for a, k in pairs]):
                problems.append("lincomb")
            total += 1
            if problems:
                bad += 1
                print("MISMATCH %s %s on %r" % (dom.name, "/".join(problems), terms))
    print("%d of %d kernel cases match the oracle" % (total - bad, total))
    return 1 if bad else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="reference kernel products, kept as a test oracle")
    ap.add_argument("--check", action="store_true", help="compare dot, mul and lincomb with the oracle")
    if not ap.parse_args().check:
        ap.error("nothing to do without --check")
    sys.exit(check())
