"""Reference sparse-polynomial products, kept as a test oracle for the
interned-monomial kernel.

Production multiplies monomials of B, T and TEPS through a MonomialTable
(int ids and product rows) and sums products in one accumulator per `dot`.
This module multiplies the plain way: every pair of monomials is merged by
its key product (`merge_partitions` for b-monomials, exponent addition for
t and eps), and a sum of products adds one product coefficient at a time.
A coefficient is added and multiplied as a plain int, reduced mod m over
Z/m, or as a Fraction over ZHALF, so no sum of the kernel checks itself.

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

Every domain supplies only `lincomb` and `dot`, and `Domain` derives the
other ring operations from them; `protocol_problems` checks that layout.
To run it, and to compare `dot`, `mul`, `lincomb`, `add`, `neg`, `sub` and
`int_scale` of every domain with the oracle on random draws from the fixed
seeds 0 and 1, on an interpreter without pytest or Hypothesis, run

    PYTHONPATH=src python tests/kernel_oracle.py --check

which exits 1 on a mismatch or a protocol problem."""

import argparse
import random
import sys
from fractions import Fraction
from itertools import groupby
from operator import add as _plus, mul as _times

from cobcalc import core_algebra
from cobcalc.core_algebra import (
    TEPS, TRING, ZHALF, ZZ, BDomain, Domain, SparseDomain, TruncatedSeries, b_ring, dot_groups,
    int_mod, merge_partitions,
)


def _scalar(op, base, a, b):
    """op(a, b) for elements of a domain of constants, taken on plain ints
    (reduced mod m over Z/m) or, over ZHALF, on Fractions."""
    if base is ZHALF:
        v = op(Fraction(a[0], 1 << a[1]), Fraction(b[0], 1 << b[1]))
        return (v.numerator, v.denominator.bit_length() - 1)
    v = op(a, b)
    return v % base.m if hasattr(base, "m") else v


def _add_term(base, out, m, v):
    """Add the base element v to the coefficient of m in the sparse dict
    out, dropping the coefficient if the sum is zero."""
    s = _scalar(_plus, base, out.get(m, base.zero()), v)
    if base.is_zero(s):
        out.pop(m, None)
    else:
        out[m] = s


def sparse_mul(base, a, b, key):
    """Product of sparse elements whose monomials multiply by key(m1, m2)."""
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            _add_term(base, out, key(k1, k2), _scalar(_times, base, v1, v2))
    return out


def oracle_mul(dom, a, b):
    """a * b in a domain of constants or in one of the sparse domains
    B(base), TRING and TEPS."""
    if not isinstance(dom, SparseDomain):
        return _scalar(_times, dom, a, b)
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
    if not isinstance(dom, SparseDomain):
        out = dom.zero()
        for a, b, k in terms:
            out = _scalar(_plus, dom, out, _scalar(_times, dom, oracle_mul(dom, a, b), dom.from_int(k)))
        return out
    base, out = dom.base, {}
    for a, b, k in terms:
        kk = base.from_int(k)
        for m, v in oracle_mul(dom, a, b).items():
            _add_term(base, out, m, _scalar(_times, base, v, kk))
    return out


def oracle_lincomb(dom, pairs):
    """sum of k * a over the (a, k) pairs, as the `oracle_dot` of (a, 1, k)."""
    return oracle_dot(dom, [(a, dom.one(), k) for a, k in pairs])


def sum_problems(dom, terms):
    """The names of the operations among add, neg, sub and int_scale of dom
    that differ from the oracle on some (a, b, k) of terms: a + b, -a, a - b
    and k * a."""
    problems = []
    for a, b, k in terms:
        for name, got, pairs in (
            ("add", dom.add(a, b), [(a, 1), (b, 1)]),
            ("neg", dom.neg(a), [(a, -1)]),
            ("sub", dom.sub(a, b), [(a, 1), (b, -1)]),
            ("int_scale", dom.int_scale(a, k), [(a, k)]),
        ):
            if name not in problems and got != oracle_lincomb(dom, pairs):
                problems.append(name)
    return problems


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


# the ring operations that `Domain` derives from `lincomb` and `dot`
_DERIVED = ("add", "neg", "sub", "mul", "int_scale", "eq")


def protocol_problems():
    """What breaks the layout of the coefficient-domain protocol, as text:
    the class of each domain in _CHECK_DOMAINS supplies its own `dot` and
    `lincomb`, no class but `Domain` defines an operation of _DERIVED (the
    alias `BDomain.mul = Domain.mul` aside), no domain binds a protocol
    method on itself, and `eq` and `sub` over B(Z/2) each make one
    `sparse_lincomb` call."""
    problems = []
    for dom, _key, _coeff in _CHECK_DOMAINS:
        cls = type(dom)
        for name in ("dot", "lincomb"):
            if getattr(cls, name, None) in (None, vars(Domain).get(name)):
                problems.append("%s has no %s of its own" % (cls.__name__, name))
        for name in _DERIVED:
            if getattr(cls, name, None) is not vars(Domain).get(name):
                problems.append("%s does not take %s from Domain" % (cls.__name__, name))
        for name in set(vars(dom)) & {"dot", "lincomb", *_DERIVED}:
            problems.append("%s binds %s on the instance" % (dom.name, name))
    dom, a, b = b_ring(int_mod(2)), {(1,): 1, (): 1}, {(1,): 1}
    real, calls = core_algebra.sparse_lincomb, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    core_algebra.sparse_lincomb = counted
    try:
        for name in ("eq", "sub"):
            del calls[:]
            getattr(dom, name)(a, b)
            if len(calls) != 1:
                problems.append("%s over %s makes %d sparse_lincomb calls, not 1"
                                % (name, dom.name, len(calls)))
    finally:
        core_algebra.sparse_lincomb = real
    return sorted(set(problems))


def _element(rng, key, coeff):
    if key is None:
        return coeff(rng)
    return {key(rng): coeff(rng) for _ in range(rng.randint(0, 4))}


def check(cases=300, seed=0):
    """Compare dot, mul, lincomb, add, neg, sub and int_scale of every domain
    in _CHECK_DOMAINS with the oracle on `cases` random term lists each;
    return 1 on a mismatch.
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
            if any(dom.mul(a, b) != oracle_mul(dom, a, b) for a, b, _k in terms):
                problems.append("mul")
            if dom.lincomb(pairs) != oracle_lincomb(dom, pairs):
                problems.append("lincomb")
            problems += sum_problems(dom, terms)
            total += 1
            if problems:
                bad += 1
                print("MISMATCH %s %s on %r" % (dom.name, "/".join(problems), terms))
    print("%d of %d kernel cases match the oracle on seed %d" % (total - bad, total, seed))
    return 1 if bad else 0


def check_protocol():
    """Print each protocol problem; return 1 if there is one."""
    problems = protocol_problems()
    for problem in problems:
        print("PROTOCOL %s" % problem)
    print("%d coefficient-domain protocol problems" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="reference kernel products, kept as a test oracle")
    ap.add_argument("--check", action="store_true",
                    help="check the domain protocol, and compare the kernel's sums and products "
                         "with the oracle on seeds 0 and 1")
    if not ap.parse_args().check:
        ap.error("nothing to do without --check")
    sys.exit(max([check_protocol(), check(seed=0), check(seed=1)]))
