"""Exact arithmetic kernel: sparse-element arithmetic, graded coefficient
domains, truncated multivariate power series, and integer-lattice linear
algebra (row Hermite normal form).

Elements of a domain are plain Python values (ints, pairs, dicts); the domain
object supplies the ring operations.  Everything is immutable by convention and
exact (arbitrary-precision integers throughout; the only denominators allowed
anywhere are powers of two, in ZHALF).

A domain supplies two sums, and every other ring operation is one of them:
`lincomb(pairs)`, the sum of k * a over (a, k) pairs with k an int, and
`dot(terms)`, the sum of k * a * b over (a, b, k) triples.  `Domain`
derives `add`, `neg`, `sub`, `int_scale`, `mul` and `eq` from them.  The
sparse domains (the b-ring, ZZ[t], ZZ[t,eps]/eps^2) sum a `lincomb` into
one accumulator keyed by the monomials themselves, and multiply monomials
in a `dot` through a MonomialTable of interned monomial ids, whose product
rows are filled on a miss by merging the two keys, summing into one
accumulator keyed by id; each drops zeros once, at the end.  Ids never
leave this module: elements are dicts keyed by their monomials.  Those two
loops run over int coefficients; over another base (Z/p, ZHALF) a sum
groups its coefficients by monomial and hands each group to the base's own
`dot` or `lincomb`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, count
from operator import add as _plus


# ---------------------------------------------------------------------------
# partitions

# typed, so that True does not find the entry of 1; the check runs on a miss
@lru_cache(maxsize=None, typed=True)
def partitions(n):
    """All partitions of n as weakly decreasing tuples of positive ints."""
    if not is_int(n):
        raise ValueError("a partition weight is an int, got %r" % (n,))
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    out = []

    def rec(rem, cap, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for k in range(min(rem, cap), 0, -1):
            acc.append(k)
            rec(rem - k, k, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(out)


def is_int(v):
    """An int that is not a bool (JSON true/false decode to bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_partition(t):
    return all(is_int(a) and a > 0 for a in t) and all(
        t[i] >= t[i + 1] for i in range(len(t) - 1)
    )


def is_prime(p):
    """Whether p is a prime int; a float or a bool is not."""
    if not is_int(p) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def bezout(values):
    """(g, coeffs): g >= 0 is the gcd of the integers `values` and
    sum(c * v for c, v in zip(coeffs, values)) == g.  A value that g already
    divides gets the coefficient 0."""
    g, coeffs = 0, []
    for v in values:
        if g and v % g == 0:
            coeffs.append(0)
            continue
        # extended Euclid on (g, v): s * g + t * v == r throughout
        r0, r1, s0, s1, t0, t1 = g, v, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0 < 0:
            r0, s0, t0 = -r0, -s0, -t0
        coeffs = [s0 * c for c in coeffs]
        coeffs.append(t0)
        g = r0
    return g, coeffs


def merge_partitions(p, q):
    """The partition of the b-monomial product b^p * b^q."""
    return tuple(sorted(p + q, reverse=True))


# ---------------------------------------------------------------------------
# sparse elements
#
# A sparse element is a dict {monomial: coefficient} over a base domain that
# never stores a zero coefficient: the elements of B, T and TEPS, the
# coefficient tables of series and the elements of Chow rings are all sparse
# elements.  Over ZZ the coefficients are plain ints, and a sum of integer
# multiples is one loop over them (`sparse_lincomb`), as a sum of products
# is (`SparseDomain.dot`).  Over another base a sum groups its coefficients
# by monomial and each group is one `dot` or `lincomb` of the base
# (`dot_groups`, `lincomb_groups`), never a per-term `add` or `mul`.

def sparse_from_int(base, a):
    """An int-coefficient sparse element with its coefficients mapped into
    base, dropping those that become zero there."""
    out = {}
    for k, v in a.items():
        c = base.from_int(v)
        if not base.is_zero(c):
            out[k] = c
    return out


def sparse_lincomb(base, pairs):
    """sum of k * a over the (sparse element a, int k) pairs.  Over ZZ, in
    one dict keyed by monomial, with the zeros dropped once, at the end;
    over another base, the (coefficient, k) pairs are grouped by monomial
    and each group is one `lincomb` of the base."""
    acc = {}
    get = acc.get
    if base is ZZ:
        for a, k in pairs:
            for m, v in a.items():
                acc[m] = get(m, 0) + k * v
        return {m: v for m, v in acc.items() if v}
    groups = {}
    for a, k in pairs:
        for m, v in a.items():
            groups.setdefault(m, []).append((v, k))
    return lincomb_groups(base, groups)


def dot_groups(dom, groups):
    """{key: dom.dot(terms)} for the (a, b, k) triples grouped by key, without
    the keys whose sum is zero."""
    out = {}
    for key, terms in groups.items():
        v = dom.dot(terms)
        if not dom.is_zero(v):
            out[key] = v
    return out


def lincomb_groups(dom, groups):
    """{key: dom.lincomb(pairs)} for the (a, k) pairs grouped by key, without
    the keys whose sum is zero.  A lone pair (a, 1) keeps a as it is."""
    out = {}
    for key, pairs in groups.items():
        v = pairs[0][0] if len(pairs) == 1 and pairs[0][1] == 1 else dom.lincomb(pairs)
        if not dom.is_zero(v):
            out[key] = v
    return out


# ---------------------------------------------------------------------------
# interned monomials
#
# A sparse domain multiplies monomials through a MonomialTable: every
# monomial key it meets gets a small int id, and row i of the table maps id j
# to the id of the product of monomials i and j.  A row entry is computed
# once, by the domain's key product, on its first lookup; after that a
# product of two monomials costs one int-keyed dict lookup and no hashing of
# the keys.  Ids live only inside `SparseDomain.dot`: elements keep their
# keys, so emptying a table never changes an answer.

class _ProductRow(dict):
    """Row of a MonomialTable for the monomial `key`."""

    __slots__ = ("table", "key")

    def __init__(self, table, key):
        self.table = table
        self.key = key

    def __missing__(self, j):
        t = self.table
        p = self[j] = t.ids[t.merge(self.key, t.keys[j])]
        return p


class _MonomialIds(dict):
    """Monomial key -> id, interning a key on its first lookup."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = table

    def __missing__(self, key):
        t = self.table
        i = self[key] = len(t.keys)
        t.keys.append(key)
        t.rows.append(_ProductRow(t, key))
        return i


class _MonomialNames(dict):
    """Monomial key -> (sort key, name) on first lookup: the sort key is (weight,
    t, eps, b-partition), the name b3*b1^2*t^2*eps, say, or "" for the unit."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def __missing__(self, key):
        b, t, eps = self.parts(key)
        powers = [("b%d" % p, b.count(p)) for p in sorted(set(b), reverse=True)] + [("t", t), ("eps", eps)]
        name = "*".join(x + "^%d" % e if e > 1 else x for x, e in powers if e)
        v = self[key] = ((sum(b) + t, t, eps, b), name)
        return v


class MonomialTable:
    """Interned monomials under the commutative key product `merge`: `ids`
    maps a key to its id, `keys` maps an id back, `rows[i][j]` is the id of
    the product of monomials i and j, and `names` maps a key to its sort key
    and rendering, read off `parts(key)` = (b-partition, t, eps)."""

    def __init__(self, merge, parts):
        self.merge = merge
        self.ids = _MonomialIds(self)
        self.names = _MonomialNames(parts)
        self.keys, self.rows = [], []

    def clear(self):
        for table in (self.ids, self.names, self.keys, self.rows):
            table.clear()


# ---------------------------------------------------------------------------
# coefficient domains

class Domain:
    """Base of all coefficient domains.  A subclass supplies `zero`, `one`,
    `from_int`, `is_zero`, `is_unit`/`inv` and two sums, with k an int:
    `lincomb(pairs)`, the sum of k * a over (a, k) pairs, and `dot(terms)`,
    the sum of k * a * b over (a, b, k) triples.  Every other ring operation
    is one of those sums, derived here, so `eq` and `sub` take one pass and
    `int_scale(a, 1)` returns a itself.  _ScalarDomain and SparseDomain
    define `degrees`, the graded degrees present in an element, and
    `_named`, its monomials as sorted ((sort key, name), coefficient string)
    pairs, which `monomials` serializes for the CLI and `fmt` renders."""

    name = "?"

    def add(self, a, b):
        return self.lincomb(((a, 1), (b, 1)))

    def neg(self, a):
        return self.lincomb(((a, -1),))

    def sub(self, a, b):
        return self.lincomb(((a, 1), (b, -1)))

    def int_scale(self, a, k):
        return a if k == 1 else self.lincomb(((a, k),))

    def mul(self, a, b):
        return self.dot(((a, b, 1),))

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def is_homogeneous(self, a, d):
        return self.degrees(a) <= {d}

    def monomials(self, a):
        return [{"b": list(b), "t": t, "eps": eps, "coeff": c}
                for ((_w, t, eps, b), _name), c in self._named(a)]

    def fmt(self, a):
        """Human-readable rendering, deterministic: coefficient*name per term."""
        out = []
        for (_key, name), c in self._named(a):
            out.append(" - " if c[0] == "-" else " + ")
            c = c.lstrip("-")
            out.append((name if c == "1" else c + "*" + name) if name else c)
        s = "".join(out)
        return "0" if not s else s[3:] if s[1] == "+" else "-" + s[3:]


class _ScalarDomain(Domain):
    """A domain of constants: a nonzero element is one monomial of degree 0,
    whose coefficient the subclass renders with `coeff_str`."""

    def degrees(self, a):
        return frozenset() if self.is_zero(a) else frozenset({0})

    def _named(self, a):
        return [] if self.is_zero(a) else [(((0, 0, 0, ()), ""), self.coeff_str(a))]


class IntDomain(_ScalarDomain):
    name = "ZZ"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def dot(self, terms):
        return sum(a * b * k for a, b, k in terms)

    def lincomb(self, pairs):
        return sum(a * k for a, k in pairs)

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ValueError("not a unit in ZZ: %r" % (a,))

    def coeff_str(self, a):
        return str(a)


class IntModDomain(_ScalarDomain):
    def __init__(self, m):
        if not is_int(m) or m < 2:
            raise ValueError("a modulus is an int >= 2, got %r" % (m,))
        self.m = m
        self.name = "ZZ/%d" % m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def from_int(self, n):
        return n % self.m

    def dot(self, terms):
        return sum(a * b * k for a, b, k in terms) % self.m

    def lincomb(self, pairs):
        return sum(a * k for a, k in pairs) % self.m

    def is_zero(self, a):
        return a % self.m == 0

    def is_unit(self, a):
        from math import gcd
        return gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError("not a unit mod %d: %r" % (self.m, a))
        return pow(a, -1, self.m)

    def coeff_str(self, a):
        return str(a % self.m)


def _half_norm(n, e):
    if n == 0:
        return (0, 0)
    while e > 0 and n % 2 == 0:
        n //= 2
        e -= 1
    return (n, e)


def _half_sum(terms):
    """The sum of num / 2**e over the (num, e) terms, taken over their
    common power of two and normalized."""
    e = max([f for _, f in terms], default=0)
    return _half_norm(sum(n << (e - f) for n, f in terms), e)


class HalfDomain(_ScalarDomain):
    """The ring of integers with powers of two inverted; elements are pairs
    (num, e) meaning num / 2**e, normalized so e == 0 or num is odd."""

    name = "ZHALF"

    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def from_int(self, n):
        return (n, 0)

    def dot(self, terms):
        return _half_sum([(n1 * n2 * k, e1 + e2) for (n1, e1), (n2, e2), k in terms])

    def lincomb(self, pairs):
        return _half_sum([(n * k, e) for (n, e), k in pairs])

    def is_zero(self, a):
        return a[0] == 0

    def is_unit(self, a):
        n = abs(a[0])
        return n != 0 and (n & (n - 1)) == 0

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError("not a unit in ZHALF: %r" % (a,))
        n, e = a
        sign = 1 if n > 0 else -1
        j = abs(n).bit_length() - 1
        return _half_norm(sign * (1 << e), j)

    def coeff_str(self, a):
        n, e = a
        return str(n) if e == 0 else "%d/2^%d" % (n, e)


class SparseDomain(Domain):
    """A domain whose elements are sparse elements over `base`.  `lincomb`
    is the kernel's `sparse_lincomb`, and `dot` multiplies monomials through
    the subclass's MonomialTable (`_table`).  The constants and the units
    are the base's, on the unit key `_unit`.  A subclass supplies `_unit`,
    `_table` and `_parts`, which splits a monomial key into its
    (b-partition, t exponent, eps exponent)."""

    def __init__(self, base):
        self.base = base

    def zero(self):
        return {}

    def one(self):
        return {self._unit: self.base.one()}

    def from_int(self, n):
        c = self.base.from_int(n)
        return {} if self.base.is_zero(c) else {self._unit: c}

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return set(a) == {self._unit} and self.base.is_unit(a[self._unit])

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError("not a unit in %s: %r" % (self.name, a))
        return {self._unit: self.base.inv(a[self._unit])}

    def lincomb(self, pairs):
        return sparse_lincomb(self.base, pairs)

    def dot(self, terms):
        """sum of k * a * b over the (a, b, k) triples.  Over ZZ, in one
        accumulator keyed by monomial id, with the zeros dropped once, at the
        end; a constant factor scales the other factor and costs no monomial
        products.  Callers that pass the unit as every second factor take
        `lincomb` instead; the branch serves the units that arrive among real
        products (the powers of x, y and z in `compose`, g_0 = 1 in Miller's
        recurrence, the first factor of `ChowModel.product`), which share
        this accumulator.  Over another base, each coefficient product is
        filed under its product id, and the triples of each id are one `dot`
        of the base."""
        table, unit, base = self._table, self._unit, self.base
        ids, rows = table.ids, table.rows
        acc = {}
        get = acc.get
        if base is ZZ:
            for a, b, k in terms:
                if len(b) < len(a) or (len(b) == 1 and unit in b):
                    a, b = b, a
                if len(a) == 1 and unit in a:
                    s = k * a[unit]
                    for m, v in b.items():
                        j = ids[m]
                        acc[j] = get(j, 0) + s * v
                    continue
                ib = [(ids[m], v) for m, v in b.items()]
                for m, v1 in a.items():
                    row = rows[ids[m]]
                    v1 *= k
                    for j, v2 in ib:
                        p = row[j]
                        acc[p] = get(p, 0) + v1 * v2
            keys = table.keys
            return {keys[i]: v for i, v in acc.items() if v}
        groups = {}
        for a, b, k in terms:
            ib = [(ids[m], v) for m, v in b.items()]
            for m, v1 in a.items():
                row = rows[ids[m]]
                for j, v2 in ib:
                    groups.setdefault(row[j], []).append((v1, v2, k))
        keys = table.keys
        return {keys[i]: v for i, v in dot_groups(base, groups).items()}

    def degrees(self, a):
        return frozenset(-sum(b) - t for b, t, _eps in map(self._parts, a))

    def _named(self, a):
        return sorted(zip(map(self._table.names.__getitem__, a), map(self.base.coeff_str, a.values())))


class BDomain(SparseDomain):
    """Polynomial ring over `base` in countably many generators b_1, b_2, ...
    with b_i of graded degree -i.  Elements are dicts {partition: base elt};
    the monomial for partition (3,1,1) is b3*b1^2."""

    _unit = ()

    def __init__(self, base):
        super().__init__(base)
        self.name = "B(%s)" % base.name

    @staticmethod
    def _parts(k):
        return k, 0, 0

    def gen(self, i):
        if i == 0:
            return self.one()
        return {(i,): self.base.one()}

    def monomial(self, parts, coeff):
        return {} if self.base.is_zero(coeff) else {tuple(parts): coeff}

    # a method of BDomain itself, so that the benchmark's tracer can count it
    mul = Domain.mul


# the product and the name of a b-monomial do not depend on the base, so
# every B-ring shares one table
BDomain._table = _B_MONOMIALS = MonomialTable(merge_partitions, BDomain._parts)


class TDomain(SparseDomain):
    """ZZ[t] with t of graded degree -1; elements {exponent: int}."""

    name = "T"
    _unit = 0

    def __init__(self):
        super().__init__(ZZ)
        self._table = MonomialTable(int.__add__, self._parts)

    @staticmethod
    def _parts(k):
        return (), k, 0

    def monomial(self, k, c):
        return {} if c == 0 else {k: c}


def _add_exponents(e1, e2):
    return (e1[0] + e2[0], e1[1] + e2[1])


class TEpsDomain(SparseDomain):
    """ZZ[t,eps]/eps^2 with t of degree -1 and eps of degree 0; elements are
    dicts {(t_exp, eps_exp): int} with eps_exp in {0, 1}.  A unit is +-1 plus
    eps times any element of ZZ[t], so it has its own `is_unit` and `inv`."""

    name = "TEPS"
    _unit = (0, 0)

    def __init__(self):
        super().__init__(ZZ)
        self._table = MonomialTable(_add_exponents, self._parts)

    @staticmethod
    def _parts(k):
        return (), k[0], k[1]

    def monomial(self, k, eps, c):
        return {} if c == 0 else {(k, eps): c}

    def dot(self, terms):
        # eps^2 terms never mix with the others, so they are dropped at the end
        return {k: v for k, v in super().dot(terms).items() if k[1] < 2}

    def is_unit(self, a):
        body = {k: v for (k, e), v in a.items() if e == 0}
        return set(body) <= {0} and body.get(0, 0) in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError("not a unit in TEPS: %r" % (a,))
        s = a[(0, 0)]
        out = {(0, 0): s}
        for (k, e), v in a.items():
            if e == 1:
                out[(k, 1)] = -v
        return out


ZZ = IntDomain()
ZHALF = HalfDomain()
TRING = TDomain()
TEPS = TEpsDomain()

_int_mod_cache = {}
_b_ring_cache = {}


def int_mod(m):
    # 2.0 == 2 and True == 1 share their int's key, so only an int is looked up
    dom = _int_mod_cache.get(m) if is_int(m) else None
    if dom is None:
        dom = _int_mod_cache[m] = IntModDomain(m)
    return dom


def b_ring(base):
    key = base.name
    if key not in _b_ring_cache:
        _b_ring_cache[key] = BDomain(base)
    return _b_ring_cache[key]


# ---------------------------------------------------------------------------
# truncated power series

class TruncatedSeries:
    """Multivariate power series truncated at total degree < order, with
    coefficients in a Domain.  coeffs maps exponent tuples to elements; zero
    coefficients are never stored."""

    __slots__ = ("dom", "vars", "order", "coeffs")

    def __init__(self, dom, variables, order, coeffs=None, _trusted=False):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.dom = dom
        self.vars = tuple(variables)
        self.order = order
        if coeffs is None:
            self.coeffs = {}
        elif _trusted:
            self.coeffs = coeffs
        else:
            clean = {}
            for e, c in coeffs.items():
                e = tuple(e)
                if len(e) != len(self.vars):
                    raise ValueError("exponent arity mismatch")
                if sum(e) >= order or dom.is_zero(c):
                    continue
                clean[e] = c
            self.coeffs = clean

    # -- constructors
    @classmethod
    def zero(cls, dom, variables, order):
        return cls(dom, variables, order, {}, _trusted=True)

    @classmethod
    def constant(cls, dom, variables, order, c):
        t = cls.zero(dom, variables, order)
        if not dom.is_zero(c):
            t.coeffs[(0,) * len(t.vars)] = c
        return t

    @classmethod
    def variable(cls, dom, variables, order, name):
        t = cls.zero(dom, variables, order)
        i = t.vars.index(name)
        if order > 1:
            e = [0] * len(t.vars)
            e[i] = 1
            t.coeffs[tuple(e)] = dom.one()
        return t

    # -- basics
    def _like(self, coeffs):
        return TruncatedSeries(self.dom, self.vars, self.order, coeffs, _trusted=True)

    def _check(self, other):
        if self.dom is not other.dom or self.vars != other.vars or self.order != other.order:
            raise ValueError(
                "series mismatch: (%s,%s,%d) vs (%s,%s,%d)"
                % (self.dom.name, self.vars, self.order, other.dom.name, other.vars, other.order)
            )

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, exp):
        return self.coeffs.get(tuple(exp), self.dom.zero())

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.dom is other.dom
            and self.vars == other.vars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def __repr__(self):
        terms = []
        for e in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            mono = "*".join(
                "%s^%d" % (v, k) if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            c = self.dom.fmt(self.coeffs[e])
            terms.append("(%s)%s" % (c, "*" + mono if mono else ""))
        body = " + ".join(terms) if terms else "0"
        return "<series[%s; <%d] %s>" % (",".join(self.vars), self.order, body)

    def add(self, other):
        self._check(other)
        return self._like(sparse_lincomb(self.dom, ((self.coeffs, 1), (other.coeffs, 1))))

    def neg(self):
        return self._like(sparse_lincomb(self.dom, ((self.coeffs, -1),)))

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        """c * self for an element c of the coefficient domain."""
        return self._like(dot_groups(self.dom, {e: ((v, c, 1),) for e, v in self.coeffs.items()}))

    def int_scale(self, k):
        return self._like(sparse_lincomb(self.dom, ((self.coeffs, k),)))

    def mul(self, other):
        """The product, as one `dot` per output exponent over the pairs of
        coefficients that land on it."""
        self._check(other)
        order = self.order
        items2 = sorted(((sum(e), e, c) for e, c in other.coeffs.items()))
        groups = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for d2, e2, c2 in items2:
                if d1 + d2 >= order:
                    break
                e = tuple(map(_plus, e1, e2))
                terms = groups.get(e)
                if terms is None:
                    groups[e] = [(c1, c2, 1)]
                else:
                    terms.append((c1, c2, 1))
        return self._like(dot_groups(self.dom, groups))

    def truncate(self, new_order):
        if new_order > self.order:
            raise ValueError("cannot raise precision")
        return TruncatedSeries(
            self.dom,
            self.vars,
            new_order,
            {e: c for e, c in self.coeffs.items() if sum(e) < new_order},
            _trusted=True,
        )

    def map_coefficients(self, new_dom, fn):
        out = {}
        for e, c in self.coeffs.items():
            v = fn(c)
            if not new_dom.is_zero(v):
                out[e] = v
        return TruncatedSeries(new_dom, self.vars, self.order, out, _trusted=True)

    # -- composition
    def compose(self, subs):
        """Substitute subs[name] for each variable; every substituted series
        must share (dom, vars, order) and have zero constant term."""
        targets = list(subs.values())
        if not targets:
            raise ValueError("empty substitution")
        t0 = targets[0]
        for t in targets[1:]:
            t0._check(t)
        if t0.dom is not self.dom:
            raise ValueError("domain mismatch in compose")
        for name in self.vars:
            if name not in subs:
                raise ValueError("missing substitution for %r" % name)
        zero_exp = (0,) * len(t0.vars)
        for t in targets:
            if zero_exp in t.coeffs:
                raise ValueError("substituted series has nonzero constant term")
        one = TruncatedSeries.constant(t0.dom, t0.vars, t0.order, t0.dom.one())
        pows = {name: [one, s] for name, s in subs.items()}

        def power(name, k):
            lst = pows[name]
            while len(lst) <= k:
                lst.append(lst[-1].mul(subs[name]))
            return lst[k]

        groups = {}
        for e, c in self.coeffs.items():
            term = None
            for name, k in zip(self.vars, e):
                if k == 0:
                    continue
                p = power(name, k)
                term = p if term is None else term.mul(p)
            if term is None:
                term = one
            for e2, c2 in term.coeffs.items():
                groups.setdefault(e2, []).append((c, c2, 1))
        return t0._like(dot_groups(t0.dom, groups))


def _series_power(phi, k):
    """phi^k for a univariate phi with phi(0) = 1 and an int k != 0, in one
    pass by Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): g = phi^k has
    g_0 = 1 and m g_m = sum over j = 1..m of ((k + 1) j - m) phi_j g_(m-j),
    one `dot` per m and an exact division by m, where a remainder raises
    AssertionError.  The coefficients must be integral (ZZ, or a sparse
    domain over ZZ): over another base m need not be invertible, and no
    caller needs one, since every class and the universal law's log-power
    table are taken over ZZ or B(ZZ)."""
    dom = phi.dom
    if getattr(dom, "base", dom) is not ZZ:
        raise ValueError("a series power needs integer coefficients, not %s" % dom.name)
    if phi.coeffs.get((0,)) != dom.one():
        raise ValueError("phi(0) must be 1")
    if k == 1:
        return phi
    f = [(j, c) for (j,), c in phi.coeffs.items() if j]
    g = [dom.one()]
    for m in range(1, phi.order):
        acc = dom.dot([(c, g[m - j], (k + 1) * j - m) for j, c in f if j <= m and g[m - j]])
        if any(v % m for v in ((acc,) if dom is ZZ else acc.values())):
            raise AssertionError("Miller's recurrence leaves a remainder at %s^%d" % (phi.vars[0], m))
        g.append(acc // m if dom is ZZ else {e: v // m for e, v in acc.items()})
    return phi._like({(m,): c for m, c in enumerate(g) if c})


# ---------------------------------------------------------------------------
# integer lattices via row Hermite normal form

def all_ints(values):
    """Whether every value is an int and not a bool, by one type scan."""
    return all(issubclass(t, int) and t is not bool for t in set(map(type, values)))


def hnf_rows(rows):
    """Row HNF of an integer matrix given as an iterable of equal-length rows
    of ints.  Returns (pivot_rows, pivot_cols): pivots positive, entries above
    each pivot reduced into [0, pivot).  Rows stay dense lists, bucketed by
    their leading column, and a row operation walks only the reducer's
    nonzero (column, value) pairs.  The entries above the pivots are reduced
    from the bottom row up, so every reducer is already reduced."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows) or not all_ints(chain.from_iterable(rows)):
        raise ValueError("a matrix is rows of ints, all of one length")
    buckets = [[] for _ in range(ncols)]
    for r in rows:
        for lead in compress(count(), r):
            buckets[lead].append(r)
            break
    res, pivcols = [], []
    for col, have in enumerate(buckets):
        while len(have) > 1:  # Euclid on column col; rows that leave it are refiled
            have.sort(key=lambda r: abs(r[col]))
            r0, rest = have[0], have[1:]
            del have[1:]
            pairs = list(compress(enumerate(r0), r0))
            for r in rest:
                q = r[col] // r0[col]
                for c, v in pairs:
                    r[c] -= q * v
                for lead in compress(count(col), r[col:]):
                    buckets[lead].append(r)
                    break
        if have:
            res.append(have[0] if have[0][col] > 0 else [-a for a in have[0]])
            pivcols.append(col)
    below = []  # (pivot column, pivot, nonzero pairs) of the reduced rows, top first
    for row, col in zip(reversed(res), reversed(pivcols)):
        for c, p, pairs in below:
            q = row[c] // p
            if q:
                for c2, v in pairs:
                    row[c2] -= q * v
        below.insert(0, (col, row[col], list(compress(enumerate(row), row))))
    return res, pivcols


class IntegerLattice:
    """Z-span of integer vectors with exact membership tests.  `rows` keeps
    each row of the HNF once, as its pivot column, its pivot and its nonzero
    (column, value) pairs, which `member` walks; `hnf` and `pivcols`
    rebuild the dense rows and the pivot columns from it."""

    __slots__ = ("ncols", "rows")

    def __init__(self, generators, ncols):
        self.ncols = ncols
        generators = list(generators)
        if any(len(g) != ncols for g in generators):
            raise ValueError("generator length != ncols")
        hnf, pivcols = hnf_rows(generators)
        self.rows = [(c, row[c], list(compress(enumerate(row), row)))
                     for row, c in zip(hnf, pivcols)]

    @property
    def hnf(self):
        rows = [dict(pairs) for _, _, pairs in self.rows]
        return [[row.get(c, 0) for c in range(self.ncols)] for row in rows]

    @property
    def pivcols(self):
        return [c for c, _, _ in self.rows]

    @property
    def rank(self):
        return len(self.rows)

    def member(self, v):
        v = list(v)
        if len(v) != self.ncols or not all_ints(v):
            raise ValueError("a lattice vector is %d ints" % self.ncols)
        for c, p, pairs in self.rows:
            if v[c]:
                q, r = divmod(v[c], p)
                if r:
                    return False
                for c2, a in pairs:
                    v[c2] -= q * a
        return not any(v)
