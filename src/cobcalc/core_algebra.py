"""Exact arithmetic kernel: sparse-element arithmetic, graded coefficient
domains, truncated multivariate power series, and integer-lattice linear
algebra (row Hermite normal form).

Elements of a domain are plain Python values (ints, pairs, dicts); the domain
object supplies the ring operations.  Everything is immutable by convention and
exact (arbitrary-precision integers throughout; the only denominators allowed
anywhere are powers of two, in ZHALF).

A sum of products is one `dot(terms)` of a domain: sum of k * a * b over
(a, b, k) triples.  The sparse domains (the b-ring, ZZ[t], ZZ[t,eps]/eps^2)
multiply monomials through a MonomialTable of interned monomial ids, whose
product rows are filled on a miss by merging the two keys, and sum into one
accumulator keyed by id that drops zeros once, at the end.  Ids never leave
this module: elements are dicts keyed by their monomials.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import add as _plus


# ---------------------------------------------------------------------------
# partitions

@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n as weakly decreasing tuples of positive ints."""
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
    if p < 2:
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
# elements.  Over ZZ the coefficients are plain ints, and every routine below
# skips the per-term dispatch to the base domain.  Sums of products go
# through a domain's `dot` (see SparseDomain), not through repeated `add`.

def sparse_add(base, a, b):
    out = dict(a)
    if base is ZZ:
        for k, v in b.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out
    zero = base.zero()
    for k, v in b.items():
        s = base.add(out.get(k, zero), v)
        if base.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def sparse_neg(base, a):
    if base is ZZ:
        return {k: -v for k, v in a.items()}
    return {k: base.neg(v) for k, v in a.items()}


def sparse_scale(base, a, c):
    """c * a for a base element c."""
    if base.is_zero(c):
        return {}
    if base is ZZ:
        return {k: v * c for k, v in a.items()}
    out = {}
    for k, v in a.items():
        p = base.mul(v, c)
        if not base.is_zero(p):
            out[k] = p
    return out


def sparse_from_int(base, a):
    """An int-coefficient sparse element with its coefficients mapped into
    base, dropping those that become zero there."""
    out = {}
    for k, v in a.items():
        c = base.from_int(v)
        if not base.is_zero(c):
            out[k] = c
    return out


def sparse_int_scale(base, a, n):
    """n * a for an integer n; returns a itself when n == 1."""
    if n == 1:
        return a
    if base is ZZ:
        return {k: v * n for k, v in a.items()} if n else {}
    return sparse_scale(base, a, base.from_int(n))


def dot_groups(dom, groups):
    """{key: dom.dot(terms)} for the (a, b, k) triples grouped by key, without
    the keys whose sum is zero."""
    out = {}
    for key, terms in groups.items():
        v = dom.dot(terms)
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


class MonomialTable:
    """Interned monomials under the commutative key product `merge`: `ids`
    maps a key to its id, `keys` maps an id back, and `rows[i][j]` is the id
    of the product of monomials i and j."""

    def __init__(self, merge):
        self.merge = merge
        self.ids = _MonomialIds(self)
        self.keys = []
        self.rows = []

    def clear(self):
        self.ids.clear()
        self.keys.clear()
        self.rows.clear()


# ---------------------------------------------------------------------------
# coefficient domains

class Domain:
    """Base of all coefficient domains.  Subclasses define zero/one/from_int,
    add/neg/mul, is_zero and is_unit/inv; _ScalarDomain and SparseDomain
    define `degrees`, the graded degrees present in an element, and
    `monomials`, its serialization as a sorted list of {"b", "t", "eps",
    "coeff"} dicts, which the CLI writes and `fmt` renders.  `dot(terms)` is
    the sum of k * a * b over (a, b, k) triples with k an int; sums of
    products call it instead of adding one product at a time."""

    name = "?"

    def dot(self, terms):
        acc = self.zero()
        for a, b, k in terms:
            acc = self.add(acc, self.int_scale(self.mul(a, b), k))
        return acc

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def int_scale(self, a, k):
        if k == 1:
            return a
        return self.mul(a, self.from_int(k))

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def is_homogeneous(self, a, d):
        return self.degrees(a) <= {d}

    def fmt(self, a):
        """Human-readable rendering, deterministic."""
        items = self.monomials(a)
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


class _ScalarDomain(Domain):
    """A domain of constants: a nonzero element is one monomial of degree 0,
    whose coefficient the subclass renders with `coeff_str`."""

    def degrees(self, a):
        return frozenset() if self.is_zero(a) else frozenset({0})

    def monomials(self, a):
        if self.is_zero(a):
            return []
        return [{"b": [], "t": 0, "eps": 0, "coeff": self.coeff_str(a)}]


class IntDomain(_ScalarDomain):
    name = "ZZ"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def dot(self, terms):
        return sum(a * b * k for a, b, k in terms)

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
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.name = "ZZ/%d" % m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def from_int(self, n):
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

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

    def add(self, a, b):
        (n1, e1), (n2, e2) = a, b
        e = max(e1, e2)
        return _half_norm(n1 * (1 << (e - e1)) + n2 * (1 << (e - e2)), e)

    def neg(self, a):
        return (-a[0], a[1])

    def mul(self, a, b):
        return _half_norm(a[0] * b[0], a[1] + b[1])

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


def _mono_key(it):
    return (sum(it["b"]) + it["t"], it["t"], it["eps"], it["b"])


class SparseDomain(Domain):
    """A domain whose elements are sparse elements over `base`.  The sum,
    negation and integer multiples are the kernel's, bound to the base once
    so that each costs a single call; `mul` and `dot` multiply monomials
    through the subclass's MonomialTable (`_table`), whose unit key is
    `_unit`.  A subclass supplies units and `_parts`, which splits a
    monomial key into its (b-partition, t exponent, eps exponent)."""

    def __init__(self, base):
        self.base = base
        self.add = partial(sparse_add, base)
        self.neg = partial(sparse_neg, base)
        self.int_scale = partial(sparse_int_scale, base)

    def zero(self):
        return {}

    def is_zero(self, a):
        return not a

    def mul(self, a, b):
        return self.dot(((a, b, 1),))

    def dot(self, terms):
        """sum of k * a * b over the (a, b, k) triples in one accumulator
        keyed by monomial id, with the zeros dropped once, at the end.  A
        constant factor (the unit among them) scales the other factor and
        costs no monomial products."""
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
        zero, add, mul, is_zero = base.zero(), base.add, base.mul, base.is_zero
        for a, b, k in terms:
            kk = base.from_int(k)
            if is_zero(kk):
                continue
            if len(b) < len(a) or (len(b) == 1 and unit in b):
                a, b = b, a
            if len(a) == 1 and unit in a:
                s = mul(a[unit], kk)
                for m, v in b.items():
                    j = ids[m]
                    acc[j] = add(get(j, zero), mul(s, v))
                continue
            ib = [(ids[m], v) for m, v in b.items()]
            for m, v1 in a.items():
                row = rows[ids[m]]
                if k != 1:
                    v1 = mul(v1, kk)
                for j, v2 in ib:
                    p = row[j]
                    acc[p] = add(get(p, zero), mul(v1, v2))
        keys = table.keys
        return {keys[i]: v for i, v in acc.items() if not is_zero(v)}

    def degrees(self, a):
        return frozenset(-sum(b) - t for b, t, _eps in map(self._parts, a))

    def monomials(self, a):
        items = []
        for k, v in a.items():
            b, t, eps = self._parts(k)
            items.append({"b": list(b), "t": t, "eps": eps, "coeff": self.base.coeff_str(v)})
        items.sort(key=_mono_key)
        return items


# the product of b-monomials does not depend on the base, so every B-ring
# shares one table
_B_MONOMIALS = MonomialTable(merge_partitions)


class BDomain(SparseDomain):
    """Polynomial ring over `base` in countably many generators b_1, b_2, ...
    with b_i of graded degree -i.  Elements are dicts {partition: base elt};
    the monomial for partition (3,1,1) is b3*b1^2."""

    _table = _B_MONOMIALS
    _unit = ()

    def __init__(self, base):
        super().__init__(base)
        self.name = "B(%s)" % base.name

    @staticmethod
    def _parts(k):
        return k, 0, 0

    def one(self):
        return {(): self.base.one()}

    def from_int(self, n):
        c = self.base.from_int(n)
        return {} if self.base.is_zero(c) else {(): c}

    def gen(self, i):
        if i == 0:
            return self.one()
        return {(i,): self.base.one()}

    def monomial(self, parts, coeff):
        return {} if self.base.is_zero(coeff) else {tuple(parts): coeff}

    # a method of BDomain itself, so that the benchmark's tracer can count it
    mul = SparseDomain.mul

    def is_unit(self, a):
        return set(a) == {()} and self.base.is_unit(a[()])

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError("not a unit in %s: %r" % (self.name, a))
        return {(): self.base.inv(a[()])}


class TDomain(SparseDomain):
    """ZZ[t] with t of graded degree -1; elements {exponent: int}."""

    name = "T"
    _unit = 0

    def __init__(self):
        super().__init__(ZZ)
        self._table = MonomialTable(int.__add__)

    @staticmethod
    def _parts(k):
        return (), k, 0

    def one(self):
        return {0: 1}

    def from_int(self, n):
        return {} if n == 0 else {0: n}

    def monomial(self, k, c):
        return {} if c == 0 else {k: c}

    def is_unit(self, a):
        return set(a) == {0} and a[0] in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise ValueError("not a unit in ZZ[t]: %r" % (a,))
        return dict(a)


def _add_exponents(e1, e2):
    return (e1[0] + e2[0], e1[1] + e2[1])


class TEpsDomain(SparseDomain):
    """ZZ[t,eps]/eps^2 with t of degree -1 and eps of degree 0; elements are
    dicts {(t_exp, eps_exp): int} with eps_exp in {0, 1}."""

    name = "TEPS"
    _unit = (0, 0)

    def __init__(self):
        super().__init__(ZZ)
        self._table = MonomialTable(_add_exponents)

    @staticmethod
    def _parts(k):
        return (), k[0], k[1]

    def one(self):
        return {(0, 0): 1}

    def from_int(self, n):
        return {} if n == 0 else {(0, 0): n}

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
    if m not in _int_mod_cache:
        _int_mod_cache[m] = IntModDomain(m)
    return _int_mod_cache[m]


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
        return self._like(sparse_add(self.dom, self.coeffs, other.coeffs))

    def neg(self):
        return self._like(sparse_neg(self.dom, self.coeffs))

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        return self._like(sparse_scale(self.dom, self.coeffs, c))

    def int_scale(self, k):
        return self._like(sparse_int_scale(self.dom, self.coeffs, k))

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

    # -- composition and friends
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

    def inverse(self):
        """Multiplicative inverse; requires unit constant term."""
        dom = self.dom
        c = self.coefficient((0,) * len(self.vars))
        c_inv = dom.inv(c)
        one = TruncatedSeries.constant(dom, self.vars, self.order, dom.one())
        r = one.sub(self.scale(c_inv))
        acc = one
        term = one
        for _ in range(self.order - 1):
            term = term.mul(r)
            if term.is_zero():
                break
            acc = acc.add(term)
        return acc.scale(c_inv)

    def _shift_down(self, emin, new_order):
        out = {}
        for e, c in self.coeffs.items():
            e2 = tuple(a - b for a, b in zip(e, emin))
            if sum(e2) < new_order:
                out[e2] = c
        return TruncatedSeries(self.dom, self.vars, new_order, out, _trusted=True)

    def divide(self, g):
        """Exact division f/g.  The common monomial of g is factored out, so
        the quotient's order drops by its total degree."""
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero series")
        keys = list(g.coeffs)
        emin = tuple(min(k[i] for k in keys) for i in range(len(self.vars)))
        shift = sum(emin)
        new_order = self.order - shift
        if new_order < 1:
            raise ValueError("inexact division: divisor valuation exceeds order")
        for e in self.coeffs:
            if any(a < b for a, b in zip(e, emin)):
                raise ValueError("inexact division: %r not divisible by divisor monomial" % (e,))
        g0 = g._shift_down(emin, new_order)
        c0 = g0.coefficient((0,) * len(self.vars))
        if not self.dom.is_unit(c0):
            raise ValueError("inexact division: divisor lowest coefficient is not a unit")
        f0 = self._shift_down(emin, new_order)
        return f0.mul(g0.inverse())


# ---------------------------------------------------------------------------
# integer lattices via row Hermite normal form

def hnf_rows(rows):
    """Row HNF of an integer matrix given as an iterable of equal-length rows.
    Returns (pivot_rows, pivot_cols): pivots positive, entries above each
    pivot reduced into [0, pivot).  A row still in play at column `col` is
    zero left of `col`, and a pivot row is zero left of its pivot, so row
    operations only touch the columns from the pivot on."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    res = []
    pivcols = []
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


class IntegerLattice:
    """Z-span of integer vectors with exact membership tests."""

    __slots__ = ("ncols", "hnf", "pivcols")

    def __init__(self, generators, ncols):
        self.ncols = ncols
        generators = list(generators)
        if any(len(g) != ncols for g in generators):
            raise ValueError("generator length != ncols")
        self.hnf, self.pivcols = hnf_rows(generators)

    @property
    def rank(self):
        return len(self.hnf)

    def member(self, v):
        v = list(v)
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        for row, c in zip(self.hnf, self.pivcols):
            if v[c]:
                if v[c] % row[c]:
                    return False
                q = v[c] // row[c]
                v[c:] = [a - q * b for a, b in zip(v[c:], row[c:])]
        return not any(v)
