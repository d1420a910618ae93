"""The lattice of bordism classes inside the polynomial coefficient ring.

The universal group law's coefficients a_ij generate a subring L of the
b-polynomial ring; its graded piece L_n in degree -n is a full-rank
sublattice of the span of the degree-n monomials.  By Lazard's theorem L is
the polynomial ring on generators x_k = sum_i lam_i a_{i,k+1-i}, where the
lam_i are Bezout coefficients of the C(k+1, i)/d_k and d_k is their gcd, so
the monomials x^alpha, one per partition alpha of n, are a Z-basis of L_n.
Each piece is the HNF of those p(n) rows, certified on construction: by
Milnor and Novikov the index of L_n is the product over alpha and its parts
k of m(k) = p when k + 1 is a power of the prime p, and 1 otherwise, and
the product of the HNF pivots must equal it.

The mod-2 piece M_n = 2 L_n + I_n, with I generated by the coefficients c_k
(k >= 2) of [2](x), is found in the same basis: L_n/M_n is the degree-n part
of the mod-2 theory's coefficient ring, by Quillen the polynomial ring over
F_2 on generators in the degrees other than 2^j - 1, so M_n is the preimage
of a subspace of GF(2)^p(n), found by elimination over GF(2) once each c_k
is written in the x^alpha.  Its p(n) triangular rows are certified too: the
product of the HNF pivots must be the index of L_n times 2^q, q the number
of partitions of n with no part of the form 2^j - 1.

This module builds those pieces, answers membership questions (in the
lattice and in an integer multiple of it), and packages two integer
invariants used by the verifiers: decomposability of a variety's class
modulo a prime, and the gcd pattern of middle binomial coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

from .core_algebra import (
    ZZ, IntegerLattice, all_ints, b_ring, bezout, is_int, is_prime, merge_partitions, partitions,
)
from .fgl import mult_coefficient, universal_fgl
from .chow_models import additive_chern_number, fundamental_class

BRING = b_ring(ZZ)


def _law_coefficient(order, i, j):
    return universal_fgl(order).series.coefficient((i, j))


def _weighted_pairs(n):
    """Index pairs (i, j), i <= j, of weight i + j - 1 between 1 and n."""
    out = []
    for w in range(1, n + 1):
        for i in range(1, (w + 1) // 2 + 1):
            out.append((i, w + 1 - i))
    return out


def _pair_multisets(pairs, weights, total):
    """All multisets over `pairs` whose weights sum to `total`."""
    found = []

    def rec(start, remaining, chosen):
        if remaining == 0:
            found.append(tuple(chosen))
            return
        for k in range(start, len(pairs)):
            if weights[k] <= remaining:
                chosen.append(pairs[k])
                rec(k, remaining - weights[k], chosen)
                chosen.pop()

    rec(0, total, [])
    return found


def _check_degree(n):
    if not is_int(n) or n < 0:
        raise ValueError("degree must be a nonnegative int, got %r" % (n,))


def lazard_basis(n):
    """A spanning set of the degree -n lattice piece: all products of
    universal group-law coefficients with total weight n, as b-polynomial
    elements, read off the universal law to order n + 2."""
    _check_degree(n)
    pairs = _weighted_pairs(n)
    weights = [i + j - 1 for i, j in pairs]
    gens = []
    for multiset in _pair_multisets(pairs, weights, n):
        elt = BRING.one()
        for i, j in multiset:
            elt = BRING.mul(elt, _law_coefficient(n + 2, i, j))
        gens.append(elt)
    return gens


@lru_cache(maxsize=None)
def _middle_binomial_bezout(k):
    """(d_k, lam): d_k is the gcd of C(k+1, i) for 1 <= i <= k, and
    sum_i lam_i C(k+1, i) = d_k."""
    return bezout([comb(k + 1, i) for i in range(1, k + 1)])


@lru_cache(maxsize=None)
def _lazard_generator(k):
    """x_k = sum_i lam_i a_{i,k+1-i}, a polynomial generator of the
    coefficient subring in degree -k."""
    _, lam = _middle_binomial_bezout(k)
    one = BRING.one()
    return BRING.dot([(_law_coefficient(k + 2, i, k + 1 - i), one, c)
                      for i, c in enumerate(lam, 1) if c])


@lru_cache(maxsize=None)
def _generator_monomial(alpha):
    """x^alpha for a partition alpha, built on x^alpha' for alpha without its
    last part."""
    if not alpha:
        return BRING.one()
    return BRING.mul(_generator_monomial(alpha[:-1]), _lazard_generator(alpha[-1]))


@lru_cache(maxsize=None)
def _part_index(k):
    """m(k): p when k + 1 is a power of the prime p, and 1 otherwise."""
    return prime_power_root(k + 1) or 1


def _lazard_index(n):
    """Index of the degree -n piece in the span of the weight-n monomials:
    the product of m(k) over the partitions of n and their parts k."""
    return prod(_part_index(k) for alpha in partitions(n) for k in alpha)


class LazardDegreePiece:
    """Degree -n piece of the coefficient subring, as an integer lattice in
    the free module spanned by the weight-n monomial partitions.

    The lattice is the HNF of the generator monomials x^alpha, alpha a
    partition of n.  Construction checks that the rank is full and that the
    product of the HNF pivots is `_lazard_index(n)`, which proves that these
    rows span the whole piece; a failure raises AssertionError.
    `generators`, every product of law coefficients of weight n (the
    spanning set the piece is defined by), is built on first read and kept;
    no membership query reads it."""

    __slots__ = ("n", "basis", "_index", "_generators", "lattice")

    def __init__(self, n):
        _check_degree(n)
        self.n = n
        self.basis = partitions(n)
        self._index = {p: k for k, p in enumerate(self.basis)}
        self._generators = None
        rows = [self.vector(_generator_monomial(alpha)) for alpha in self.basis]
        self.lattice = IntegerLattice(rows, len(self.basis))
        index = prod(p for _, p, _ in self.lattice.rows)
        if self.lattice.rank != len(self.basis) or index != _lazard_index(n):
            raise AssertionError(
                "the generator monomials of degree %d fail the index certificate" % n)

    @property
    def generators(self):
        if self._generators is None:
            self._generators = tuple(lazard_basis(self.n))
        return self._generators

    @property
    def rank(self):
        return self.lattice.rank

    def vector(self, elt):
        """Coordinates of a b-polynomial element over ZZ concentrated in
        degree -n."""
        if not all_ints(elt.values()):
            raise ValueError("element coefficients must be ints")
        vec = [0] * len(self.basis)
        for parts, c in elt.items():
            if parts not in self._index:
                raise ValueError("element has a term outside degree -%d: b%r" % (self.n, parts))
            vec[self._index[parts]] = c
        return tuple(vec)

    def member(self, elt):
        return self.lattice.member(self.vector(elt))

    def member_mod(self, elt, m):
        """Whether the element lies in m times the lattice (m = 0: the
        lattice itself)."""
        if not is_int(m) or m < 0:
            raise ValueError("modulus must be a nonnegative int")
        vec = self.vector(elt)
        if m == 0:
            return self.lattice.member(vec)
        # v is in m*L exactly when m divides every coordinate and v/m is in L
        if any(c % m for c in vec):
            return False
        return self.lattice.member([c // m for c in vec])


# typed, so that neither True nor 2.0 finds the piece of an equal int
@lru_cache(maxsize=None, typed=True)
def lazard_piece(n):
    return LazardDegreePiece(n)


@lru_cache(maxsize=None)
def _two_coefficient_coordinates(k):
    """The coefficient c_k of x^k in [2](x), k >= 2, an element of the
    degree -(k - 1) piece, in the basis of generator monomials: {gamma: y}
    with c_k = sum y x^gamma over the nonzero y.  One triangular solve, as
    x^gamma holds no b-monomial before b^gamma in `partitions` order; a
    remainder raises AssertionError."""
    v = dict(mult_coefficient(k, 2))
    out = {}
    for gamma in partitions(k - 1):
        if v.get(gamma):
            row = _generator_monomial(gamma)
            q, r = divmod(v[gamma], row[gamma])
            if r:
                raise AssertionError("[x^%d][2](x) is not integral in the generator monomials" % k)
            for parts, c in row.items():
                v[parts] = v.get(parts, 0) - q * c
            out[gamma] = q
    return out


def _mod2_echelon(n):
    """The span of the ideal generators c_k x^beta of degree -n reduced mod
    2, in the generator-monomial coordinates of the degree -n piece, as a
    reduced echelon form {pivot bit: row}: row bit i is partitions(n)[i],
    each pivot is its row's lowest set bit, and no other row holds it."""
    column = {alpha: 1 << i for i, alpha in enumerate(partitions(n))}
    echelon = {}
    for k in range(2, n + 2):
        odd = [gamma for gamma, y in _two_coefficient_coordinates(k).items() if y % 2]
        for beta in partitions(n - k + 1) if odd else ():
            r = 0
            for gamma in odd:
                r ^= column[merge_partitions(gamma, beta)]
            for pivot, row in echelon.items():
                if r & pivot:
                    r ^= row
            if r:
                low = r & -r
                for pivot, row in echelon.items():
                    if row & low:
                        echelon[pivot] = row ^ r
                echelon[low] = r
    return echelon


def _mod2_index(n):
    """Index of the degree -n piece of the mod-2 submodule in the span of
    the weight-n monomials: `_lazard_index(n)` times 2^q, with q the number
    of partitions of n with no part of the form 2^j - 1, the rank of the
    mod-2 theory's coefficient ring in degree n."""
    q = sum(all(_part_index(k) != 2 for k in alpha) for alpha in partitions(n))
    return _lazard_index(n) << q


@lru_cache(maxsize=None, typed=True)
def mod2_theory_piece(n):
    """Degree -n piece of twice the lattice plus the ideal generated by the
    higher coefficients of the formal two-fold multiple [2](x) -- the
    submodule whose quotient is the coefficient ring of the mod-2 theory.

    In the generator monomials x^alpha it holds twice the lattice, so it is
    the preimage of its image mod 2, whose reduced echelon form
    `_mod2_echelon` gives.  Its p(n) rows -- the sum of x^alpha over each
    echelon row, and 2 x^alpha at each column with no pivot -- are upper
    triangular and span it.  Construction checks that the product of the
    HNF pivots is `_mod2_index(n)`; a failure raises AssertionError."""
    piece = lazard_piece(n)
    basis, column = piece.basis, piece._index
    echelon = _mod2_echelon(n)
    rows = []
    for i, alpha in enumerate(basis):
        e = echelon.get(1 << i)
        terms = [(alpha, 2)] if e is None else [(basis[j], 1) for j in range(i, e.bit_length()) if e >> j & 1]
        row = [0] * len(basis)
        for beta, s in terms:
            for parts, c in _generator_monomial(beta).items():
                row[column[parts]] += s * c
        rows.append(row)
    lattice = IntegerLattice(rows, len(basis))
    if prod(p for _, p, _ in lattice.rows) != _mod2_index(n):
        raise AssertionError("the mod-2 piece of degree %d fails the index certificate" % n)
    return lattice


def mod2_theory_member(n, elt):
    """Whether a degree -n element vanishes in the mod-2 theory quotient."""
    return mod2_theory_piece(n).member(lazard_piece(n).vector(elt))


def prime_power_root(n):
    """The prime p with n = p^q (q >= 1), or None."""
    if not is_int(n):
        raise ValueError("n must be an int, got %r" % (n,))
    if n < 2:
        return None
    for p in range(2, n + 1):
        if n % p == 0:
            if not is_prime(p):
                return None
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return None


def decomposable_test(spec, p):
    """Divisibility test for whether a variety's class is decomposable.

    In the mod-p quotient the class of an n-fold is decomposable exactly
    when its additive characteristic number is divisible by p^2 if n + 1 is
    a power of p, and by p otherwise.  Integrally-localized-at-p
    decomposability is automatic in the power case and otherwise agrees
    with the mod-p answer.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    n = spec.dim()
    if n < 1:
        raise ValueError("need a positive-dimensional variety")
    s = additive_chern_number(spec)
    power_case = prime_power_root(n + 1) == p
    need = p * p if power_case else p
    modp = s % need == 0
    return {
        "p": p,
        "dim": n,
        "additive_chern_number": s,
        "in_Lp_decomposable": True if power_case else modp,
        "in_Lmodp_decomposable": modp,
    }


def p_typical_kernel_check(p, max_degree):
    """Check that killing every b_i whose index + 1 is not a power of p
    sends all nonlinear law coefficients to zero mod p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    law = universal_fgl(max_degree + 2)
    for (i, j), c in law.series.coeffs.items():
        if i + j < 2:
            continue
        for parts, v in c.items():
            if v % p and all(_part_index(k) == p for k in parts):
                return False
    return True


def p_typical_chern_check(spec, p):
    """Divisibility of Chern numbers at partitions whose parts are each one
    less than a power of p.

    Every such Chern number of a connected positive-dimensional variety is
    divisible by p, and by p^2 when the class is decomposable mod p.  Returns
    a report dict listing each qualifying partition with its verdict.
    """
    verdict = decomposable_test(spec, p)
    n = spec.dim()
    need = p * p if verdict["in_Lmodp_decomposable"] else p
    cls = fundamental_class(spec, "L")
    rows = []
    ok = True
    for alpha in partitions(n):
        if not all(_part_index(a) == p for a in alpha):
            continue
        c = cls.get(alpha, 0)
        good = c % need == 0
        ok = ok and good
        rows.append({"alpha": list(alpha), "chern_number": c,
                     "divisor": need, "ok": good})
    return {"p": p, "dim": n, "divisor": need,
            "decomposable_mod_p": verdict["in_Lmodp_decomposable"],
            "alphas": rows, "ok": ok}


def binomial_middle_gcd(n):
    """gcd of the inner binomial coefficients of n + 1."""
    if not is_int(n) or n < 1:
        raise ValueError("n must be a positive int, got %r" % (n,))
    return _middle_binomial_bezout(n)[0]
