"""The lattice of bordism classes inside the polynomial coefficient ring.

The universal group law's coefficients generate a subring of the b-polynomial
ring; its graded piece in degree -n is a full-rank sublattice of the span of
the degree-n monomials.  This module builds explicit generator matrices for
those pieces, answers membership questions (in the lattice and in an
integer multiple of it), and packages two integer invariants used by the
verifiers: decomposability of a variety's class modulo a prime, and the gcd
pattern of middle binomial coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd

from .core_algebra import ZZ, IntegerLattice, b_ring, is_prime, partitions
from .fgl import universal_fgl
from .chow_models import additive_chern_number, fundamental_class

__all__ = [
    "LazardDegreePiece",
    "lazard_basis",
    "lazard_piece",
    "mod2_theory_piece",
    "mod2_theory_member",
    "decomposable_test",
    "p_typical_chern_check",
    "p_typical_kernel_check",
    "binomial_middle_gcd",
    "prime_power_root",
]

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


def lazard_basis(n, order=None):
    """Generators of the degree -n lattice piece: all products of universal
    group-law coefficients with total weight n, as b-polynomial elements.

    `order` is the truncation order used for the universal law and must
    exceed n + 1 so every needed coefficient is present.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if order is None:
        order = n + 2
    if order <= n + 1:
        raise ValueError("order %d too small for degree %d (need > %d)" % (order, n, n + 1))
    pairs = _weighted_pairs(n)
    weights = [i + j - 1 for i, j in pairs]
    gens = []
    for multiset in _pair_multisets(pairs, weights, n):
        elt = BRING.one()
        for i, j in multiset:
            elt = BRING.mul(elt, _law_coefficient(order, i, j))
        gens.append(elt)
    return gens


class LazardDegreePiece:
    """Degree -n piece of the coefficient subring, as an integer lattice in
    the free module spanned by the weight-n monomial partitions."""

    __slots__ = ("n", "basis", "_index", "generators", "lattice")

    def __init__(self, n):
        self.n = n
        self.basis = partitions(n)
        self._index = {p: k for k, p in enumerate(self.basis)}
        self.generators = tuple(lazard_basis(n))
        rows = [self.vector(g) for g in self.generators]
        self.lattice = IntegerLattice(rows, len(self.basis))

    @property
    def rank(self):
        return self.lattice.rank

    def vector(self, elt):
        """Coordinates of a b-polynomial element concentrated in degree -n."""
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
        if m < 0:
            raise ValueError("modulus must be nonnegative")
        vec = self.vector(elt)
        if m == 0:
            return self.lattice.member(vec)
        # v is in m*L exactly when m divides every coordinate and v/m is in L
        if any(c % m for c in vec):
            return False
        return self.lattice.member([c // m for c in vec])


@lru_cache(maxsize=None)
def lazard_piece(n):
    return LazardDegreePiece(n)


@lru_cache(maxsize=None)
def mod2_theory_piece(n):
    """Degree -n piece of twice the lattice plus the ideal generated by the
    higher coefficients of the formal two-fold multiple [2](x) -- the
    submodule whose quotient is the coefficient ring of the mod-2 theory.

    Each lattice piece enters through its HNF rows, a Z-basis of the same
    lattice, rather than through all of its generators."""
    piece = lazard_piece(n)
    rows = [tuple(2 * x for x in row) for row in piece.lattice.hnf]
    two = universal_fgl(n + 2).formal_mult(2)
    for k in range(2, n + 2):
        ck = two.coefficient((k,))
        if BRING.is_zero(ck):
            continue
        lower = lazard_piece(n - k + 1)
        for row in lower.lattice.hnf:
            g = {lower.basis[i]: c for i, c in enumerate(row) if c}
            rows.append(piece.vector(BRING.mul(ck, g)))
    return IntegerLattice(rows, len(piece.basis))


def mod2_theory_member(n, elt):
    """Whether a degree -n element vanishes in the mod-2 theory quotient."""
    return mod2_theory_piece(n).member(lazard_piece(n).vector(elt))


def prime_power_root(n):
    """The prime p with n = p^q (q >= 1), or None."""
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


def _is_p_power(k, p):
    if k < 1:
        return False
    while k % p == 0:
        k //= p
    return k == 1


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
            if v % p and all(_is_p_power(k + 1, p) for k in parts):
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
        if not all(_is_p_power(a + 1, p) for a in alpha):
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
    if n < 1:
        raise ValueError("n must be positive")
    g = 0
    for i in range(1, n + 1):
        g = gcd(g, comb(n + 1, i))
    return g
