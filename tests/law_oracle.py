"""Reference constructions of the universal law, of its multiples, of its
image over half-integers and of the mod-2 lattice pieces, kept as test
oracles for the production path.

The production code reads the universal law off a coefficient store that
grows one total degree at a time (`fgl.universal_fgl`) and builds each
mod-2 piece by elimination over GF(2) in the generator monomials
(`cobordism.mod2_theory_piece`).  This module builds the same objects the
direct way: the law as exp(log x + log y) with log the compositional
inverse of the universal exponential (`reversion`), and the mod-2 piece from every
generator of every lattice piece involved (`mod2_piece_from_generators`) or
from their HNF rows, one product c_k h per row h (`mod2_piece_from_hnf_rows`).

Every production law is the universal store pushed along a ring map, with
[a](x) = exp(a log x) read off the same store.  `SeriesLaw` is a law built
from its series alone: [a](x) composes the series with itself, the inverse
is a fixed-point iteration, and construction runs the full series check
that `specialize` runs.  `law_without_store` builds each constructor's law
that way, from the reversion series (the universal law and its reductions
mod p) or from its closed form (`chx_law_closed_form`,
`cha_law_closed_form`, `additive_law_closed_form`).
`b_transport_by_parts` is the monomial transport without the memo of
monomial images, and `scaled_lattice` the lattice m*L behind
`LazardDegreePiece.member_mod`.

`log_powers_by_convolution` fills the table L_k(n) = [x^n] log(x)^k by the
convolution L_k(n) = sum_a L_1(a) L_(k-1)(n - a), each row on the rows
below it, where production reads each row off phi^(-n) by Lagrange
inversion.  `universal_store_by_pairs` fills the store from that table by
the by-k formula, one product L_j(a) L_l(b) per pair of log-power entries,
where production takes the Horner form sum_j L_j(a) M_j(b).
`associative_by_two_compositions` checks F(F(x, y), z) = F(x, F(y, z)) by
composing both sides, where production composes once and compares
G(x, y, z) = F(F(x, y), z) with G(y, z, x).

`lazard_lattice_from_all_products` builds each lattice piece from every
product of law coefficients of its weight; production builds it from the
p(n) monomials in Lazard's polynomial generators.

`lmod2_series_by_loop` builds the twisted series g_m of `verify_lmod2` by
the loop that verifier once ran inline on every call, from the reversion
series mapped into B(ZHALF) as a `SeriesLaw`, with one series division;
production builds G_m(x) = 2 g_m(2x) over B(ZZ) from [-1](x) and [-2](x)
read off the store, with the reciprocal a power -1 by Miller's recurrence,
keeps them per order and grows them one power of [-1](2x) at a time.

`lmod2_classes_over_half` sums each twisted class A_m over B(ZHALF), from
the loop's series, with the pushforward sums embedded there and one `dot`
of that ring per m; production sums 2^(n+1) A_m over B(ZZ) and tests
2^(n+1) for divisibility."""

from math import comb

from cobcalc import fgl
from cobcalc.cobordism import BRING, lazard_basis, lazard_piece
from cobcalc.core_algebra import (
    TEPS, TRING, ZHALF, ZZ, IntegerLattice, TruncatedSeries, b_ring, dot_groups, int_mod,
    sparse_from_int,
)
from cobcalc.fgl import (
    additive_fgl, cha_fgl, check_law_series, chx_fgl, universal_fgl, universal_fgl_mod_p,
)
from cobcalc.chow_models import quillen_pushforward
from kernel_oracle import series_divide, series_inverse


def reversion(f):
    """Compositional inverse of a univariate series with f(0) = 0 and unit
    linear coefficient, via fixed-point iteration (works verbatim over
    domains with nilpotents)."""
    if len(f.vars) != 1:
        raise ValueError("reversion needs a univariate series")
    dom = f.dom
    if (0,) in f.coeffs:
        raise ValueError("reversion needs zero constant term")
    u = f.coefficient((1,))
    u_inv = dom.inv(u)  # raises if not a unit
    x = TruncatedSeries.variable(dom, f.vars, f.order, f.vars[0])
    h = f.sub(x.scale(u))  # degree >= 2 tail
    g = x.scale(u_inv)
    for _ in range(f.order - 1):
        nxt = x.sub(h.compose({f.vars[0]: g})).scale(u_inv)
        if nxt == g:
            break
        g = nxt
    return g


def universal_series_by_reversion(order):
    """The universal law's series at `order`: the exponential
    x + b1 x^2 + b2 x^3 + ..., its reversion log, and exp(log x + log y)."""
    B = b_ring(ZZ)
    exp = TruncatedSeries(
        B, ("x",), order, {(i + 1,): B.gen(i) for i in range(order - 1)}
    )
    log = reversion(exp)
    X = TruncatedSeries.variable(B, ("x", "y"), order, "x")
    Y = TruncatedSeries.variable(B, ("x", "y"), order, "y")
    lx = log.compose({"x": X})
    ly = log.compose({"x": Y})
    return exp.compose({"x": lx.add(ly)})


def log_powers_by_convolution(n):
    """[L_k(d) for d = 0..n] as dicts {k: L_k(d)} with no zero entry, in
    the store's key order (k = 2..d, then 1): L_k(d) = sum_a L_1(a)
    L_(k-1)(d - a) for k >= 2, and L_1(d) = -sum_k b_(k-1) L_k(d), since
    [x^d] exp(log x) = 0 for d >= 2."""
    B = fgl._B
    one = B.one()
    rows = [{}, {1: one}]
    for d in range(2, n + 1):
        row = {}
        for k in range(2, d + 1):
            acc = B.dot([(rows[a][1], rows[d - a][k - 1], 1)
                         for a in range(1, d - k + 2) if k - 1 in rows[d - a]])
            if acc:
                row[k] = acc
        l1 = B.dot([(B.gen(k - 1), v, -1) for k, v in row.items()])
        if l1:
            row[1] = l1
        rows.append(row)
    return rows[:n + 1]


def universal_store_by_pairs(degree):
    """The universal law's coefficients through total degree `degree`, one
    dict per degree in the store's key order ((a, b) then (b, a) for
    a = 1, 2, ...): F_ab = sum_k b_{k-1} sum_{j+l=k} C(k, j) L_j(a) L_l(b)
    over every pair of entries of `log_powers_by_convolution`."""
    B = fgl._B
    L = log_powers_by_convolution(degree - 1)
    rows = [{}, {(1, 0): B.one(), (0, 1): B.one()}]
    for d in range(2, degree + 1):
        row = {}
        for a in range(1, d // 2 + 1):
            b = d - a
            by_k = {}
            for j, lj in L[a].items():
                for l, ll in L[b].items():
                    by_k.setdefault(j + l, []).append((lj, ll, comb(j + l, j)))
            c = B.dot([(B.gen(k - 1), v, 1) for k, v in dot_groups(B, by_k).items()])
            if c:
                row[(a, b)] = row[(b, a)] = c
        rows.append(row)
    return rows


def associative_by_two_compositions(f):
    """Raise ValueError unless F(F(x, y), z) = F(x, F(y, z)) for the law
    series f to its order, composing each side in full."""
    A = f.order
    if A < 3:
        return
    vars3 = ("x", "y", "z")
    X = TruncatedSeries.variable(f.dom, vars3, A, "x")
    Y = TruncatedSeries.variable(f.dom, vars3, A, "y")
    Z = TruncatedSeries.variable(f.dom, vars3, A, "z")
    lhs = f.compose({"x": f.compose({"x": X, "y": Y}), "y": Z})
    rhs = f.compose({"x": X, "y": f.compose({"x": Y, "y": Z})})
    if lhs != rhs:
        raise ValueError("law is not associative to order %d" % A)


def lazard_lattice_from_all_products(n):
    """The degree -n lattice piece spanned by every product of universal
    law coefficients of total weight n."""
    piece = lazard_piece(n)
    return IntegerLattice([piece.vector(g) for g in lazard_basis(n)], len(piece.basis))


def mod2_generator_rows(n):
    """Twice every generator of the degree -n lattice piece, plus c_k times
    every generator of the degree -(n-k+1) piece for the coefficients c_k
    of [2](x), as coordinate rows in the degree -n basis."""
    piece = lazard_piece(n)
    rows = [tuple(2 * x for x in piece.vector(g)) for g in piece.generators]
    two = universal_fgl(n + 2).formal_mult(2)
    for k in range(2, n + 2):
        ck = two.coefficient((k,))
        if BRING.is_zero(ck):
            continue
        for g in lazard_piece(n - k + 1).generators:
            rows.append(piece.vector(BRING.mul(ck, g)))
    return rows


def mod2_piece_from_generators(n):
    """The integer lattice spanned by `mod2_generator_rows(n)`."""
    return IntegerLattice(mod2_generator_rows(n), len(lazard_piece(n).basis))


def mod2_piece_from_hnf_rows(n):
    """The degree -n mod-2 piece spanned by twice the HNF rows of the
    degree -n lattice piece and c_k times each HNF row of the degree
    -(n-k+1) piece, every product c_k h taken in the b-polynomial ring."""
    piece = lazard_piece(n)
    rows = [piece.vector({piece.basis[c]: 2 * a for c, a in pairs})
            for _, _, pairs in piece.lattice.rows]
    two = universal_fgl(n + 2).formal_mult(2)
    for k in range(2, n + 2):
        ck = two.coefficient((k,))
        if BRING.is_zero(ck):
            continue
        lower = lazard_piece(n - k + 1)
        for _, _, pairs in lower.lattice.rows:
            g = {lower.basis[i]: c for i, c in pairs}
            rows.append(piece.vector(BRING.mul(ck, g)))
    return IntegerLattice(rows, len(piece.basis))


class SeriesLaw:
    """A formal group law built from its series alone: [a](x) by composing
    the series with itself, the inverse by a fixed-point iteration.  The
    series passes the full check of `check_law_series` first."""

    def __init__(self, series):
        check_law_series(series)
        self.dom = series.dom
        self.order = series.order
        self.series = series
        self._mult_cache = {}
        self._inverse = None

    def formal_inverse(self):
        """The series m(x) with F(x, m(x)) = 0: the fixed point of
        m = -x - mixed(x, m), for the terms `mixed` of F divisible by xy.
        Each step fixes one more degree, so order - 1 steps reach it."""
        if self._inverse is None:
            dom = self.dom
            x = TruncatedSeries.variable(dom, ("x",), self.order, "x")
            mixed = TruncatedSeries(
                dom,
                ("x", "y"),
                self.order,
                {e: c for e, c in self.series.coeffs.items() if e[0] >= 1 and e[1] >= 1},
                _trusted=True,
            )
            m = x.neg()
            for _ in range(self.order - 1):
                nxt = x.add(mixed.compose({"x": x, "y": m})).neg()
                if nxt == m:
                    break
                m = nxt
            self._inverse = m
        return self._inverse

    def formal_mult(self, a):
        """The a-fold formal sum [a](x); [0] = 0, [a] = F([a-1](x), x),
        [-a] = inverse([a])."""
        if a in self._mult_cache:
            return self._mult_cache[a]
        dom = self.dom
        x = TruncatedSeries.variable(dom, ("x",), self.order, "x")
        if a == 0:
            r = TruncatedSeries.zero(dom, ("x",), self.order)
        elif a > 0:
            r = self.series.compose({"x": self.formal_mult(a - 1), "y": x})
        else:
            r = self.formal_inverse().compose({"x": self.formal_mult(-a)})
        self._mult_cache[a] = r
        return r


def additive_law_closed_form(order):
    """x + y over ZZ."""
    x = TruncatedSeries.variable(ZZ, ("x", "y"), order, "x")
    y = TruncatedSeries.variable(ZZ, ("x", "y"), order, "y")
    return SeriesLaw(x.add(y))


def chx_law_closed_form(order):
    """(x + y - 2txy) / (1 - t^2 xy) over ZZ[t]."""
    dom = TRING
    X = TruncatedSeries.variable(dom, ("x", "y"), order, "x")
    Y = TruncatedSeries.variable(dom, ("x", "y"), order, "y")
    XY = X.mul(Y)
    num = X.add(Y).add(XY.scale(dom.monomial(1, -2)))
    den = TruncatedSeries.constant(dom, ("x", "y"), order, dom.one()).sub(
        XY.scale(dom.monomial(2, 1))
    )
    return SeriesLaw(num.mul(series_inverse(den)))


def cha_law_closed_form(order):
    """x + y + eps * sum_i t^i ((x+y)^{i+1} - x^{i+1} - y^{i+1}) over
    ZZ[t, eps]/eps^2."""
    dom = TEPS
    X = TruncatedSeries.variable(dom, ("x", "y"), order, "x")
    Y = TruncatedSeries.variable(dom, ("x", "y"), order, "y")
    S = X.add(Y)
    F = S
    Sp, Xp, Yp = S.mul(S), X.mul(X), Y.mul(Y)
    for i in range(1, order - 1):
        F = F.add(Sp.sub(Xp).sub(Yp).scale(dom.monomial(i, 1, 1)))
        Sp, Xp, Yp = Sp.mul(S), Xp.mul(X), Yp.mul(Y)
    return SeriesLaw(F)


def _reversion_law_mod_p(order, p):
    """The reversion series with every coefficient reduced mod p."""
    reduce = lambda c: {m: v % p for m, v in c.items() if v % p}
    return SeriesLaw(universal_series_by_reversion(order).map_coefficients(b_ring(int_mod(p)), reduce))


_WITHOUT_STORE = {
    universal_fgl: lambda order: SeriesLaw(universal_series_by_reversion(order)),
    universal_fgl_mod_p: _reversion_law_mod_p,
    chx_fgl: chx_law_closed_form,
    cha_fgl: cha_law_closed_form,
    additive_fgl: additive_law_closed_form,
}


def law_without_store(constructor, order, *args):
    """The law that `constructor(order, *args)` returns, built as a
    `SeriesLaw` with no store behind it: from the reversion series for the
    universal law and its reductions mod p, and from the closed form for
    `chx_fgl`, `cha_fgl` and `additive_fgl`."""
    return _WITHOUT_STORE[constructor](order, *args)


def half_element(elt):
    """An element of B(ZZ) embedded in B(ZHALF)."""
    return sparse_from_int(ZHALF, elt)


def half_law_without_store(order):
    """The universal law at `order` over B(ZHALF), as a `SeriesLaw` on the
    reversion series mapped into B(ZHALF)."""
    return SeriesLaw(universal_series_by_reversion(order).map_coefficients(b_ring(ZHALF), half_element))


def b_transport_by_parts(elt, new_dom, gen_image):
    """b_transport with every monomial multiplied out one part at a time."""
    out = new_dom.zero()
    for parts, c in elt.items():
        term = new_dom.from_int(c)
        for i in parts:
            term = new_dom.mul(term, gen_image(i))
        out = new_dom.add(out, term)
    return out


def scaled_lattice(lattice, m):
    """The lattice m*L."""
    if m < 1:
        raise ValueError("scale must be >= 1")
    return IntegerLattice([[m * a for a in row] for row in lattice.hnf], lattice.ncols)


def lmod2_series_by_loop(order, max_m):
    """[g_0, ..., g_max_m]: g_0 = 2 v(zeta) and g_m = zeta^m v(zeta), with
    zeta = [-1](x) and v(zeta) = [-1](x) / [-2](x) over B(ZHALF) truncated
    below x^(order - 1), and zeta^m grown from 1 by one product per m."""
    half = half_law_without_store(order)
    BH = half.dom
    inv = half.formal_inverse()
    vz = series_divide(inv, half.formal_mult(-2))
    zeta = inv.truncate(order - 1)
    out = [vz.int_scale(2)]
    zpow = TruncatedSeries.constant(BH, ("x",), order - 1, BH.one())
    for _ in range(max_m):
        zpow = zpow.mul(zeta)
        out.append(zpow.mul(vz))
    return out


def lmod2_classes_over_half(action, order, max_m):
    """[A_0, ..., A_max_m] over B(ZHALF): A_m = sum_j [x^j] g_m * Q_j with Q_j
    the sum over the fixed components of the twist-j pushforward of N + 1
    and g_m from `lmod2_series_by_loop`."""
    B, BH = b_ring(ZZ), b_ring(ZHALF)
    n = action.dim
    q_sums = []
    for j in range(n + 1):
        total = {}
        for comp in action.components:
            total = B.add(total, quillen_pushforward(comp.normal_plus_one(), j))
        q_sums.append(half_element(total))
    out = []
    for g in lmod2_series_by_loop(order, max_m):
        out.append(BH.dot([(g.coeffs[(j,)], q_sums[j], 1) for j in range(n + 1) if (j,) in g.coeffs]))
    return out
