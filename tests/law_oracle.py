"""Reference constructions of the universal law, of its multiples, of its
image over half-integers and of the mod-2 lattice pieces, kept as test
oracles for the production path.

The production code reads the universal law off a coefficient store that
grows one total degree at a time (`fgl.universal_fgl`) and builds each
mod-2 piece from HNF bases of the lattice pieces
(`cobordism.mod2_theory_piece`).  This module builds the same objects the
direct way: the law as exp(log x + log y) with log the compositional
inverse of the universal exponential (`reversion`), and the mod-2 piece from every
generator of every lattice piece involved.  `verify_lmod2` embeds the
integral series [2](x) and the formal inverse in B(ZHALF); the oracle
specializes the whole law into B(ZHALF) and validates it again.

The store-built laws read [a](x) = exp(a log x) off the log-power table;
`law_without_store` rebuilds the same series as a law with no store behind
it, whose [a](x) comes from composing the series with itself and whose
inverse comes from a fixed-point iteration; it also runs the full axiom
check that store-built laws skip.  `b_transport_by_parts` is the
monomial transport without the memo of monomial images, and
`scaled_lattice` the lattice m*L behind `LazardDegreePiece.member_mod`.

`lazard_lattice_from_all_products` builds each lattice piece from every
product of law coefficients of its weight; production builds it from the
p(n) monomials in Lazard's polynomial generators.

`lmod2_series_by_loop` builds the twisted series of `verify_lmod2` by the
loop that verifier once ran inline on every call, from the law specialized
into B(ZHALF); production keeps them per order and grows them one power of
zeta at a time."""

from cobcalc.cobordism import BRING, lazard_basis, lazard_piece
from cobcalc.core_algebra import ZHALF, ZZ, IntegerLattice, TruncatedSeries, b_ring
from cobcalc.fgl import FormalGroupLaw, formal_inverse, formal_mult, specialize, universal_fgl
from cobcalc.fixedpoint import _to_half_element


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


def half_law_by_specialization(order):
    """The universal law at `order` specialized into B(ZHALF)."""
    return specialize(universal_fgl(order), b_ring(ZHALF), _to_half_element)


def law_without_store(law):
    """The law's series as a law built directly: [a](x) = F([a-1](x), x) for
    a > 0, [a](x) = m([-a](x)) for a < 0, and the inverse m(x) the fixed
    point of m = -x - (mixed terms of F)(x, m)."""
    return FormalGroupLaw(law.series)


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
    half = half_law_by_specialization(order)
    BH = half.dom
    inv = formal_inverse(half)
    vz = inv.divide(formal_mult(half, -2))
    zeta = inv.truncate(order - 1)
    out = [vz.int_scale(2)]
    zpow = TruncatedSeries.constant(BH, ("x",), order - 1, BH.one())
    for _ in range(max_m):
        zpow = zpow.mul(zeta)
        out.append(zpow.mul(vz))
    return out
