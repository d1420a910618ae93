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
inverse comes from a fixed-point iteration.  `b_transport_by_parts` is the
monomial transport without the memo of monomial images, and
`scaled_lattice` the lattice m*L behind `LazardDegreePiece.member_mod`."""

from cobcalc.cobordism import BRING, lazard_piece
from cobcalc.core_algebra import ZHALF, ZZ, IntegerLattice, TruncatedSeries, b_ring
from cobcalc.fgl import FormalGroupLaw, specialize, universal_fgl
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


def mod2_piece_from_generators(n):
    """Twice every generator of the degree -n lattice piece, plus c_k times
    every generator of the degree -(n-k+1) piece for the coefficients c_k
    of [2](x), as one integer lattice."""
    piece = lazard_piece(n)
    rows = [tuple(2 * x for x in piece.vector(g)) for g in piece.generators]
    two = universal_fgl(n + 2).formal_mult(2)
    for k in range(2, n + 2):
        ck = two.coefficient((k,))
        if BRING.is_zero(ck):
            continue
        for g in lazard_piece(n - k + 1).generators:
            rows.append(piece.vector(BRING.mul(ck, g)))
    return IntegerLattice(rows, len(piece.basis))


def half_law_by_specialization(order):
    """The universal law at `order` specialized into B(ZHALF)."""
    return specialize(universal_fgl(order), b_ring(ZHALF), _to_half_element)


def law_without_store(law):
    """The law's series as a law built directly: [a](x) = F([a-1](x), x) for
    a > 0, [a](x) = m([-a](x)) for a < 0, and the inverse m(x) the fixed
    point of m = -x - (mixed terms of F)(x, m)."""
    return FormalGroupLaw(law.series)


def b_transport_by_parts(elt, new_dom, gen_image, base_map=None):
    """b_transport with every monomial multiplied out one part at a time."""
    if base_map is None:
        base_map = new_dom.from_int
    out = new_dom.zero()
    for parts, c in elt.items():
        term = base_map(c)
        for i in parts:
            term = new_dom.mul(term, gen_image(i))
        out = new_dom.add(out, term)
    return out


def scaled_lattice(lattice, m):
    """The lattice m*L."""
    if m < 1:
        raise ValueError("scale must be >= 1")
    return IntegerLattice([[m * a for a in row] for row in lattice.hnf], lattice.ncols)
