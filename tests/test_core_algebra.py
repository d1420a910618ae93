import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cobcalc import core_algebra
from cobcalc.core_algebra import (
    ZZ,
    ZHALF,
    TRING,
    TEPS,
    int_mod,
    b_ring,
    partitions,
    is_partition,
    is_prime,
    merge_partitions,
    TruncatedSeries as TS,
    hnf_rows,
    IntegerLattice,
    bezout,
)
from cobcalc.fgl import cha_fgl, chx_fgl, universal_fgl
from kernel_oracle import (
    dense_hnf_rows, dense_member, fmt_by_dicts, fmt_by_terms, inverse_by_geometric_sum,
    monomials_by_dicts, oracle_dot, oracle_lincomb, oracle_mul, protocol_problems, series_divide,
    series_inverse, sum_problems,
)
from law_oracle import reversion, scaled_lattice


# ---------------------------------------------------------------------------
# domains

def test_partitions_small():
    assert partitions(0) == ((),)
    assert partitions(1) == ((1,),)
    assert set(partitions(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert len(partitions(8)) == 22
    assert all(is_partition(p) for p in partitions(6))
    assert not is_partition((True,)) and not is_partition((2, 0)) and not is_partition((1, 2))


def test_partitions_need_an_int_weight():
    # the cache is typed, so an int asked first does not answer for an equal
    # bool or float, and the check runs on each miss
    partitions(1)
    partitions(2)
    for n in (True, False, 2.0, 1.5, "2"):
        with pytest.raises(ValueError, match="partition weight is an int"):
            partitions(n)
    assert partitions(-1) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=6))
def test_bezout(values):
    g, coeffs = bezout(values)
    assert len(coeffs) == len(values)
    assert sum(c * v for c, v in zip(coeffs, values)) == g
    assert g == math.gcd(*values)


def test_int_scale_by_one_is_identity():
    for dom, a in ((ZZ, 5), (ZHALF, ZHALF.inv(ZHALF.from_int(2))), (int_mod(3), 2)):
        assert dom.int_scale(a, 1) is a


def test_merge_partitions():
    assert merge_partitions((3, 1), (2, 1)) == (3, 2, 1, 1)
    assert merge_partitions((), (5,)) == (5,)


def test_zz_basics():
    assert ZZ.add(2, 3) == 5
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    with pytest.raises(ValueError):
        ZZ.inv(2)
    assert ZZ.degrees(7) == frozenset({0})
    assert ZZ.degrees(0) == frozenset()


def test_int_mod():
    F7 = int_mod(7)
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    Z4 = int_mod(4)
    assert Z4.is_unit(3) and not Z4.is_unit(2)
    assert Z4.neg(1) == 3
    assert int_mod(7) is F7  # cached


def test_primes_and_moduli_must_be_ints():
    # a float or a bool is no prime and no modulus, even one equal to an int
    # whose domain is cached
    assert [p for p in range(12) if is_prime(p)] == [2, 3, 5, 7, 11]
    assert not any(is_prime(p) for p in (2.0, 3.0, 7.5, True))
    int_mod(2)
    for m in (2.0, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="modulus"):
            int_mod(m)
    assert int_mod(2).m == 2 and b_ring(int_mod(2)).base is int_mod(2)


def test_zhalf_normalization():
    assert ZHALF.add((1, 1), (1, 1)) == (1, 0)  # 1/2 + 1/2
    assert ZHALF.mul((3, 1), (5, 2)) == (15, 3)
    assert ZHALF.mul((2, 0), (1, 1)) == (1, 0)
    assert ZHALF.sub((1, 0), (1, 1)) == (1, 1)  # 1 - 1/2 = 1/2
    assert ZHALF.is_unit((4, 0)) and ZHALF.is_unit((-1, 3)) and not ZHALF.is_unit((3, 0))
    assert ZHALF.inv((4, 0)) == (1, 2)
    assert ZHALF.inv((1, 2)) == (4, 0)
    assert ZHALF.inv((-2, 0)) == (-1, 1)


def test_b_ring_arith():
    B = b_ring(ZZ)
    b1, b2 = B.gen(1), B.gen(2)
    p = B.add(B.mul(b1, b1), B.int_scale(b2, -3))  # b1^2 - 3 b2
    assert p == {(1, 1): 1, (2,): -3}
    assert B.degrees(p) == frozenset({-2})
    assert B.mul(B.one(), p) == p
    assert B.is_unit({(): -1}) and not B.is_unit(b1)
    assert B.fmt(p) == "b1^2 - 3*b2"


def test_t_and_teps():
    t = TRING.monomial(1, 1)
    assert TRING.mul(t, t) == {2: 1}
    assert TRING.degrees({2: 5}) == frozenset({-2})
    assert not TRING.is_unit(t)
    e = TEPS.monomial(0, 1, 1)
    assert TEPS.mul(e, e) == {}  # eps^2 = 0
    et = TEPS.mul(e, TEPS.monomial(3, 0, 2))
    assert et == {(3, 1): 2}
    u = TEPS.add(TEPS.one(), e)
    assert TEPS.is_unit(u)
    assert TEPS.mul(u, TEPS.inv(u)) == TEPS.one()


def test_monomials_sorted_deterministic():
    B = b_ring(ZZ)
    p = {(2,): 1, (1, 1): -4, (1,): 2, (): 7}
    m = B.monomials(p)
    assert [it["b"] for it in m] == [[], [1], [1, 1], [2]]
    assert B.fmt(p) == "7 + 2*b1 - 4*b1^2 + b2"


def _mono(coeff, b=(), t=0, eps=0):
    return {"b": list(b), "t": t, "eps": eps, "coeff": coeff}


@pytest.mark.parametrize(
    "dom, elt, monomials, text, degrees",
    [
        (ZZ, -7, [_mono("-7")], "-7", {0}),
        (ZZ, 0, [], "0", set()),
        (int_mod(3), 5, [_mono("2")], "2", {0}),
        (int_mod(3), 3, [], "0", set()),
        (ZHALF, (-5, 3), [_mono("-5/2^3")], "-5/2^3", {0}),
        (ZHALF, (6, 0), [_mono("6")], "6", {0}),
        (b_ring(ZZ), {(2,): 1, (1, 1): -4, (): 7, (3, 1): 2},
         [_mono("7"), _mono("-4", b=(1, 1)), _mono("1", b=(2,)), _mono("2", b=(3, 1))],
         "7 - 4*b1^2 + b2 + 2*b3*b1", {0, -2, -4}),
        (b_ring(int_mod(3)), {(2,): 2, (1,): 1},
         [_mono("1", b=(1,)), _mono("2", b=(2,))], "b1 + 2*b2", {-1, -2}),
        (b_ring(ZHALF), {(2,): (3, 1), (): (1, 0)},
         [_mono("1"), _mono("3/2^1", b=(2,))], "1 + 3/2^1*b2", {0, -2}),
        (TRING, {3: -1, 0: 2, 1: 1},
         [_mono("2"), _mono("1", t=1), _mono("-1", t=3)], "2 + t - t^3", {0, -1, -3}),
        (TEPS, {(2, 1): 3, (0, 0): -1, (2, 0): 1, (1, 1): 1},
         [_mono("-1"), _mono("1", t=1, eps=1), _mono("1", t=2), _mono("3", t=2, eps=1)],
         "-1 + t*eps + t^2 + 3*t^2*eps", {0, -1, -2}),
    ],
)
def test_serialization_and_degrees(dom, elt, monomials, text, degrees):
    assert dom.monomials(elt) == monomials
    assert dom.fmt(elt) == text
    assert dom.degrees(elt) == frozenset(degrees)


# nonzero coefficients, with +-1 drawn often; ZHALF ones include +-1/2 and
# other half-integers; partitions with repeated parts
_INTS = st.one_of(st.sampled_from([1, -1]), st.integers(-40, 40).filter(bool))
_HALVES = st.builds(core_algebra._half_norm, st.integers(-9, 9), st.integers(0, 3))
_PARTS = st.lists(st.integers(1, 4), max_size=5).map(lambda p: tuple(sorted(p, reverse=True)))
_ELEMENTS = st.one_of(
    st.tuples(st.just(b_ring(ZZ)), st.dictionaries(_PARTS, _INTS, max_size=6)),
    st.tuples(st.just(b_ring(ZHALF)), st.dictionaries(_PARTS, _HALVES.filter(lambda h: h[0]), max_size=6)),
    st.tuples(st.just(b_ring(int_mod(3))), st.dictionaries(_PARTS, st.sampled_from([1, 2]), max_size=6)),
    st.tuples(st.just(TRING), st.dictionaries(st.integers(0, 5), _INTS, max_size=5)),
    st.tuples(st.just(TEPS), st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 1)), _INTS,
                                             max_size=5)),
    st.tuples(st.just(ZZ), st.integers(-40, 40)),
    st.tuples(st.just(int_mod(3)), st.integers(0, 2)),
    st.tuples(st.just(ZHALF), _HALVES),
)


@settings(max_examples=300, deadline=None)
@given(_ELEMENTS)
def test_rendering_matches_dict_route(case):
    dom, elt = case
    assert dom.monomials(elt) == monomials_by_dicts(dom, elt)
    assert dom.fmt(elt) == fmt_by_dicts(dom, elt)


@settings(max_examples=300, deadline=None)
@given(_ELEMENTS)
def test_rendering_matches_term_list_route(case):
    # the names read off the monomial table against factors rebuilt per term;
    # the strategy draws zero, +-1, negative and half-integer coefficients,
    # repeated parts and eps terms
    dom, elt = case
    assert dom.fmt(elt) == fmt_by_terms(dom, elt)


# ---------------------------------------------------------------------------
# truncated series

def _uni(dom, order, coeffs):
    return TS(dom, ("x",), order, {(k,): v for k, v in coeffs.items()})


def test_series_mul_truncates():
    one_minus = _uni(ZZ, 3, {0: 1, 1: -1})
    one_plus = _uni(ZZ, 3, {0: 1, 1: 1})
    assert one_minus.mul(one_plus) == _uni(ZZ, 3, {0: 1, 2: -1})
    xy = TS(ZZ, ("x", "y"), 2, {(1, 0): 1}).mul(TS(ZZ, ("x", "y"), 2, {(0, 1): 1}))
    assert xy.is_zero()  # degree 2 falls off at order 2


def test_series_mismatch_raises():
    with pytest.raises(ValueError):
        _uni(ZZ, 3, {1: 1}).add(_uni(ZZ, 4, {1: 1}))
    with pytest.raises(ValueError):
        _uni(ZZ, 3, {1: 1}).mul(TS(ZZ, ("y",), 3, {(1,): 1}))


def test_series_inverse_pi():
    B = b_ring(ZZ)
    pi = TS(
        B, ("y",), 5, {(i,): B.gen(i) for i in range(5)}
    )  # 1 + b1 y + b2 y^2 + ...
    prod = pi.mul(series_inverse(pi))
    assert prod == TS.constant(B, ("y",), 5, B.one())


def test_series_inverse_needs_unit():
    with pytest.raises(ValueError):
        series_inverse(_uni(ZZ, 4, {0: 2, 1: 1}))


def test_reversion_oracle():
    B = b_ring(ZZ)
    f = TS(B, ("x",), 4, {(1,): B.one(), (2,): B.gen(1), (3,): B.gen(2)})
    g = reversion(f)
    two_b1sq_minus_b2 = B.add(B.int_scale(B.mul(B.gen(1), B.gen(1)), 2), B.neg(B.gen(2)))
    assert g == TS(
        B, ("x",), 4, {(1,): B.one(), (2,): B.neg(B.gen(1)), (3,): two_b1sq_minus_b2}
    )
    assert f.compose({"x": g}) == TS.variable(B, ("x",), 4, "x")
    assert g.compose({"x": f}) == TS.variable(B, ("x",), 4, "x")


def test_reversion_rejects_nonunit_linear_term():
    with pytest.raises(ValueError):
        reversion(_uni(ZZ, 4, {1: 2}))
    with pytest.raises(ValueError):
        reversion(_uni(ZZ, 4, {0: 1, 1: 1}))


def test_compose_rejects_constant_term():
    f = _uni(ZZ, 4, {1: 1})
    with pytest.raises(ValueError):
        f.compose({"x": _uni(ZZ, 4, {0: 1, 1: 1})})


def test_divide():
    f = _uni(ZZ, 5, {2: 1, 3: 1})  # x^2 + x^3
    g = _uni(ZZ, 5, {1: 1})  # x
    q = series_divide(f, g)
    assert q == _uni(ZZ, 4, {1: 1, 2: 1})
    assert q.order == 4
    with pytest.raises(ValueError):
        series_divide(_uni(ZZ, 5, {1: 1}), _uni(ZZ, 5, {2: 1}))  # x / x^2 inexact
    with pytest.raises(ValueError):
        series_divide(_uni(ZZ, 5, {2: 1}), _uni(ZZ, 5, {1: 2}))  # lowest coeff 2 not unit
    with pytest.raises(ZeroDivisionError):
        series_divide(f, TS.zero(ZZ, ("x",), 5))


def test_divide_bivariate_monomial_factor():
    f = TS(ZZ, ("x", "y"), 6, {(2, 1): 2, (1, 2): 2})
    g = TS(ZZ, ("x", "y"), 6, {(1, 1): 1})
    q = series_divide(f, g)
    assert q == TS(ZZ, ("x", "y"), 4, {(1, 0): 2, (0, 1): 2})


def test_map_coefficients():
    f = _uni(ZZ, 4, {1: 2, 3: -6})
    g = f.map_coefficients(ZHALF, ZHALF.from_int)
    assert g.coefficient((3,)) == (-6, 0)
    assert g.dom is ZHALF


# ---------------------------------------------------------------------------
# lattices

def test_hnf_examples():
    h, piv = hnf_rows([(2, 0), (0, 2)])
    assert h == [[2, 0], [0, 2]] and piv == [0, 1]
    h, piv = hnf_rows([(2, 0), (1, 1)])
    assert h == [[1, 1], [0, 2]] and piv == [0, 1]
    assert hnf_rows([]) == ([], [])
    assert hnf_rows([(0, 0)]) == ([], [])


def test_lattice_membership():
    L = IntegerLattice([(2, 0), (1, 1)], 2)
    assert L.member((1, -1))
    assert L.member((3, 1))
    assert not L.member((1, 0))
    assert L.rank == 2
    E = IntegerLattice([], 3)
    assert E.member((0, 0, 0))
    assert not E.member((1, 0, 0))


def test_lattice_scaled():
    L = IntegerLattice([(1, 0), (0, 1)], 2)
    L2 = scaled_lattice(L, 2)
    assert L2.member((2, 4)) and not L2.member((1, 0))


def test_lattice_rejects_ragged():
    with pytest.raises(ValueError):
        IntegerLattice([(1, 0), (1,)], 2)
    with pytest.raises(ValueError):
        hnf_rows([(1, 0), (1,)])


def test_lattice_rejects_non_int_entries():
    # floats and bools are not lattice entries, vectors or matrix rows
    for rows in ([(2.5, 0)], [(1.0, 0)], [(True, 0)], [(1, 0), (0, False)]):
        with pytest.raises(ValueError, match="rows of ints"):
            hnf_rows(rows)
        with pytest.raises(ValueError, match="rows of ints"):
            IntegerLattice(rows, 2)
    L = IntegerLattice([(2, 0), (1, 1)], 2)
    for v in ((1.0, -1.0), (True, 1), (3, 1.0), (1, -1, 0)):
        with pytest.raises(ValueError, match="2 ints"):
            L.member(v)
    assert L.member((1, -1)) and L.member([3, 1])


def test_lattice_keeps_one_hnf_store():
    # the rows that member walks are the only store; the dense HNF and the
    # pivot columns are rebuilt from them on each read
    rows = [(2, 0, 4), (1, 1, 0), (0, 3, 3)]
    L = IntegerLattice(rows, 3)
    assert IntegerLattice.__slots__ == ("ncols", "rows")
    hnf, pivcols = hnf_rows(rows)
    assert (L.hnf, L.pivcols, L.rank) == (hnf, pivcols, len(hnf))
    assert [(c, p) for c, p, _ in L.rows] == [(c, row[c]) for row, c in zip(hnf, pivcols)]
    assert L.hnf is not L.hnf
    with pytest.raises(AttributeError):
        L.hnf = hnf


_entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 40, 2 ** 40))


@st.composite
def int_matrices(draw):
    """An integer matrix with zero rows, repeated combinations of its rows (so
    the rank can fall short), more rows than columns, negative entries and
    entries up to 2^40; and vectors to test, on and off its lattice."""
    ncols = draw(st.integers(0, 6))
    row = st.lists(_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    pick = st.integers(0, max(len(rows) - 1, 0))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j, k = draw(pick), draw(pick), draw(st.integers(-3, 3))
        rows.append([a + k * b for a, b in zip(rows[i], rows[j])])
    vectors = [list(r) for r in rows] + draw(st.lists(row, max_size=3))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        v = [0] * ncols
        for r in rows:
            k = draw(st.integers(-2, 2))
            v = [a + k * b for a, b in zip(v, r)]
        if ncols and draw(st.booleans()):
            v[draw(st.integers(0, ncols - 1))] += draw(st.integers(-2, 2))
        vectors.append(v)
    return ncols, rows, vectors


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_hnf_and_membership_match_dense_oracle(case):
    ncols, rows, vectors = case
    hnf, pivcols = hnf_rows(rows)
    assert (hnf, pivcols) == dense_hnf_rows(rows)
    L = IntegerLattice(rows, ncols)
    assert (L.hnf, L.pivcols) == (hnf, pivcols)
    for v in vectors:
        assert L.member(v) == dense_member(hnf, pivcols, v)


# ---------------------------------------------------------------------------
# property tests

small_int = st.integers(min_value=-6, max_value=6)


def _poly2(dom, order, pairs):
    return TS(dom, ("x", "y"), order, {e: c for e, c in pairs.items()})


@st.composite
def series2(draw, order=5):
    n = draw(st.integers(min_value=0, max_value=5))
    coeffs = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=order - 1))
        j = draw(st.integers(min_value=0, max_value=order - 1 - i))
        coeffs[(i, j)] = draw(small_int)
    return _poly2(ZZ, order, coeffs)


@given(series2(), series2(), series2())
@settings(max_examples=60, deadline=None)
def test_series_ring_axioms(a, b, c):
    assert a.add(b) == b.add(a)
    assert a.mul(b) == b.mul(a)
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    assert a.mul(b.mul(c)) == a.mul(b).mul(c)
    assert a.sub(a).is_zero()


@given(
    st.lists(small_int, min_size=3, max_size=3),
    st.sampled_from([1, -1]),
)
@settings(max_examples=40, deadline=None)
def test_reversion_round_trip(tail, unit):
    order = 6
    coeffs = {(1,): unit}
    for k, c in enumerate(tail, start=2):
        if c:
            coeffs[(k,)] = c
    f = TS(ZZ, ("x",), order, coeffs)
    g = reversion(f)
    x = TS.variable(ZZ, ("x",), order, "x")
    assert f.compose({"x": g}) == x
    assert g.compose({"x": f}) == x


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3), min_size=1, max_size=4), st.randoms())
@settings(max_examples=40, deadline=None)
def test_hnf_invariant_under_row_ops(rows, rng):
    base = hnf_rows(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    if len(shuffled) > 1:
        i, j = rng.randrange(len(shuffled)), rng.randrange(len(shuffled))
        if i != j:
            k = rng.randint(-3, 3)
            shuffled[i] = [a + k * b for a, b in zip(shuffled[i], shuffled[j])]
    assert hnf_rows(shuffled) == base


@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=4), st.lists(small_int, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_lattice_contains_combinations(rows, coeffs):
    L = IntegerLattice(rows, 3)
    v = [0, 0, 0]
    for r, c in zip(rows, coeffs):
        v = [a + c * b for a, b in zip(v, r)]
    assert L.member(v)


_parts = st.lists(st.integers(min_value=1, max_value=4), max_size=3).map(
    lambda l: tuple(sorted(l, reverse=True)))
b_elements = st.dictionaries(_parts, st.integers(min_value=-20, max_value=20).filter(bool),
                             max_size=5)


@given(b_elements, b_elements, st.integers(min_value=-3, max_value=3))
@settings(max_examples=80, deadline=None)
def test_b_ring_int_path_matches_half_ring(a, b, k):
    # b_ring(ZZ) computes on plain ints; b_ring(ZHALF) dispatches every
    # coefficient to its base domain: the two must agree on embedded integers
    BZ, BHf = b_ring(ZZ), b_ring(ZHALF)

    def emb(u):
        return {p: (v, 0) for p, v in u.items()}

    assert emb(BZ.add(a, b)) == BHf.add(emb(a), emb(b))
    assert BZ.sub(a, a) == {}
    assert emb(BZ.mul(a, b)) == BHf.mul(emb(a), emb(b))
    # (a + b)(a - b): the cross terms cancel inside a single product
    s, d = BZ.add(a, b), BZ.sub(a, b)
    assert emb(BZ.mul(s, d)) == BHf.mul(emb(s), emb(d))
    assert emb(BZ.int_scale(a, k)) == BHf.int_scale(emb(a), k)


# ---------------------------------------------------------------------------
# the interned-monomial kernel against the plain products of kernel_oracle

def _half(n, e):
    return ZHALF.mul(ZHALF.from_int(n), ZHALF.inv(ZHALF.from_int(1 << e)))


_nonzero = st.integers(min_value=-9, max_value=9).filter(bool)
# (domain, monomial keys or None for a domain of constants, nonzero
# coefficients in canonical form)
_KERNEL_DOMAINS = [
    (b_ring(ZZ), _parts, _nonzero),
    (b_ring(int_mod(2)), _parts, st.just(1)),
    (b_ring(ZHALF), _parts, st.builds(_half, _nonzero, st.integers(0, 2))),
    (TRING, st.integers(0, 4), _nonzero),
    (TEPS, st.tuples(st.integers(0, 3), st.integers(0, 1)), _nonzero),
    (ZZ, None, _nonzero),
    (int_mod(3), None, st.integers(1, 2)),
    (ZHALF, None, st.builds(_half, _nonzero, st.integers(0, 2))),
]


@st.composite
def dot_cases(draw):
    """A domain and (a, b, k) triples over it.  The factors come from a pool
    that holds zero, the unit, a few drawn elements and the negative of the
    first, so terms can vanish, have a unit factor or cancel each other."""
    dom, keys, coeffs = draw(st.sampled_from(_KERNEL_DOMAINS))
    element = coeffs if keys is None else st.dictionaries(keys, coeffs, max_size=4)
    drawn = draw(st.lists(element, min_size=1, max_size=3))
    pool = [dom.zero(), dom.one(), dom.neg(drawn[0])] + drawn
    factor = st.sampled_from(pool)
    terms = draw(st.lists(st.tuples(factor, factor, st.integers(-2, 2)), max_size=5))
    if terms and draw(st.booleans()):
        a, b, k = terms[0]
        terms.append((b, a, -k))
    return dom, terms


@given(dot_cases())
@settings(max_examples=300, deadline=None)
def test_dot_and_mul_match_oracle(case):
    dom, terms = case
    assert dom.dot(terms) == oracle_dot(dom, terms)
    for a, b, _k in terms:
        assert dom.mul(a, b) == oracle_mul(dom, a, b)
    pairs = [(a, k) for a, _b, k in terms]
    assert dom.lincomb(pairs) == oracle_lincomb(dom, pairs)
    assert sum_problems(dom, terms) == []


def test_every_domain_supplies_only_lincomb_and_dot():
    # Domain derives add, neg, sub, mul, int_scale and eq from the two sums,
    # so eq and sub take one kernel pass
    assert protocol_problems() == []


@pytest.mark.parametrize("dom, pairs, expected", [
    (ZZ, [], 0),
    (ZZ, [(3, 2), (-5, 1), (7, 0)], 1),
    (int_mod(3), [], 0),
    (int_mod(3), [(2, 2), (1, 5)], 0),
    (int_mod(3), [(2, 2), (1, 1)], 2),
    (ZHALF, [], (0, 0)),
    (ZHALF, [((1, 1), 3), ((1, 2), -2)], (1, 0)),
    (b_ring(int_mod(2)), [], {}),
    # the first multiplier is 0 mod 2, and b2 and b1 cancel mod 2
    (b_ring(int_mod(2)), [({(1,): 1, (): 1}, 2), ({(2,): 1, (1,): 1}, 1), ({(1,): 1}, 3),
                          ({(2,): 1}, -1), ({(3,): 1}, 5)], {(3,): 1}),
], ids=["ZZ-empty", "ZZ", "Z3-empty", "Z3-vanishes", "Z3", "ZHALF-empty", "ZHALF",
        "B(Z2)-empty", "B(Z2)-zero-multiplier"])
def test_lincomb_sums_integer_multiples(dom, pairs, expected):
    # equal to `expected` in canonical form, so no zero coefficient is stored
    assert dom.lincomb(pairs) == expected


@st.composite
def unit_series(draw):
    """A series in one or two variables over B(ZZ), B(Z/2) or TRING whose
    constant term is a unit, +1 or -1, and whose other terms are drawn."""
    dom, keys, coeffs = draw(st.sampled_from(
        [_KERNEL_DOMAINS[0], _KERNEL_DOMAINS[1], _KERNEL_DOMAINS[3]]))
    nvars = draw(st.integers(1, 2))
    order = draw(st.integers(1, 7))
    exps = st.tuples(*[st.integers(0, order - 1)] * nvars).filter(lambda e: 0 < sum(e) < order)
    terms = draw(st.dictionaries(exps, st.dictionaries(keys, coeffs, min_size=1, max_size=3),
                                 max_size=6))
    terms[(0,) * nvars] = dom.from_int(draw(st.sampled_from([1, -1])))
    return TS(dom, ("x", "y")[:nvars], order, terms)


@given(unit_series())
@settings(max_examples=100, deadline=None)
def test_series_inverse_matches_geometric_sum(f):
    assert series_inverse(f) == inverse_by_geometric_sum(f)


def _tables():
    return [core_algebra._B_MONOMIALS, TRING._table, TEPS._table]


def test_monomial_tables_are_consistent():
    law = universal_fgl(9)
    law.series.mul(law.series)
    chx_fgl(6).series.mul(chx_fgl(6).series)
    cha_fgl(6).series.mul(cha_fgl(6).series)
    for series in (law.series, chx_fgl(6).series, cha_fgl(6).series):
        repr(series)  # renders every coefficient, which fills the name tables
    assert core_algebra._B_MONOMIALS.merge is merge_partitions
    for table in _tables():
        # ids and keys are inverse bijections (dict.get: no interning here)
        assert len(table.ids) == len(table.keys) == len(table.rows) > 1
        assert all(dict.get(table.ids, key) == i for i, key in enumerate(table.keys))
        assert any(table.rows)
        for i, row in enumerate(table.rows):
            for j, p in row.items():
                assert table.keys[p] == table.merge(table.keys[i], table.keys[j])
    # a name and its sort key depend on the key alone: the unit's name is
    # empty, and every other name is the rendering of the monomial itself
    for dom, table in zip((b_ring(ZZ), TRING, TEPS), _tables()):
        assert table.names
        for key, ((w, t, eps, b), name) in table.names.items():
            assert (b, t, eps) == dom._parts(key) and w == sum(b) + t
            assert (name or "1") == fmt_by_terms(dom, {key: 1})


def _kernel_results():
    B = b_ring(ZZ)
    law = universal_fgl(10)
    half = law.series.map_coefficients(b_ring(ZHALF), lambda c: {p: (v, 0) for p, v in c.items()})
    pi = TS(B, ("y",), 8, {(i,): B.gen(i) for i in range(8)})
    terms = [(law.coefficient(2, 3), law.coefficient(4, 1), 3), (B.gen(2), B.one(), -2)]
    return [
        law.series.mul(law.series).coeffs,
        half.mul(half).coeffs,
        series_inverse(pi).coeffs,
        B.dot(terms),
        chx_fgl(8).series.mul(chx_fgl(8).series).coeffs,
        cha_fgl(8).series.mul(cha_fgl(8).series).coeffs,
    ]


def test_results_identical_after_tables_are_emptied():
    warm = _kernel_results()
    for table in _tables():
        table.clear()
        assert not table.ids and not table.names and not table.keys and not table.rows
    assert _kernel_results() == warm
