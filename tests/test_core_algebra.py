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
    merge_partitions,
    TruncatedSeries as TS,
    hnf_rows,
    IntegerLattice,
    bezout,
)
from cobcalc.fgl import cha_fgl, chx_fgl, universal_fgl
from kernel_oracle import oracle_dot, oracle_mul
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
    prod = pi.mul(pi.inverse())
    assert prod == TS.constant(B, ("y",), 5, B.one())


def test_series_inverse_needs_unit():
    with pytest.raises(ValueError):
        _uni(ZZ, 4, {0: 2, 1: 1}).inverse()


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
    q = f.divide(g)
    assert q == _uni(ZZ, 4, {1: 1, 2: 1})
    assert q.order == 4
    with pytest.raises(ValueError):
        _uni(ZZ, 5, {1: 1}).divide(_uni(ZZ, 5, {2: 1}))  # x / x^2 inexact
    with pytest.raises(ValueError):
        _uni(ZZ, 5, {2: 1}).divide(_uni(ZZ, 5, {1: 2}))  # lowest coeff 2 not unit
    with pytest.raises(ZeroDivisionError):
        f.divide(TS.zero(ZZ, ("x",), 5))


def test_divide_bivariate_monomial_factor():
    f = TS(ZZ, ("x", "y"), 6, {(2, 1): 2, (1, 2): 2})
    g = TS(ZZ, ("x", "y"), 6, {(1, 1): 1})
    q = f.divide(g)
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
# (domain, monomial keys, nonzero coefficients in canonical form)
_KERNEL_DOMAINS = [
    (b_ring(ZZ), _parts, _nonzero),
    (b_ring(int_mod(2)), _parts, st.just(1)),
    (b_ring(ZHALF), _parts, st.builds(_half, _nonzero, st.integers(0, 2))),
    (TRING, st.integers(0, 4), _nonzero),
    (TEPS, st.tuples(st.integers(0, 3), st.integers(0, 1)), _nonzero),
]


@st.composite
def dot_cases(draw):
    """A domain and (a, b, k) triples over it.  The factors come from a pool
    that holds zero, the unit, a few drawn elements and the negative of the
    first, so terms can vanish, have a unit factor or cancel each other."""
    dom, keys, coeffs = draw(st.sampled_from(_KERNEL_DOMAINS))
    drawn = draw(st.lists(st.dictionaries(keys, coeffs, max_size=4), min_size=1, max_size=3))
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


def _tables():
    return [core_algebra._B_MONOMIALS, TRING._table, TEPS._table]


def test_monomial_tables_are_consistent():
    law = universal_fgl(9)
    law.series.mul(law.series)
    chx_fgl(6).series.mul(chx_fgl(6).series)
    cha_fgl(6).series.mul(cha_fgl(6).series)
    assert core_algebra._B_MONOMIALS.merge is merge_partitions
    for table in _tables():
        # ids and keys are inverse bijections (dict.get: no interning here)
        assert len(table.ids) == len(table.keys) == len(table.rows) > 1
        assert all(dict.get(table.ids, key) == i for i, key in enumerate(table.keys))
        assert any(table.rows)
        for i, row in enumerate(table.rows):
            for j, p in row.items():
                assert table.keys[p] == table.merge(table.keys[i], table.keys[j])


def _kernel_results():
    B = b_ring(ZZ)
    law = universal_fgl(10)
    half = law.series.map_coefficients(b_ring(ZHALF), lambda c: {p: (v, 0) for p, v in c.items()})
    pi = TS(B, ("y",), 8, {(i,): B.gen(i) for i in range(8)})
    terms = [(law.coefficient(2, 3), law.coefficient(4, 1), 3), (B.gen(2), B.one(), -2)]
    return [
        law.series.mul(law.series).coeffs,
        half.mul(half).coeffs,
        pi.inverse().coeffs,
        B.dot(terms),
        chx_fgl(8).series.mul(chx_fgl(8).series).coeffs,
        cha_fgl(8).series.mul(cha_fgl(8).series).coeffs,
    ]


def test_results_identical_after_tables_are_emptied():
    warm = _kernel_results()
    for table in _tables():
        table.clear()
        assert not table.ids and not table.keys and not table.rows
    assert _kernel_results() == warm
