from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cobcalc import fgl
from cobcalc.core_algebra import ZZ, ZHALF, TRING, TEPS, b_ring, int_mod, TruncatedSeries as TS
from cobcalc.fgl import (
    check_law_series,
    universal_fgl,
    specialize,
    additive_fgl,
    chx_fgl,
    cha_fgl,
    universal_fgl_mod_p,
    b_transport,
    chx_b_image,
    cha_b_image,
    formal_mult,
    mult_coefficient,
)
from kernel_oracle import series_inverse
from law_oracle import (
    additive_law_closed_form,
    associative_by_two_compositions,
    b_transport_by_parts,
    cha_law_closed_form,
    chx_law_closed_form,
    law_without_store,
    log_powers_by_convolution,
    universal_series_by_reversion,
    universal_store_by_pairs,
)

B = b_ring(ZZ)

# every constructor, with the arguments after the order
CONSTRUCTORS = [
    pytest.param(universal_fgl, (), id="universal"),
    pytest.param(universal_fgl_mod_p, (2,), id="mod-2"),
    pytest.param(universal_fgl_mod_p, (3,), id="mod-3"),
    pytest.param(universal_fgl_mod_p, (5,), id="mod-5"),
    pytest.param(chx_fgl, (), id="chx"),
    pytest.param(cha_fgl, (), id="cha"),
    pytest.param(additive_fgl, (), id="additive"),
]


def test_universal_low_coefficients():
    U = universal_fgl(6)
    assert U.coefficient(1, 0) == B.one()
    assert U.coefficient(1, 1) == B.int_scale(B.gen(1), 2)  # 2 b1
    a12 = B.add(B.int_scale(B.gen(2), 3), B.int_scale(B.mul(B.gen(1), B.gen(1)), -2))
    assert U.coefficient(1, 2) == a12  # 3 b2 - 2 b1^2
    assert U.coefficient(2, 1) == a12


def test_universal_matches_reversion_oracle():
    for order in range(2, 13):
        assert universal_fgl(order).series == universal_series_by_reversion(order)


def test_universal_truncations_agree():
    top = universal_fgl(18).series
    for order in range(2, 18):
        assert universal_fgl(order).series == top.truncate(order)


@pytest.mark.parametrize("order", [1, 0, -1])
def test_universal_rejects_order_below_two(order):
    with pytest.raises(ValueError, match=r"order >= 2, got %d" % order):
        universal_fgl(order)


@pytest.mark.parametrize("order", [1, 0, -1])
@pytest.mark.parametrize("constructor, args", CONSTRUCTORS)
def test_every_constructor_rejects_order_below_two(constructor, args, order):
    with pytest.raises(ValueError, match=r"order >= 2, got %d" % order):
        constructor(order, *args)


def test_universal_grading():
    U = universal_fgl(6)
    for (i, j), c in U.series.coeffs.items():
        assert B.is_homogeneous(c, 1 - i - j)


def test_formal_inverse_defining_identity():
    U = universal_fgl(6)
    m = formal_mult(U, -1)
    x = TS.variable(B, ("x",), 6, "x")
    assert U.series.compose({"x": x, "y": m}).is_zero()
    assert m.coefficient((1,)) == B.from_int(-1)


def test_store_inverse_closes_through_order_18():
    for order in range(2, 19):
        U = universal_fgl(order)
        x = TS.variable(B, ("x",), order, "x")
        assert U.series.compose({"x": x, "y": formal_mult(U, -1)}).is_zero(), order


@pytest.mark.parametrize("p", [None, 2, 3, 5])
def test_store_multiples_match_compose_oracle(p):
    # [a](x) read off the log-power table against the reversion series as a
    # law with no store behind it: compose route for [a], fixed point for [-1]
    args = () if p is None else (p,)
    constructor = universal_fgl if p is None else universal_fgl_mod_p
    for order in range(2, 13):
        law = constructor(order, *args)
        ref = law_without_store(constructor, order, *args)
        assert law.series == ref.series, (order, p)
        assert formal_mult(law, -1) == ref.formal_inverse(), (order, p)
        for a in range(-3, 4):
            assert formal_mult(law, a) == ref.formal_mult(a), (order, p, a)


@pytest.mark.parametrize("constructor", [chx_fgl, cha_fgl, additive_fgl])
def test_closed_form_multiples_match_store(constructor):
    # [a](x) of the store pushed along chx's, cha's or the additive image
    # against the closed form as a law with no store behind it (the
    # universal law and its reductions are compared above)
    for order in range(2, 13):
        law = constructor(order)
        ref = law_without_store(constructor, order)
        assert formal_mult(law, -1) == ref.formal_inverse(), order
        for a in range(-3, 4):
            assert formal_mult(law, a) == ref.formal_mult(a), (order, a)


@pytest.mark.parametrize("closed_form, constructor", [
    (chx_law_closed_form, chx_fgl),
    (cha_law_closed_form, cha_fgl),
    (additive_law_closed_form, additive_fgl),
], ids=["chx", "cha", "additive"])
def test_closed_forms_match_store_images(closed_form, constructor):
    for order in range(2, 19):
        assert constructor(order).series == closed_form(order).series, order


@pytest.mark.parametrize("p", [None, 2, 3, 5])
def test_store_laws_pass_the_full_axiom_check(p):
    # a store-built law checks only associativity; the full check that
    # `specialize` runs passes unit, symmetry and grading on its series too
    law = universal_fgl(18) if p is None else universal_fgl_mod_p(18, p)
    check_law_series(law.series)


@pytest.mark.parametrize("constructor, a", [
    (universal_fgl, 2.5),
    (universal_fgl, True),
    (chx_fgl, 2.5),
    (cha_fgl, False),
    (additive_fgl, "2"),
], ids=["universal-float", "universal-bool", "chx-float", "cha-bool", "additive-str"])
def test_formal_mult_rejects_a_non_integer(constructor, a):
    # a float would give float coefficients and a bool would read as 0 or 1
    with pytest.raises(ValueError, match="integer"):
        formal_mult(constructor(5), a)


def test_mult_coefficient_rejects_what_is_not_an_int_n_ge_0_and_an_int_a():
    # n = -1 would read the store's top row, a float a gives float
    # coefficients, a float n fails inside list indexing, and a bool reads
    # as 0 or 1; none may grow the store
    top = len(fgl._LOG_POWERS)
    for n, a in [(-1, 2), (3, 2.5), (2.0, 2), (float(top + 2), 2), (True, 2), (3, True), (3, "2")]:
        with pytest.raises(ValueError, match="an int n >= 0 and an int a"):
            mult_coefficient(n, a)
    assert len(fgl._LOG_POWERS) == top
    assert mult_coefficient(0, 3) == {}
    assert mult_coefficient(1, 3) == {(): 3}


def test_additive_law():
    A = additive_fgl(6)
    assert formal_mult(A, -1) == TS.variable(ZZ, ("x",), 6, "x").neg()
    for a in range(-3, 4):
        assert formal_mult(A, a) == TS.variable(ZZ, ("x",), 6, "x").int_scale(a)


def test_chx_matches_specialized_universal():
    # every order after the order-18 transport has filled the image table
    specialize(universal_fgl(18), TRING, lambda c: b_transport(c, TRING, chx_b_image))
    for order in range(2, 19):
        S = specialize(universal_fgl(order), TRING, lambda c: b_transport(c, TRING, chx_b_image))
        assert S.series == chx_fgl(order).series, order


def test_b_transport_memo_matches_oracle():
    coeffs = list(universal_fgl(12).series.coeffs.values())
    for _ in range(2):  # the second pass reads every monomial image from the table
        for c in coeffs:
            assert b_transport(c, TEPS, cha_b_image) == b_transport_by_parts(c, TEPS, cha_b_image)


def _three(i):
    return 3


def test_b_transport_memo_keeps_domains_apart():
    # b_i |-> 3 is a ring map into ZZ and into ZZ/2 alike: the tabled
    # images of the same monomials must not cross from one to the other
    Z2 = int_mod(2)
    coeffs = list(universal_fgl(8).series.coeffs.values())
    for dom in (Z2, ZZ, Z2):
        for c in coeffs:
            assert b_transport(c, dom, _three) == b_transport_by_parts(c, dom, _three), dom.name


def _two_terms(i):
    """b_i |-> t^i - 2 t^(i+1): every monomial image has several terms."""
    return TRING.sub(TRING.monomial(i, 1), TRING.monomial(i + 1, 2))


def _mixed(i):
    """b_1 |-> 0, b_2 |-> t^2 - t^3 and b_i |-> (-t)^i above: zero, one-term
    and two-term monomial images, some of which cancel in a sum."""
    if i == 1:
        return {}
    if i == 2:
        return {2: 1, 3: -1}
    return chx_b_image(i)


def _half_b(i):
    """b_i |-> b_i / 2 into B(ZZ[1/2]), a sparse domain whose base is not ZZ."""
    return {(i,): (1, 1)}


# cha (eps^2 = 0, so most monomial images are zero) and b_i |-> 3 into ZZ
# and ZZ/2 are compared by the two tests above
@pytest.mark.parametrize("dom, gen_image", [
    (TRING, chx_b_image),
    (TRING, _two_terms),
    (TRING, _mixed),
    (b_ring(ZHALF), _half_b),
], ids=["chx", "two-terms", "mixed", "half-b"])
def test_b_transport_matches_oracle(dom, gen_image):
    U = universal_fgl(12)
    coeffs = list(U.series.coeffs.values()) + list(U.formal_mult(-1).coeffs.values())
    # sums whose one-term chx images cancel (b1^2 - b2 |-> 0), and zero
    coeffs += [{(1, 1): 1, (2,): -1}, {(3,): 1, (2, 1): -1, (1,): 4}, B.zero()]
    for _ in range(2):  # the second pass reads every monomial image from the table
        for c in coeffs:
            assert b_transport(c, dom, gen_image) == b_transport_by_parts(c, dom, gen_image)


def test_cha_matches_specialized_universal():
    U = universal_fgl(8)
    S = specialize(U, TEPS, lambda c: b_transport(c, TEPS, cha_b_image))
    assert S.series == cha_fgl(8).series


def test_cha_low_terms():
    C = cha_fgl(6)
    assert C.coefficient(1, 1) == TEPS.monomial(1, 1, 2)  # 2 eps t
    assert C.coefficient(2, 1) == TEPS.monomial(2, 1, 3)  # 3 eps t^2


def test_chx_formal_mult_closed_form():
    D = 8
    C = chx_fgl(D)
    x = TS.variable(TRING, ("x",), D, "x")
    one = TS.constant(TRING, ("x",), D, TRING.one())
    for a in range(-3, 5):
        den = one.add(x.scale(TRING.monomial(1, a - 1)))
        closed = x.int_scale(a).mul(series_inverse(den))
        assert formal_mult(C, a) == closed


def test_universal_law_mod_p_needs_an_int_prime():
    # 3.0 == 3, so a cache keyed by value alone would hand back the law mod 3
    universal_fgl_mod_p(4, 3)
    for p in (3.0, 2.0, True, 4):
        with pytest.raises(ValueError, match="prime"):
            universal_fgl_mod_p(4, p)


def test_mult_by_p_vanishes_mod_p():
    for p, order in ((2, 7), (3, 6), (5, 5)):
        L = universal_fgl_mod_p(order, p)
        assert formal_mult(L, p).is_zero()


def test_mod2_inverse_is_identity():
    L = universal_fgl_mod_p(7, 2)
    x = TS.variable(L.dom, ("x",), 7, "x")
    assert formal_mult(L, -1) == x


def test_mult_additivity():
    C = chx_fgl(7)
    for a, b in ((2, 3), (-1, 4), (-2, -3), (0, 5)):
        lhs = formal_mult(C, a + b)
        rhs = C.series.compose({"x": formal_mult(C, a), "y": formal_mult(C, b)})
        assert lhs == rhs


def test_mult_leading_term():
    U = universal_fgl(5)
    for a in range(-2, 4):
        assert formal_mult(U, a).coefficient((1,)) == B.from_int(a)


def test_specialize_rejects_degree_breaking_map():
    U = universal_fgl(5)
    bad = lambda c: b_transport(c, TRING, lambda i: TRING.monomial(i + 1, 1))
    with pytest.raises(ValueError):
        specialize(U, TRING, bad)


def test_specialize_checks_each_distinct_table_once(monkeypatch):
    # the check reads only the series, so a table equal to one that passed
    # at the same (domain, order) passes again; the caller's map runs on
    # every call, and a map that breaks the grading or associativity raises
    # however warm the memo is
    checked = []
    check = fgl.check_law_series

    def counted(series):
        checked.append((series.dom.name, series.order))
        check(series)

    monkeypatch.setattr(fgl, "check_law_series", counted)
    fgl._passed_table.cache_clear()
    U = universal_fgl(9)
    for _ in range(3):
        law = specialize(U, TRING, lambda c: b_transport(c, TRING, chx_b_image))
        assert law.series == chx_fgl(9).series
    assert checked == [("T", 9)]
    specialize(universal_fgl(8), TRING, lambda c: b_transport(c, TRING, chx_b_image))
    assert checked == [("T", 9), ("T", 8)]
    bad = lambda c: b_transport(c, TRING, lambda i: TRING.monomial(i + 1, 1))
    with pytest.raises(ValueError, match="homogeneous"):
        specialize(U, TRING, bad)
    # F_12 = F_21 perturbed by t^2: unit, symmetry and grading hold
    f12 = U.coefficient(1, 2)

    def perturbed(c):
        v = b_transport(c, TRING, chx_b_image)
        return TRING.add(v, TRING.monomial(2, 1)) if c is f12 else v

    with pytest.raises(ValueError, match="associative"):
        specialize(U, TRING, perturbed)
    assert len(checked) == 4
    # only tables that passed enter the memo, and it keeps the last one per
    # (domain, order): b_i |-> (k t)^i is a ring map for every k
    assert fgl._passed_table(TRING, 9) == [chx_fgl(9).series.coeffs]
    for k in range(2, 9):
        specialize(U, TRING, lambda c, k=k: b_transport(c, TRING, lambda i: TRING.monomial(i, k ** i)))
    passed = fgl._passed_table(TRING, 9)
    assert len(checked) == 11 and len(passed) == 1
    assert chx_fgl(9).series.coeffs not in passed
    specialize(U, TRING, lambda c: b_transport(c, TRING, chx_b_image))
    assert len(checked) == 12


def _t_gen(i):
    return TRING.monomial(i, 1)


def _t_image(c):
    # b_i |-> t^i: a second ring map into ZZ[t], besides chx's b_i |-> (-t)^i
    return b_transport(c, TRING, _t_gen)


def test_store_laws_check_associativity_once_per_domain(monkeypatch):
    # every truncation of a store law holds the same coefficients, so one
    # check at the cap per (domain, map) covers all orders, below the cap as
    # well; a second map into the same domain gets its own check
    checked = []
    check = fgl._check_associativity

    def counted(f):
        checked.append((f.dom.name, f.order))
        check(f)

    monkeypatch.setattr(fgl, "_ASSOC_CHECKED", set())
    monkeypatch.setattr(fgl, "_check_associativity", counted)
    # the unwrapped constructors build new laws past the lru_cache
    for order in range(3, 13):
        universal_fgl.__wrapped__(order)
    for order in (3, 8, 12):
        universal_fgl_mod_p.__wrapped__(order, 2)
    for order in (3, 8, 12, 18):
        chx_fgl.__wrapped__(order)
        cha_fgl.__wrapped__(order)
    for order in (3, 12):
        fgl._store_law(TRING, order, _t_image)
    cap = fgl.ASSOC_CHECK_CAP
    T, E = TRING.name, TEPS.name
    assert checked == [("B(ZZ)", cap), ("B(ZZ/2)", cap), (T, cap), (E, cap), (T, cap)]


def test_law_construction_rejects_non_associative():
    # the store laws check associativity once per (domain, map); the check
    # that `specialize` runs is made in full even after that memo is warm
    universal_fgl(18)
    for order in (5, 18):
        U = universal_fgl(order)
        c = dict(U.series.coeffs)
        pert = B.gen(2)
        c[(1, 2)] = B.add(c[(1, 2)], pert)
        c[(2, 1)] = B.add(c[(2, 1)], pert)
        with pytest.raises(ValueError, match="associative"):
            check_law_series(TS(B, ("x", "y"), order, c))


def test_law_construction_rejects_bad_series():
    # 2x + y is not a law: fails F(x,0) = x
    s = TS(ZZ, ("x", "y"), 4, {(1, 0): 2, (0, 1): 1})
    with pytest.raises(ValueError):
        check_law_series(s)
    # x + y + x^2 fails unitality at x^2
    s = TS(ZZ, ("x", "y"), 4, {(1, 0): 1, (0, 1): 1, (2, 0): 1})
    with pytest.raises(ValueError):
        check_law_series(s)
    # a series in other variables is not a law series
    s = TS(ZZ, ("x",), 4, {(1,): 1})
    with pytest.raises(ValueError, match="variables"):
        check_law_series(s)


def test_horner_store_matches_pair_oracle_through_degree_20():
    # F_ab = sum_j L_j(a) M_j(b) against the by-k formula over every pair of
    # log-power entries: the same keys in the same order, and the same b-monomial
    # coefficients in every F_ab
    fgl._grow_universal(20)
    ref = universal_store_by_pairs(20)
    for d in range(1, 21):
        row = fgl._LAW_BY_DEGREE[d]
        assert list(row) == list(ref[d]), d
        for e, c in row.items():
            assert sorted(c.items()) == sorted(ref[d][e].items()), (d, e)


def test_lagrange_log_powers_match_convolution_oracle_through_degree_25():
    # each row of L_k(n) = [x^n] log(x)^k read off phi^(-n), phi = exp(z)/z,
    # against the convolution over the rows below it: the same keys in the
    # same order, and the same b-monomial coefficients in every entry; the
    # row of b_(k-1) L_k(n) that [a](x) reads matches too
    fgl._grow_log_powers(25)
    ref = log_powers_by_convolution(25)
    for n in range(26):
        row = fgl._LOG_POWERS[n]
        assert list(row) == list(ref[n]), n
        for k, v in row.items():
            assert sorted(v.items()) == sorted(ref[n][k].items()), (n, k)
        assert fgl._EXP_LOG[n] == {k: B.mul(B.gen(k - 1), v) if k > 1 else v for k, v in row.items()}, n


def test_store_maps_each_coefficient_pair_once():
    # F_ab = F_ba is one stored object, mapped once: the store to order 18
    # holds (1, 0), (0, 1) and F_ab for a, b >= 1, a + b < 18, so the pairs
    # with a <= b number 1 + sum_{d=2}^{17} floor(d/2) = 73, against the 138
    # keys of the series
    pairs = 1 + sum(d // 2 for d in range(2, 18))
    assert pairs == 73
    assert len(universal_fgl(18).series.coeffs) == 138
    calls = []

    def counted(c):
        calls.append(c)
        return fgl._chx_image(c)

    assert fgl._store_series(TRING, 18, counted) == chx_fgl(18).series
    assert len(calls) == pairs
    calls.clear()
    law = specialize(universal_fgl(18), TRING, counted)
    assert law.series == chx_fgl(18).series
    assert len(calls) == pairs


# a store law over each kind of coefficient domain, with the element of
# degree 1 - n that a perturbation of a total degree n coefficient adds
PERTURBED_LAWS = {
    "B(ZZ)": (universal_fgl, lambda n: B.gen(n - 1)),
    "ZZ[t]": (chx_fgl, lambda n: TRING.monomial(n - 1, 1)),
    "ZZ": (additive_fgl, lambda n: 1),
}


def _perturbed(kind, order, n, i, k, k_swap, cocycle):
    """The store law of `kind` at `order` with k g added at x^i y^(n-i) and
    k_swap g at x^(n-i) y^i, g of degree 1 - n; with `cocycle`,
    k g ((x+y)^n - x^n - y^n) is added instead, which keeps the law
    associative when n = order - 1."""
    constructor, g = PERTURBED_LAWS[kind]
    law = constructor(order)
    dom = law.dom
    c = dict(law.series.coeffs)
    if cocycle:
        adds = [((a, n - a), k * comb(n, a)) for a in range(1, n)]
    elif 2 * i == n:
        adds = [((i, i), k)]
    else:
        adds = [((i, n - i), k), ((n - i, i), k_swap)]
    for e, m in adds:
        c[e] = dom.add(c.get(e, dom.zero()), dom.int_scale(g(n), m))
    return TS(dom, ("x", "y"), order, c)


def _raised(check, f):
    """The message of the ValueError that check(f) raises, or None."""
    try:
        check(f)
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(PERTURBED_LAWS)),
    st.integers(5, 9),
    st.integers(0, 3),
    st.integers(1, 7),
    st.integers(-2, 2),
    st.one_of(st.none(), st.integers(-2, 2)),
    st.booleans(),
)
def test_rotation_check_raises_exactly_when_two_compositions_differ(
        kind, order, below, i, k, k_swap, cocycle):
    # perturb the coefficients of total degree n = order - 1 - below: as a
    # symmetric pair (k_swap None), as an asymmetric pair, or by a cocycle,
    # which keeps the law associative at the top degree; the rotation check
    # raises exactly when the two sides composed in full differ, and refuses
    # every asymmetric series as not commutative
    n = order - 1 - below
    i = 1 + (i - 1) % (n - 1)
    f = _perturbed(kind, order, n, i, k, k if k_swap is None else k_swap, cocycle)
    new = _raised(fgl._check_associativity, f)
    old = _raised(associative_by_two_compositions, f)
    assert (new is None) == (old is None), (new, old)
    if any(not f.dom.eq(c, f.coefficient((b, a))) for (a, b), c in f.coeffs.items()):
        assert "commutative" in new


@pytest.mark.parametrize("kind", sorted(PERTURBED_LAWS))
def test_rotation_check_on_fixed_perturbations(kind):
    # the store law and a top-degree cocycle pass both checks; a symmetric
    # monomial pair fails both; an asymmetric pair is refused as not
    # commutative, by the rotation check and by the full law check alike
    # (over ZZ, where a nonzero integer at x^i y^j breaks the grading, the
    # full check stops there first)
    cases = [
        (dict(n=6, i=1, k=0, k_swap=0, cocycle=False), None),
        (dict(n=6, i=2, k=1, k_swap=1, cocycle=True), None),
        (dict(n=4, i=1, k=1, k_swap=1, cocycle=False), "associative"),
        (dict(n=5, i=2, k=1, k_swap=0, cocycle=False), "commutative"),
    ]
    for args, message in cases:
        f = _perturbed(kind, 7, **args)
        new = _raised(fgl._check_associativity, f)
        assert (new is None) == (_raised(associative_by_two_compositions, f) is None), args
        if message is None:
            assert new is None, args
        else:
            assert message in new, args
            with pytest.raises(ValueError, match=message if kind != "ZZ" else "homogeneous"):
                check_law_series(f)
