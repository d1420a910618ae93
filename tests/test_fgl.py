import pytest

from cobcalc import fgl
from cobcalc.core_algebra import ZZ, TRING, TEPS, b_ring, int_mod, TruncatedSeries as TS
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
    formal_inverse,
    formal_mult,
)
from law_oracle import (
    additive_law_closed_form,
    b_transport_by_parts,
    cha_law_closed_form,
    chx_law_closed_form,
    law_without_store,
    universal_series_by_reversion,
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
    m = formal_inverse(U)
    x = TS.variable(B, ("x",), 6, "x")
    assert U.series.compose({"x": x, "y": m}).is_zero()
    assert m.coefficient((1,)) == B.from_int(-1)


def test_store_inverse_closes_through_order_18():
    for order in range(2, 19):
        U = universal_fgl(order)
        x = TS.variable(B, ("x",), order, "x")
        assert U.series.compose({"x": x, "y": formal_inverse(U)}).is_zero(), order


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
        assert formal_inverse(law) == ref.formal_inverse(), (order, p)
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
        assert formal_inverse(law) == ref.formal_inverse(), order
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


def test_additive_law():
    A = additive_fgl(6)
    assert formal_inverse(A) == TS.variable(ZZ, ("x",), 6, "x").neg()
    for a in range(-3, 4):
        assert formal_mult(A, a) == TS.variable(ZZ, ("x",), 6, "x").int_scale(a)


def test_chx_matches_specialized_universal():
    # every order after the order-18 transport has filled the monomial memo
    specialize(universal_fgl(18), TRING, lambda c: b_transport(c, TRING, chx_b_image))
    for order in range(2, 19):
        S = specialize(universal_fgl(order), TRING, lambda c: b_transport(c, TRING, chx_b_image))
        assert S.series == chx_fgl(order).series, order


def test_b_transport_memo_matches_oracle():
    coeffs = list(universal_fgl(12).series.coeffs.values())
    for _ in range(2):  # the second pass reads every monomial image from the memo
        for c in coeffs:
            assert b_transport(c, TEPS, cha_b_image) == b_transport_by_parts(c, TEPS, cha_b_image)


def _three(i):
    return 3


def test_b_transport_memo_keeps_domains_apart():
    # b_i |-> 3 is a ring map into ZZ and into ZZ/2 alike: the memoized
    # images of the same monomials must not cross from one to the other
    Z2 = int_mod(2)
    coeffs = list(universal_fgl(8).series.coeffs.values())
    for dom in (Z2, ZZ, Z2):
        for c in coeffs:
            assert b_transport(c, dom, _three) == b_transport_by_parts(c, dom, _three), dom.name


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
        closed = x.int_scale(a).mul(den.inverse())
        assert formal_mult(C, a) == closed


def test_mult_by_p_vanishes_mod_p():
    for p, order in ((2, 7), (3, 6), (5, 5)):
        L = universal_fgl_mod_p(order, p)
        assert formal_mult(L, p).is_zero()


def test_mod2_inverse_is_identity():
    L = universal_fgl_mod_p(7, 2)
    x = TS.variable(L.dom, ("x",), 7, "x")
    assert formal_inverse(L) == x


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
