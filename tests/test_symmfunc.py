import pytest
from hypothesis import given, settings, strategies as st

from cobcalc.core_algebra import ZHALF, ZZ, TRING, TEPS, b_ring, int_mod, partitions, sparse_add
from cobcalc.chow_models import (
    VarietySpec,
    VirtualSplitBundle,
    build_model,
    chern_number,
    chern_total,
    fundamental_class,
)
from cobcalc.symmfunc import (
    total_P,
    total_P_deformed,
    class_coefficient,
    pi_series,
    b_image_for,
)
from symm_oracle import (
    cf_class,
    chern_series_oracle,
    chern_total_oracle,
    elementary_class,
    lambda_coeffs,
    m_product,
    q_alpha,
    total_P_deformed_oracle,
    total_P_oracle,
)

B = b_ring(ZZ)


def test_q_alpha_oracles():
    assert q_alpha(()) == {(): 1}
    assert q_alpha((1,)) == {(1,): 1}
    assert q_alpha((2,)) == {(1, 1): 1, (2,): -2}
    assert q_alpha((1, 1)) == {(2,): 1}
    assert q_alpha((2, 1)) == {(2, 1): 1, (3,): -3}
    assert q_alpha((1, 1, 1)) == {(3,): 1}


def test_q_alpha_rejects_non_partition():
    with pytest.raises(ValueError):
        q_alpha((1, 2))
    with pytest.raises(ValueError):
        q_alpha((0,))


def test_m_product_oracle():
    assert m_product((1,), (1,)) == {(2,): 1, (1, 1): 2}
    assert m_product((2,), (1,)) == {(3,): 1, (2, 1): 1}
    assert m_product((), (2, 1)) == {(2, 1): 1}


def test_lambda_oracles():
    assert lambda_coeffs(()) == {(): 1}
    assert lambda_coeffs((1,)) == {(1,): -1}
    assert lambda_coeffs((2,)) == {(2,): -1}
    assert lambda_coeffs((1, 1)) == {(2,): 1, (1, 1): 1}
    assert lambda_coeffs((3,)) == {(3,): -1}  # single rows stay single rows


def test_pi_series_images():
    p = pi_series(B, 4)
    assert p.coefficient((0,)) == B.one()
    assert p.coefficient((2,)) == B.gen(2)
    q = pi_series(TRING, 4)
    assert q.coefficient((1,)) == {1: -1}  # b_1 -> -t
    assert q.coefficient((2,)) == {2: 1}
    r = pi_series(TEPS, 4)
    assert r.coefficient((3,)) == {(3, 1): 1}
    with pytest.raises(ValueError):
        b_image_for(ZZ)


def test_pi_inverse_square_series():
    # 1/pi(y)^2 = 1 - 2 b1 y + (3 b1^2 - 2 b2) y^2 - ...
    p = pi_series(B, 3)
    inv2 = p.mul(p).inverse()
    assert inv2.coefficient((1,)) == B.int_scale(B.gen(1), -2)
    expected = B.add(B.int_scale(B.mul(B.gen(1), B.gen(1)), 3), B.int_scale(B.gen(2), -2))
    assert inv2.coefficient((2,)) == expected


def test_total_P_neg_tangent_P1():
    m = build_model(VarietySpec.multiproj([1]))
    P = total_P(m.tangent().neg(), B)
    assert P == {(0,): B.one(), (1,): B.int_scale(B.gen(1), -2)}


def test_total_P_multiplicative_inverse():
    m = build_model(VarietySpec.multiproj([2, 1]))
    h0, h1 = m.gen_element(0), m.gen_element(1)
    E = VirtualSplitBundle(
        m, plus_lines=[h0, sparse_add(ZZ, h0, h1)], minus_lines=[h1], plus_trivial=1
    )
    prod = m.mul(B, total_P(E, B), total_P(E.neg(), B))
    assert prod == m.one(B)


def test_total_P_deformed_point_is_pi():
    pt = build_model(VarietySpec.point())
    E = VirtualSplitBundle(pt, plus_trivial=1)
    d = total_P_deformed(E, B, 3)
    assert d[0] == pt.one(B)
    assert d[2] == {(): B.gen(2)}
    dm = total_P_deformed(E.neg(), B, 2)
    assert dm[1] == {(): B.neg(B.gen(1))}  # 1/pi(y) starts 1 - b1 y


def test_total_P_deformed_specializes_to_tensor():
    # evaluating the y-deformation at y = c1(O(bh)) is tensoring by that line
    m = build_model(VarietySpec.multiproj([3]))
    h = m.gen_element(0)
    E = VirtualSplitBundle(m, plus_lines=[h])
    d = total_P_deformed(E, B, 3)
    two_h = {(1,): 2}
    acc = {}
    power = m.one(ZZ)
    for k in range(4):
        if k in d:
            acc = sparse_add(B, acc, m.mul(B, d[k], {e: B.from_int(c) for e, c in power.items()}))
        power = m.mul(ZZ, power, two_h)
    three_h = sparse_add(ZZ, h, two_h)
    direct = total_P(VirtualSplitBundle(m, plus_lines=[three_h]), B)
    assert acc == direct


def test_cf_class_oracles():
    p2 = build_model(VarietySpec.multiproj([2]))
    assert cf_class(p2.tangent().neg(), (2,)) == {(2,): -3}
    p3 = build_model(VarietySpec.multiproj([3]))
    assert cf_class(p3.tangent().neg(), (3,)) == {(3,): -4}
    assert cf_class(p3.tangent().neg(), (1, 1, 1)) == {(3,): -20}
    assert cf_class(p3.tangent().neg(), ()) == p3.one(ZZ)


def test_cf_class_on_honest_bundle():
    # O(1) + O(2) on P^2: c_(1) = 3h, c_(1,1) = e_2 = 2h^2, c_(2) = 5h^2
    m = build_model(VarietySpec.multiproj([2]))
    h = m.gen_element(0)
    E = VirtualSplitBundle(m, plus_lines=[h, {(1,): 2}])
    assert cf_class(E, (1,)) == {(1,): 3}
    assert cf_class(E, (1, 1)) == {(2,): 2}
    assert cf_class(E, (2,)) == {(2,): 5}


def test_lambda_identity_against_direct_classes():
    # c_alpha(-E) computed directly must match the lambda expansion in
    # classes of E
    m = build_model(VarietySpec.multiproj([2, 1]))
    h0, h1 = m.gen_element(0), m.gen_element(1)
    E = VirtualSplitBundle(m, plus_lines=[h0, h1, sparse_add(ZZ, h0, h1)])
    for alpha in [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1)]:
        direct = cf_class(E.neg(), alpha)
        expanded = {}
        for beta, nb in lambda_coeffs(alpha).items():
            term = cf_class(E, beta)
            expanded = sparse_add(ZZ, expanded, {e: nb * c for e, c in term.items()})
        assert direct == expanded, alpha


ORACLE_SPECS = {
    "P%d" % n: VarietySpec.multiproj([n]) for n in range(1, 6)
}
ORACLE_SPECS["P1xP2"] = VarietySpec.multiproj([1, 2])
ORACLE_SPECS["P2xP2"] = VarietySpec.multiproj([2, 2])
ORACLE_SPECS["P(O+O(1)+O(3))/P3"] = VarietySpec.projbundle(
    VarietySpec.multiproj([3]), [(0,), (1,), (3,)])


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_chern_numbers_match_elementary_route(name):
    # The production path reads every class off total_P and every Chern
    # number off the fundamental class; the oracle expands m_alpha in
    # elementary symmetric polynomials and evaluates it on c(-T).
    spec = ORACLE_SPECS[name]
    model = build_model(spec)
    neg_tan = model.tangent().neg()
    P = total_P(neg_tan, B)
    cls = fundamental_class(spec, "L")
    for w in range(6):
        for alpha in partitions(w):
            oracle = elementary_class(neg_tan, alpha)
            assert class_coefficient(P, alpha) == oracle, alpha
            want = model.degree(ZZ, oracle)
            assert cls.get(alpha, 0) == want, alpha
            assert chern_number(spec, alpha) == want, alpha


# ---------------------------------------------------------------------------
# every multiplicative class is one ChowModel.product; the routines it
# replaced are the oracles

_P1 = VarietySpec.multiproj([1])
_F1 = VarietySpec.projbundle(_P1, [(0,), (1,)])
PRODUCT_MODELS = [
    VarietySpec.multiproj([2]),
    VarietySpec.multiproj([1, 2]),
    VarietySpec.product([_P1, _F1]),
    VarietySpec.projbundle(VarietySpec.multiproj([2]), [(0,), (1,), (3,)]),
    VarietySpec.projbundle(_F1, [(0, 0), (1, 0), (0, 1)]),
]
PRODUCT_DOMAINS = [ZZ, B, b_ring(ZHALF), TRING, TEPS, b_ring(int_mod(3))]


@st.composite
def _virtual_bundles(draw):
    model = build_model(draw(st.sampled_from(PRODUCT_MODELS)))
    vec = st.lists(st.integers(-2, 2), min_size=len(model.gens), max_size=len(model.gens))

    def line(v):
        return {tuple(int(i == j) for j in range(len(v))): c for i, c in enumerate(v) if c}

    plus = [line(v) for v in draw(st.lists(vec, max_size=3))]
    minus = [line(v) for v in draw(st.lists(vec, max_size=2))]
    trivial = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    return VirtualSplitBundle(model, plus, minus, *trivial)


@settings(max_examples=40, deadline=None)
@given(_virtual_bundles(), st.sampled_from(PRODUCT_DOMAINS), st.integers(0, 3))
def test_products_match_oracles(E, dom, y_max):
    model = E.model
    assert chern_total(model, dom, E) == chern_total_oracle(model, dom, E)
    if dom is not ZZ:
        assert total_P(E, dom) == total_P_oracle(E, dom)
        assert total_P_deformed(E, dom, y_max) == total_P_deformed_oracle(E, dom, y_max)


@settings(max_examples=40, deadline=None)
@given(_virtual_bundles(), st.lists(st.booleans(), max_size=5), st.integers(0, 4))
def test_z_graded_product_matches_chern_series(E, shifted, z_max):
    # roots 1 + l are inhomogeneous; the factor 1 + z r keeps them apart by
    # the auxiliary degree z, and a divided root s is the factor sum_j (-z s)^j
    model = E.model
    one = model.one(ZZ)
    roots = [sparse_add(ZZ, one, l) if s else l for l, s in zip(E.plus_lines, shifted)]
    roots += list(E.plus_lines[len(roots):]) + [one] * E.plus_trivial
    minus = list(E.minus_lines) + [one] * E.minus_trivial

    def inverse(s):
        powers = [one]
        for _ in range(z_max):
            powers.append(model.mul(ZZ, powers[-1], s))
        return {j: {e: (-1) ** j * c for e, c in p.items()} for j, p in enumerate(powers) if p}

    factors = [{0: one, 1: r} for r in roots] + [inverse(s) for s in minus]
    got = model.product(ZZ, factors, z_max)
    want = chern_series_oracle(model, roots, minus, z_max)
    assert [got.get(j, {}) for j in range(z_max + 1)] == want


_P2 = VarietySpec.multiproj([2])
_F1 = VarietySpec.projbundle(VarietySpec.multiproj([1]), [[0], [1]])


@pytest.mark.parametrize(
    "spec",
    [
        VarietySpec.multiproj([4]),
        VarietySpec.multiproj([1, 2]),
        VarietySpec.product([_P2, _F1]),
        VarietySpec.projbundle(_P2, [[0], [-1], [2]]),
        VarietySpec.projbundle(_F1, [[0, 0], [1, -1], [0, 2]]),
    ],
    ids=["multiproj", "multiproj2", "product", "projbundle-neg-line", "projbundle-over-projbundle"],
)
def test_single_row_class_of_tangent_changes_sign(spec):
    """[b_k]P(T) is the k-th power sum of the tangent roots, additive in the
    bundle, so it is -[b_k]P(-T); verify_additive reads it off P(-T)."""
    model = build_model(spec)
    tan = model.tangent()
    p_tan, p_neg = total_P(tan, B), total_P(tan.neg(), B)
    assert class_coefficient(p_tan, (1,))  # c_1(T) is nonzero on every model here
    for k in range(1, model.dim + 1):
        neg = class_coefficient(p_neg, (k,))
        assert class_coefficient(p_tan, (k,)) == {e: -c for e, c in neg.items()}, k
