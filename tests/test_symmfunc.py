import json

import pytest
from hypothesis import example, given, settings, strategies as st

from cobcalc import clear_caches
from cobcalc.cli import main
from cobcalc.core_algebra import (
    ZHALF, ZZ, TRING, TEPS, TruncatedSeries, _series_power, b_ring, int_mod, partitions,
    sparse_from_int, sparse_lincomb,
)
from cobcalc.chow_models import (
    VarietySpec,
    VirtualSplitBundle,
    build_model,
    chern_number,
    chern_total,
    fundamental_class,
    multiplicative_class,
    pi_series,
    total_P,
    total_P_deformed,
)
from kernel_oracle import series_inverse
from symm_oracle import (
    b_image_for,
    cf_class,
    class_coefficient,
    chern_series_oracle,
    chern_total_oracle,
    elementary_class,
    lambda_coeffs,
    m_product,
    multiplicative_class_by_factors,
    power_by_inverse,
    q_alpha,
    total_P_deformed_oracle,
    total_P_oracle,
    transport,
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
    # pi is built over B(ZZ); its image in another theory is its transport
    p = pi_series(4)
    assert p.coefficient((0,)) == B.one()
    assert p.coefficient((2,)) == B.gen(2)
    q = transport(p.coeffs, TRING)
    assert q[(1,)] == {1: -1}  # b_1 -> -t
    assert q[(2,)] == {2: 1}
    r = transport(p.coeffs, TEPS)
    assert r[(3,)] == {(3, 1): 1}
    with pytest.raises(ValueError):
        b_image_for(ZZ)


def test_pi_inverse_square_series():
    # 1/pi(y)^2 = 1 - 2 b1 y + (3 b1^2 - 2 b2) y^2 - ...
    p = pi_series(3)
    inv2 = series_inverse(p.mul(p))
    assert inv2.coefficient((1,)) == B.int_scale(B.gen(1), -2)
    expected = B.add(B.int_scale(B.mul(B.gen(1), B.gen(1)), 3), B.int_scale(B.gen(2), -2))
    assert inv2.coefficient((2,)) == expected


def test_total_P_neg_tangent_P1():
    m = build_model(VarietySpec.multiproj([1]))
    P = total_P(m.tangent().neg())
    assert P == {(0,): B.one(), (1,): B.int_scale(B.gen(1), -2)}


def test_total_P_multiplicative_inverse():
    m = build_model(VarietySpec.multiproj([2, 1]))
    E = VirtualSplitBundle(m, plus_lines=[(1, 0), (1, 1)], minus_lines=[(0, 1)], plus_trivial=1)
    prod = m.mul(B, total_P(E), total_P(E.neg()))
    assert prod == m.one(B)


def test_total_P_deformed_point_is_pi():
    pt = build_model(VarietySpec.point())
    E = VirtualSplitBundle(pt, plus_trivial=1)
    d = total_P_deformed(E, 3)
    assert d[0] == pt.one(B)
    assert d[2] == {(): B.gen(2)}
    dm = total_P_deformed(E.neg(), 2)
    assert dm[1] == {(): B.neg(B.gen(1))}  # 1/pi(y) starts 1 - b1 y


def test_total_P_deformed_specializes_to_tensor():
    # evaluating the y-deformation at y = c1(O(bh)) is tensoring by that line
    m = build_model(VarietySpec.multiproj([3]))
    E = VirtualSplitBundle(m, plus_lines=[(1,)])
    d = total_P_deformed(E, 3)
    two_h = m.line_class((2,))
    acc = {}
    power = m.one(ZZ)
    for k in range(4):
        if k in d:
            acc = sparse_lincomb(B, ((acc, 1), (m.mul(B, d[k], {e: B.from_int(c) for e, c in power.items()}), 1)))
        power = m.mul(ZZ, power, two_h)
    direct = total_P(VirtualSplitBundle(m, plus_lines=[(3,)]))
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
    E = VirtualSplitBundle(m, plus_lines=[(1,), (2,)])
    assert cf_class(E, (1,)) == {(1,): 3}
    assert cf_class(E, (1, 1)) == {(2,): 2}
    assert cf_class(E, (2,)) == {(2,): 5}


def test_lambda_identity_against_direct_classes():
    # c_alpha(-E) computed directly must match the lambda expansion in
    # classes of E
    m = build_model(VarietySpec.multiproj([2, 1]))
    E = VirtualSplitBundle(m, plus_lines=[(1, 0), (0, 1), (1, 1)])
    for alpha in [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1)]:
        direct = cf_class(E.neg(), alpha)
        expanded = {}
        for beta, nb in lambda_coeffs(alpha).items():
            term = cf_class(E, beta)
            expanded = sparse_lincomb(ZZ, ((expanded, 1), ({e: nb * c for e, c in term.items()}, 1)))
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
    P = total_P(neg_tan)
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
    plus = draw(st.lists(vec, max_size=3))
    minus = draw(st.lists(vec, max_size=2))
    trivial = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    return VirtualSplitBundle(model, plus, minus, *trivial)


@settings(max_examples=40, deadline=None)
@given(_virtual_bundles(), st.sampled_from(PRODUCT_DOMAINS), st.integers(0, 3))
def test_products_match_oracles(E, dom, y_max):
    # the Chern class is taken over ZZ and P over B(ZZ); each oracle works
    # in dom, so it checks the reduction or the transport of that one class
    model = E.model
    assert sparse_from_int(dom, chern_total(E)) == chern_total_oracle(model, dom, E)
    if dom is not ZZ:
        assert transport(total_P(E), dom) == total_P_oracle(E, dom)
        deformed = {k: transport(elt, dom) for k, elt in total_P_deformed(E, y_max).items()}
        assert {k: elt for k, elt in deformed.items() if elt} == total_P_deformed_oracle(E, dom, y_max)


# Equal roots are one factor phi^k(u + y) by their net multiplicity k; the
# route with one factor per root is the oracle.  Roots are drawn from a pool
# of at most three line vectors, so lines repeat and a plus and a minus copy
# of one line cancel.  The domains are the ones the package passes in: ZZ
# for Chern classes (phi = 1 + t, or any integer series with phi(0) = 1) and
# B(ZZ) for P and its deformation (phi = pi).


def _pooled_bundle(model_index, pool, plus, minus, trivial):
    """A bundle whose roots are lines of the pool, picked by index mod its
    length; each line vector is cut to the model's generators."""
    model = build_model(PRODUCT_MODELS[model_index])
    lines = [v[:len(model.gens)] for v in pool]

    def pick(indices):
        return [lines[k % len(lines)] for k in indices]

    return VirtualSplitBundle(model, pick(plus), pick(minus), *trivial)


def _phi(dom, tail, order):
    """pi over B(ZZ); over ZZ, 1 + t, or 1 + sum_i tail[i] t^(i+1)."""
    if dom is B:
        return pi_series(order)
    coeffs = {(i + 1,): c for i, c in enumerate([1] if tail is None else tail)}
    return TruncatedSeries(ZZ, ("t",), order, {(0,): 1, **coeffs})


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, len(PRODUCT_MODELS) - 1),
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), max_size=5),
    st.lists(st.integers(0, 2), max_size=4),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([ZZ, B]),
    st.none() | st.lists(st.integers(-3, 3), max_size=6),
    st.integers(0, 3),
)
# a line three times, cancelled once, on a nested projective bundle
@example(4, [[1, -1, 0]], [0, 0, 0], [0], (0, 0), B, None, 2)
# a plus and a minus copy of one line cancel exactly; trivial summands shift
@example(2, [[0, 1, 0], [1, 0, 0]], [0, 1], [0], (2, 1), B, None, 3)
# only minus roots, repeated, with a trivial minus summand, on a multiproj
@example(1, [[1, 1, 0]], [], [0, 0, 0], (0, 1), ZZ, [2, -1, 3], 2)
def test_grouped_roots_match_one_factor_per_root(i, pool, plus, minus, trivial, dom, tail, y_max):
    E = _pooled_bundle(i, pool, plus, minus, trivial)
    phi = _phi(dom, tail, E.model.dim + y_max + 1)
    assert multiplicative_class(E, phi, y_max) == multiplicative_class_by_factors(E, phi, y_max)


@settings(max_examples=40, deadline=None)
@given(_virtual_bundles(), st.lists(st.booleans(), max_size=5), st.integers(0, 4))
def test_z_graded_product_matches_chern_series(E, shifted, z_max):
    # roots 1 + l are inhomogeneous; the factor 1 + z r keeps them apart by
    # the auxiliary degree z, and a divided root s is the factor sum_j (-z s)^j
    model = E.model
    one = model.one(ZZ)
    lines = [model.line_class(v) for v in E.plus_lines]
    roots = [sparse_lincomb(ZZ, ((one, 1), (l, 1))) if s else l for l, s in zip(lines, shifted)]
    roots += lines[len(roots):] + [one] * E.plus_trivial
    minus = [model.line_class(v) for v in E.minus_lines] + [one] * E.minus_trivial

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
    bundle, so it is -[b_k]P(-T); the additive oracle reads it off P(-T)."""
    model = build_model(spec)
    tan = model.tangent()
    p_tan, p_neg = total_P(tan), total_P(tan.neg())
    assert class_coefficient(p_tan, (1,))  # c_1(T) is nonzero on every model here
    for k in range(1, model.dim + 1):
        neg = class_coefficient(p_neg, (k,))
        assert class_coefficient(p_tan, (k,)) == {e: -c for e, c in neg.items()}, k


# ---------------------------------------------------------------------------
# every power of a series in one pass: Miller's recurrence against binary
# powering, after the series inverse for a negative power.  Powers are taken
# over integer coefficients only: ZZ, B(ZZ), and Z[t] and Z[t,eps]/eps^2,
# where pi is the transport of pi over B(ZZ).

def _pi_in(dom, order):
    return TruncatedSeries(dom, ("y",), order, transport(pi_series(order).coeffs, dom))


_b_parts = st.lists(st.integers(1, 3), max_size=2).map(lambda l: tuple(sorted(l, reverse=True)))
_small = st.integers(-3, 3).filter(bool)
_POWER_DOMAINS = [
    (ZZ, _small),
    (B, st.dictionaries(_b_parts, _small, min_size=1, max_size=2)),
    (TRING, st.dictionaries(st.integers(0, 3), _small, min_size=1, max_size=2)),
    (TEPS, st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), _small,
                           min_size=1, max_size=2)),
]
_exponents = st.sampled_from([1, -1, 2, -2, 33, -33]) | st.integers(-33, 33).filter(bool)


@st.composite
def _power_cases(draw):
    """phi with phi(0) = 1 over one of the domains, pi itself or drawn, and
    two exponents; the second sometimes cancels the first."""
    dom, coeff = draw(st.sampled_from(_POWER_DOMAINS))
    order = draw(st.integers(1, 6))
    if dom is not ZZ and draw(st.booleans()):
        phi = _pi_in(dom, order)
    else:
        phi = TruncatedSeries(dom, ("y",), order, {
            (0,): dom.one(), **{(j,): c for j, c in draw(
                st.dictionaries(st.integers(1, max(order - 1, 1)), coeff, max_size=3)).items()}})
    k = draw(_exponents)
    j = -k if draw(st.booleans()) else draw(_exponents)
    return phi, k, j


@settings(max_examples=150, deadline=None)
@given(_power_cases())
def test_series_power_matches_binary_powering(case):
    phi, k, j = case
    got = _series_power(phi, k)
    assert got == power_by_inverse(phi, k)
    one = TruncatedSeries.constant(phi.dom, phi.vars, phi.order, phi.dom.one())
    assert got.mul(_series_power(phi, j)) == (_series_power(phi, k + j) if k + j else one)


@pytest.mark.parametrize("dom", [dom for dom, _ in _POWER_DOMAINS[1:]], ids=lambda dom: dom.name)
def test_series_power_of_pi_matches_binary_powering(dom):
    # (1/pi)^(n+1) is the class factor of P^n; every coefficient of pi is
    # nonzero, so each division by m is exercised
    pi = _pi_in(dom, 9)
    for k in (-9, -2, -1, 2, 5, 33):
        assert _series_power(pi, k) == power_by_inverse(pi, k), k


@pytest.mark.parametrize("dom", [ZHALF, int_mod(3), b_ring(ZHALF), b_ring(int_mod(3))],
                         ids=lambda dom: dom.name)
def test_series_power_needs_integer_coefficients(dom):
    # Miller's division by m is exact only over the integers; no class is
    # taken over another base, so the power refuses one
    with pytest.raises(ValueError, match="integer coefficients"):
        _series_power(TruncatedSeries(dom, ("y",), 4, {(0,): dom.one()}), 3)


def test_series_power_needs_unit_constant_term():
    for c in (2, -1):
        with pytest.raises(ValueError, match="phi\\(0\\) must be 1"):
            _series_power(TruncatedSeries(ZZ, ("y",), 4, {(0,): c, (1,): 1}), 2)


def test_series_power_remainder_raises_and_exits_3(capsys, monkeypatch):
    # a dot that is off by one leaves a remainder at y^2; on the class path
    # the CLI reports it as an internal error
    real = type(B).dot
    monkeypatch.setattr(B, "dot", lambda terms: sparse_lincomb(ZZ, ((real(B, terms), 1), ({(): 1}, 1))))
    with pytest.raises(AssertionError, match="remainder at y\\^2"):
        _series_power(pi_series(4), -3)
    clear_caches()
    code = main(["chern", "--spec", json.dumps({"type": "multiproj", "dims": [3]})])
    captured = capsys.readouterr()
    monkeypatch.undo()
    clear_caches()
    obj = json.loads(captured.out)
    assert code == 3 and obj["status"] == "internal-error"
    assert "Miller's recurrence" in obj["error"]
    assert "Traceback" not in captured.err
