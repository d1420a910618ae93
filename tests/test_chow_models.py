import itertools
import random

import pytest

from cobcalc.core_algebra import ZZ, TRING, TEPS, IntDomain, b_ring
from cobcalc.fgl import b_transport, chx_b_image, cha_b_image
from cobcalc.fixedpoint import _line_element
from cobcalc.chow_models import (
    VarietySpec,
    VirtualSplitBundle,
    ChowModel,
    build_model,
    tangent_bundle,
    chern_total,
    chern_class,
    quillen_pushforward,
    fundamental_class,
    euler_number,
    chern_number,
    additive_chern_number,
    _pad,
)
from symm_oracle import normal_basis, projbundle_relation, pushforward_projbundle

B = b_ring(ZZ)

P1 = VarietySpec.multiproj([1])
P2 = VarietySpec.multiproj([2])
P3 = VarietySpec.multiproj([3])
F1 = VarietySpec.projbundle(P1, [(0,), (1,)])


# ---------------------------------------------------------------------------
# specs

def test_spec_json_round_trip():
    specs = [
        P3,
        F1,
        VarietySpec.product([P1, P2]),
        VarietySpec.disjoint([P1, P1]),
        VarietySpec.projbundle(F1, [(0, 0), (1, 2), (0, 1)]),
    ]
    for s in specs:
        assert VarietySpec.from_json(s.to_json()) == s


def test_spec_canonical_merges_multiproj_products():
    p = VarietySpec.product([P1, VarietySpec.product([P2, P1])])
    c = p.canonical()
    assert c.kind == "multiproj" and c.dims == (1, 2, 1)
    assert c.dim() == 4
    single = VarietySpec.product([F1]).canonical()
    assert single == F1.canonical()


def test_spec_validation():
    with pytest.raises(ValueError):
        VarietySpec.multiproj([-1])
    with pytest.raises(ValueError):
        VarietySpec.projbundle(P1, [])
    with pytest.raises(ValueError):
        VarietySpec.disjoint([P1, P2])  # unequal dimensions
    with pytest.raises(ValueError):
        VarietySpec.from_json({"dims": [1]})
    with pytest.raises(ValueError):
        VarietySpec.from_json({"type": "weird"})


def test_spec_dims():
    assert VarietySpec.point().dim() == 0
    assert F1.dim() == 2
    assert VarietySpec.projbundle(P2, [(0,), (1,), (2,)]).dim() == 4


# ---------------------------------------------------------------------------
# models and ring structure

def test_multiproj_ring():
    m = build_model(VarietySpec.multiproj([1, 2]))
    assert m.dim == 3
    assert [len(normal_basis(m, k)) for k in range(4)] == [1, 2, 2, 1]
    h0, h1 = m.gen_element(0), m.gen_element(1)
    top = m.mul(ZZ, h0, m.mul(ZZ, h1, h1))
    assert m.degree(ZZ, top) == 1
    assert m.mul(ZZ, h0, h0) == {}
    assert m.reduce((0, 3)) == {}


def test_point_model():
    m = build_model(VarietySpec.point())
    assert m.dim == 0 and m.gens == ()
    assert m.degree(ZZ, m.one(ZZ)) == 1


def test_f1_relation_and_degree():
    m = build_model(F1)
    assert m.dim == 2
    # xi^2 = -h xi
    assert m.reduce((0, 2)) == {(1, 1): -1}
    assert m.degree(ZZ, m.normalize(ZZ, {(0, 2): 1})) == -1
    assert m.degree(ZZ, m.normalize(ZZ, {(1, 1): 1})) == 1
    assert len(normal_basis(m, 1)) == 2


def _relations_by_oracle(model):
    """The xi table of a chain of projective bundles, every relation built
    from unreduced elementary symmetric polynomials of the roots."""
    if model.base_model is None:
        return dict(model.xi)
    base = model.base_model
    nb = len(base.gens)
    xi = {off: (r, _pad(rule, 0, nb + 1)) for off, (r, rule) in _relations_by_oracle(base).items()}
    xi[nb] = (len(model.bundle_lines), projbundle_relation(model.bundle_lines, nb))
    return xi


@pytest.mark.parametrize("spec", [
    F1,
    VarietySpec.projbundle(F1, [(0, 0), (1, 0), (0, 1)]),
    VarietySpec.projbundle(VarietySpec.projbundle(P2, [(0,), (1,), (3,)]), [(1, 0), (0, 1), (2, -1)]),
    VarietySpec.projbundle(VarietySpec.projbundle(P3, [(0,), (2,)]), [(0, 0), (1, 1), (-1, 2)]),
])
def test_reduce_matches_unreduced_relation(spec):
    # the relation xi^r = -sum c_i(V) xi^(r-i) takes c(V) reduced on the
    # base; it is the same relation, so every normal form must agree with
    # the one under the unreduced e_i of the roots
    model = build_model(spec)
    old = ChowModel(spec.canonical())
    old.xi = _relations_by_oracle(model)
    for exp in itertools.product(*[range(b + 3) for b in model._bounds]):
        assert model.reduce(exp) == old.reduce(exp), exp


@pytest.mark.parametrize("spec", [
    VarietySpec.point(),
    VarietySpec.multiproj([1, 2, 0]),
    F1,
    VarietySpec.product([F1, P2]),
    VarietySpec.projbundle(VarietySpec.projbundle(P2, [(0,), (1,), (3,)]), [(1, 0), (0, 1), (2, -1)]),
])
def test_top_piece_is_the_bounds_monomial(spec):
    # ChowModel.degree reads the coefficient of the bounds tuple, and the
    # twisted Chern classes of the ks verifier ignore subtracted tangent lines
    m = build_model(spec)
    assert normal_basis(m, m.dim) == [m._bounds]
    assert not m.tangent().minus_lines


class _CountingZZ(IntDomain):
    """ZZ that counts its coefficient products: every sum of products goes
    through `dot`, one product per (a, b, k) term."""

    products = 0

    def dot(self, terms):
        terms = list(terms)
        self.products += len(terms)
        return super().dot(terms)


def test_mul_skips_products_that_reduce_to_zero():
    # (1 + h + h^2)^2 on P^2: the three pairs of total exponent above 2
    # reduce to zero and are never multiplied
    m = build_model(P2)
    dom = _CountingZZ()
    u = {(0,): 1, (1,): 1, (2,): 1}
    assert m.mul(dom, u, u) == {(0,): 1, (1,): 2, (2,): 3}
    assert dom.products == 6


def test_bundle_line_length_checked():
    with pytest.raises(ValueError):
        build_model(VarietySpec.projbundle(P2, [(1, 2)]))


def test_f1_tangent():
    m = build_model(F1)
    T = m.tangent()
    assert T.rank == 2
    assert T.minus_trivial == 2 and not T.minus_lines
    lines = sorted(tuple(sorted(l.items())) for l in T.plus_lines)
    h = ((1, 0), 1)
    xi = ((0, 1), 1)
    assert lines == sorted([(h,), (h,), (xi,), tuple(sorted([h, xi]))])


def test_product_model_of_bundles():
    sq = VarietySpec.product([F1, F1])
    m = build_model(sq)
    assert m.dim == 4
    assert len(m.gens) == 4
    assert len(normal_basis(m, 4)) == 1
    assert m.degree(ZZ, m.normalize(ZZ, {(1, 1, 1, 1): 1})) == 1
    assert euler_number(sq) == 16


def test_disjoint_model():
    d = VarietySpec.disjoint([P1, P1])
    with pytest.raises(ValueError, match="disjoint"):
        build_model(d)
    assert euler_number(d) == 4
    assert fundamental_class(d, "L") == B.int_scale(B.gen(1), -4)
    with pytest.raises(ValueError):
        tangent_bundle(d)


# ---------------------------------------------------------------------------
# bundles and characteristic classes

def test_virtual_bundle_trivial_cancellation():
    m = build_model(P1)
    E = VirtualSplitBundle(m, plus_trivial=3, minus_trivial=1)
    assert E.plus_trivial == 2 and E.minus_trivial == 0
    T = m.tangent()  # 2 O(h) - 1
    N = VirtualSplitBundle(m, T.plus_lines, T.minus_lines, T.plus_trivial, T.minus_trivial)
    assert N.add_trivial(1).is_honest()


def test_virtual_bundle_rejects_inhomogeneous_line():
    m = build_model(P2)
    with pytest.raises(ValueError):
        VirtualSplitBundle(m, plus_lines=[{(2,): 1}])


def test_chern_total_p3():
    m = build_model(P3)
    c = chern_total(m, ZZ, m.tangent())
    assert c == {(0,): 1, (1,): 4, (2,): 6, (3,): 4}
    cneg = chern_total(m, ZZ, m.tangent().neg())
    assert cneg == {(0,): 1, (1,): -4, (2,): 10, (3,): -20}
    assert chern_class(m, ZZ, m.tangent(), 2) == {(2,): 6}


def test_euler_numbers():
    assert euler_number(VarietySpec.point()) == 1
    assert [euler_number(VarietySpec.multiproj([n])) for n in range(1, 5)] == [2, 3, 4, 5]
    assert euler_number(VarietySpec.multiproj([1, 1])) == 4
    assert euler_number(F1) == 4


def test_chern_numbers():
    assert chern_number(P3, (1, 1, 1)) == -20
    assert chern_number(P3, (3,)) == -4
    assert chern_number(P3, (2, 1)) == 20
    assert chern_number(P2, (2,)) == -3
    assert chern_number(P2, (1,)) == 0  # weight below the dimension
    assert additive_chern_number(VarietySpec.multiproj([1, 1])) == 0
    assert additive_chern_number(VarietySpec.multiproj([1, 1, 1])) == 0
    assert additive_chern_number(VarietySpec.point()) == 1
    with pytest.raises(ValueError, match="alpha must be a partition"):
        chern_number(P3, (1, 2))
    with pytest.raises(ValueError, match="alpha must be a partition"):
        chern_number(P3, (0,))
    with pytest.raises(ValueError, match="alpha must be a partition"):
        chern_number(P1, (True,))


def test_fundamental_classes():
    assert fundamental_class(P1, "L") == B.int_scale(B.gen(1), -2)
    assert fundamental_class(P2, "L") == {(2,): -3, (1, 1): 6}
    sq = VarietySpec.multiproj([1, 1])
    assert fundamental_class(sq, "L") == B.monomial((1, 1), 4)
    assert fundamental_class(F1, "L") == B.monomial((1, 1), 4)
    assert fundamental_class(P3, "CHX") == {3: 4}
    assert fundamental_class(P2, "CHA") == {(2, 1): -3}
    assert fundamental_class(VarietySpec.point(), "CHA") == {(0, 0): 1}
    assert fundamental_class(P2, "L_p", p=2) == {(2,): 1}
    for p in (None, 1, 4, True):
        with pytest.raises(ValueError, match="theory L_p needs a prime p"):
            fundamental_class(P2, "L_p", p=p)
    with pytest.raises(ValueError):
        fundamental_class(P2, "nope")


def test_fundamental_class_transport_consistency():
    # the closed-form theories are images of the universal class
    for spec in [P1, P2, P3, F1, VarietySpec.multiproj([1, 1])]:
        cls = fundamental_class(spec, "L")
        assert b_transport(cls, TRING, chx_b_image) == fundamental_class(spec, "CHX")
        assert b_transport(cls, TEPS, cha_b_image) == fundamental_class(spec, "CHA")


# ---------------------------------------------------------------------------
# pushforwards

def test_pushforward_projbundle_f1():
    m = build_model(F1)
    base, out = pushforward_projbundle(m, {(0, 0): 1})  # p_*(1) = 0
    assert out == {}
    base, out = pushforward_projbundle(m, {(0, 1): 1})  # p_*(xi) = 1
    assert out == base.one(ZZ)
    base, out = pushforward_projbundle(m, {(0, 2): 1})  # p_*(xi^2) = c_1(-V) = -h
    assert out == {(1,): -1}


def test_pushforward_matches_reduce_then_push():
    spec = VarietySpec.projbundle(P2, [(0,), (1,), (2,)])
    m = build_model(spec)
    rng = random.Random(11)
    for _ in range(25):
        e = (rng.randrange(4), rng.randrange(7))
        u = {e: rng.randrange(-4, 5)}
        _, direct = pushforward_projbundle(m, u)
        _, reduced = pushforward_projbundle(m, m.normalize(ZZ, u))
        assert direct == reduced, e


def test_quillen_point_trivial_bundle():
    pt = VarietySpec.point()
    ptm = build_model(pt)
    V = VirtualSplitBundle(ptm, plus_trivial=2)
    vals = [quillen_pushforward(pt, V, m, B) for m in range(4)]
    assert vals[0] == B.int_scale(B.gen(1), -2)  # class of the line
    assert vals[1] == B.one()
    assert vals[2] == B.zero()
    assert vals[3] == B.zero()


def test_quillen_m0_is_bundle_class():
    p1m = build_model(P1)
    V = VirtualSplitBundle(p1m, plus_lines=[p1m.gen_element(0)], plus_trivial=1)
    got = quillen_pushforward(P1, V, 0, B)
    pb = VarietySpec.projbundle(P1, [(1,), (0,)])
    assert got == fundamental_class(pb, "L")


def test_quillen_trivial_bundle_factorizes():
    for n_s, r in [(1, 2), (2, 2), (1, 3)]:
        S = VarietySpec.multiproj([n_s])
        sm = build_model(S)
        V = VirtualSplitBundle(sm, plus_trivial=r)
        s_cls = fundamental_class(S, "L")
        for m in range(r):
            got = quillen_pushforward(S, V, m, B)
            want = B.mul(fundamental_class(VarietySpec.multiproj([r - 1 - m]), "L"), s_cls)
            assert got == want, (n_s, r, m)


def test_quillen_chx_closed_form():
    # over the closed-form theory the answer is (r-m) t^{r-1-m} times the
    # euler class of the base, for a trivial bundle
    S = P1
    sm = build_model(S)
    V = VirtualSplitBundle(sm, plus_trivial=3)
    for m in range(5):
        got = quillen_pushforward(S, V, m, TRING)
        k = 3 - 1 - m
        want = TRING.monomial(k + 1, (3 - m) * 2) if k >= 0 else TRING.zero()
        assert got == want, m


def _bundles(model, specs):
    return [
        VirtualSplitBundle(model, [_line_element(model, v) for v in lines], (), triv)
        for lines, triv in specs
    ]


QUILLEN_CASES = [
    # (base, [(line vectors, trivial rank), ...]): bundles that share a base
    # differ only in their lines or only in their trivial rank
    (VarietySpec.point(), [((), 2), ((), 3)]),
    (P2, [(((1,), (1,)), 1), (((1,), (2,)), 1), (((1,), (1,)), 2)]),
    (VarietySpec.multiproj([1, 1]), [(((1, 0), (0, 1)), 0), (((1, 1),), 1)]),
    (F1, [(((0, 1), (1, 0)), 1)]),
]


QUILLEN_DOMAINS = (B, TRING, TEPS)


@pytest.mark.parametrize("spec, specs", QUILLEN_CASES)
def test_quillen_cache_order_independent(spec, specs):
    # reference: one fresh model per bundle, twist and domain, so neither the
    # residue data nor the powers of pi come from a memo
    want = {}
    for idx, (lines, triv) in enumerate(specs):
        for dom in QUILLEN_DOMAINS:
            for m in range(len(lines) + triv + spec.dim() + 1):
                model = ChowModel(spec)
                V = _bundles(model, [(lines, triv)])[0]
                want[idx, m, dom.name] = quillen_pushforward(model, V, m, dom)
    # all bundles on one fresh model, twists and domains interleaved in a
    # shuffled order
    model = ChowModel(spec)
    bundles = _bundles(model, specs)
    doms = {dom.name: dom for dom in QUILLEN_DOMAINS}
    calls = list(want)
    random.Random(5).shuffle(calls)
    for idx, m, name in calls:
        got = quillen_pushforward(model, bundles[idx], m, doms[name])
        assert got == want[idx, m, name], (idx, m, name)
    # the shared model agrees too
    shared = build_model(spec)
    for idx, V in enumerate(_bundles(shared, specs)):
        for dom in QUILLEN_DOMAINS:
            for m in range(V.rank + shared.dim + 1):
                assert quillen_pushforward(shared, V, m, dom) == want[idx, m, dom.name], (idx, m)


def test_quillen_cache_keeps_domains_apart():
    # the closed-form TRING values of test_quillen_chx_closed_form, after a
    # B call on the same bundle has filled the model's cache
    sm = ChowModel(P1)
    V = VirtualSplitBundle(sm, plus_trivial=3)
    assert quillen_pushforward(sm, V, 0, B) == fundamental_class(
        VarietySpec.projbundle(P1, [(0,)] * 3), "L")
    for m in range(5):
        got = quillen_pushforward(sm, V, m, TRING)
        k = 3 - 1 - m
        want = TRING.monomial(k + 1, (3 - m) * 2) if k >= 0 else TRING.zero()
        assert got == want, m


def test_quillen_rejects_bad_input():
    p1m = build_model(P1)
    virt = VirtualSplitBundle(p1m, plus_trivial=3, minus_lines=[p1m.gen_element(0)])
    with pytest.raises(ValueError):
        quillen_pushforward(P1, virt, 0, B)
    pt = VarietySpec.point()
    ptm = build_model(pt)
    honest = VirtualSplitBundle(ptm, plus_trivial=2)
    with pytest.raises(ValueError):
        quillen_pushforward(pt, honest, -1, B)
    with pytest.raises(ValueError):
        quillen_pushforward(VarietySpec.disjoint([P1, P1]), honest, 0, B)
