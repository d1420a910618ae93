import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import fgl
from cobcalc.core_algebra import ZZ, TRING, TEPS, IntDomain, b_ring, int_mod, sparse_from_int
from cobcalc.fgl import b_transport, chx_b_image, cha_b_image
from cobcalc.chow_models import (
    VarietySpec,
    VirtualSplitBundle,
    ChowModel,
    build_model,
    chern_total,
    cm_graded,
    quillen_pushforward,
    fundamental_class,
    euler_number,
    chern_number,
    additive_chern_number,
)
from symm_oracle import (
    b_image_for, elementary_class, line_element, normal_basis, projbundle_relation,
    pushforward_projbundle,
)

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
    h0, h1 = m.line_class((1, 0)), m.line_class((0, 1))
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


def _relations_by_oracle(spec):
    """The relations of the tower of spec, one (r, rule) per generator, read
    off the spec: a multiproj hyperplane has an empty rule, a product
    prefixes its factors' exponents with zeros, and a projective bundle adds
    the rule built from unreduced elementary symmetric polynomials of its
    roots.  The exponents of a rule end at its generator."""
    if spec.kind == "multiproj":
        return [(n + 1, {}) for n in spec.dims]
    if spec.kind == "product":
        out = []
        for f in spec.factors:
            pad = (0,) * len(out)
            out.extend((r, {pad + e: c for e, c in rule.items()}) for r, rule in _relations_by_oracle(f))
        return out
    base = _relations_by_oracle(spec.base)
    lines = [line_element(v) for v in spec.lines]
    return base + [(len(lines), projbundle_relation(lines, len(base)))]


@pytest.mark.parametrize("spec", [
    F1,
    VarietySpec.projbundle(F1, [(0, 0), (1, 0), (0, 1)]),
    VarietySpec.projbundle(VarietySpec.projbundle(P2, [(0,), (1,), (3,)]), [(1, 0), (0, 1), (2, -1)]),
    VarietySpec.projbundle(VarietySpec.projbundle(P3, [(0,), (2,)]), [(0, 0), (1, 1), (-1, 2)]),
    VarietySpec.product([F1, P2]),
    VarietySpec.product([VarietySpec.projbundle(P2, [(0,), (1,), (-1,)]), F1]),
    VarietySpec.projbundle(VarietySpec.product([P1, F1]), [(1, 0, 0), (0, 1, 1), (2, -1, 1)]),
    VarietySpec.multiproj([1, 0, 2]),
])
def test_reduce_matches_unreduced_relation(spec):
    # each relation xi^r = -sum c_i(V) xi^(r-i) takes c(V) reduced on the
    # generators below it; it is the same relation, so every normal form
    # must agree with the one under the unreduced e_i of the roots
    model = build_model(spec)
    relations = _relations_by_oracle(spec)
    assert [r - 1 for r, _ in relations] == list(model._bounds)
    n = len(model.gens)
    old = ChowModel(spec)
    old._relations = tuple((i, r, {e + (0,) * (n - len(e)): c for e, c in rule.items()})
                           for i, (r, rule) in enumerate(relations))
    old._reduce_cache.clear()
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


def _ngens(spec):
    """The number of generators of a connected spec, from its shape."""
    if spec.kind == "multiproj":
        return len(spec.dims)
    if spec.kind == "product":
        return sum(_ngens(f) for f in spec.factors)
    return _ngens(spec.base) + 1


@st.composite
def _towers(draw, max_dim, depth=2):
    """A connected spec of dimension <= max_dim: a product of projective
    spaces, or, while depth lasts, a projective bundle over a smaller tower
    or a product of two smaller towers."""
    kind = draw(st.sampled_from(("multiproj", "projbundle", "product") if depth else ("multiproj",)))
    if kind == "multiproj":
        dims = draw(st.lists(st.integers(0, max_dim), max_size=3).filter(lambda d: sum(d) <= max_dim))
        return VarietySpec.multiproj(dims)
    if kind == "product":
        first = draw(_towers(max_dim, depth - 1))
        return VarietySpec.product([first, draw(_towers(max_dim - first.dim(), depth - 1))])
    base = draw(_towers(max_dim, depth - 1))
    return _random_bundle(draw, base, max_dim)


def _random_bundle(draw, base, max_dim):
    rank = draw(st.integers(1, max_dim - base.dim() + 1))
    line = st.tuples(*[st.integers(-2, 2)] * _ngens(base))
    return VarietySpec.projbundle(base, draw(st.lists(line, min_size=rank, max_size=rank)))


def _euler_by_top_chern(spec):
    """Oracle for `euler_number`: the degree of c_dim(T), summed over the
    components of a disjoint union."""
    if spec.kind == "disjoint":
        return sum(_euler_by_top_chern(c) for c in spec.components)
    model = build_model(spec)
    return model.degree(ZZ, cm_graded(chern_total(model.tangent()), model.dim))


def _check_tangent(spec):
    T = build_model(spec).tangent()
    assert T.rank == spec.dim()
    assert not T.minus_lines
    assert euler_number(spec) == _euler_by_top_chern(spec)


@settings(max_examples=50, deadline=None)
@given(_towers(3), _towers(3))
def test_random_product_euler_number_multiplies(X, Y):
    # [X x Y] = [X][Y] in the b-ring, whatever the towers of X and Y, and so
    # chi(X x Y) = chi(X) chi(Y)
    XY = VarietySpec.product([X, Y])
    assert fundamental_class(XY, "L") == B.mul(fundamental_class(X, "L"), fundamental_class(Y, "L"))
    assert euler_number(XY) == euler_number(X) * euler_number(Y)
    for spec in (X, Y, XY):
        _check_tangent(spec)


@settings(max_examples=50, deadline=None)
@given(st.data(), _towers(5))
def test_random_bundle_euler_number_is_rank_times_base(data, S):
    # chi(P(V)) = rank(V) chi(S): P(V) is a fibration with fibre P^(r-1)
    pv = _random_bundle(data.draw, S, 6)
    assert euler_number(pv) == len(pv.lines) * euler_number(S)
    for spec in (S, pv):
        _check_tangent(spec)


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
    assert sorted(T.plus_lines) == sorted([(1, 0), (1, 0), (0, 1), (1, 1)])


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
        build_model(d).tangent()


# ---------------------------------------------------------------------------
# bundles and characteristic classes

def test_virtual_bundle_trivial_cancellation():
    m = build_model(P1)
    E = VirtualSplitBundle(m, plus_trivial=3, minus_trivial=1)
    assert E.plus_trivial == 2 and E.minus_trivial == 0
    T = m.tangent()  # 2 O(h) - 1
    N = VirtualSplitBundle(m, T.plus_lines, T.minus_lines, T.plus_trivial, T.minus_trivial)
    assert N.add_trivial(1).is_honest()


def test_virtual_bundle_lines_are_int_vectors():
    # a Chow dict line with a third generator on a 2-generator model once
    # gave a wrong class, a short one an IndexError, and a float entry a
    # float pushforward value
    with pytest.raises(ValueError):
        VirtualSplitBundle(build_model(P2), plus_lines=[{(2,): 1}])
    m = build_model(VarietySpec.multiproj([1, 1]))
    for line in [(1,), (0, 0, 1), (1.5, 0), (True, 0), {(1, 0): 1}, {(0, 0, 1): 1}, 1]:
        with pytest.raises(ValueError):
            VirtualSplitBundle(m, plus_lines=[line])
        with pytest.raises(ValueError):
            VirtualSplitBundle(m, minus_lines=[line])
    E = VirtualSplitBundle(m, [[1, 0], (0, -1)], [(1, 1)])
    assert E.plus_lines == ((1, 0), (0, -1)) and E.minus_lines == ((1, 1),)
    assert E.neg().plus_lines == ((1, 1),)


def test_virtual_bundle_trivial_ranks_are_ints():
    # a trivial rank of 1.5 once made a bundle of rank 1.5
    pt = build_model(VarietySpec.point())
    for k in (1.5, True, False, -1, "1"):
        with pytest.raises(ValueError, match="trivial ranks must be ints >= 0"):
            VirtualSplitBundle(pt, plus_trivial=k)
        with pytest.raises(ValueError, match="trivial ranks must be ints >= 0"):
            VirtualSplitBundle(pt, minus_trivial=k)
    with pytest.raises(ValueError, match="trivial ranks must be ints >= 0"):
        build_model(P2).tangent().add_trivial(0.5)
    assert VirtualSplitBundle(pt, plus_trivial=2).add_trivial(1).rank == 3


def test_chern_total_p3():
    m = build_model(P3)
    c = chern_total(m.tangent())
    assert c == {(0,): 1, (1,): 4, (2,): 6, (3,): 4}
    cneg = chern_total(m.tangent().neg())
    assert cneg == {(0,): 1, (1,): -4, (2,): 10, (3,): -20}
    assert cm_graded(c, 2) == {(2,): 6}


def test_euler_number_matches_top_chern_class_on_a_point_and_a_disjoint_union():
    pt = VarietySpec.point()
    union = VarietySpec.disjoint([P2, F1, VarietySpec.projbundle(P1, [(0,), (2,)])])
    for spec in (pt, VarietySpec.disjoint([pt, pt, pt]), union):
        assert euler_number(spec) == _euler_by_top_chern(spec)
    assert euler_number(union) == 3 + 4 + 4


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
    # the classes in other theories are images of the class in L
    assert b_transport(fundamental_class(P3, "L"), TRING, chx_b_image) == {3: 4}
    assert b_transport(fundamental_class(P2, "L"), TEPS, cha_b_image) == {(2, 1): -3}
    assert b_transport(fundamental_class(VarietySpec.point(), "L"), TEPS, cha_b_image) == {(0, 0): 1}
    assert sparse_from_int(int_mod(2), fundamental_class(P2, "L")) == {(2,): 1}
    for theory in ("CHX", "CHA", "L_p", "nope"):
        with pytest.raises(ValueError, match="unknown theory"):
            fundamental_class(P2, theory)


def test_projective_space_class_is_mishchenko_logarithm_coefficient():
    # Mishchenko: log(x) = sum_n [P^n] x^(n+1) / (n + 1), so [P^n] is
    # (n + 1) times [x^(n+1)] log(x), which the law store keeps as L_1(n + 1);
    # the two sides share no code past the b-ring
    fgl._grow_log_powers(25)
    for n in range(25):
        want = B.int_scale(fgl._LOG_POWERS[n + 1][1], n + 1)
        assert fundamental_class(VarietySpec.multiproj([n]), "L") == want, n


def _chx_class(spec):
    """The class in the theory of chx_fgl in closed form: the Euler number,
    as the degree of c_n(T), times t^n."""
    return TRING.monomial(spec.dim(), _euler_by_top_chern(spec))


def _cha_class(spec):
    """The class in the theory of cha_fgl in closed form: the Chern number
    of the single-row partition (n,), from its elementary-basis expansion,
    times eps t^n; the Euler number in dimension 0."""
    n = spec.dim()
    if n == 0:
        return TEPS.from_int(_euler_by_top_chern(spec))
    model = build_model(spec)
    return TEPS.monomial(n, 1, model.degree(ZZ, elementary_class(model.tangent().neg(), (n,))))


def test_fundamental_class_transport_consistency():
    # the closed-form theories are images of the universal class
    for spec in [VarietySpec.point(), P1, P2, P3, F1, VarietySpec.multiproj([1, 1])]:
        cls = fundamental_class(spec, "L")
        assert b_transport(cls, TRING, chx_b_image) == _chx_class(spec)
        assert b_transport(cls, TEPS, cha_b_image) == _cha_class(spec)


# ---------------------------------------------------------------------------
# pushforwards

def test_pushforward_projbundle_f1():
    base, out = pushforward_projbundle(F1, {(0, 0): 1})  # p_*(1) = 0
    assert out == {}
    base, out = pushforward_projbundle(F1, {(0, 1): 1})  # p_*(xi) = 1
    assert out == base.one(ZZ)
    base, out = pushforward_projbundle(F1, {(0, 2): 1})  # p_*(xi^2) = c_1(-V) = -h
    assert out == {(1,): -1}


def test_pushforward_matches_reduce_then_push():
    spec = VarietySpec.projbundle(P2, [(0,), (1,), (2,)])
    m = build_model(spec)
    rng = random.Random(11)
    for _ in range(25):
        e = (rng.randrange(4), rng.randrange(7))
        u = {e: rng.randrange(-4, 5)}
        _, direct = pushforward_projbundle(spec, u)
        _, reduced = pushforward_projbundle(spec, m.normalize(ZZ, u))
        assert direct == reduced, e


def test_quillen_point_trivial_bundle():
    pt = VarietySpec.point()
    ptm = build_model(pt)
    V = VirtualSplitBundle(ptm, plus_trivial=2)
    vals = [quillen_pushforward(V, m) for m in range(4)]
    assert vals[0] == B.int_scale(B.gen(1), -2)  # class of the line
    assert vals[1] == B.one()
    assert vals[2] == B.zero()
    assert vals[3] == B.zero()


def test_quillen_m0_is_bundle_class():
    p1m = build_model(P1)
    V = VirtualSplitBundle(p1m, plus_lines=[(1,)], plus_trivial=1)
    got = quillen_pushforward(V, 0)
    pb = VarietySpec.projbundle(P1, [(1,), (0,)])
    assert got == fundamental_class(pb, "L")


def test_quillen_trivial_bundle_factorizes():
    for n_s, r in [(1, 2), (2, 2), (1, 3)]:
        S = VarietySpec.multiproj([n_s])
        sm = build_model(S)
        V = VirtualSplitBundle(sm, plus_trivial=r)
        s_cls = fundamental_class(S, "L")
        for m in range(r):
            got = quillen_pushforward(V, m)
            want = B.mul(fundamental_class(VarietySpec.multiproj([r - 1 - m]), "L"), s_cls)
            assert got == want, (n_s, r, m)


def test_quillen_chx_closed_form():
    # over the closed-form theory the answer is (r-m) t^{r-1-m} times the
    # euler class of the base, for a trivial bundle
    S = P1
    sm = build_model(S)
    V = VirtualSplitBundle(sm, plus_trivial=3)
    for m in range(5):
        got = b_transport(quillen_pushforward(V, m), TRING, chx_b_image)
        k = 3 - 1 - m
        want = TRING.monomial(k + 1, (3 - m) * 2) if k >= 0 else TRING.zero()
        assert got == want, m


def _bundles(model, specs):
    return [
        VirtualSplitBundle(model, lines, (), triv)
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


# a pushforward is taken over B(ZZ); its value in another theory is the
# transport of that one
QUILLEN_DOMAINS = (B, TRING, TEPS)


def _pushforward_in(V, m, dom):
    return b_transport(quillen_pushforward(V, m), dom, b_image_for(dom))


@pytest.mark.parametrize("spec, specs", QUILLEN_CASES)
def test_quillen_cache_order_independent(spec, specs):
    # reference: one fresh model per bundle, twist and domain, so no residue
    # record comes from a memo
    want = {}
    for idx, (lines, triv) in enumerate(specs):
        for dom in QUILLEN_DOMAINS:
            for m in range(len(lines) + triv + spec.dim() + 1):
                model = ChowModel(spec)
                V = _bundles(model, [(lines, triv)])[0]
                want[idx, m, dom.name] = _pushforward_in(V, m, dom)
    # all bundles on one fresh model, twists and domains interleaved in a
    # shuffled order
    model = ChowModel(spec)
    bundles = _bundles(model, specs)
    doms = {dom.name: dom for dom in QUILLEN_DOMAINS}
    calls = list(want)
    random.Random(5).shuffle(calls)
    for idx, m, name in calls:
        got = _pushforward_in(bundles[idx], m, doms[name])
        assert got == want[idx, m, name], (idx, m, name)
    # the shared model agrees too
    shared = build_model(spec)
    for idx, V in enumerate(_bundles(shared, specs)):
        for dom in QUILLEN_DOMAINS:
            for m in range(V.rank + shared.dim + 1):
                got = _pushforward_in(V, m, dom)
                assert got == want[idx, m, dom.name], (idx, m)


def test_quillen_cache_keeps_domains_apart():
    # one residue record serves every theory: the closed-form TRING values
    # of test_quillen_chx_closed_form are the transport of the B(ZZ) values
    # that a twist-0 call on the same bundle has put in the model's cache
    sm = ChowModel(P1)
    V = VirtualSplitBundle(sm, plus_trivial=3)
    assert quillen_pushforward(V, 0) == fundamental_class(
        VarietySpec.projbundle(P1, [(0,)] * 3), "L")
    assert len(sm._residues) == 1
    for m in range(5):
        got = b_transport(quillen_pushforward(V, m), TRING, chx_b_image)
        k = 3 - 1 - m
        want = TRING.monomial(k + 1, (3 - m) * 2) if k >= 0 else TRING.zero()
        assert got == want, m
    assert len(sm._residues) == 1


@pytest.mark.parametrize("spec, specs", QUILLEN_CASES)
def test_quillen_vanishes_from_rank_plus_dim(spec, specs):
    # the residue exponent r + i - m - 1 is negative for every i <= dim
    model = build_model(spec)
    for V in _bundles(model, specs):
        top = V.rank + model.dim
        for m in (top, top + 1, top + 5):
            assert quillen_pushforward(V, m) == B.zero(), m


def test_one_residue_record_per_bundle_and_domain():
    # whatever twists are asked, in whatever order, and whatever theories
    # the values are transported to, a model keeps one residue record per
    # bundle asked for
    spec, specs = QUILLEN_CASES[1]
    model = ChowModel(spec)
    bundles = _bundles(model, specs)
    rng = random.Random(3)
    asked = set()
    for _ in range(60):
        idx = rng.randrange(len(bundles))
        dom = rng.choice(QUILLEN_DOMAINS)
        V = bundles[idx]
        _pushforward_in(V, rng.randrange(V.rank + model.dim + 3), dom)
        asked.add(idx)
        assert len(model._residues) == len(asked)
    assert len(asked) == len(bundles)


def test_quillen_rejects_bad_input():
    p1m = build_model(P1)
    virt = VirtualSplitBundle(p1m, plus_trivial=3, minus_lines=[(1,)])
    with pytest.raises(ValueError):
        quillen_pushforward(virt, 0)
    pt = VarietySpec.point()
    ptm = build_model(pt)
    honest = VirtualSplitBundle(ptm, plus_trivial=2)
    with pytest.raises(ValueError):
        quillen_pushforward(honest, -1)


def test_quillen_twist_must_be_an_int():
    # True once read twist 1, 1.0 failed on a tuple index and "1" on a
    # comparison
    V = VirtualSplitBundle(build_model(VarietySpec.point()), plus_trivial=2)
    for m in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="m must be an int"):
            quillen_pushforward(V, m)
