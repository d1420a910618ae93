import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cobcalc import chow_models, clear_caches
from cobcalc import symmfunc as sf
from cobcalc.chow_models import (
    VarietySpec,
    VirtualSplitBundle,
    _layers,
    build_model,
    chern_total,
    tangent_bundle,
)
from cobcalc.cobordism import decomposable_test
from cobcalc.core_algebra import ZHALF, ZZ, b_ring, partitions, sparse_add
from cobcalc.fixedpoint import (
    FixedComponent,
    MuTwoActionModel,
    builtin_action,
    verify_L2_relations,
    verify_additive,
    verify_all,
    verify_decomposable,
    verify_euler,
    verify_ks,
    verify_lmod2,
    verify_trivial_normal,
    _completion_terms,
    _eval_chern_poly,
)
from cobcalc.fgl import formal_inverse, formal_mult, universal_fgl
from law_oracle import half_element, half_law_without_store, lmod2_classes_over_half
from test_golden_cli import BROKEN, MINUS_TRIVIAL, MISSING_POINT
from symm_oracle import additive_terms_by_completion, chern_series_oracle, class_coefficient

BH = b_ring(ZHALF)


def pn(n):
    return VarietySpec.multiproj([n])


def by_id(report, cid):
    return {c.id: c for c in report.checks}[cid]


def test_component_validation():
    with pytest.raises(ValueError):
        FixedComponent.from_lines(VarietySpec.disjoint([pn(1), pn(1)]), 1, [], 1)
    with pytest.raises(ValueError):
        FixedComponent.from_lines(pn(1), -1, [])
    # rank != codim
    with pytest.raises(ValueError):
        FixedComponent.from_lines(pn(1), 2, [[1]])
    # wrong vector length
    with pytest.raises(ValueError):
        FixedComponent.from_lines(pn(1), 1, [[1, 0]])
    # more than one subtracted trivial summand
    model = build_model(pn(2))
    bad = VirtualSplitBundle(model, [(1,)] * 4, (), 0, 2)
    with pytest.raises(ValueError):
        FixedComponent(pn(2), 2, bad)


def test_action_validation():
    comp = FixedComponent.from_lines(pn(1), 1, [[1]])
    with pytest.raises(ValueError):
        MuTwoActionModel(pn(3), [comp])
    act = MuTwoActionModel(pn(2), [comp])
    assert act.dim == 2 and act.fix_dim == 1
    free = MuTwoActionModel(VarietySpec.disjoint([pn(1), pn(1)]), [])
    assert free.fix_dim == -1


def test_builtin_validation():
    with pytest.raises(ValueError):
        builtin_action("linear_pn", n=2)
    with pytest.raises(ValueError):
        builtin_action("linear_pn", n=2, a=2)
    with pytest.raises(ValueError):
        builtin_action("factorwise_p1n", n=0)
    with pytest.raises(ValueError):
        builtin_action("swap_square")
    with pytest.raises(ValueError):
        builtin_action("no_such_action", n=1)


def test_verifier_parameters_must_be_ints():
    act = builtin_action("linear_pn", n=3, a=1)
    for max_m in (True, 2.0):
        with pytest.raises(ValueError, match="max_m must be an int"):
            verify_lmod2(act, max_m=max_m)
    with pytest.raises(ValueError, match="max_m must be an int"):
        verify_L2_relations(act, max_m=1.0)
    for p in (3.0, 2.0, True):
        with pytest.raises(ValueError, match="p must be prime"):
            verify_decomposable(act, p=p)
    for params in ({"n": 3.0, "a": 1}, {"n": 3, "a": 1.0}, {"n": True, "a": 0}):
        with pytest.raises(ValueError, match="int parameters"):
            builtin_action("linear_pn", **params)
    with pytest.raises(ValueError, match="int parameter n"):
        builtin_action("factorwise_p1n", n=2.0)


def test_action_json_round_trip():
    act = builtin_action("linear_pn", n=3, a=1)
    blob = act.to_json()
    back = MuTwoActionModel.from_json(blob)
    assert back.to_json() == blob
    # the swap action needs the subtracted-trivial extension field
    sw = builtin_action("swap_square", spec=pn(2))
    blob = sw.to_json()
    assert blob["components"][0]["normal_minus_trivial_rank"] == 1
    back = MuTwoActionModel.from_json(blob)
    assert back.to_json() == blob
    assert verify_euler(back).ok


def test_swap_normal_is_tangent():
    sw = builtin_action("swap_square", spec=pn(2))
    comp = sw.components[0]
    assert comp.codim == 2
    assert comp.normal.rank == 2
    tan = tangent_bundle(pn(2))
    assert comp.normal.plus_lines == tan.plus_lines
    assert comp.normal.minus_trivial == tan.minus_trivial == 1


def test_l2_line_involution():
    rep = verify_L2_relations(builtin_action("linear_pn", n=1, a=0))
    assert rep.ok
    cls = by_id(rep, "l2:class")
    assert cls.lhs == "-4*b1" and cls.rhs == "-2*b1"
    assert by_id(rep, "l2:route:0").status == "pass"
    assert by_id(rep, "l2:twist:1").lhs == "2"


def test_lmod2_line_involution_exact():
    rep = verify_lmod2(builtin_action("linear_pn", n=1, a=0))
    assert rep.ok
    # the corrected twist-0 class reproduces the ambient class on the nose
    assert by_id(rep, "lmod2:class").lhs == "-2*b1"
    assert by_id(rep, "lmod2:int:1").lhs == "-1"


def test_ks_polynomial_example():
    # integral of c_1^2 over the plane is 9; the twisted fixed-locus
    # integral reproduces it exactly here, and mod 2 in general
    act = builtin_action("linear_pn", n=2, a=0)
    rep = verify_ks(act, alphas=(), f={(2,): 1})
    assert rep.ok
    chk = by_id(rep, "ks:poly")
    assert chk.lhs == 9 and chk.rhs == 9


def test_ks_alpha_guard():
    act = builtin_action("linear_pn", n=2, a=0)
    with pytest.raises(ValueError):
        verify_ks(act, alphas=[(5,)])
    with pytest.raises(ValueError, match="alpha must be a partition"):
        verify_ks(builtin_action("linear_pn", n=3, a=1), alphas=[(True,)])


def test_additive_mod4_line():
    rep = verify_additive(builtin_action("linear_pn", n=1, a=0))
    assert rep.ok
    chk = by_id(rep, "additive:mod4:1")
    assert chk.lhs == -2 and chk.rhs == -2
    assert by_id(rep, "additive:twist:1").lhs == 2


def test_additive_rejects_points():
    # a 0-dimensional ambient variety has no additive-number relations: the
    # verifier reports one skip, and so does the decomposable verifier,
    # while decomposable_test itself still refuses it
    act = MuTwoActionModel(VarietySpec.point(), [])
    for fn, cid in ((verify_additive, "additive:dimension"),
                    (verify_decomposable, "decomposable:dimension")):
        rep = fn(act)
        assert rep.ok
        assert [(c.id, c.status, c.lhs) for c in rep.checks] == [
            (cid, "hypothesis-not-met", "ambient dimension 0")]
    with pytest.raises(ValueError, match="positive-dimensional"):
        decomposable_test(act.ambient, 2)
    with pytest.raises(ValueError, match="p must be prime"):
        verify_decomposable(act, p=4)
    swap = builtin_action("swap_square", spec=VarietySpec.multiproj([0]))
    rep = verify_all(swap)
    assert rep.ok
    assert {c.id.split(":")[0] for c in rep.checks} == {
        "l2", "trivial-normal", "ks", "lmod2", "euler", "additive", "decomposable"}


def test_trivial_normal_hypothesis():
    # odd normal data: the hypothesis is reported as not met, nothing fails
    rep = verify_trivial_normal(builtin_action("linear_pn", n=2, a=0))
    assert rep.ok
    assert by_id(rep, "trivial-normal:hypothesis").status == "hypothesis-not-met"
    assert len(rep.checks) == 1
    # even normal data on both components
    rep = verify_trivial_normal(builtin_action("linear_pn", n=3, a=1))
    assert rep.ok
    assert by_id(rep, "trivial-normal:hypothesis").status == "pass"
    assert by_id(rep, "trivial-normal:ambient:(2,1)").lhs == 20
    assert by_id(rep, "trivial-normal:fix:1:(1)").lhs == -4


def test_trivial_normal_factorwise():
    rep = verify_trivial_normal(builtin_action("factorwise_p1n", n=2))
    assert rep.ok
    assert by_id(rep, "trivial-normal:hypothesis").status == "pass"
    # 4 fixed points, each contributing degree one
    assert by_id(rep, "trivial-normal:fix:0:()").lhs == 4


def test_euler_small_fix():
    rep = verify_euler(builtin_action("factorwise_p1n", n=3))
    assert rep.ok
    assert by_id(rep, "euler:mod4").status == "pass"
    chk = by_id(rep, "euler:small-fix")
    assert chk.status == "pass" and chk.lhs == 8


def test_decomposable_small_fix():
    rep = verify_decomposable(builtin_action("factorwise_p1n", n=3))
    assert rep.ok
    assert by_id(rep, "decomposable:small-fix").status == "pass"
    rep = verify_decomposable(builtin_action("linear_pn", n=2, a=1))
    assert by_id(rep, "decomposable:small-fix").status == "hypothesis-not-met"


def test_free_action_disjoint_double():
    p1 = pn(1)
    free = MuTwoActionModel(VarietySpec.disjoint([p1, p1]), [])
    for fn in (verify_L2_relations, verify_lmod2, verify_euler, verify_ks,
               verify_trivial_normal, verify_additive, verify_decomposable):
        assert fn(free).ok
    rep = verify_euler(free)
    assert by_id(rep, "euler:small-fix").status == "pass"
    assert by_id(rep, "euler:small-fix").lhs == 0


def test_catalog_small_all_verifiers():
    actions = [
        builtin_action("linear_pn", n=2, a=0),
        builtin_action("linear_pn", n=3, a=1),
        builtin_action("factorwise_p1n", n=2),
        builtin_action("swap_square", spec=pn(1)),
        builtin_action("swap_square", spec=pn(2)),
    ]
    for act in actions:
        rep = verify_all(act)
        assert rep.command == "all"
        assert rep.ok, "%s: %r" % (act.name, rep.failures)


@pytest.mark.parametrize("n, a", [(6, 2), (7, 2)])
def test_linear_pn_larger_dimension_all_verifiers(n, a):
    rep = verify_all(builtin_action("linear_pn", n=n, a=a))
    assert rep.checks
    assert all(c.status in ("pass", "hypothesis-not-met") for c in rep.checks)


def test_caches_do_not_leak_between_actions():
    # the broken copies share the ambient variety and all but one fixed
    # component model with the good action; whatever they leave in the
    # per-model caches must not change the next answer
    good = builtin_action("linear_pn", n=5, a=1)
    perturbed = good.to_json()
    perturbed["components"][0]["normal_lines"][3] = [3]
    dropped = good.to_json()
    del dropped["components"][0]
    lmod2 = ["lmod2:class"] + ["lmod2:member:%d" % m for m in range(1, 5)]
    runs = [
        (good, []),
        (MuTwoActionModel.from_json(perturbed), lmod2),
        (good, []),
        (MuTwoActionModel.from_json(dropped), ["euler:mod4"] + lmod2),
        (good, []),
    ]
    for act, want in runs:
        assert sorted(c.id for c in verify_all(act).failures) == want


def test_custom_action_from_json():
    # independent involution on a product of two lines, acting on one factor
    blob = {
        "ambient": {"type": "multiproj", "dims": [1, 1]},
        "components": [
            {"spec": {"type": "multiproj", "dims": [1]}, "codim": 1,
             "normal_lines": [], "normal_trivial_rank": 1},
            {"spec": {"type": "multiproj", "dims": [1]}, "codim": 1,
             "normal_lines": [], "normal_trivial_rank": 1},
        ],
    }
    act = MuTwoActionModel.from_json(blob, name="one_factor")
    assert verify_all(act).ok


def test_inconsistent_action_fails():
    # dropping the isolated fixed point from the plane involution breaks
    # the parity relations: the verifiers must notice
    act = MuTwoActionModel(
        pn(2), [FixedComponent.from_lines(pn(1), 1, [[1]])], name="broken")
    rep = verify_euler(act)
    assert not rep.ok
    assert by_id(rep, "euler:mod2").status == "fail"
    assert not verify_L2_relations(act).ok
    assert not verify_ks(act).ok


def test_report_json_shape():
    rep = verify_euler(builtin_action("linear_pn", n=1, a=0))
    blob = rep.to_json()
    assert blob["command"] == "euler"
    assert blob["status"] == "pass"
    assert all(set(c) >= {"id", "statement", "status"} for c in blob["checks"])


def _ks_rhs_by_component(action, alphas):
    """The fixed-locus side of ks:alpha for each alpha, built per component
    from the deformed class of -N itself: the sum over components and
    y-degrees k <= n of deg(c(-N) * [b^alpha](P(-T) * [y^k] P_y(-N)))."""
    B = b_ring(ZZ)
    rhs = dict.fromkeys(alphas, 0)
    for comp in action.components:
        model = comp.model
        c_minus = chern_total(comp.normal.neg())
        p_tan = sf.total_P(model.tangent().neg())
        for elt in sf.total_P_deformed(comp.normal.neg(), action.dim).values():
            prod = model.mul(B, elt, p_tan)
            for alpha in alphas:
                ext = class_coefficient(prod, alpha)
                if ext:
                    rhs[alpha] += model.degree(ZZ, model.mul(ZZ, c_minus, ext))
    return rhs


def _ks_oracle_actions():
    acts = [builtin_action("linear_pn", n=n, a=a) for n in range(1, 7) for a in range(n)]
    acts += [builtin_action("factorwise_p1n", n=n) for n in range(1, 4)]
    acts += [builtin_action("swap_square", spec=pn(d)) for d in range(1, 4)]
    # a broken copy: one normal line perturbed, one trivial summand subtracted
    broken = builtin_action("swap_square", spec=pn(2)).to_json()
    broken["components"][0]["normal_lines"][0] = [3]
    acts.append(MuTwoActionModel.from_json(broken))
    return acts


def test_ks_rhs_matches_per_component_oracle():
    acts = _ks_oracle_actions()
    assert len(acts) == 28
    for act in acts:
        alphas = [a for w in range(act.dim + 1) for a in partitions(w)]
        want = _ks_rhs_by_component(act, alphas)
        got = {c.id: c.rhs for c in verify_ks(act).checks}
        assert len(got) == len(alphas)
        for alpha in alphas:
            assert got["ks:alpha:(%s)" % ",".join(map(str, alpha))] == want[alpha]


def _ks_poly_by_old_route(action, f):
    """Both sides of ks:poly with the Chern series built root by root: c(T)
    of the ambient variety, and per component the series of the twisted
    normal-plus-tangent roots."""
    def number(model, cz):
        return model.degree(ZZ, _eval_chern_poly(model, f, cz))

    amb = build_model(action.ambient)
    lhs = number(amb, chern_series_oracle(amb, list(map(amb.line_class, amb.tangent().plus_lines)), [],
                                          action.dim))
    rhs = 0
    for comp in action.components:
        model = comp.model
        one = model.one(ZZ)
        plus = [sparse_add(ZZ, one, model.line_class(v)) for v in comp.normal.plus_lines]
        plus += [one] * comp.normal.plus_trivial + list(map(model.line_class, model.tangent().plus_lines))
        cz = chern_series_oracle(model, plus, [one] * comp.normal.minus_trivial, action.dim)
        c_minus = chern_total(comp.normal.neg())
        rhs += model.degree(ZZ, model.mul(ZZ, c_minus, _eval_chern_poly(model, f, cz)))
    return lhs, rhs


KS_POLYS = [{(2,): 1}, {(0, 1): 1}, {(1, 1): 3, (3,): -1}, {(0, 0, 1): 2, (1,): 1}]


def test_ks_poly_matches_old_route():
    for act in _ks_oracle_actions():
        for f in KS_POLYS:
            chk = by_id(verify_ks(act, alphas=(), f=f), "ks:poly")
            assert (chk.lhs, chk.rhs) == _ks_poly_by_old_route(act, f), (act, f)


def test_lmod2_series_match_specialized_law():
    # [2](x) and the formal inverse of the universal law, embedded in
    # B(ZHALF): the embedding is a ring map, so they agree with the
    # multiples of the law specialized into B(ZHALF) first, here built with
    # no store behind it (compose route for [2], fixed point for [-1]), on
    # which the lmod2 oracle builds its twisted series
    for order in range(3, 11):
        law = universal_fgl(order)
        half = half_law_without_store(order)
        assert formal_mult(law, 2).map_coefficients(BH, half_element) == half.formal_mult(2)
        assert formal_inverse(law).map_coefficients(BH, half_element) == half.formal_inverse()



def _lmod2_oracle_actions():
    acts = [builtin_action("linear_pn", n=n, a=a) for n in range(1, 8) for a in range(n)]
    acts += [builtin_action("factorwise_p1n", n=n) for n in range(1, 8)]
    acts += [builtin_action("swap_square", spec=pn(d)) for d in range(1, 4)]
    return acts + [MuTwoActionModel.from_json(a) for a in (BROKEN, MISSING_POINT, MINUS_TRIVIAL)]


def test_lmod2_classes_match_half_ring_route():
    # verify_lmod2 sums 2^(n+1) A_m over B(ZZ) at order n + 3 and halves it
    # n + 1 times; the oracle sums A_m over B(ZHALF) from the twisted series
    # of its own loop, at orders n + 3 and n + 4, and the embedded
    # pushforward sums
    B = b_ring(ZZ)
    for act in _lmod2_oracle_actions():
        n = act.dim
        for order, max_m in ((n + 3, n), (n + 4, n + 5)):
            rep = verify_lmod2(act, max_m=max_m)
            for m, a_m in enumerate(lmod2_classes_over_half(act, order, max_m)):
                integral = all(e == 0 for _num, e in a_m.values())
                chk = by_id(rep, "lmod2:int:%d" % m)
                assert (chk.lhs, chk.status == "pass") == (BH.fmt(a_m), integral), (act, m)
                if integral:
                    ints = {p: num for p, (num, _e) in a_m.items()}
                    chk = by_id(rep, "lmod2:class" if m == 0 else "lmod2:member:%d" % m)
                    assert chk.lhs == B.fmt(ints), (act, m)
    # the missing point leaves A_1 and A_2 with a denominator 2
    rep = verify_lmod2(MuTwoActionModel.from_json(MISSING_POINT))
    assert [(c.lhs, c.status) for c in rep.checks if c.id in ("lmod2:int:1", "lmod2:int:2")] == [
        ("1/2^1*b1", "fail"), ("-1/2^1", "fail")]


def _additive_oracle_actions():
    acts = [builtin_action("linear_pn", n=n, a=a) for n in range(1, 9) for a in range(n)]
    acts += [builtin_action("factorwise_p1n", n=n) for n in range(1, 4)]
    acts += [builtin_action("swap_square", spec=pn(d)) for d in range(1, 4)]
    return acts


def test_additive_terms_match_completion_route():
    # the residue-record identities give each component's completion
    # number and twisted terms exactly as the completion's own model does
    acts = _additive_oracle_actions()
    assert len(acts) == 42
    for act in acts:
        for comp in act.components:
            assert _completion_terms(comp) == additive_terms_by_completion(comp), (act, comp)


@st.composite
def _fixed_components(draw):
    """A fixed component on a small multiproj or a projective bundle over
    one, with random line normal summands and trivial ranks."""
    dims = draw(st.lists(st.integers(0, 2), max_size=2).filter(lambda d: sum(d) <= 2))
    spec = VarietySpec.multiproj(dims)
    if draw(st.booleans()):
        line = st.tuples(*[st.integers(-1, 2)] * len(dims))
        spec = VarietySpec.projbundle(spec, draw(st.lists(line, min_size=1, max_size=2)))
    ngens = len(build_model(spec).gens)
    lines = draw(st.lists(st.lists(st.integers(-2, 2), min_size=ngens, max_size=ngens), max_size=3))
    trivial = draw(st.integers(0, 2))
    minus = draw(st.integers(0, min(1, len(lines) + trivial)))
    codim = len(lines) + trivial - minus
    assume(spec.dim() + codim >= 1)
    return FixedComponent.from_lines(spec, codim, lines, trivial, minus)


@settings(max_examples=40, deadline=None)
@given(_fixed_components())
def test_random_component_additive_terms_match_completion_route(comp):
    assert _completion_terms(comp) == additive_terms_by_completion(comp)


def test_additive_builds_no_completion():
    act = builtin_action("linear_pn", n=5, a=2)
    clear_caches()
    assert verify_additive(act).ok
    for comp in act.components:
        assert _layers(comp.proj_spec()) not in chow_models._model_cache
    # the l2 route check builds them on purpose
    verify_L2_relations(act)
    for comp in act.components:
        assert _layers(comp.proj_spec()) in chow_models._model_cache
