import pytest

from cobcalc import symmfunc as sf
from cobcalc.chow_models import (
    VarietySpec,
    VirtualSplitBundle,
    build_model,
    chern_total,
    tangent_bundle,
)
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
    _eval_chern_poly,
    _to_half_element,
)
from cobcalc.fgl import formal_inverse, formal_mult, universal_fgl
from law_oracle import half_law_by_specialization
from symm_oracle import chern_series_oracle

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
    bad = VirtualSplitBundle(model, [model.gen_element(0)] * 4, (), 0, 2)
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


def test_lmod2_order_guard():
    act = builtin_action("linear_pn", n=2, a=0)
    with pytest.raises(ValueError):
        verify_lmod2(act, order=4)
    assert verify_lmod2(act, order=6).ok


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
    act = MuTwoActionModel(VarietySpec.point(), [])
    with pytest.raises(ValueError):
        verify_additive(act)


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
        c_minus = chern_total(model, ZZ, comp.normal.neg())
        p_tan = sf.total_P(model.tangent().neg(), B)
        for elt in sf.total_P_deformed(comp.normal.neg(), B, action.dim).values():
            prod = model.mul(B, elt, p_tan)
            for alpha in alphas:
                ext = sf.class_coefficient(prod, alpha)
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
    lhs = number(amb, chern_series_oracle(amb, list(amb.tangent().plus_lines), [], action.dim))
    rhs = 0
    for comp in action.components:
        model = comp.model
        one = model.one(ZZ)
        plus = [sparse_add(ZZ, one, l) for l in comp.normal.plus_lines]
        plus += [one] * comp.normal.plus_trivial + list(model.tangent().plus_lines)
        cz = chern_series_oracle(model, plus, [one] * comp.normal.minus_trivial, action.dim)
        c_minus = chern_total(model, ZZ, comp.normal.neg())
        rhs += model.degree(ZZ, model.mul(ZZ, c_minus, _eval_chern_poly(model, f, cz)))
    return lhs, rhs


KS_POLYS = [{(2,): 1}, {(0, 1): 1}, {(1, 1): 3, (3,): -1}, {(0, 0, 1): 2, (1,): 1}]


def test_ks_poly_matches_old_route():
    for act in _ks_oracle_actions():
        for f in KS_POLYS:
            chk = by_id(verify_ks(act, alphas=(), f=f), "ks:poly")
            assert (chk.lhs, chk.rhs) == _ks_poly_by_old_route(act, f), (act, f)


def test_lmod2_series_match_specialized_law():
    # verify_lmod2 embeds [2](x) and the formal inverse of the universal law
    # in B(ZHALF); the embedding is a ring map, so they agree with the series
    # of the law specialized into B(ZHALF) first
    for order in range(3, 11):
        law = universal_fgl(order)
        half = half_law_by_specialization(order)
        assert formal_mult(law, 2).map_coefficients(BH, _to_half_element) == formal_mult(half, 2)
        assert formal_inverse(law).map_coefficients(BH, _to_half_element) == formal_inverse(half)

