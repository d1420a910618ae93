"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line; run with `pytest
tests/test_acceptance.py -s` to see them all.
"""

import random
import time
from math import comb, gcd

from cobcalc.chow_models import (
    VarietySpec,
    VirtualSplitBundle,
    build_model,
    fundamental_class,
    quillen_pushforward,
)
from cobcalc.cobordism import (
    BRING,
    binomial_middle_gcd,
    decomposable_test,
    lazard_piece,
    p_typical_chern_check,
    prime_power_root,
)
from cobcalc.core_algebra import TEPS, TRING, ZZ, TruncatedSeries, b_ring, partitions
from cobcalc.fgl import (
    b_transport,
    cha_b_image,
    cha_fgl,
    chx_b_image,
    chx_fgl,
    formal_mult,
    specialize,
    universal_fgl,
    universal_fgl_mod_p,
)
from cobcalc.fixedpoint import (
    builtin_action,
    verify_additive,
    verify_euler,
    verify_ks,
    verify_L2_relations,
    verify_lmod2,
)
from cobcalc.symmfunc import total_P
from kernel_oracle import series_divide
from law_oracle import reversion
from symm_oracle import lambda_coeffs

B = b_ring(ZZ)


def _stamp(num, desc, fn):
    try:
        fn()
    except BaseException:
        print("acceptance %02d: FAIL — %s" % (num, desc))
        raise
    print("acceptance %02d: PASS — %s" % (num, desc))


def pn(n):
    return VarietySpec.multiproj([n])


def catalog_actions():
    acts = []
    for n in range(1, 7):
        for a in range(n):
            acts.append(builtin_action("linear_pn", n=n, a=a))
    for n in range(1, 6):
        acts.append(builtin_action("factorwise_p1n", n=n))
    for n in range(1, 4):
        acts.append(builtin_action("swap_square", spec=pn(n)))
    return acts


def test_01_closed_form_specializations():
    def body():
        t0 = time.time()
        U = universal_fgl(12)
        S = specialize(U, TRING, lambda c: b_transport(c, TRING, chx_b_image))
        assert S.series == chx_fgl(12).series
        A = specialize(U, TEPS, lambda c: b_transport(c, TEPS, cha_b_image))
        assert A.series == cha_fgl(12).series
        assert time.time() - t0 < 5.0

    _stamp(1, "universal law specializes onto both closed-form laws at order 12",
           body)


def test_02_formal_multiplication():
    def body():
        C = chx_fgl(12)
        x = TruncatedSeries.variable(TRING, ("x",), 12, "x")
        one = TruncatedSeries.constant(TRING, ("x",), 12, TRING.one())
        for a in range(-3, 6):
            den = one.add(x.scale(TRING.monomial(1, a - 1)))
            assert formal_mult(C, a) == series_divide(x.int_scale(a), den), a
        for p in (2, 3, 5):
            law = universal_fgl_mod_p(12, p)
            assert formal_mult(law, p).is_zero(), p

    _stamp(2, "closed-form multiples match and the p-fold multiple dies mod p",
           body)


def test_03_middle_binomial_gcd():
    def body():
        for n in range(1, 65):
            g = binomial_middle_gcd(n)
            direct = 0
            for i in range(1, n + 1):
                direct = gcd(direct, comb(n + 1, i))
            assert g == direct
            root = prime_power_root(n + 1)
            assert g == (root if root else 1), n

    _stamp(3, "inner binomial gcd is p exactly at prime-power dimensions, n <= 64",
           body)


def test_04_lattice_ranks_and_members():
    def body():
        t0 = time.time()
        for n in range(0, 9):
            assert lazard_piece(n).rank == len(partitions(n)), n
        for n in range(1, 9):
            assert lazard_piece(n).member(fundamental_class(pn(n), "L")), n
        assert tuple(lazard_piece(1).generators) == ({(1,): 2},)
        a11 = universal_fgl(3).series.coefficient((1, 1))
        assert fundamental_class(pn(1), "L") == BRING.neg(a11)
        assert time.time() - t0 < 60.0

    _stamp(4, "lattice pieces have full rank and carry the projective classes",
           body)


def test_05_twist_relations_on_catalog():
    def body():
        for act in catalog_actions():
            rep = verify_L2_relations(act)
            assert rep.ok, (act.name, [c.to_json() for c in rep.failures])
            assert all(c.status == "pass" for c in rep.checks), act.name

    _stamp(5, "mod-2 twist relations hold for every catalog action and twist",
           body)


def test_06_ks_parity_on_catalog():
    def body():
        for act in catalog_actions():
            rep = verify_ks(act)
            assert rep.ok, (act.name, [c.to_json() for c in rep.failures])
            assert all(c.status == "pass" for c in rep.checks), act.name

    _stamp(6, "fixed-locus parity formula holds for all partitions up to dim",
           body)


def test_07_euler_congruences():
    def body():
        for act in catalog_actions():
            rep = verify_euler(act)
            assert rep.ok, (act.name, [c.to_json() for c in rep.failures])
            by_id = {c.id: c for c in rep.checks}
            if act.dim % 2 == 1:
                assert by_id["euler:mod4"].status == "pass", act.name
        for n in range(2, 6):
            rep = verify_euler(builtin_action("factorwise_p1n", n=n))
            c = next(ch for ch in rep.checks if ch.id == "euler:small-fix")
            assert c.status == "pass" and c.lhs == 2 ** n, n

    _stamp(7, "Euler congruences: mod 2 everywhere, mod 4 in odd dimension, "
              "4 | fixed Euler number for small fixed loci", body)


def test_08_half_series_lattice_membership():
    def body():
        t0 = time.time()
        acts = [builtin_action("linear_pn", n=n, a=a)
                for n in range(1, 5) for a in range(n)]
        acts += [builtin_action("factorwise_p1n", n=n) for n in range(1, 4)]
        for act in acts:
            rep = verify_lmod2(act)
            assert rep.ok, (act.name, [c.to_json() for c in rep.failures])
            assert all(c.status == "pass" for c in rep.checks), act.name
        assert time.time() - t0 < 120.0

    _stamp(8, "halved-series classes are integral, match the ambient class "
              "mod doubles, and twists stay in the lattice", body)


def test_09_additive_number_and_decomposability():
    def body():
        for act in catalog_actions():
            rep = verify_additive(act)
            assert rep.ok, (act.name, [c.to_json() for c in rep.failures])
        # verdicts for the degree criterion
        v = decomposable_test(pn(1), 2)
        assert v["in_Lp_decomposable"] and not v["in_Lmodp_decomposable"]
        v = decomposable_test(pn(2), 2)
        assert not v["in_Lp_decomposable"] and not v["in_Lmodp_decomposable"]
        for dims in ([1, 1], [1, 2], [2, 2]):
            v = decomposable_test(VarietySpec.multiproj(dims), 2)
            assert v["in_Lmodp_decomposable"], dims
        # divisibility at partitions with parts one below a prime power
        connected = [[1], [2], [3], [4], [1, 1], [1, 1, 1], [1, 1, 1, 1], [2, 2]]
        for dims in connected:
            for p in (2, 3):
                out = p_typical_chern_check(VarietySpec.multiproj(dims), p)
                assert out["ok"], (dims, p, out)

    _stamp(9, "additive-number congruences, decomposability verdicts, and "
              "prime-power partition divisibility all hold", body)


def _suite_fgl_axioms(count):
    rng = random.Random(101)
    U = universal_fgl(6)
    for _ in range(count):
        img = {i: TRING.monomial(i, rng.randint(-3, 3)) for i in range(1, 6)}
        law = specialize(U, TRING, lambda c: b_transport(c, TRING, img.__getitem__))
        assert law.series.coefficient((1, 0)) == TRING.one()
        assert law.series.coefficient((0, 1)) == TRING.one()


def _suite_reversion(count):
    rng = random.Random(202)
    x = TruncatedSeries.variable(ZZ, ("x",), 8, "x")
    for _ in range(count):
        coeffs = {(1,): rng.choice((1, -1))}
        for k in range(2, 8):
            c = rng.randint(-4, 4)
            if c:
                coeffs[(k,)] = c
        s = TruncatedSeries(ZZ, ("x",), 8, coeffs)
        assert s.compose({"x": reversion(s)}) == x


def _rand_line(model, rng):
    return tuple(rng.randint(-2, 2) for _ in model.gens)


def _suite_total_P_inverse(count):
    rng = random.Random(303)
    pool = [pn(1), pn(2), pn(3), VarietySpec.multiproj([1, 1]),
            VarietySpec.multiproj([1, 2])]
    for _ in range(count):
        model = build_model(rng.choice(pool))
        lines = [_rand_line(model, rng) for _ in range(rng.randint(0, 2))]
        E = VirtualSplitBundle(model, plus_lines=lines,
                               plus_trivial=rng.randint(0, 2),
                               minus_trivial=rng.randint(0, 1))
        pe = total_P(E)
        pne = total_P(E.neg())
        assert model.mul(B, pe, pne) == model.one(B)


def _suite_lambda_inversion(count):
    rng = random.Random(404)
    for _ in range(count):
        w = rng.randint(1, 8)
        alpha = rng.choice(partitions(w))
        acc = {}
        for beta, nb in lambda_coeffs(alpha).items():
            for gamma, ng in lambda_coeffs(beta).items():
                acc[gamma] = acc.get(gamma, 0) + nb * ng
        acc = {k: v for k, v in acc.items() if v}
        assert acc == {alpha: 1}, alpha


def _suite_quillen_trivial(count):
    rng = random.Random(505)
    pool = [VarietySpec.point(), pn(1), pn(2), VarietySpec.multiproj([1, 1]), pn(3)]
    for _ in range(count):
        S = rng.choice(pool)
        r = rng.randint(1, 4)
        m = rng.randint(0, r + 1)
        V = VirtualSplitBundle(build_model(S), plus_trivial=r)
        got = quillen_pushforward(V, m)
        k = r - 1 - m
        if k < 0:
            assert got == B.zero(), (S, r, m)
        else:
            want = B.mul(fundamental_class(pn(k), "L"), fundamental_class(S, "L"))
            assert got == want, (S, r, m)


def test_10_randomized_property_suites():
    def body():
        _suite_fgl_axioms(200)
        _suite_reversion(200)
        _suite_total_P_inverse(200)
        _suite_lambda_inversion(200)
        _suite_quillen_trivial(200)

    _stamp(10, "five randomized property suites, 200 seeded cases each, "
               "zero failures", body)
