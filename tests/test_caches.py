"""Caches never change an answer: every verifier report is the same from
empty caches, on a warm repeat and after `clear_caches()`, whatever order
the actions come in, and `clear_caches()` empties every cache it names."""

import functools
import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcalc import chow_models, clear_caches, fgl
from cobcalc.chow_models import VarietySpec, _residues, build_model
from cobcalc.cobordism import lazard_piece
from cobcalc.core_algebra import TRING, _half_norm
from cobcalc.fixedpoint import (
    _integer_twist,
    _lmod2_twists,
    builtin_action,
    verify_all,
    verify_L2_relations,
    verify_lmod2,
)
from law_oracle import b_transport_by_parts, lmod2_series_by_loop

SMALL_BUILTINS = (
    [("linear_pn", {"n": n, "a": a}) for n in range(1, 5) for a in range(n)]
    + [("factorwise_p1n", {"n": n}) for n in range(1, 4)]
    + [("swap_square", {"spec": VarietySpec.multiproj(d)}) for d in ([1], [2], [3])]
)


def _report(verify, name, params, **kwargs):
    """The report of `verify` on a freshly built action, as canonical JSON."""
    return json.dumps(verify(builtin_action(name, **params), **kwargs).to_json(), sort_keys=True)


def _package_lru_caches():
    return [o for o in gc.get_objects()
            if isinstance(o, functools._lru_cache_wrapper)
            and getattr(o, "__module__", "").startswith("cobcalc")]


def test_clear_caches_empties_every_cache():
    verify_all(builtin_action("linear_pn", n=3, a=1))
    caches = _package_lru_caches()
    assert chow_models._model_cache and any(f.cache_info().currsize for f in caches)
    # both fixed components are P^1: its model holds a residue record and
    # its fundamental class
    warm = build_model(VarietySpec.multiproj([1]))
    assert warm._residues and warm._fundamental is not None
    clear_caches()
    assert not chow_models._model_cache
    assert [f.__qualname__ for f in caches if f.cache_info().currsize] == []
    model = build_model(VarietySpec.multiproj([1]))
    assert model is not warm
    assert model._residues == {} and model._fundamental is None


def test_clear_caches_empties_specialize_memo_and_scaled_twists():
    verify_lmod2(builtin_action("linear_pn", n=3, a=1))
    fgl.specialize(fgl.universal_fgl(9), TRING, lambda c: fgl.b_transport(c, TRING, fgl.chx_b_image))
    assert fgl._passed_table(TRING, 9) and _lmod2_twists.cache_info().currsize
    clear_caches()
    assert fgl._passed_table.cache_info().currsize == 0
    assert _lmod2_twists.cache_info().currsize == 0


def test_lazard_generators_same_after_clear_caches():
    before = lazard_piece(7).generators
    clear_caches()
    piece = lazard_piece(7)
    assert piece._generators is None  # built on first read, not with the piece
    assert piece.generators == before


def test_universal_law_same_after_clear_caches():
    # the store and its Horner rows M_j(b) are append-only tables that
    # clear_caches() keeps; the law and its multiples built after it hold
    # the same coefficients, in the same order
    law = fgl.universal_fgl(18)
    before = [list(s.coeffs.items()) for s in (law.series, law.formal_mult(2), law.formal_mult(-1))]
    horner = list(fgl._HORNER)
    clear_caches()
    again = fgl.universal_fgl(18)
    assert again is not law
    after = [list(s.coeffs.items()) for s in (again.series, fgl.formal_mult(again, 2),
                                              fgl.formal_mult(again, -1))]
    assert after == before
    assert len(fgl._HORNER) >= len(horner)
    assert all(row is kept for row, kept in zip(fgl._HORNER, horner))


def test_transport_tables_are_bounded_and_cleared():
    coeffs = list(fgl.universal_fgl(9).series.coeffs.values())
    want = [fgl.b_transport(c, TRING, fgl.chx_b_image) for c in coeffs]
    assert fgl._image_table.cache_info().currsize
    # a caller that makes a new map on every call keeps at most the bound
    for k in range(50):
        image = lambda i, k=k: TRING.monomial(i, k + 1)  # noqa: E731
        assert fgl.b_transport(coeffs[-1], TRING, image) == b_transport_by_parts(coeffs[-1], TRING, image)
        info = fgl._image_table.cache_info()
        assert info.currsize <= info.maxsize == 8
    clear_caches()
    assert fgl._image_table.cache_info().currsize == 0
    assert [fgl.b_transport(c, TRING, fgl.chx_b_image) for c in coeffs] == want


@pytest.mark.parametrize("name,params", SMALL_BUILTINS)
def test_completion_bundle_is_made_once(name, params):
    for comp in builtin_action(name, **params).components:
        nb = comp.normal_plus_one()
        assert comp.normal_plus_one() is nb
        # the residue record is keyed by the line vectors and trivial rank
        _residues(nb)
        assert (nb.plus_lines, nb.plus_trivial) in comp.model._residues


@pytest.mark.parametrize("name,params", SMALL_BUILTINS)
def test_verify_all_same_cold_warm_and_cleared(name, params):
    clear_caches()
    cold = _report(verify_all, name, params)
    assert _report(verify_all, name, params) == cold
    clear_caches()
    assert _report(verify_all, name, params) == cold


# Actions whose fixed components share models and bundles: linear_pn(4, a)
# and linear_pn(4, 3 - a) have the same two components, swap_square(P^1)
# puts another bundle on the P^1 of linear_pn(4, 1), and the twists above
# the ambient dimension reach pushforwards and zeta powers that vanish.
SHARED = (
    [(verify_all, "linear_pn", {"n": 4, "a": a}, {}) for a in range(4)]
    + [
        (verify_all, "linear_pn", {"n": 3, "a": 1}, {}),
        (verify_all, "swap_square", {"spec": VarietySpec.multiproj([1])}, {}),
        (verify_all, "factorwise_p1n", {"n": 2}, {}),
        (verify_lmod2, "linear_pn", {"n": 3, "a": 1}, {"max_m": 9}),
        (verify_L2_relations, "linear_pn", {"n": 4, "a": 1}, {"max_m": 6}),
    ]
)


@functools.lru_cache(maxsize=None)
def _cold_reports():
    out = []
    for verify, name, params, kwargs in SHARED:
        clear_caches()
        out.append(_report(verify, name, params, **kwargs))
    return tuple(out)


@settings(max_examples=6, deadline=None)
@given(st.permutations(range(len(SHARED))))
def test_shuffled_shared_components_match_cold_reports(order):
    cold = _cold_reports()
    clear_caches()
    for i in order + order[:3]:
        verify, name, params, kwargs = SHARED[i]
        assert _report(verify, name, params, **kwargs) == cold[i]


def test_twisted_series_match_the_power_loop():
    # the memo keeps z^m V = 2 (zeta^m v(zeta))(2x) over B(ZZ); halved by
    # 2^(j+1) at x^j, and doubled at m = 0, it is the loop's g_m over
    # B(ZHALF), coefficient for coefficient
    clear_caches()
    for order in range(3, 14):
        want = lmod2_series_by_loop(order, order)
        for m in range(order + 1):
            got = _integer_twist(order, m)
            halved = {e: {p: _half_norm(v, e[0] + (m > 0)) for p, v in c.items()}
                      for e, c in got.coeffs.items()}
            assert (got.order, halved) == (want[m].order, want[m].coeffs), (order, m)
            # grown only to the m asked, and to at most `order` series
            assert len(_lmod2_twists(order)[1]) == min(m, order - 1) + 1, (order, m)
    # a small max_m computes no further power; the loop above grew the memo
    # of order 6, the one verify_lmod2 reads at n = 3
    clear_caches()
    verify_lmod2(builtin_action("linear_pn", n=3, a=1), max_m=1)
    assert len(_lmod2_twists(6)[1]) == 2
