import json
from functools import reduce
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from cobcalc import clear_caches, cobordism, fgl, fixedpoint
from cobcalc.chow_models import VarietySpec, fundamental_class
from cobcalc.cobordism import (
    BRING,
    LazardDegreePiece,
    binomial_middle_gcd,
    decomposable_test,
    lazard_basis,
    lazard_piece,
    mod2_theory_piece,
    p_typical_chern_check,
    p_typical_kernel_check,
    prime_power_root,
)
from cobcalc.cli import main
from cobcalc.core_algebra import IntegerLattice, hnf_rows, partitions
from kernel_oracle import dense_hnf_rows, dense_member
from cobcalc.fgl import universal_fgl
from law_oracle import (
    lazard_lattice_from_all_products,
    mod2_generator_rows,
    mod2_piece_from_generators,
    mod2_piece_from_hnf_rows,
    scaled_lattice,
)


def pn(n):
    return VarietySpec.multiproj([n])


def test_piece_ranks_full():
    # number of weight-n monomial partitions, i.e. the piece has full rank
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, r in enumerate(expected):
        piece = lazard_piece(n)
        assert len(piece.basis) == r
        assert piece.rank == r


def test_degree_one_piece_is_even_multiples():
    piece = lazard_piece(1)
    assert len(piece.generators) == 1
    assert piece.generators[0] == {(1,): 2}
    assert piece.member({(1,): 2})
    assert piece.member({(1,): -6})
    assert not piece.member({(1,): 1})
    assert not piece.member({(1,): 3})


def test_member_mod_scaling():
    piece = lazard_piece(1)
    assert piece.member_mod({(1,): 4}, 2)
    assert not piece.member_mod({(1,): 2}, 2)
    assert piece.member_mod({(1,): 2}, 0)
    assert piece.member_mod({(1,): 6}, 3)
    assert not piece.member_mod({(1,): 4}, 3)


@st.composite
def _degree_vector_modulus(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    piece = lazard_piece(n)
    # a lattice combination of the HNF rows, sometimes nudged off the lattice
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=piece.rank, max_size=piece.rank))
    vec = [sum(c * row[i] for c, row in zip(coeffs, piece.lattice.hnf))
           for i in range(len(piece.basis))]
    scale = draw(st.sampled_from([1, m]))
    vec = [scale * v for v in vec]
    if draw(st.booleans()):
        vec[draw(st.integers(0, len(vec) - 1))] += draw(st.integers(-4, 4))
    return n, vec, m


@settings(max_examples=150, deadline=None)
@given(_degree_vector_modulus())
def test_member_mod_matches_scaled_lattice(case):
    n, vec, m = case
    piece = lazard_piece(n)
    elt = {p: c for p, c in zip(piece.basis, vec) if c}
    assert piece.member_mod(elt, m) == scaled_lattice(piece.lattice, m).member(vec)


def test_mod2_piece_matches_all_generator_oracle():
    for n in range(1, 11):
        fast, ref = mod2_theory_piece(n), mod2_piece_from_generators(n)
        assert fast.hnf == ref.hnf
        assert fast.pivcols == ref.pivcols


def test_mod2_piece_matches_hnf_row_oracle():
    # the GF(2) echelon route against twice the HNF rows of L_n plus c_k
    # times the HNF rows of L_(n-k+1), one b-polynomial product per row
    for n in range(14):
        fast, ref = mod2_theory_piece(n), mod2_piece_from_hnf_rows(n)
        assert fast.hnf == ref.hnf, n
        assert fast.pivcols == ref.pivcols, n


def _mod2_rows(monkeypatch, n):
    """The rows that an uncached mod2_theory_piece(n) hands to IntegerLattice."""
    seen = []

    class Recording(IntegerLattice):
        __slots__ = ()

        def __init__(self, generators, ncols):
            seen.append(list(generators))
            super().__init__(seen[-1], ncols)

    monkeypatch.setattr(cobordism, "IntegerLattice", Recording)
    cobordism.mod2_theory_piece.__wrapped__(n)
    monkeypatch.undo()
    return seen[0]


def test_mod2_rows_are_triangular(monkeypatch):
    # one row leads at each column: an echelon row at its pivot, with the
    # diagonal entry of x^alpha there, and 2 x^alpha at every other column;
    # so the HNF of the mod-2 piece only back-reduces
    for n in range(14):
        rows = _mod2_rows(monkeypatch, n)
        basis = partitions(n)
        assert len(rows) == len(basis), n
        leads = [next(c for c, a in enumerate(r) if a) for r in rows]
        assert leads == list(range(len(basis))), n
        doubled = [abs(r[i]) == 2 * prod(prime_power_root(k + 1) or 1 for k in alpha)
                   for i, (r, alpha) in enumerate(zip(rows, basis))]
        assert sum(doubled) == sum(all((k + 1) & k for k in alpha) for alpha in basis), n


def test_two_coefficient_coordinates_rebuild_the_coefficients():
    # c_k = sum y x^gamma over the solved coordinates
    for k in range(2, 15):
        ck = universal_fgl(k + 1).formal_mult(2).coefficient((k,))
        coords = cobordism._two_coefficient_coordinates(k)
        assert coords and all(coords.values()), k
        got = BRING.dot([(cobordism._generator_monomial(g), BRING.one(), y) for g, y in coords.items()])
        assert got == ck, k
    assert cobordism._two_coefficient_coordinates(4) == {(3,): 7, (2, 1): -6}


def test_two_coefficient_remainder_raises(monkeypatch):
    # with x^(3) doubled, the coordinate 7 of c_4 at (3) leaves a remainder
    plain = cobordism._generator_monomial
    monkeypatch.setattr(cobordism, "_generator_monomial",
                        lambda a: BRING.int_scale(plain(a), 2) if a == (3,) else plain(a))
    with pytest.raises(AssertionError, match="not integral"):
        cobordism._two_coefficient_coordinates.__wrapped__(4)


def test_mod2_index_certificate_is_the_pivot_product():
    # [L_n : M_n] is the order of the mod-2 theory's coefficients in degree
    # n, 2^q with q the partitions of n with no part 2^j - 1
    ratios = []
    for n in range(1, 13):
        lat = mod2_theory_piece(n)
        assert lat.rank == len(partitions(n))
        pivots = prod(row[c] for row, c in zip(lat.hnf, lat.pivcols))
        assert pivots == cobordism._mod2_index(n), n
        ratios.append(pivots // cobordism._lazard_index(n))
    assert ratios == [1, 2, 1, 4, 2, 8, 2, 32, 8, 256, 32, 4096]


def _without_coefficient(monkeypatch, k):
    """Build the mod-2 pieces afterwards without the ideal generator c_k."""
    plain = cobordism._two_coefficient_coordinates.__wrapped__
    monkeypatch.setattr(cobordism, "_two_coefficient_coordinates",
                        lambda j: {} if j == k else plain(j))
    monkeypatch.setattr(cobordism, "mod2_theory_piece", cobordism.mod2_theory_piece.__wrapped__)


def test_dropped_coefficient_fails_the_mod2_certificate(monkeypatch, capsys):
    # without c_2 = x_1 the degree -1 piece is 2 L_1, of index 2 too large;
    # the l2 verifier reports the failure as an internal error
    _without_coefficient(monkeypatch, 2)
    for n in range(1, 8):
        with pytest.raises(AssertionError, match="mod-2 piece of degree %d" % n):
            cobordism.mod2_theory_piece(n)
    code = main(["verify", "--theorem", "l2", "--builtin", "linear_pn", "--n", "3", "--a", "1"])
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert code == 3
    assert obj["status"] == "internal-error"
    assert "index certificate" in obj["error"]
    assert "Traceback" not in captured.err


def test_lazard_index_finds_each_part_index_once(monkeypatch):
    # m(k) is one prime_power_root call per k, not one per part
    calls = []
    real = cobordism.prime_power_root

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cobordism, "prime_power_root", counted)
    cobordism._part_index.cache_clear()
    assert cobordism._lazard_index(12) == prod(
        prime_power_root(k + 1) or 1 for alpha in partitions(12) for k in alpha)
    assert sorted(calls) == list(range(2, 14))
    monkeypatch.undo()
    cobordism._part_index.cache_clear()


def test_lazard_piece_matches_all_products_oracle():
    # the p(n) generator monomials span the same lattice as every product
    # of law coefficients of weight n
    for n in range(14):
        fast, ref = lazard_piece(n).lattice, lazard_lattice_from_all_products(n)
        assert fast.hnf == ref.hnf, n
        assert fast.pivcols == ref.pivcols, n


def test_member_mod_rejects_non_int_input():
    piece = lazard_piece(2)
    elt = {(2,): 2, (1, 1): 2}
    for m in (2.0, True, -1):
        with pytest.raises(ValueError, match="nonnegative int"):
            piece.member_mod(elt, m)
    for bad in ({(2,): 2.0}, {(2,): True}, {(2,): 2, (1, 1): 1.5}):
        with pytest.raises(ValueError, match="must be ints"):
            piece.member(bad)
        with pytest.raises(ValueError, match="must be ints"):
            piece.member_mod(bad, 2)
    assert piece.member_mod({(2,): 4, (1, 1): 4}, 2) == piece.member(elt)


def test_generator_monomials_are_triangular():
    # in the partitions(n) order, the row of x^alpha is zero left of column
    # alpha and its diagonal entry is +-prod m(k) over the parts k of alpha:
    # x_k is +-d_k b_k plus decomposables, and refining alpha goes left; so
    # the HNF of L_n takes no Euclid step, and the diagonal entries multiply
    # to the index, which checks `_lazard_index` independently
    for n in range(14):
        piece = lazard_piece(n)
        diagonal = []
        for i, alpha in enumerate(piece.basis):
            row = piece.vector(cobordism._generator_monomial(alpha))
            assert not any(row[:i]), alpha
            assert abs(row[i]) == prod(prime_power_root(k + 1) or 1 for k in alpha), alpha
            diagonal.append(abs(row[i]))
        assert prod(diagonal) == cobordism._lazard_index(n), n


def test_session_lattices_match_dense_oracle(monkeypatch):
    # the 26 matrices of a cold session, L_0..L_13 and the mod-2 pieces of
    # degree 1..12, against the dense HNF; membership of every row, of every
    # row nudged off the lattice and of sums of neighbouring rows
    seen = []

    class Recording(IntegerLattice):
        __slots__ = ()

        def __init__(self, generators, ncols):
            seen.append((list(generators), ncols))
            super().__init__(seen[-1][0], ncols)

    monkeypatch.setattr(cobordism, "IntegerLattice", Recording)
    for n in range(14):
        cobordism.lazard_piece.__wrapped__(n)
    for n in range(1, 13):
        cobordism.mod2_theory_piece.__wrapped__(n)
    monkeypatch.undo()
    assert [ncols for _, ncols in seen] == [len(partitions(n)) for n in range(14)] + [
        len(partitions(n)) for n in range(1, 13)]
    for rows, ncols in seen:
        hnf, pivcols = hnf_rows(rows)
        assert (hnf, pivcols) == dense_hnf_rows(rows), ncols
        lattice = IntegerLattice(rows, ncols)
        vectors = [list(r) for r in rows]
        vectors += [[a + (c == i % ncols) for c, a in enumerate(r)] for i, r in enumerate(rows)]
        vectors += [[a + b for a, b in zip(r, s)] for r, s in zip(rows, rows[1:])]
        for v in vectors:
            assert lattice.member(v) == dense_member(hnf, pivcols, v)


def test_index_certificate_is_the_pivot_product():
    for n in range(16):
        piece = lazard_piece(n)
        assert piece.rank == len(piece.basis)
        pivots = [row[c] for row, c in zip(piece.lattice.hnf, piece.lattice.pivcols)]
        assert prod(pivots) == cobordism._lazard_index(n), n
    # m(1) = 2, m(2) = 3, m(3) = 2: partitions of 3 are (3), (2,1), (1,1,1)
    assert cobordism._lazard_index(3) == 2 * (3 * 2) * 2 ** 3


def _with_doubled_generator(monkeypatch, k):
    """Make x_k twice Lazard's generator in every piece built afterwards."""
    plain = cobordism._lazard_generator.__wrapped__
    monkeypatch.setattr(
        cobordism, "_lazard_generator",
        lambda j: BRING.int_scale(plain(j), 2) if j == k else plain(j))
    monkeypatch.setattr(cobordism, "_generator_monomial", cobordism._generator_monomial.__wrapped__)


def test_doubled_generator_fails_the_certificate(monkeypatch):
    _with_doubled_generator(monkeypatch, 3)
    assert LazardDegreePiece(2).rank == 2
    for n in range(3, 8):
        with pytest.raises(AssertionError, match="index certificate"):
            LazardDegreePiece(n)


def test_failed_index_certificate_exits_3(capsys, monkeypatch):
    # lmod2 builds its lattice pieces through the uncached constructor, and
    # the piece of degree 3 holds x_2 x_1
    _with_doubled_generator(monkeypatch, 2)
    monkeypatch.setattr(fixedpoint, "lazard_piece", LazardDegreePiece)
    code = main(["verify", "--theorem", "lmod2", "--builtin", "linear_pn", "--n", "3", "--a", "1"])
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert code == 3
    assert obj["status"] == "internal-error"
    assert "index certificate" in obj["error"]
    assert "Traceback" not in captured.err


def test_generator_counts_are_pinned():
    # the session benchmark digests these counts
    assert len(lazard_piece(12).generators) == 348
    assert len(lazard_piece(13).generators) == 532


def test_no_production_query_builds_the_spanning_sets(monkeypatch):
    # the products of law coefficients are built only when `generators` is
    # read, and no verifier, lattice or membership query reads it
    calls = []
    real = cobordism.lazard_basis

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cobordism, "lazard_basis", counted)
    clear_caches()
    assert fixedpoint.verify_all(fixedpoint.builtin_action("linear_pn", n=6, a=2)).ok
    mod2_theory_piece(12)
    assert decomposable_test(VarietySpec.multiproj([2, 3]), 2)["in_Lmodp_decomposable"]
    spec = VarietySpec.projbundle(VarietySpec.multiproj([1, 2]), [(0, 0), (1, -1), (0, 2)])
    assert lazard_piece(spec.dim()).member(fundamental_class(spec, "L"))
    assert calls == []
    # the counter sees a read
    lazard_piece(3).generators
    assert calls == [3]
    monkeypatch.undo()
    for n in range(11):
        assert lazard_piece(n).generators == tuple(lazard_basis(n)), n


def test_lazard_piece_contains_its_generators():
    # every product of law coefficients lies in the span of the generator
    # monomials
    for n in range(14):
        piece = lazard_piece(n)
        assert all(piece.member(g) for g in piece.generators), n


def test_mod2_piece_contains_all_generator_rows():
    # the HNF-basis route spans every row of the all-generator route
    for n in range(1, 13):
        lat = mod2_theory_piece(n)
        assert all(lat.member(row) for row in mod2_generator_rows(n)), n


def test_mod2_piece_reuses_lattice_pieces():
    # mod2_theory_piece and direct callers share one cache entry per degree
    mod2_theory_piece(6)
    before = lazard_piece.cache_info()
    lazard_piece(6)
    after = lazard_piece.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize


def test_vector_rejects_wrong_degree():
    piece = lazard_piece(1)
    with pytest.raises(ValueError):
        piece.vector({(2,): 1})


def test_projective_space_class_is_minus_first_coefficient():
    a11 = universal_fgl(3).series.coefficient((1, 1))
    assert fundamental_class(pn(1), "L") == BRING.neg(a11)


def test_projective_space_classes_are_members():
    for n in range(1, 6):
        piece = lazard_piece(n)
        assert piece.member(fundamental_class(pn(n), "L"))


def test_product_class_is_member():
    spec = VarietySpec.product([pn(1), pn(2)])
    assert lazard_piece(3).member(fundamental_class(spec, "L"))


def test_degree_zero_piece():
    piece = lazard_piece(0)
    assert piece.rank == 1
    assert piece.generators == ({(): 1},)
    assert piece.member({(): 7})


def test_generator_degrees():
    for n in (2, 3, 4):
        for g in lazard_basis(n):
            for parts in g:
                assert sum(parts) == n
        assert len(lazard_basis(n)) >= len(partitions(n))


def test_decomposable_line():
    out = decomposable_test(pn(1), 2)
    assert out["additive_chern_number"] == -2
    assert out["in_Lp_decomposable"] is True
    assert out["in_Lmodp_decomposable"] is False


def test_decomposable_plane():
    out2 = decomposable_test(pn(2), 2)
    assert out2["additive_chern_number"] == -3
    assert out2["in_Lp_decomposable"] is False
    assert out2["in_Lmodp_decomposable"] is False
    out3 = decomposable_test(pn(2), 3)
    assert out3["in_Lp_decomposable"] is True
    assert out3["in_Lmodp_decomposable"] is False


def test_decomposable_three_space():
    # additive number -4 is divisible by 2^2 and the dimension is 2^2 - 1
    out = decomposable_test(pn(3), 2)
    assert out["additive_chern_number"] == -4
    assert out["in_Lp_decomposable"] is True
    assert out["in_Lmodp_decomposable"] is True


def test_decomposable_products():
    square = VarietySpec.product([pn(1), pn(1)])
    out = decomposable_test(square, 2)
    assert out["additive_chern_number"] == 0
    assert out["in_Lp_decomposable"] is True
    assert out["in_Lmodp_decomposable"] is True


def test_decomposable_rejects():
    with pytest.raises(ValueError):
        decomposable_test(pn(2), 4)
    with pytest.raises(ValueError):
        decomposable_test(VarietySpec.point(), 2)


def test_decomposable_needs_an_int_prime():
    for p in (2.0, 3.0, True):
        with pytest.raises(ValueError, match="p must be prime"):
            decomposable_test(pn(3), p)


def test_p_typical_kernel_pattern():
    assert p_typical_kernel_check(2, 6)
    assert p_typical_kernel_check(3, 6)
    with pytest.raises(ValueError):
        p_typical_kernel_check(4, 3)


def test_p_typical_chern_divisibility_line():
    out = p_typical_chern_check(pn(1), 2)
    assert out["ok"]
    assert out["divisor"] == 2  # not decomposable mod 2, so only p required
    assert out["alphas"] == [
        {"alpha": [1], "chern_number": -2, "divisor": 2, "ok": True}
    ]


def test_p_typical_chern_divisibility_products():
    # nontrivial products are decomposable mod p: the bound sharpens to p^2
    out = p_typical_chern_check(VarietySpec.multiproj([1, 1]), 2)
    assert out["decomposable_mod_p"]
    assert out["divisor"] == 4
    assert out["ok"]
    row = next(r for r in out["alphas"] if r["alpha"] == [1, 1])
    assert row["chern_number"] == 4


def test_p_typical_chern_divisibility_p3():
    # projective 3-space is decomposable mod 2 (4 is a power of 2)
    out = p_typical_chern_check(pn(3), 2)
    assert out["divisor"] == 4
    assert out["ok"]
    got = {tuple(r["alpha"]): r["chern_number"] for r in out["alphas"]}
    assert got == {(1, 1, 1): -20, (3,): -4}


def test_p_typical_chern_no_qualifying_partitions():
    out = p_typical_chern_check(pn(1), 3)
    assert out["alphas"] == []
    assert out["ok"]


def test_prime_power_root():
    assert prime_power_root(8) == 2
    assert prime_power_root(9) == 3
    assert prime_power_root(5) == 5
    assert prime_power_root(6) is None
    assert prime_power_root(1) is None


def test_binomial_gcd_small():
    assert [binomial_middle_gcd(n) for n in range(1, 6)] == [2, 3, 2, 5, 1]


def test_middle_binomial_bezout():
    for k in range(1, 21):
        d, lam = cobordism._middle_binomial_bezout(k)
        assert len(lam) == k
        assert sum(c * comb(k + 1, i) for i, c in enumerate(lam, 1)) == d
        assert d == binomial_middle_gcd(k)


def test_binomial_gcd_matches_gcd_of_binomials():
    for n in range(1, 31):
        assert binomial_middle_gcd(n) == reduce(gcd, (comb(n + 1, i) for i in range(1, n + 1)))


def test_binomial_gcd_rule():
    for n in range(1, 65):
        assert binomial_middle_gcd(n) == (prime_power_root(n + 1) or 1)


def test_binomial_gcd_and_prime_power_root_need_an_int():
    for n in (True, 2.0, 4.0, "4"):
        with pytest.raises(ValueError, match="n must be"):
            binomial_middle_gcd(n)
        with pytest.raises(ValueError, match="n must be"):
            prime_power_root(n)
    assert binomial_middle_gcd(3) == 2 and prime_power_root(4) == 2


def test_degrees_and_orders_must_be_nonnegative_ints():
    # the caches are typed, so an int asked first does not answer for an
    # equal bool or float
    lazard_piece(1)
    lazard_piece(2)
    mod2_theory_piece(3)
    universal_fgl(4)
    for n in (True, False, -1, 2.0):
        with pytest.raises(ValueError, match="degree must be a nonnegative int"):
            lazard_piece(n)
        with pytest.raises(ValueError, match="degree must be a nonnegative int"):
            lazard_basis(n)
    for n in (True, -1, 3.0):
        with pytest.raises(ValueError, match="degree must be a nonnegative int"):
            mod2_theory_piece(n)
    for law in (fgl.universal_fgl, fgl.chx_fgl, fgl.cha_fgl, fgl.additive_fgl):
        for order in (4.0, True, 1):
            with pytest.raises(ValueError, match="needs an int order >= 2"):
                law(order)
    with pytest.raises(ValueError, match="needs an int order >= 2"):
        fgl.universal_fgl_mod_p(4.0, 3)
