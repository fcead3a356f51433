import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from symprs import cartan
from symprs.cartan import (
    CartanDatum,
    _core,
    ade_srs,
    ade_table,
    automorphism_action_on_quotients,
    cartan_datum,
    group_order,
    parity_graph,
    roots,
    weyl_orbit,
    weyl_rep,
)
from symprs.gf2 import BitMat, BitVec, echelon_basis
from symprs.graph import Graph, automorphisms, dynkin_graph, graph_classes
from symprs.srs import minimal_srs, srs_isomorphic


ALL_FAMILIES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 7)]
    + [("C", r) for r in range(2, 7)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8)]
    + [("F", 4), ("G", 2)]
)
# the Weyl images of the benchmark's algebra workload, up to dimension 12
WEYL_CASES = [("E", 6), ("E", 7), ("E", 8), ("D", 10), ("A", 12), ("B", 8), ("C", 8), ("F", 4), ("G", 2)]


@lru_cache(maxsize=None)
def _weyl_rep(family: str, rank: int):
    return weyl_rep(cartan_datum(family, rank))


def test_datum_validation():
    with pytest.raises(ValueError, match="diagonal"):
        CartanDatum(((1,),), (1,))
    with pytest.raises(ValueError, match="symmetrizer fails"):
        CartanDatum(((2, -1), (-2, 2)), (1, 1))
    with pytest.raises(ValueError, match="zero pattern"):
        CartanDatum(((2, 0), (-1, 2)), (1, 1))
    with pytest.raises(ValueError, match="> 0"):
        CartanDatum(((2, 1), (1, 2)), (1, 1))
    with pytest.raises(ValueError, match="< 1"):
        CartanDatum(((2, -1), (-1, 2)), (1, 0))


def test_known_cartan_matrices():
    assert cartan_datum("B", 2).matrix == ((2, -1), (-2, 2))
    assert cartan_datum("B", 2).d == (2, 1)
    assert cartan_datum("C", 3).matrix == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert cartan_datum("G", 2).matrix == ((2, -3), (-1, 2))
    f4 = cartan_datum("F", 4)
    assert f4.matrix == ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    assert f4.d == (2, 2, 1, 1)
    a3 = cartan_datum("A", 3)
    assert a3.matrix == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_every_family_validates():
    for family, rank in ALL_FAMILIES:
        cartan_datum(family, rank)


def test_root_counts():
    expected = {
        ("A", 1): 2,
        ("A", 2): 6,
        ("A", 3): 12,
        ("A", 4): 20,
        ("B", 2): 8,
        ("B", 3): 18,
        ("C", 3): 18,
        ("C", 4): 32,
        ("D", 4): 24,
        ("D", 5): 40,
        ("G", 2): 12,
        ("F", 4): 48,
        ("E", 6): 72,
        ("E", 7): 126,
        ("E", 8): 240,
    }
    for (family, rank), count in expected.items():
        assert len(roots(cartan_datum(family, rank))) == count, (family, rank)


def test_roots_come_in_opposite_pairs():
    for family, rank in [("A", 3), ("B", 3), ("G", 2), ("D", 4)]:
        rts = set(roots(cartan_datum(family, rank)))
        assert all(tuple(-b for b in beta) in rts for beta in rts)
        assert all(all(b >= 0 for b in beta) or all(b <= 0 for b in beta) for beta in rts)


def test_root_closure_cap():
    # An affine-type matrix has infinitely many roots.
    affine = CartanDatum(((2, -2), (-2, 2)), (1, 1))
    with pytest.raises(RuntimeError, match="not finite type"):
        roots(affine)
    with pytest.raises(RuntimeError, match="not finite type"):
        oracles.roots(affine)


def test_roots_match_dense_closure_oracle():
    for family, rank in ALL_FAMILIES + WEYL_CASES:
        c = cartan_datum(family, rank)
        assert roots(c) == oracles.roots(c), (family, rank)


def test_weyl_orbits_match_bfs_oracle_on_every_datum():
    for family, rank in ALL_FAMILIES + WEYL_CASES:
        rep = _weyl_rep(family, rank)
        d = rep.datum.rank
        for v in (BitVec.zero(d), BitVec(d, (1 << d) - 1), rep.srs.deco.row(d - 1)):
            assert weyl_orbit(rep, v) == oracles.weyl_orbit(rep, v), (family, rank, v)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(ALL_FAMILIES + WEYL_CASES), st.integers(0, (1 << 12) - 1))
def test_weyl_orbit_matches_bfs_oracle(case, bits):
    rep = _weyl_rep(*case)
    v = BitVec(rep.datum.rank, bits & ((1 << rep.datum.rank) - 1))
    assert weyl_orbit(rep, v) == oracles.weyl_orbit(rep, v)


def test_parity_graph_matches_diagram_tables():
    for family, rank in ALL_FAMILIES:
        assert parity_graph(cartan_datum(family, rank)) == dynkin_graph(family, rank), (
            family,
            rank,
        )


def test_ade_srs_decorations_are_the_published_ones():
    def vec(dim, *positions):
        v = BitVec.zero(dim)
        for p in positions:
            v ^= BitVec.basis(dim, p)
        return v

    def deco(*vectors):
        return BitMat.from_rows(vectors)

    # A4 in standard_space(2, 0): x1 x2 y1 y2 at positions 0 1 2 3.
    a4 = ade_srs("A", 4)
    assert a4.deco == deco(vec(4, 0, 1), vec(4, 2), vec(4, 0), vec(4, 2, 3))
    # A3 in standard_space(1, 1): x1 y1 z1 at positions 0 1 2.
    a3 = ade_srs("A", 3)
    assert a3.deco == deco(vec(3, 1, 2), vec(3, 0), vec(3, 1))
    # A1 is a lone nullvector.
    assert ade_srs("A", 1).deco == deco(vec(1, 0))
    # A6: x's 0..2, y's 3..5.
    a6 = ade_srs("A", 6)
    assert a6.deco == deco(
        vec(6, 1, 2),
        vec(6, 3, 4),
        vec(6, 0),
        vec(6, 3),
        vec(6, 0, 1),
        vec(6, 4, 5),
    )
    # D4 in standard_space(1, 2): x1 y1 z1 z2 at 0 1 2 3.
    d4 = ade_srs("D", 4)
    assert d4.deco == deco(vec(4, 0), vec(4, 1), vec(4, 1, 2), vec(4, 1, 3))
    # D5 in standard_space(2, 1): x1 x2 y1 y2 z1 at 0 1 2 3 4.
    d5 = ade_srs("D", 5)
    assert d5.deco == deco(vec(5, 0, 1), vec(5, 2), vec(5, 0), vec(5, 2, 3), vec(5, 0, 1, 4))
    # E6 in standard_space(3, 0): x's 0..2, y's 3..5.
    e6 = ade_srs("E", 6)
    assert e6.deco == deco(
        vec(6, 0, 1),
        vec(6, 3),
        vec(6, 0),
        vec(6, 3, 4),
        vec(6, 4, 5),
        vec(6, 0, 1, 2),
    )
    # E7 in standard_space(3, 1): x's 0..2, y's 3..5, z at 6.
    e7 = ade_srs("E", 7)
    assert e7.deco.row(6) == vec(7, 3, 4, 5, 6)
    # E8 in standard_space(4, 0): x's 0..3, y's 4..7.
    e8 = ade_srs("E", 8)
    assert e8.deco.row(6) == vec(8, 6, 7)
    assert e8.deco.row(7) == vec(8, 1, 2, 3)


def test_ade_srs_types():
    expected = {
        ("A", 1): (0, 1),
        ("A", 2): (1, 0),
        ("A", 7): (3, 1),
        ("A", 8): (4, 0),
        ("D", 4): (1, 2),
        ("D", 5): (2, 1),
        ("D", 8): (3, 2),
        ("D", 9): (4, 1),
        ("E", 6): (3, 0),
        ("E", 7): (3, 1),
        ("E", 8): (4, 0),
        ("A", 2202): (1101, 0),  # deeper than the default recursion limit
    }
    for (family, rank), t in expected.items():
        s = ade_srs(family, rank)
        assert s.type == t, (family, rank)
        assert s.is_minimal


def test_core_decorations_match_the_recursive_definition():
    for m in range(40):
        assert _core(m) == oracles.core_decorations(m), m


def test_ade_srs_isomorphic_to_minimal():
    for family, rank in [(f, r) for f, r in ALL_FAMILIES if f in "ADE"]:
        s = ade_srs(family, rank)
        m = minimal_srs(dynkin_graph(family, rank))
        assert srs_isomorphic(s, m) is not None, (family, rank)


def test_ade_table_counts():
    assert ade_table("A", 6) == {(3, 0): 1}
    assert ade_table("A", 7) == {(3, 1): 1, (3, 0): 1}
    assert ade_table("A", 1) == {(0, 1): 1, (0, 0): 1}
    assert ade_table("D", 7) == {(3, 1): 1, (3, 0): 1}
    assert ade_table("D", 8) == {(3, 2): 1, (3, 1): 3, (3, 0): 1}
    assert ade_table("E", 6) == {(3, 0): 1}
    assert ade_table("E", 7) == {(3, 1): 1, (3, 0): 1}
    assert ade_table("E", 8) == {(4, 0): 1}


def test_weyl_rep_matrices_are_symplectic():
    for family, rank in ALL_FAMILIES:
        rep = weyl_rep(cartan_datum(family, rank))
        gram = rep.srs.space.gram
        for m in rep.generators:
            assert m.transpose() @ gram @ m == gram, (family, rank)


def test_weyl_rep_intertwines_reflections():
    for family, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        c = cartan_datum(family, rank)
        rep = weyl_rep(c)
        for beta in roots(c):
            image = rep.root_images[beta]
            for i in range(c.rank):
                coeff = sum(c.matrix[i][j] * beta[j] for j in range(c.rank))
                reflected = beta[:i] + (beta[i] - coeff,) + beta[i + 1 :]
                assert rep.root_images[reflected] == rep.generators[i] @ image


def test_weyl_rep_identifies_opposite_roots():
    rep = weyl_rep(cartan_datum("A", 3))
    for beta, image in rep.root_images.items():
        assert rep.root_images[tuple(-b for b in beta)] == image


def test_weyl_faithfulness_bookkeeping():
    # Simply laced: distinct positive roots stay distinct mod 2.
    for family, rank in [("A", 4), ("D", 4), ("E", 6)]:
        rep = weyl_rep(cartan_datum(family, rank))
        assert rep.faithful_on_roots
        assert rep.collision_count == 0
    # B2: (1, 0) and (1, 2) collide mod 2.
    rep = weyl_rep(cartan_datum("B", 2))
    assert not rep.faithful_on_roots
    assert rep.collision_count == 1


def test_weyl_image_orders():
    # A1 reflects a single root; mod 2 that is invisible.
    assert group_order(weyl_rep(cartan_datum("A", 1)).generators) == 1
    # A2: the full symplectic group of the plane, GL(2, 2).
    assert group_order(weyl_rep(cartan_datum("A", 2)).generators) == 6
    assert group_order(weyl_rep(cartan_datum("B", 2)).generators) == 2
    # W(A3) = S4 is faithful mod 2; W(D4) of order 192 only kills -1.
    assert group_order(weyl_rep(cartan_datum("A", 3)).generators) == 24
    assert group_order(weyl_rep(cartan_datum("D", 4)).generators) == 96


def test_group_order_methods_agree():
    # the stabilizer chain against listing every element
    for family, rank in [("A", 2), ("A", 3), ("A", 4), ("B", 3), ("D", 4), ("G", 2)]:
        gens = weyl_rep(cartan_datum(family, rank)).generators
        assert group_order(gens) == oracles.group_order_bfs(gens), (family, rank)
    assert group_order([]) == 1
    assert group_order([BitMat.identity(3)]) == 1


def test_group_order_cap_and_unknown_method():
    # No enumeration cap is left, and "chain" is the only method.
    gens = weyl_rep(cartan_datum("A", 4)).generators
    with pytest.raises(TypeError):
        group_order(gens, cap=100)
    for method in ("magic", "bfs"):
        with pytest.raises(ValueError, match="unknown method"):
            group_order(gens, method=method)
    assert group_order(gens, method="chain") == group_order(gens) == 120


def test_group_order_dimension_cap_comes_first(monkeypatch):
    # Past dimension 16 every call fails, even for the identity, and before
    # any elimination runs.
    def unreachable(m):
        raise AssertionError("a generator was inverted before the dimension check")

    monkeypatch.setattr(cartan, "inverse", unreachable)
    with pytest.raises(ValueError, match="dimension capped at 16"):
        group_order([BitMat.identity(17)])


def test_group_order_rejects_bad_generators():
    bad_sets = [
        ("not square", [BitMat(3, (1, 2))]),
        ("mixed dimension", [BitMat.identity(2), BitMat.identity(3)]),
        ("singular", [BitMat(2, (1, 1))]),
        ("singular", [BitMat.identity(2), BitMat(2, (0, 2))]),
    ]
    for reason, gens in bad_sets:
        with pytest.raises(ValueError, match=reason):
            group_order(gens)


def test_e8_image_order_via_chain():
    # The mod-2 Weyl image of E8 is twice the simple orthogonal group
    # O8+(2); the -1 of the Weyl group is invisible.
    gens = weyl_rep(cartan_datum("E", 8)).generators
    assert group_order(gens) == 348364800


def test_chain_order_of_gl_n_from_cycle_and_transvection():
    # The n-cycle permutation matrix and the transvection e_0 -> e_0 + e_1
    # generate GL(n, 2), of order prod_i (2^n - 2^i).
    for n in range(2, 9):
        cycle = BitMat(n, (1 << ((i - 1) % n) for i in range(n)))
        transvection = BitMat(n, (0b11 if i == 1 else 1 << i for i in range(n)))
        assert transvection @ BitVec.basis(n, 0) == BitVec.basis(n, 0) ^ BitVec.basis(n, 1)
        assert cycle @ BitVec.basis(n, n - 1) == BitVec.basis(n, 0)
        expected = math.prod(2**n - 2**i for i in range(n))
        assert group_order([cycle, transvection]) == expected, n


def test_chain_sifts_each_schreier_generator_once(monkeypatch):
    # Orbits only grow, so no Schreier generator is sifted twice: W(A12)
    # takes 2,773 products, where rebuilding each orbit on every
    # re-verification took 17,840.
    gens = weyl_rep(cartan_datum("A", 12)).generators
    calls = 0
    compose = cartan._compose

    def counting(a, b):
        nonlocal calls
        calls += 1
        return compose(a, b)

    monkeypatch.setattr(cartan, "_compose", counting)
    assert group_order(gens) == 6227020800
    assert calls <= 4000


def test_weyl_orbit_of_a_decoration():
    # For A_n the root images are exactly the contiguous index sums, and
    # they form a single orbit.
    c = cartan_datum("A", 4)
    rep = weyl_rep(c)
    orbit = weyl_orbit(rep, rep.srs.deco.row(0))
    assert set(orbit) == set(rep.root_images.values())
    assert len(orbit) == 10


def test_automorphism_action_on_star_quotients():
    # D4's diagram automorphisms permute the three intermediate classes
    # transitively and fix everything else.
    g = dynkin_graph("D", 4)
    actions = automorphism_action_on_quotients(g)
    auts = automorphisms(g)
    assert len(actions) == len(auts) == 6
    # Classes: index 0 minimal, 1..3 the lines, 4 the full radical.
    images_of_1 = {act[1] for act in actions}
    assert images_of_1 == {1, 2, 3}
    for act in actions:
        assert act[0] == 0 and act[4] == 4
        assert sorted(act) == list(range(5))
    identity_action = actions[auts.index((0, 1, 2, 3))]
    assert identity_action == (0, 1, 2, 3, 4)


def test_automorphism_action_on_d6_quotients():
    # The flip swapping the two fork nodes exchanges two of the three
    # intermediate classes and fixes the third.
    g = dynkin_graph("D", 6)
    auts = automorphisms(g)
    flip = (0, 1, 2, 3, 5, 4)
    assert set(auts) == {(0, 1, 2, 3, 4, 5), flip}
    s = minimal_srs(g)
    from symprs.srs import radical_subspaces

    subs = radical_subspaces(s)
    lines = {tuple(echelon_basis(list(sub), 6))[0]: i for i, sub in enumerate(subs) if len(sub) == 1}
    fixed_line = BitVec.from_string("000011")
    swapped = [v for v in lines if v != fixed_line]
    action = automorphism_action_on_quotients(g)[auts.index(flip)]
    assert action[lines[fixed_line]] == lines[fixed_line]
    assert action[lines[swapped[0]]] == lines[swapped[1]]
    assert action[lines[swapped[1]]] == lines[swapped[0]]


def test_automorphism_action_on_path_quotients():
    # Reversing an odd path fixes its single nontrivial class.
    g = dynkin_graph("A", 5)
    auts = automorphisms(g)
    reversal = (4, 3, 2, 1, 0)
    assert reversal in auts
    for action in automorphism_action_on_quotients(g):
        assert action == (0, 1)


def test_automorphism_action_matches_the_per_pair_oracle():
    """Every row, the identity's read without elimination included, equals
    one elimination per (automorphism, subspace) pair on every class with
    at most 5 nodes."""
    for size in range(6):
        for g in graph_classes(size):
            assert automorphism_action_on_quotients(g) == oracles.automorphism_action_on_quotients(g)


def test_action_rows_are_permutations_and_compose():
    g = Graph(4, [(0, 1), (2, 3)])
    auts = automorphisms(g)
    actions = automorphism_action_on_quotients(g)
    size = len(actions[0])
    for act in actions:
        assert sorted(act) == list(range(size))
    # The action is a homomorphism: composing permutations composes rows.
    table = dict(zip(auts, actions))
    for p, q in itertools.product(auts, repeat=2):
        composed = tuple(p[q[i]] for i in range(4))
        expected = tuple(table[p][table[q][i]] for i in range(size))
        assert table[composed] == expected
