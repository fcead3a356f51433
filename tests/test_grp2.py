import itertools
import random

import pytest

from symprs import verify
from symprs.gf2 import BitMat, BitVec
from symprs.graph import Graph, dynkin_graph, graph_classes
from symprs.grp2 import (
    CocycleGroup,
    burnside_check,
    extraspecial_sign,
    lift_decoration,
    make_group,
)
from symprs.srs import minimal_srs, quotient
from symprs.symplectic import SympSpace, standard_space

from conftest import random_space


def random_cocycle(rng, space):
    d = space.dim
    rows = [0] * d
    for i in range(d):
        for j in range(i, d):
            if i == j:
                rows[i] |= rng.randrange(2) << i
            elif space.gram.entry(i, j):
                # Split each form 1 arbitrarily between (i, j) and (j, i).
                side = rng.randrange(2)
                rows[i] |= side << j
                rows[j] |= (1 - side) << i
            else:
                both = rng.randrange(2)
                rows[i] |= both << j
                rows[j] |= both << i
    return CocycleGroup(space, BitMat(d, rows))


def test_cocycle_validation():
    space = standard_space(1, 0)
    with pytest.raises(ValueError, match="does not split"):
        CocycleGroup(space, BitMat.zeros(2, 2))
    with pytest.raises(ValueError, match="shape"):
        CocycleGroup(space, BitMat.zeros(3, 3))
    make_group(space)


def test_mismatched_dimensions_raise():
    grp = make_group(standard_space(1, 0))
    good = (BitVec.zero(2), 0)
    for bad in [(BitVec.zero(3), 0), (BitVec.zero(1), 1), (BitVec(9, 256), 0)]:
        for op in (grp.multiply, grp.commutator):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(good, bad)
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(bad, good)
        with pytest.raises(ValueError, match="dimension mismatch"):
            grp.element_order(bad)
        with pytest.raises(ValueError, match="dimension mismatch"):
            grp.closure([good, bad])


def test_signs_outside_zero_and_one_raise():
    grp = make_group(standard_space(1, 0))
    v = BitVec(2, 1)
    good = (v, 0)
    for bad in [(v, 2), (v, 5), (v, 3), (v, -1), (v, True), (v, False), (v, 1.0)]:
        for op in (grp.multiply, grp.commutator):
            with pytest.raises(ValueError, match=r"element sign .* is not 0 or 1"):
                op(good, bad)
            with pytest.raises(ValueError, match=r"element sign .* is not 0 or 1"):
                op(bad, good)
        for op in (grp.inverse, grp.element_order):
            with pytest.raises(ValueError, match=r"element sign .* is not 0 or 1"):
                op(bad)
        with pytest.raises(ValueError, match=r"element sign .* is not 0 or 1"):
            grp.closure([good, bad])
        with pytest.raises(ValueError, match=r"element sign .* is not 0 or 1"):
            burnside_check(grp, [good, bad])
    # the dimension is checked first, with its own message
    with pytest.raises(ValueError, match="dimension mismatch 3 != 2"):
        grp.multiply(good, (BitVec.zero(3), 2))
    # the exact message, bools included
    with pytest.raises(ValueError, match=r"^element sign True is not 0 or 1$"):
        grp.inverse((v, True))


def test_group_axioms_exhaustively():
    rng = random.Random(5)
    for dim in (1, 2, 3):
        grp = random_cocycle(rng, random_space(rng, dim))
        elems = list(grp.elements())
        assert len(elems) == grp.order()
        e = grp.identity()
        for g in elems:
            assert grp.multiply(g, e) == grp.multiply(e, g) == g
            assert grp.multiply(g, grp.inverse(g)) == e
        for g, h, k in itertools.product(elems[:6], elems[:6], elems):
            assert grp.multiply(grp.multiply(g, h), k) == grp.multiply(g, grp.multiply(h, k))


def test_commutator_is_the_form():
    rng = random.Random(6)
    for dim in (2, 3, 4):
        space = random_space(rng, dim)
        grp = random_cocycle(rng, space)
        zero = BitVec.zero(dim)
        for g, h in itertools.product(grp.elements(), repeat=2):
            assert grp.commutator(g, h) == (zero, space.form(g[0], h[0]))


def test_squares_and_element_orders():
    grp = make_group(standard_space(1, 0))
    for g in grp.elements():
        square = grp.multiply(g, g)
        assert square == (BitVec.zero(2), grp.quadratic(g[0]))
        expected = {1: 1, 2: 2, 4: 4}[grp.element_order(g)]
        power = g
        for _ in range(expected - 1):
            power = grp.multiply(power, g)
        assert power == grp.identity()
        if expected > 1:
            assert grp.multiply(g, g) != grp.identity() or expected == 2


def test_d4_versus_q8():
    space = standard_space(1, 0)
    d4 = make_group(space)
    assert sum(1 for g in d4.elements() if d4.element_order(g) == 4) == 2
    assert extraspecial_sign(d4) == "plus"
    q8 = make_group(space, diagonal=BitVec.from_string("11"))
    assert sum(1 for g in q8.elements() if q8.element_order(g) == 4) == 6
    assert extraspecial_sign(q8) == "minus"


def test_sign_matches_order_four_count():
    rng = random.Random(7)
    for n in (1, 2, 3):
        space = standard_space(n, 0)
        for _ in range(8):
            grp = random_cocycle(rng, space)
            four = sum(1 for g in grp.elements() if grp.element_order(g) == 4)
            ones = four // 2
            expected = "plus" if ones == (1 << (2 * n - 1)) - (1 << (n - 1)) else "minus"
            assert extraspecial_sign(grp) == expected


def test_sign_rejects_degenerate_and_trivial():
    with pytest.raises(ValueError, match="extraspecial"):
        extraspecial_sign(make_group(standard_space(1, 1)))
    with pytest.raises(ValueError, match="extraspecial"):
        extraspecial_sign(make_group(standard_space(0, 0)))


def test_z4_versus_klein_four_on_a_lone_nullvector():
    space = standard_space(0, 1)
    klein = make_group(space)
    assert all(klein.element_order(g) <= 2 for g in klein.elements())
    z4 = make_group(space, diagonal=BitVec.from_string("1"))
    assert sorted(z4.element_order(g) for g in z4.elements()) == [1, 2, 4, 4]


def test_center_is_radical_times_sign():
    rng = random.Random(8)
    for dim in (2, 3, 4, 5):
        space = random_space(rng, dim)
        grp = random_cocycle(rng, space)
        _, k = space.type
        center = grp.center()
        assert len(center) == 1 << (k + 1)
        elems = list(grp.elements())
        for z in center:
            assert all(grp.commutator(z, g) == grp.identity() for g in elems)
        central = {g for g in elems if all(grp.commutator(g, h) == grp.identity() for h in elems)}
        assert central == set(center)


def test_lifted_decorations_commute_like_the_graph():
    g = dynkin_graph("D", 4)
    s = minimal_srs(g)
    grp = make_group(s.space)
    lifts = lift_decoration(s, grp)
    zero = BitVec.zero(4)
    for p in range(4):
        for q in range(4):
            expected = (zero, 1 if g.has_edge(p, q) else 0)
            assert grp.commutator(lifts[p], lifts[q]) == expected


def test_lift_requires_matching_space():
    s = minimal_srs(dynkin_graph("A", 2))
    with pytest.raises(ValueError, match="different spaces"):
        lift_decoration(s, make_group(standard_space(2, 0)))


def test_minimal_lifts_generate_minimally():
    s = minimal_srs(dynkin_graph("A", 2))
    grp = make_group(s.space)
    lifts = lift_decoration(s, grp)
    assert len(grp.closure(lifts)) == 8 == grp.order()
    report = burnside_check(grp, lifts)
    assert report.generates and report.minimal
    assert report.quotient_dim == report.image_rank == 2


def test_quotient_lifts_generate_but_not_minimally():
    s = minimal_srs(dynkin_graph("A", 3))
    line = [s.space.radical[0]]
    small, _ = quotient(s, line)
    grp = make_group(small.space)
    lifts = lift_decoration(small, grp)
    assert len(grp.closure(lifts)) == grp.order() == 8
    report = burnside_check(grp, lifts)
    assert report.generates and not report.minimal
    assert report.quotient_dim == 2 and len(lifts) == 3


def test_redundant_generator_detected():
    grp = make_group(standard_space(2, 0))
    v1 = BitVec.basis(4, 0)
    v2 = BitVec.basis(4, 2)
    report = burnside_check(grp, [(v1, 0), (v2, 0), (v1 ^ v2, 1)])
    assert not report.generates
    assert report.image_rank == 2 and report.quotient_dim == 4


def test_burnside_elementary_abelian_branch():
    # Zero form, alternating cocycle: the sign coordinate must itself be
    # generated.
    space = SympSpace(BitMat.zeros(2, 2))
    grp = make_group(space)
    vec_only = [(BitVec.basis(2, 0), 0), (BitVec.basis(2, 1), 0)]
    report = burnside_check(grp, vec_only)
    assert report.quotient_dim == 3
    assert not report.generates
    full = vec_only + [(BitVec.zero(2), 1)]
    full_report = burnside_check(grp, full)
    assert full_report.generates and full_report.minimal
    assert len(grp.closure(full)) == grp.order() == 8
    # A nonzero diagonal collapses the quotient back to V.
    twisted = make_group(space, diagonal=BitVec.from_string("10"))
    assert burnside_check(twisted, vec_only).quotient_dim == 2
    assert burnside_check(twisted, vec_only).generates


def test_closure_of_partial_sets():
    s = minimal_srs(dynkin_graph("A", 4))
    grp = make_group(s.space)
    lifts = lift_decoration(s, grp)
    assert len(grp.closure(lifts[:2])) == 8
    assert len(grp.closure(lifts)) == grp.order() == 32
    assert len(grp.closure([])) == 1


def test_extraspecial_sign_of_quotients_of_paths():
    # Quotienting the odd path's radical yields the plus-type group: the
    # canonical cocycle restricted through the quotient is reached by
    # make_group of the quotient space.
    s = minimal_srs(dynkin_graph("A", 5))
    small, _ = quotient(s, list(s.space.radical))
    grp = make_group(small.space)
    assert extraspecial_sign(grp) == "plus"
    assert grp.order() == 32


def test_group_sweep_reports_one_flipped_commutator(monkeypatch):
    """The ``srs verify`` group sweep cannot pass vacuously: one wrong sign
    from the law fails it, and every pair is still counted."""
    law = CocycleGroup._commutator_signs
    first3 = graph_classes(3)[0]  # the sweep meets it as its first group of dimension 3

    def flip_one(grp, v, a, q):
        signs = law(grp, v, a, q)
        if grp.dim == 3 and grp.space == minimal_srs(first3).space and (v, a) == (5, 1):
            signs = (signs[0] ^ 1 << 3, signs[1])  # the sign of [g, h] for h = (3, 0)
        return signs

    monkeypatch.setattr(CocycleGroup, "_commutator_signs", flip_one)
    result = verify.run(["group"], 5, 6, 6, 0)
    group = result["suites"]["group"]
    assert not result["ok"] and not group["ok"]
    assert group["checks"] == 151_811
    assert group["failures"] == [f"graph {first3.edge_list()}: commutator is not the form"]


def test_a_sweep_that_counts_zero_checks_fails(monkeypatch):
    """A sweep may report its passed checks as one count; a count of 0 is
    no check, so the suite fails as if the sweep yielded nothing."""
    monkeypatch.setattr(verify, "_group", lambda max_nodes: iter([0]))
    result = verify.run(["group"], 5, 6, 6, 0)
    assert not result["ok"]
    assert result["suites"]["group"] == {"ok": False, "checks": 0, "failures": ["no checks ran"]}
