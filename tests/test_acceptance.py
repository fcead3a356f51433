"""Acceptance suite: one test per advertised guarantee of the package.

Each test prints a single "[i/9] PASS <label> (<seconds>)" line (visible
with pytest -s); a failed assert means the corresponding guarantee is
broken. Where a guarantee carries a runtime budget, the test asserts it.
"""

import random
import time
from collections import Counter

from conftest import CLASS_DIGESTS, class_digest, random_space
from oracles import all_srs

from symprs.cartan import ade_srs, ade_table, cartan_datum, group_order, roots, weyl_rep
from symprs.extend import build_by_extension, extend_minimal
from symprs.gf2 import BitMat, BitVec, echelon_basis, kernel_basis, rank
from symprs.graph import Graph, all_graphs, dynkin_graph, graph_classes
from symprs.grp2 import burnside_check, extraspecial_sign, lift_decoration, make_group
from symprs.srs import (
    SRS,
    SRSError,
    coclique_bound_check,
    enumerate_quotients,
    minimal_srs,
    restrict,
    srs_isomorphic,
)
from symprs.symplectic import mixed_completion, random_completion_choices, standard_space

import pytest


ADE_RANKS = (
    [("A", r) for r in range(1, 13)]
    + [("D", r) for r in range(4, 13)]
    + [("E", r) for r in (6, 7, 8)]
)


def _passed(num: int, label: str, started: float):
    print(f"[{num}/9] PASS {label} ({time.monotonic() - started:.1f}s)")


def _expected_classes(family: str, rank: int) -> tuple[tuple[int, int], Counter]:
    """Minimal type and quotient-class multiset for a simply laced diagram."""
    if family == "A":
        n, k = rank // 2, rank % 2
    elif family == "D":
        n, k = (rank - 2 + rank % 2) // 2, 2 - rank % 2
    else:
        n, k = {6: (3, 0), 7: (3, 1), 8: (4, 0)}[rank]
    table = {
        0: {(n, 0): 1},
        1: {(n, 1): 1, (n, 0): 1},
        2: {(n, 2): 1, (n, 1): 3, (n, 0): 1},
    }[k]
    return (n, k), Counter(table)


def test_criterion_1_ade_class_table():
    started = time.monotonic()
    for family, rank in ADE_RANKS:
        minimal_type, expected = _expected_classes(family, rank)
        assert tuple(ade_srs(family, rank).type) == minimal_type, (family, rank)
        assert Counter(ade_table(family, rank)) == expected, (family, rank)
        # independent route: actually construct every quotient class
        computed = Counter(tuple(s.type) for s in enumerate_quotients(dynkin_graph(family, rank)))
        assert computed == expected, (family, rank)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"class table took {elapsed:.1f}s"
    _passed(1, f"class table for {len(ADE_RANKS)} simply laced diagrams", started)


# Explicit decorations, frozen by hand from the construction rules with
# coordinates ordered x_1..x_n y_1..y_n z_1..z_k.
EXPLICIT_DECORATIONS = {
    ("A", 1): ["1"],
    ("A", 2): ["10", "01"],
    ("A", 3): ["011", "100", "010"],
    ("A", 4): ["1100", "0010", "1000", "0011"],
    ("A", 5): ["00011", "11000", "00100", "10000", "00110"],
    ("A", 6): ["011000", "000110", "100000", "000100", "110000", "000011"],
    ("A", 7): ["0000011", "0110000", "0001100", "1000000", "0001000", "1100000", "0000110"],
    ("A", 8): [
        "00110000", "00000110", "11000000", "00001000",
        "10000000", "00001100", "01100000", "00000011",
    ],
    ("D", 4): ["1000", "0100", "0110", "0101"],
    ("D", 5): ["11000", "00100", "10000", "00110", "11001"],
    ("D", 6): ["110000", "001000", "100000", "001100", "000110", "000101"],
    ("D", 7): ["0110000", "0001100", "1000000", "0001000", "1100000", "0000110", "0110001"],
    ("D", 8): [
        "01100000", "00011000", "10000000", "00010000",
        "11000000", "00001100", "00000110", "00000101",
    ],
    ("E", 6): ["110000", "000100", "100000", "000110", "000011", "111000"],
    ("E", 7): ["0110000", "0001100", "1000000", "0001000", "1100000", "0000110", "0001111"],
    ("E", 8): [
        "01100000", "00001100", "10000000", "00001000",
        "11000000", "00000110", "00000011", "01110000",
    ],
}


def _fork_variant(family: str, rank: int, k: int, fork: list[str]) -> SRS:
    """The diagram's system with its two fork decorations replaced, built on
    a standard space of nullity k by truncating the z coordinates."""
    g = dynkin_graph(family, rank)
    n = (rank - 2) // 2
    core = [BitVec.from_string(s[:2 * n + k]) for s in EXPLICIT_DECORATIONS[(family, rank)][:-2]]
    return SRS(g, standard_space(n, k), BitMat.from_rows(core + [BitVec.from_string(s) for s in fork]))


def test_criterion_2_explicit_decorations():
    started = time.monotonic()
    for (family, rank), strings in EXPLICIT_DECORATIONS.items():
        s = ade_srs(family, rank)
        assert s.deco.to_strings() == strings, (family, rank)
        # the frozen data itself validates as a system on the diagram
        rebuilt = SRS(s.graph, s.space, BitMat.from_rows(strings))
        assert rebuilt == s

    # The nullity-2 diagrams quotient to exactly three nullity-1 classes,
    # realized by fork pairs (y_n, z+y_n), (z+y_n, y_n), (z+y_n, z+y_n),
    # and one nullity-0 class with both forks y_n.
    for rank in (4, 6):
        n = (rank - 2) // 2
        y = "0" * (2 * n - 1) + "10"
        zy = "0" * (2 * n - 1) + "11"
        variants = [
            _fork_variant("D", rank, 1, [y, zy]),
            _fork_variant("D", rank, 1, [zy, y]),
            _fork_variant("D", rank, 1, [zy, zy]),
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert srs_isomorphic(variants[i], variants[j]) is None, (rank, i, j)
        collapsed = _fork_variant("D", rank, 0, ["0" * (2 * n - 1) + "1"] * 2)
        classes = enumerate_quotients(dynkin_graph("D", rank))
        for v in variants + [collapsed]:
            matches = [c for c in classes if srs_isomorphic(v, c) is not None]
            assert len(matches) == 1, rank
        # a fork decorated x_n instead cannot pair with the attachment
        # node (and would pair with the other fork), so no such system
        x = "0" * (n - 1) + "1" + "0" * (n + 1)
        with pytest.raises(SRSError):
            _fork_variant("D", rank, 1, [zy, x])
    _passed(2, "explicit decorations incl. fork quotient classes", started)


def test_criterion_3_extension_rebuilds_minimal():
    started = time.monotonic()
    rng = random.Random(3)
    connected = [g for size in range(1, 7) for g in graph_classes(size) if g.is_connected()]
    assert sum(g.n == 6 for g in connected) == 112
    assert len(connected) == 143
    for g in connected:
        reference = minimal_srs(g)
        for _ in range(3):
            order = rng.sample(range(g.n), g.n)
            built = build_by_extension(g, order)
            assert built.is_minimal
            assert srs_isomorphic(built, reference) is not None, (g.edge_list(), order)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"rebuild sweep took {elapsed:.1f}s"
    _passed(3, "build_by_extension = minimal on 143 connected graphs x3 orders", started)


def test_criterion_4_restriction_dichotomy():
    started = time.monotonic()
    checked = 0
    for size in range(6):
        for g in all_graphs(size):
            s = minimal_srs(g)
            n0, k0 = s.type
            for v in range(size):
                sub = restrict(s, [u for u in range(size) if u != v])
                step = (sub.type.n - n0, sub.type.k - k0)
                assert step in ((0, -1), (-1, 1)), (g.edge_list(), v, step)
                checked += 1
    _passed(4, f"restriction dichotomy on {checked} minimal-system node deletions", started)


def _relation_space(s: SRS) -> tuple:
    """Canonical basis of the linear relations among the decorations."""
    m = s.deco.transpose()
    return tuple(echelon_basis(kernel_basis(m), dim=s.graph.n))


def test_criterion_5_brute_force_quotients():
    started = time.monotonic()
    graphs = classes = candidates = 0
    for size in range(5):
        for g in graph_classes(size):
            expected = enumerate_quotients(g)
            for i in range(len(expected)):
                for j in range(i + 1, len(expected)):
                    assert srs_isomorphic(expected[i], expected[j]) is None, (g.edge_list(), i, j)
            by_relations = {}
            for c in expected:
                key = _relation_space(c)
                assert key not in by_relations, g.edge_list()
                by_relations[key] = c
            hits = Counter()
            for cand in all_srs(g):
                target = by_relations.get(_relation_space(cand))
                assert target is not None, g.edge_list()
                assert srs_isomorphic(cand, target) is not None, g.edge_list()
                hits[id(target)] += 1
                candidates += 1
            assert len(hits) == len(expected), g.edge_list()
            graphs += 1
            classes += len(expected)
    _passed(
        5,
        f"brute force: {candidates} systems on {graphs} graphs fall into the {classes} classes",
        started,
    )


def test_criterion_6_coclique_bound():
    started = time.monotonic()
    counts = [len(graph_classes(size)) for size in range(9)]
    assert counts == [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
    assert class_digest(graph_classes(8)) == CLASS_DIGESTS[8]
    for size in range(9):
        for g in graph_classes(size):
            assert coclique_bound_check(g).holds, g.edge_list()
    # equality cases: no edges at all, and every simply laced diagram
    for size in range(9):
        report = coclique_bound_check(Graph(size, []))
        assert report.n == report.bound == 0
    for family, rank in ADE_RANKS:
        if rank > 8:
            continue
        report = coclique_bound_check(dynkin_graph(family, rank))
        assert report.n == report.bound, (family, rank)
    # complete graphs sit one hyperbolic pair per two nodes
    for size in range(1, 13):
        g = Graph(size, [(i, j) for i in range(size) for j in range(i + 1, size)])
        assert tuple(minimal_srs(g).type) == (size // 2, size % 2), size
        assert coclique_bound_check(g).holds
    _passed(6, f"coclique bound on {sum(counts)} graph classes plus equality cases", started)


def test_criterion_7_completion_choices():
    started = time.monotonic()
    rng = random.Random(7)
    for dim in list(range(1, 11)) * 2:
        space = random_space(rng, dim)
        for _ in range(100):
            completed = mixed_completion(space, *random_completion_choices(rng, space))
            assert rank(completed.matrix) == dim
    bases = [
        dynkin_graph("A", 3),
        dynkin_graph("A", 5),
        dynkin_graph("A", 7),
        dynkin_graph("D", 4),
        dynkin_graph("D", 6),
        dynkin_graph("D", 8),
        dynkin_graph("E", 7),
        Graph(6, [(i, (i + 1) % 6) for i in range(6)]),
        Graph(3, []),
        Graph(5, [(0, i) for i in range(1, 5)]),
    ]
    for g in bases:
        s = minimal_srs(g)
        for lam in (BitVec(g.n, rng.getrandbits(g.n)), BitVec(g.n, rng.getrandbits(g.n))):
            results = []
            for _ in range(10):
                out, _ = extend_minimal(s, lam, random_completion_choices(rng, s.space))
                results.append(out)
            for other in results[1:]:
                assert srs_isomorphic(results[0], other) is not None, (g.edge_list(), lam)
    _passed(7, "2000 completions full rank; extensions choice-independent", started)


def test_criterion_8_weyl_action():
    started = time.monotonic()
    cases = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 3), ("G", 2), ("F", 4), ("D", 4)]
    for family, rank in cases:
        c = cartan_datum(family, rank)
        rep = weyl_rep(c)
        gram = rep.srs.space.gram
        for m in rep.generators:
            assert m.transpose() @ gram @ m == gram, (family, rank)
        for beta in roots(c):
            image = rep.root_images[beta]
            for i in range(c.rank):
                coeff = sum(c.matrix[i][j] * beta[j] for j in range(c.rank))
                reflected = beta[:i] + (beta[i] - coeff,) + beta[i + 1 :]
                assert rep.root_images[reflected] == rep.generators[i] @ image, (family, rank)
    assert group_order(weyl_rep(cartan_datum("A", 2)).generators) == 6
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"Weyl sweep took {elapsed:.1f}s"
    _passed(8, f"Weyl action symplectic + intertwining on {len(cases)} data", started)


def test_criterion_9_group_realization():
    started = time.monotonic()
    diagrams = [(f, r) for f, r in ADE_RANKS if 2 * _expected_classes(f, r)[0][0] + _expected_classes(f, r)[0][1] <= 8]
    assert len(diagrams) == 16
    for family, rank in diagrams:
        s = ade_srs(family, rank)
        grp = make_group(s.space)
        assert grp.order() <= 512
        elems = list(grp.elements())
        zero = BitVec.zero(s.space.dim)
        form = s.space.form
        for g in elems:
            for h in elems:
                assert grp.commutator(g, h) == (zero, form(g[0], h[0]))
        lifts = lift_decoration(s, grp)
        identity = grp.identity()
        graph = dynkin_graph(family, rank)
        for i in range(rank):
            for j in range(i + 1, rank):
                commutes = grp.commutator(lifts[i], lifts[j]) == identity
                assert commutes == (not graph.has_edge(i, j)), (family, rank, i, j)
        report = burnside_check(grp, lifts)
        if rank == 1:
            # edgeless diagram: the group is elementary abelian, so the
            # single lift spans only half of it
            assert (report.generates, report.quotient_dim, report.image_rank) == (False, 2, 1)
            assert len(grp.closure(lifts)) == 2
        else:
            assert report.generates and report.minimal, (family, rank)

    plus = make_group(standard_space(1, 0))
    minus = make_group(standard_space(1, 0), BitVec.from_string("11"))
    assert extraspecial_sign(plus) == "plus"
    assert extraspecial_sign(minus) == "minus"
    assert sum(plus.element_order(g) == 4 for g in plus.elements()) == 2
    assert sum(minus.element_order(g) == 4 for g in minus.elements()) == 6
    _passed(9, "groups from 16 diagram spaces realize form, diagram and signs", started)
