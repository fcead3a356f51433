"""Graph parsing, cocliques, automorphisms, Dynkin layouts, class counts."""

from __future__ import annotations

import collections
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import symprs.graph as graph_module
from conftest import CLASS_DIGESTS, class_digest, random_graph_edges
from symprs.cartan import ade_srs, cartan_datum
from symprs.extend import double_extend_extraspecial, extend_minimal
from symprs.gf2 import BitVec
from symprs.graph import (
    MAX_CLASS_NODES,
    MAX_NODES,
    Graph,
    _node_invariants,
    all_graphs,
    automorphisms,
    dynkin_graph,
    graph_classes,
    graph_to_json,
    induced_subgraph,
    is_isomorphic,
    max_coclique,
    parse_graph,
)
from symprs.srs import minimal_srs

EDGE_TEXT = """
# a 4-cycle
n 4
e 0 1
e 1 2
e 2 3
e 3 0
"""


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def test_parse_edge_list():
    g = parse_graph(EDGE_TEXT)
    assert g.n == 4
    assert g.edge_list() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_parse_json():
    g = parse_graph('{"nodes": 3, "edges": [[0, 1], [1, 2]]}')
    assert g.edge_list() == [(0, 1), (1, 2)]
    assert parse_graph('{"nodes": 2}').edges == frozenset()


@pytest.mark.parametrize("n", [MAX_NODES + 1, 10**20])
@pytest.mark.parametrize("text", ['{{"nodes": {n}}}', "n {n}\n"])
def test_node_cap_checked_before_allocating(text, n):
    with pytest.raises(ValueError, match="node cap"):
        parse_graph(text.format(n=n))


def test_parse_roundtrip_json():
    g = cycle(5)
    import json

    assert parse_graph(json.dumps(graph_to_json(g))) == g


@pytest.mark.parametrize(
    "text",
    [
        "e 0 1",  # edge before node count
        "n 3\ne 0 3",  # out of range
        "n 3\ne 1 1",  # self loop
        "n 3\ne 0 1\ne 1 0",  # duplicate
        "n 3\nq 0 1",  # unknown directive
        "n x",  # malformed count
        "n \u0663\ne \u0660 \u0661",  # Arabic-Indic digits
        "n \u00b3",  # superscript three: str.isdigit() but not a decimal
        "# nothing",  # missing node count
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_graph(text)


def test_induced_subgraph_keeps_order():
    g = parse_graph("n 4\ne 0 1\ne 1 2\ne 2 3")
    h = induced_subgraph(g, [3, 2, 0])
    assert h.n == 3
    assert h.edge_list() == [(0, 1)]  # old edge (2,3) maps to (1,0)
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 0])
    with pytest.raises(ValueError):
        induced_subgraph(g, [4])


def test_max_coclique_small_cases():
    assert max_coclique(Graph(4)) == (0, 1, 2, 3)
    assert max_coclique(complete(5)) == (0,)
    assert max_coclique(cycle(5)) == (0, 2)
    assert max_coclique(parse_graph("n 4\ne 0 1\ne 1 2\ne 2 3")) == (0, 2)
    assert max_coclique(dynkin_graph("D", 4)) == (1, 2, 3)
    assert max_coclique(Graph(0)) == ()


def exhaustive_cocliques(g: Graph) -> list[tuple[int, ...]]:
    best_size = 0
    best = []
    for r in range(g.n, -1, -1):
        for combo in itertools.combinations(range(g.n), r):
            if all(not g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                if r > best_size:
                    best_size = r
                    best = [combo]
                elif r == best_size:
                    best.append(combo)
        if best:
            break
    return sorted(best)


def test_max_coclique_matches_exhaustive():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(0, 11)
        g = Graph(n, random_graph_edges(rng, n))
        witness = max_coclique(g)
        candidates = exhaustive_cocliques(g)
        assert witness == candidates[0]  # maximum and lexicographically least


def test_coclique_cap():
    with pytest.raises(ValueError):
        max_coclique(Graph(33))


def test_automorphism_counts():
    assert len(automorphisms(Graph(1))) == 1
    assert len(automorphisms(parse_graph("n 3\ne 0 1\ne 1 2"))) == 2
    assert len(automorphisms(complete(3))) == 6
    assert len(automorphisms(cycle(4))) == 8
    assert len(automorphisms(dynkin_graph("D", 4))) == 6
    assert len(automorphisms(Graph(4))) == 24


def test_automorphisms_form_a_group():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 8)
        g = Graph(n, random_graph_edges(rng, n))
        autos = automorphisms(g)
        assert tuple(range(n)) in autos
        table = set(autos)
        for p in autos:
            assert g.relabel(p) == g
            assert tuple(p.index(i) for i in range(n)) in table  # inverse
            for q in autos:
                assert tuple(p[q[i]] for i in range(n)) in table  # composition


def test_dynkin_layouts():
    assert dynkin_graph("A", 4).edge_list() == [(0, 1), (1, 2), (2, 3)]
    assert dynkin_graph("D", 4).edge_list() == [(0, 1), (0, 2), (0, 3)]
    assert dynkin_graph("D", 5).edge_list() == [(0, 1), (1, 2), (1, 4), (2, 3)]
    assert dynkin_graph("D", 6).edge_list() == [(0, 1), (0, 4), (0, 5), (1, 2), (2, 3)]
    assert dynkin_graph("E", 6).edge_list() == [(0, 1), (0, 4), (1, 2), (1, 5), (2, 3)]
    assert dynkin_graph("E", 7).edge_list() == [(0, 1), (1, 2), (2, 3), (2, 6), (3, 4), (4, 5)]
    assert dynkin_graph("E", 8).edge_list() == [(0, 1), (0, 6), (1, 2), (1, 7), (2, 3), (3, 4), (4, 5)]
    assert dynkin_graph("B", 3).edges == frozenset()
    assert dynkin_graph("C", 4).edge_list() == [(0, 1), (1, 2)]
    assert dynkin_graph("F", 4).edge_list() == [(2, 3)]
    assert dynkin_graph("G", 2).edge_list() == [(0, 1)]


def test_dynkin_shapes():
    # the E diagrams really are a path with one branch at the right spot
    e6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 2)])
    e7 = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 2)])
    e8 = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 2)])
    assert is_isomorphic(dynkin_graph("E", 6), e6)
    assert is_isomorphic(dynkin_graph("E", 7), e7)
    assert is_isomorphic(dynkin_graph("E", 8), e8)
    for rank in range(4, 10):
        d = dynkin_graph("D", rank)
        assert sorted(d.degree(v) for v in range(rank)) == [1, 1, 1] + [2] * (rank - 4) + [3]
        assert d.is_connected()


def test_dynkin_rank_validation():
    for family, rank in [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("B", 1), ("C", 1), ("F", 3), ("G", 4), ("H", 2)]:
        with pytest.raises(ValueError):
            dynkin_graph(family, rank)


def test_dynkin_rejects_rank_past_the_cap_before_building_edges(monkeypatch):
    def built(*args):
        raise AssertionError("edge list built before the rank check")

    monkeypatch.setattr(graph_module, "_path", built)
    monkeypatch.setattr(graph_module, "Graph", built)
    for make, family in [(dynkin_graph, "A"), (dynkin_graph, "D"), (ade_srs, "A"), (cartan_datum, "C")]:
        with pytest.raises(ValueError, match=f"{MAX_NODES + 1} nodes exceeds the node cap"):
            make(family, MAX_NODES + 1)


def test_is_isomorphic_relabeling():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 9)
        g = Graph(n, random_graph_edges(rng, n))
        perm = list(range(n))
        rng.shuffle(perm)
        assert is_isomorphic(g, g.relabel(perm))
    assert not is_isomorphic(cycle(4), parse_graph("n 4\ne 0 1\ne 1 2\ne 2 3"))
    assert not is_isomorphic(cycle(6), Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


def test_all_graphs_counts():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64


def test_graph_class_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        classes = graph_classes(n)
        assert len(classes) == count
        assert class_digest(classes) == CLASS_DIGESTS[n]
        # spot check pairwise distinctness on the small levels
        if n <= 4:
            for a, b in itertools.combinations(classes, 2):
                assert not is_isomorphic(a, b)
    assert sum(g.is_connected() for g in graph_classes(6)) == 112


GRAPH_SEARCH = settings(deadline=None, max_examples=150)


@st.composite
def graphs(draw, max_n: int, min_n: int = 0) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@GRAPH_SEARCH
@given(graphs(max_n=6))
def test_automorphisms_match_oracle(g):
    assert automorphisms(g) == oracles.automorphisms(g)


def degree_preserving_copy(draw, g: Graph) -> Graph:
    """A relabeled copy of g after random degree-preserving edge swaps
    (a-b, c-d -> a-d, c-b), so the degrees always agree and the pair may or
    may not be isomorphic."""
    perm = draw(st.permutations(range(g.n)))
    edges = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in g.edges}
    for _ in range(draw(st.integers(0, 8))):
        if len(edges) < 2:
            break
        old = draw(st.lists(st.sampled_from(sorted(edges)), min_size=2, max_size=2, unique=True))
        (a, b), (c, d) = old
        if draw(st.booleans()):
            c, d = d, c
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = (edges - set(old)) | new
    return Graph(g.n, edges)


@st.composite
def regular_graphs(draw, max_n: int) -> Graph:
    """A circulant graph (every node alike) of degree at most n - 2, after
    degree-preserving swaps. Every degree ties, so a search between two of
    them gets past the invariants, and their automorphism groups stay small
    enough to list."""
    n = draw(st.integers(4, max_n))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=max(1, n // 2 - 1)))
    circulant = Graph(n, {(min(i, (i + s) % n), max(i, (i + s) % n)) for i in range(n) for s in jumps})
    return degree_preserving_copy(draw, circulant)


@GRAPH_SEARCH
@given(st.data())
def test_is_isomorphic_matches_oracle_on_equal_degree_sequences(data):
    g = data.draw(graphs(max_n=7, min_n=4))
    h = degree_preserving_copy(data.draw, g)
    assert sorted(map(g.degree, range(g.n))) == sorted(map(h.degree, range(h.n)))
    assert is_isomorphic(g, h) == oracles.is_isomorphic(g, h)


def assert_search_matches_oracle(g: Graph, h: Graph, full: bool = True) -> None:
    gp, hp = _node_invariants(g.adj), _node_invariants(h.adj)
    for first_only in (True, False)[: 1 + full]:
        expected = oracles.isomorphisms(g, h, gp, hp, first_only)
        assert graph_module._isomorphisms(g.adj, h.adj, gp, hp, first_only) == expected


@GRAPH_SEARCH
@given(st.data())
def test_bitset_search_matches_pairwise_oracle(data):
    """The position-mask search against the pairwise one it replaced, with
    the same results in the same order, on up to 10 nodes. The full
    mapping list is compared where it stays small: regular graphs of
    degree at most n - 2, and any graph on up to 7 nodes."""
    regular = data.draw(st.booleans())
    g = data.draw(regular_graphs(max_n=10) if regular else graphs(max_n=10))
    h = degree_preserving_copy(data.draw, g)
    assert_search_matches_oracle(g, h, full=regular or g.n <= 7)


# the cube Q3 and the Wagner graph: 3-regular and triangle-free, so every
# node invariant ties, but Q3 is bipartite and the Wagner graph is not
CUBE = Graph(8, [(a, a ^ 1 << i) for a in range(8) for i in range(3) if not a >> i & 1])
WAGNER = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def test_is_isomorphic_separates_invariant_tied_graphs():
    assert sorted(_node_invariants(CUBE.adj)) == sorted(_node_invariants(WAGNER.adj))
    assert not is_isomorphic(CUBE, WAGNER)
    assert not oracles.is_isomorphic(CUBE, WAGNER)
    assert is_isomorphic(CUBE, CUBE.relabel([3, 6, 0, 5, 2, 7, 1, 4]))


def test_bitset_search_matches_pairwise_oracle_on_cube_and_wagner():
    shuffled = CUBE.relabel([3, 6, 0, 5, 2, 7, 1, 4])
    for g, h in itertools.product([CUBE, WAGNER, shuffled], repeat=2):
        assert_search_matches_oracle(g, h)
    assert len(automorphisms(CUBE)) == 48 and len(automorphisms(WAGNER)) == 16


def test_orbits_of_the_classes_add_up_to_every_labeled_graph():
    """The class of g holds n!/|Aut(g)| labeled graphs, so the classes on n
    nodes add up to all 2^(n choose 2) of them. The identity is listed first."""
    for n in range(8):
        total = 0
        for g in graph_classes(n):
            autos = automorphisms(g)
            assert autos[0] == tuple(range(n))
            total += math.factorial(n) // len(autos)
        assert total == 2 ** math.comb(n, 2)


def test_orbit_pruning_keeps_every_representative_in_order():
    for n in range(8):
        assert tuple(g.adj for g in graph_classes(n)) == oracles.graph_classes(n)


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            v = start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
    return cycles


def test_one_candidate_per_automorphism_orbit(monkeypatch):
    """Each (n-1)-node base gives one candidate per orbit of its automorphism
    group on the 2^(n-1) neighbourhood masks. By Burnside's lemma that is
    (1/|Aut|) * sum over automorphisms of 2^(cycles), as a mask is fixed
    exactly when it is a union of cycles. The candidates are the
    ``_node_invariants`` calls on n rows."""
    burnside = []
    for n in range(1, 8):
        orbits = 0
        for base in graph_classes(n - 1):
            autos = automorphisms(base)
            orbits += sum(2 ** cycle_count(p) for p in autos) // len(autos)
        burnside.append(orbits)
    assert burnside == [1, 2, 6, 20, 90, 544, 5096]

    calls = collections.Counter()
    real = graph_module._node_invariants

    def counted(adj):
        calls[len(adj)] += 1
        return real(adj)

    monkeypatch.setattr(graph_module, "_node_invariants", counted)
    candidates = []
    for n in range(1, 8):
        graph_classes.cache_clear()
        calls.clear()
        graph_classes(n)
        candidates.append(calls[n])
    assert candidates == burnside


def test_class_enumeration_is_capped_before_any_recursion(monkeypatch):
    def searched(*args):
        raise AssertionError("graph_classes searched past the cap")

    monkeypatch.setattr(graph_module, "_node_invariants", searched)
    for n in (MAX_CLASS_NODES + 1, 2000):
        with pytest.raises(ValueError, match=f"{n} nodes exceeds the class cap of {MAX_CLASS_NODES}"):
            graph_classes(n)


@GRAPH_SEARCH
@given(graphs(max_n=10))
def test_graph_is_its_adjacency_rows(g):
    assert Graph.__slots__ == ("n", "adj")
    h = Graph._from_adj(g.adj)
    assert h == g and hash(h) == hash(g)
    assert isinstance(g.edges, frozenset) and g.edges == set(g.edge_list())
    assert g.edge_list() == sorted(g.edge_list())


@GRAPH_SEARCH
@given(graphs(max_n=24))
@example(Graph(0))
@example(Graph(9))
@example(complete(9))
def test_edge_list_matches_the_per_pair_oracle(g):
    assert g.edge_list() == oracles.edge_list(g)


@GRAPH_SEARCH
@given(graphs(max_n=10), st.data())
def test_derived_graphs_equal_the_graphs_of_their_edge_lists(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert g.relabel(perm) == Graph(g.n, [(perm[a], perm[b]) for a, b in g.edge_list()])
    nodes = perm[: data.draw(st.integers(0, g.n))]
    index = {v: i for i, v in enumerate(nodes)}
    kept = [(index[a], index[b]) for a, b in g.edge_list() if a in index and b in index]
    assert induced_subgraph(g, nodes) == Graph(len(nodes), kept)
    lam = BitVec(g.n, data.draw(st.integers(0, (1 << g.n) - 1)))
    out, _ = extend_minimal(minimal_srs(g), lam)
    assert out.graph == Graph(g.n + 1, g.edge_list() + [(v, g.n) for v in oracles.support(lam)])


EXTRASPECIAL = [g for n in (0, 2, 4) for g in all_graphs(n) if minimal_srs(g).type.is_extraspecial]


@GRAPH_SEARCH
@given(st.sampled_from(EXTRASPECIAL), st.data())
def test_double_extension_graph_equals_the_graph_of_its_edge_list(g, data):
    lam_p, lam_q = (BitVec(g.n, data.draw(st.integers(0, (1 << g.n) - 1))) for _ in "pq")
    pq_edge = data.draw(st.booleans())
    out, _, _ = double_extend_extraspecial(minimal_srs(g), lam_p, lam_q, pq_edge)
    n = g.n
    edges = g.edge_list() + [(v, n) for v in oracles.support(lam_p)]
    edges += [(v, n + 1) for v in oracles.support(lam_q)]
    assert out.graph == Graph(n + 2, edges + [(n, n + 1)] * pq_edge)


@pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 0), (1, 0)]])
def test_duplicate_edge_in_either_orientation(edges):
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, edges)


def test_trusted_constructor_keeps_the_node_cap():
    assert Graph._from_adj([0] * MAX_NODES).n == MAX_NODES
    with pytest.raises(ValueError, match="node cap"):
        Graph._from_adj([0] * (MAX_NODES + 1))
