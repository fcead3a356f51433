"""Graph parsing, cocliques, automorphisms, Dynkin layouts, class counts."""

from __future__ import annotations

import collections
import gc
import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import symprs.graph as graph_module
from conftest import CLASS_DIGESTS, class_digest, random_graph_edges
from symprs.cartan import ade_srs, cartan_datum
from symprs.extend import build_by_extension, double_extend_extraspecial, extend_minimal
from symprs.gf2 import BitMat, BitVec
from symprs.graph import (
    MAX_AUTOMORPHISMS,
    MAX_CLASS_NODES,
    MAX_ISOMORPHISM_NODES,
    MAX_NODES,
    Graph,
    _node_invariants,
    _search_plan,
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
from symprs.symplectic import standard_space

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


@pytest.mark.parametrize("n", [True, 2.0])
def test_node_count_must_be_an_int(n):
    with pytest.raises(ValueError, match=f"^node count {n!r} is not an int$"):
        Graph(n, [])


@pytest.mark.parametrize("nodes", [[True, 2], [0, 2.0], [1, 0.0], (0, "1")], ids=repr)
def test_induced_subgraph_takes_only_int_nodes(nodes):
    with pytest.raises(ValueError, match="in selection is not an int$"):
        induced_subgraph(dynkin_graph("A", 3), nodes)


@pytest.mark.parametrize("g, perm", [(Graph(2), [True, 0]), (Graph(2, [(0, 1)]), [0, 1.0])], ids=repr)
def test_relabel_takes_only_int_nodes(g, perm):
    with pytest.raises(ValueError, match="in selection is not an int$"):
        g.relabel(perm)


@pytest.mark.parametrize("edges", [[(1.0, 2)], [(0, 1), (2, "0")], [(0, 1), (1, 2.0)]], ids=repr)
def test_edge_endpoints_must_be_ints(edges):
    with pytest.raises(ValueError, match="has an endpoint that is not an int$"):
        Graph(3, edges)
    # a bool endpoint is taken as 0 or 1, as the lean pass takes it
    assert Graph(3, [(True, 2)]) == Graph(3, [(1, 2)])


@pytest.mark.parametrize("call, message", [
    (lambda: Graph(3, [None]), "edge None is not a pair"),
    (lambda: Graph(3, [5]), "edge 5 is not a pair"),
    (lambda: Graph(3, [(0, 1, 2)]), r"edge \(0, 1, 2\) is not a pair"),
    (lambda: Graph(3, [(0, 1), [2]]), r"edge \[2\] is not a pair"),
    (lambda: BitVec.from_bits(None), "bits None are not an iterable"),
    (lambda: BitMat.from_rows([None]), "bits None are not an iterable"),
    (lambda: Graph(2).relabel(None), "node selection None is not a sequence"),
    (lambda: Graph(3, None), "edges None are not an iterable"),
    (lambda: Graph(3, 5), "edges 5 are not an iterable"),
    (lambda: BitMat(2, None), "rows None are not an iterable"),
    (lambda: BitMat.from_rows(None), "rows None are not an iterable"),
    (lambda: graph_classes(True), "node count True is not an int"),
    (lambda: graph_classes(2.0), "node count 2.0 is not an int"),
    (lambda: graph_classes(n=True), "node count True is not an int"),
    (lambda: graph_classes(n=2.0), "node count 2.0 is not an int"),
    (lambda: standard_space(True, True), r"space type \(True, True\) is not a pair of ints"),
    (lambda: standard_space(1.0, 0), r"space type \(1.0, 0\) is not a pair of ints"),
    (lambda: dynkin_graph("A", 2.0), "rank 2.0 is not an int"),
    (lambda: dynkin_graph("D", True), "rank True is not an int"),
    (lambda: BitMat.identity(2.0), "size 2.0 is not an int"),
    (lambda: build_by_extension(dynkin_graph("A", 2), [True, 0]), "node True in selection is not an int"),
    (lambda: build_by_extension(dynkin_graph("A", 2), [1.0, 0]), "node 1.0 in selection is not an int"),
    (lambda: build_by_extension(dynkin_graph("A", 2), 5), "order 5 is not an iterable"),
], ids=[
    "edge-None", "edge-int", "edge-triple", "edge-single", "from_bits-None", "from_rows-None",
    "relabel-None", "edges-None", "edges-int", "rows-None", "from_rows-rows-None",
    "graph_classes-bool", "graph_classes-float", "graph_classes-n-bool",
    "graph_classes-n-float", "standard_space-bool",
    "standard_space-float", "dynkin-float", "dynkin-bool", "identity-float",
    "build_by_extension-bool", "build_by_extension-float", "build_by_extension-int",
])
def test_bad_arguments_raise_value_error(call, message):
    # True == 1 and 2.0 == 2 hash alike, so the memo of graph_classes must
    # not answer them from the entries for 1 and 2; an untyped memo would
    # for a keyword call, whose key is a tuple
    graph_classes(1), graph_classes(2), graph_classes(n=1), graph_classes(n=2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


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
    """The first map found equals the pairwise oracle's; with ``full``, so
    do the automorphism lists of g and h, the oracle listing every map."""
    gp, hp = _node_invariants(g.adj), _node_invariants(h.adj)
    found = graph_module._isomorphisms(h.adj, _search_plan(g.adj, gp, hp))
    gt, ht = oracles.node_invariants(g.adj), oracles.node_invariants(h.adj)
    assert ([] if found is None else [found]) == oracles.isomorphisms(g, h, gt, ht, first_only=True)
    if full:
        for x, xt in ((g, gt), (h, ht)):
            assert automorphisms(x) == sorted(oracles.isomorphisms(x, x, xt, xt, first_only=False))


@GRAPH_SEARCH
@given(st.data())
def test_bitset_search_matches_pairwise_oracle(data):
    """The position-mask search against the pairwise one it replaced, with
    the same first map, on up to 10 nodes. The automorphism lists are
    compared where they stay small: regular graphs of degree at most
    n - 2, and any graph on up to 7 nodes."""
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
    assert sorted(oracles.node_invariants(CUBE.adj)) == sorted(oracles.node_invariants(WAGNER.adj))
    assert not is_isomorphic(CUBE, WAGNER)
    assert not oracles.is_isomorphic(CUBE, WAGNER)
    assert is_isomorphic(CUBE, CUBE.relabel([3, 6, 0, 5, 2, 7, 1, 4]))


@GRAPH_SEARCH
@given(graphs(max_n=40))
@example(complete(40))
@example(Graph(0))
@example(complete(7))
def test_packed_invariants_give_the_oracle_partition(g):
    """The packed ints split the nodes of g as the oracle's tuples do, and
    so they do pooled over the 2^m candidates that ``graph_classes`` could
    build on g's first m = min(n, 7) nodes, one per neighbourhood mask of
    a new node: a class is bucketed by invariants compared across
    candidates."""
    assert oracles.same_partition(_node_invariants(g.adj), oracles.node_invariants(g.adj))
    m = min(g.n, 7)
    base = [r & (1 << m) - 1 for r in g.adj[:m]]
    packed, tuples = [], []
    for mask in range(1 << m):
        rows = [r | (mask >> v & 1) << m for v, r in enumerate(base)] + [mask]
        packed += _node_invariants(rows)
        tuples += oracles.node_invariants(rows)
    assert oracles.same_partition(packed, tuples)


PATH_AT_CAP = dynkin_graph("A", MAX_ISOMORPHISM_NODES)


def test_is_isomorphic_is_capped_before_any_search(monkeypatch):
    """A path at the cap and a relabeled copy are found isomorphic; one node
    more raises before any invariant is computed, on either side."""
    n = MAX_ISOMORPHISM_NODES
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    assert is_isomorphic(PATH_AT_CAP, PATH_AT_CAP.relabel(perm))
    assert not is_isomorphic(PATH_AT_CAP, Graph(n, [(i, i + 1) for i in range(n - 2)] + [(0, n - 2)]))

    def searched(*args):
        raise AssertionError("is_isomorphic worked past the cap")

    monkeypatch.setattr(graph_module, "_node_invariants", searched)
    longer = dynkin_graph("A", n + 1)
    for g, h in ((longer, longer), (PATH_AT_CAP, longer), (longer, PATH_AT_CAP)):
        with pytest.raises(ValueError, match=f"{n + 1} nodes exceeds the isomorphism cap of {n}"):
            is_isomorphic(g, h)


def test_bitset_search_matches_pairwise_oracle_on_cube_and_wagner():
    shuffled = CUBE.relabel([3, 6, 0, 5, 2, 7, 1, 4])
    for g, h in itertools.product([CUBE, WAGNER, shuffled], repeat=2):
        assert_search_matches_oracle(g, h)
    assert len(automorphisms(CUBE)) == 48 and len(automorphisms(WAGNER)) == 16


def disjoint_union(parts: list[Graph]) -> Graph:
    edges, shift = [], 0
    for part in parts:
        edges += [(a + shift, b + shift) for a, b in part.edge_list()]
        shift += part.n
    return Graph(shift, edges)


def complement(g: Graph) -> Graph:
    return Graph(g.n, set(itertools.combinations(range(g.n), 2)) - g.edges)


@st.composite
def symmetric_graphs(draw) -> Graph:
    """Graphs on up to 10 nodes drawn toward large automorphism groups: two
    to five copies of one connected component, a circulant after
    degree-preserving swaps, or any graph on up to 7 nodes; maybe
    complemented, then shuffled. The largest group, that of K5 + K5 and
    its complement, has order 2 * 120^2 = 28,800, below the list cap."""
    kind = draw(st.sampled_from(["copies", "regular", "any"]))
    if kind == "copies":
        m = draw(st.integers(1, 5))
        part = draw(graphs(max_n=m, min_n=m))
        if not part.is_connected():
            part = complement(part)  # connected, so the copies are the components
        g = disjoint_union([part] * draw(st.integers(2, min(5, 10 // m))))
    elif kind == "regular":
        g = draw(regular_graphs(max_n=10))
    else:
        g = draw(graphs(max_n=7))
    if draw(st.booleans()):
        g = complement(g)
    return g.relabel(draw(st.permutations(range(g.n))))


@GRAPH_SEARCH
@given(symmetric_graphs())
@example(disjoint_union([complete(5)] * 2))
@example(disjoint_union([complete(2)] * 5))
def test_automorphisms_match_the_enumerate_all_oracle(g):
    assert automorphisms(g) == oracles.enumerated_automorphisms(g)


def test_automorphisms_match_the_enumerate_all_oracle_on_every_class():
    for n in range(8):
        for g in graph_classes(n):
            assert automorphisms(g) == oracles.enumerated_automorphisms(g)


def test_automorphism_list_is_capped_before_it_is_built(monkeypatch):
    # every base of graph_classes(9), a graph on 8 nodes, keeps its list
    assert MAX_AUTOMORPHISMS >= math.factorial(8)
    # 16! lists would need about 2.1e13 tuples: the order is read off the transversals first
    with pytest.raises(ValueError, match=f"order {math.factorial(16)} exceeds the list cap of {MAX_AUTOMORPHISMS}$"):
        automorphisms(Graph(16))
    monkeypatch.setattr(graph_module, "MAX_AUTOMORPHISMS", 24)
    assert len(automorphisms(Graph(4))) == 24
    with pytest.raises(ValueError, match="order 120 exceeds the list cap of 24$"):
        automorphisms(Graph(5))


@pytest.fixture
def cold_classes():
    """``graph_classes`` cleared before and after the test, so that no
    other test reads a class list built under a patch."""
    graph_classes.cache_clear()
    yield
    graph_classes.cache_clear()


def candidate_reads(monkeypatch, record) -> None:
    """Patch ``graph._node_invariants`` so that each read on a candidate of
    ``graph_classes`` calls ``record(rows, invariants)``; its reads inside
    ``automorphisms`` or ``is_isomorphic`` are not recorded."""
    real = graph_module._node_invariants
    classes_code = graph_classes.__wrapped__.__code__

    def recorded(adj):
        inv = real(adj)
        if sys._getframe(1).f_code is classes_code:
            record(adj, inv)
        return inv

    monkeypatch.setattr(graph_module, "_node_invariants", recorded)


def filter_fates(monkeypatch, n: int) -> tuple[tuple[Graph, ...], collections.Counter]:
    """``graph_classes(n)`` built over the cached (n-1)-node classes, and
    the fates of its candidates at the filter, counted while it runs. Each
    candidate whose invariants are computed has passed the degree test
    (checked here); by the key (degree, packed invariant) of its new node
    it is then "lower" than some other node's, the "unique" largest, or a
    "tie". Every search that finds a map from a candidate onto a
    representative counts one "duplicate"."""
    graph_classes(n - 1)
    fates: collections.Counter = collections.Counter()
    real_search = graph_module._isomorphisms

    def record(rows, inv):
        degrees = [r.bit_count() for r in rows]
        assert degrees[-1] == max(degrees)
        keys = list(zip(degrees, inv))
        best = max(keys)
        fates["lower" if keys[-1] < best else "unique" if keys.count(best) == 1 else "tie"] += 1

    def searched(h, plan, prefix=()):
        out = real_search(h, plan, prefix)
        if not prefix:  # not an automorphism search of a base
            fates["duplicate"] += out is not None
        return out

    candidate_reads(monkeypatch, record)
    monkeypatch.setattr(graph_module, "_isomorphisms", searched)
    classes = graph_classes(n)
    return classes, collections.Counter(fates)


def cycle_masks(perm: tuple[int, ...]) -> list[int]:
    """The cycles of ``perm``, one node mask each."""
    seen = 0
    cycles = []
    for start in range(len(perm)):
        mask = 0
        v = start
        while not (seen | mask) >> v & 1:
            mask |= 1 << v
            v = perm[v]
        if mask:
            seen |= mask
            cycles.append(mask)
    return cycles


def orbit_count(n: int) -> int:
    """Summed over the (n-1)-node bases, the orbits of Aut(base) on the
    2^(n-1) neighbourhood masks. By Burnside's lemma that is (1/|Aut|)
    times the sum over automorphisms of the masks they fix, the unions of
    their cycles: 2^(cycles) of them."""
    orbits = 0
    for base in graph_classes(n - 1):
        autos = automorphisms(base)
        orbits += sum(2 ** len(cycle_masks(perm)) for perm in autos) // len(autos)
    return orbits


def degree_test_orbit_count(n: int) -> int:
    """As ``orbit_count``, over only the masks whose candidates give the
    new node the largest degree. The test is Aut-invariant, so these masks
    are a union of orbits, and Burnside's lemma counts the fixed masks
    that pass it."""
    orbits = 0
    for base in graph_classes(n - 1):
        autos = automorphisms(base)
        passing = 0
        for perm in autos:
            fixed = [0]
            for c in cycle_masks(perm):
                fixed += [m | c for m in fixed]
            for m in fixed:
                passing += m.bit_count() >= max(
                    (r.bit_count() + (m >> v & 1) for v, r in enumerate(base.adj)), default=0
                )
        orbits += passing // len(autos)
    return orbits


def test_one_candidate_per_automorphism_orbit(monkeypatch, cold_classes):
    """Each (n-1)-node base gives one candidate per orbit of its
    automorphism group on the masks that pass the degree test, and the
    filter computes its invariants once: the ``_node_invariants`` reads on
    n-node candidates."""
    reads = collections.Counter()
    candidate_reads(monkeypatch, lambda rows, inv: reads.update([len(rows)]))
    graph_classes(7)
    reads = collections.Counter(reads)
    assert [orbit_count(n) for n in range(1, 8)] == [1, 2, 6, 20, 90, 544, 5096]
    passing = [degree_test_orbit_count(n) for n in range(1, 8)]
    assert [reads[n] for n in range(1, 8)] == passing
    assert passing == [1, 2, 4, 11, 37, 184, 1401]


def test_filter_fates_on_seven_nodes(monkeypatch, cold_classes):
    """Of the 5,096 candidates on 7 nodes, 3,695 fail the degree test with
    no invariant computed and 341 the invariant test. 683 are new classes
    with no search; of the 377 that tie, 16 are duplicates."""
    classes, fates = filter_fates(monkeypatch, 7)
    assert class_digest(classes) == CLASS_DIGESTS[7]
    assert orbit_count(7) - sum(fates[f] for f in ("lower", "unique", "tie")) == 3695
    assert fates == {"lower": 341, "unique": 683, "tie": 377, "duplicate": 16}
    assert len(classes) == 683 + 377 - 16


def test_filter_fates_on_eight_nodes(monkeypatch, cold_classes):
    """Of the 79,264 candidates on 8 nodes, 60,992 fail the degree test
    and 5,606 the invariant test; 9,438 are new classes with no search,
    and 3,228 tie."""
    classes, fates = filter_fates(monkeypatch, 8)
    assert class_digest(classes) == CLASS_DIGESTS[8]
    assert orbit_count(8) - sum(fates[f] for f in ("lower", "unique", "tie")) == 60992
    assert fates == {"lower": 5606, "unique": 9438, "tie": 3228, "duplicate": 320}
    assert len(classes) == 12346


def test_the_tie_search_is_needed_from_seven_nodes(monkeypatch, cold_classes):
    """With the search for tied candidates off, the filter alone still
    gives every class on at most 6 nodes once, but on 7 nodes each of the
    377 tied candidates comes out: 683 + 377 classes."""
    real = graph_module._isomorphisms

    def automorphism_searches_only(h, plan, prefix=()):
        return real(h, plan, prefix) if prefix else None

    monkeypatch.setattr(graph_module, "_isomorphisms", automorphism_searches_only)
    for n in range(1, 7):
        assert class_digest(graph_classes(n)) == CLASS_DIGESTS[n]
    assert len(graph_classes(7)) == 1060


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
    """The filtered oracle tries every mask, keeps the candidates whose new
    node has the largest key, and searches each of them."""
    for n in range(8):
        assert tuple(g.adj for g in graph_classes(n)) == oracles.graph_classes(n)


def test_each_class_matches_one_unfiltered_class():
    """Each representative is isomorphic to exactly one class of the
    unfiltered first-candidate oracle, by the oracle's search within its
    bucket of sorted invariants."""
    for n in range(8):
        buckets = collections.defaultdict(list)
        for rows in oracles.first_candidate_classes(n):
            inv = oracles.node_invariants(rows)
            buckets[tuple(sorted(inv))].append((rows, inv))
        for g in graph_classes(n):
            inv = oracles.node_invariants(g.adj)
            matches = [
                rows
                for rows, rows_inv in buckets[tuple(sorted(inv))]
                if oracles.enumerate_isomorphisms(g.adj, rows, inv, rows_inv, first_only=True)
            ]
            assert len(matches) == 1
        assert len(graph_classes(n)) == len(oracles.first_candidate_classes(n))


def test_stored_groups_match_the_oracle_and_a_search(cold_classes):
    """A representative whose new node has the unique largest key holds
    the stabilizer of its mask in Aut(base), the new node fixed. Read
    level by level, before the next level takes its bases' lists, every
    one equals the enumerate-all oracle and a search on a fresh object
    with the same rows. ``automorphisms`` hands the stored list over
    itself, and the next call searches again."""
    stored = []
    for n in range(8):
        held = 0
        for g in graph_classes(n):
            group = getattr(g, "_group", None)
            autos = automorphisms(g)
            assert autos == oracles.enumerated_automorphisms(g)
            assert autos == automorphisms(Graph._from_adj(g.adj))
            if group is not None:
                held += 1
                assert autos is group and g._group is None
                again = automorphisms(g)
                assert again == autos and again is not autos
        stored.append(held)
    assert stored == [0, 1, 0, 1, 3, 15, 77, 683]


def test_reading_the_groups_first_keeps_every_class(cold_classes):
    """When every level's groups are handed over before the next level is
    built, that level searches its bases' groups instead of reading them,
    and its representatives are the same."""
    for n in range(1, 9):
        classes = graph_classes(n)
        assert class_digest(classes) == CLASS_DIGESTS[n]
        for g in classes:
            automorphisms(g)


def test_unique_largest_classes_are_never_searched(monkeypatch, cold_classes):
    """Of the 1,044 classes on 7 nodes, built cold, the 683 whose new node
    has the unique largest key get their lists with no search."""
    classes = graph_classes(7)
    held = {g.adj for g in classes if getattr(g, "_group", None) is not None}
    searched = set()
    real = graph_module._isomorphisms

    def recorded(h, plan, prefix=()):
        searched.add(tuple(h))
        return real(h, plan, prefix)

    monkeypatch.setattr(graph_module, "_isomorphisms", recorded)
    assert len([automorphisms(g) for g in classes]) == 1044
    assert len(held) == 683 and searched and not held & searched


def test_the_search_leaves_no_reference_cycles(cold_classes):
    """The recursive search closure is released when the search ends, so
    with the cyclic collector off nothing is left for it to collect."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert len(automorphisms(disjoint_union([cycle(4), cycle(4)]))) == 128
        assert is_isomorphic(cycle(6), cycle(6).relabel([3, 1, 5, 0, 2, 4]))
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


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
    assert Graph.__slots__ == ("n", "adj", "_group")
    h = Graph._from_adj(g.adj)
    assert h == g and hash(h) == hash(g)
    assert isinstance(g.edges, frozenset) and g.edges == set(g.edge_list())
    assert g.edge_list() == sorted(g.edge_list())


def test_a_representative_holding_its_group_is_its_adjacency_rows(cold_classes):
    for rep in graph_classes(6):
        if getattr(rep, "_group", None) is not None:
            h = Graph._from_adj(rep.adj)
            assert h == rep and rep == h and hash(h) == hash(rep)


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


@pytest.mark.parametrize("rows, message", [
    ([0b10, 0], "not symmetric"),  # asymmetric
    ([0, 0b01], "not symmetric"),  # asymmetric below the diagonal
    ([0b01, 0], "not symmetric"),  # a loop
    ([0b100, 0], "out of range"),  # a bit past the last node
    ([-1, 0], "not a nonnegative int"),
    ([True], "not a nonnegative int"),
])
def test_trusted_graphs_are_checked_in_the_tests(rows, message):
    # conftest points Graph._from_adj at a checking adapter outside trusted_constructors tests
    with pytest.raises(ValueError, match=message):
        Graph._from_adj(rows)
    assert Graph._from_adj([0b110, 0b101, 0b011]) == Graph(3, [(0, 1), (0, 2), (1, 2)])
