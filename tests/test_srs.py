"""Minimal systems, restriction, quotients, classification, the bound."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from conftest import random_graph_edges
from symprs.extend import build_by_extension
from symprs.gf2 import BitMat, BitVec, inverse, rank
from symprs.graph import MAX_NODES, Graph, dynkin_graph, parse_graph
from symprs.srs import (
    SRS,
    SRSError,
    SympMap,
    coclique_bound_check,
    enumerate_quotients,
    minimal_srs,
    quotient,
    radical_subspaces,
    restrict,
    srs_from_json,
    srs_isomorphic,
    srs_to_json,
    universal_map,
)
from symprs.symplectic import SympSpace

A3 = parse_graph("n 3\ne 0 1\ne 1 2")
A4 = parse_graph("n 4\ne 0 1\ne 1 2\ne 2 3")
STAR = dynkin_graph("D", 4)


def test_minimal_srs_shape():
    s = minimal_srs(A4)
    assert s.type == (2, 0)
    assert s.is_minimal
    assert s.deco == BitMat.identity(4)
    assert s.space.gram == A4.adjacency()


def test_validate_reports_first_bad_pair():
    space = SympSpace(A3.adjacency())
    deco = BitMat.from_rows(["100", "100", "001"])
    with pytest.raises(SRSError, match=r"\(0, 1\)"):
        SRS(A3, space, deco)


def test_the_suite_validates_trusted_constructions():
    """``tests/conftest.py`` points ``SRS._trusted`` back at ``SRS``, so a
    bad system built the library's way fails in an ordinary test."""
    space = SympSpace(A3.adjacency())
    deco = BitMat.from_rows(["100", "100", "001"])
    with pytest.raises(SRSError, match=r"\(0, 1\)"):
        SRS._trusted(A3, space, deco)


@pytest.mark.parametrize("deco, message", [
    (BitMat.identity(3), "3 decorations for 4 nodes"),
    (BitMat.zeros(4, 5), "decorations have dimension 5, space has 4"),
    (tuple(BitVec.basis(4, i) for i in range(4)), "decorations must be a BitMat with one row per node, got tuple"),
])
def test_validate_checks_the_shape_of_d(deco, message):
    with pytest.raises(SRSError, match=f"^{message}$"):
        SRS(A4, SympSpace(A4.adjacency()), deco)


def test_validate_requires_span():
    g = Graph(2, [(0, 1)])
    space = SympSpace(BitMat.from_rows(["0110", "1000", "1000", "0000"]))
    deco = BitMat.from_rows(["1000", "0100"])
    with pytest.raises(SRSError, match="span"):
        SRS(g, space, deco)


@pytest.mark.trusted_constructors
def test_library_routes_build_no_vector_per_node(monkeypatch):
    """D is one matrix, so the library routes build its rows as ints: no
    BitVec in ``minimal_srs``, ``restrict`` or ``quotient``, and a few per
    extension step in ``build_by_extension``, not one per decoration."""
    g = Graph(40, random_graph_edges(random.Random(3), 40))
    s = minimal_srs(g)
    radical = s.space.radical
    assert radical
    built = 0
    init = BitVec.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(BitVec, "__init__", counting)

    def constructions(route, *args):
        nonlocal built
        built = 0
        route(*args)
        return built

    assert constructions(minimal_srs, g) == 0
    assert constructions(restrict, s, range(20)) == 0
    assert constructions(quotient, s, radical) == 0
    assert constructions(build_by_extension, g) <= 10 * g.n


def test_restrict_minimal_chain_is_exact():
    assert restrict(minimal_srs(A4), [0, 1, 2]) == minimal_srs(A3)


def test_restrict_disconnected_pair():
    s = restrict(minimal_srs(A4), [1, 3])
    assert s.type == (0, 2)
    assert s.graph.edges == frozenset()
    assert s.deco == BitMat.from_rows(["10", "01"])


def test_restriction_trichotomy_small_sweep():
    # deleting one node of a minimal SRS moves (n, k) to (n, k-1) or (n-1, k+1)
    rng = random.Random(13)
    graphs = [A3, A4, STAR, dynkin_graph("E", 6)]
    graphs += [Graph(n, random_graph_edges(rng, n)) for n in range(2, 7) for _ in range(10)]
    for g in graphs:
        n, k = minimal_srs(g).type
        for p in range(g.n):
            rest = restrict(minimal_srs(g), [q for q in range(g.n) if q != p])
            assert rest.type in ((n, k - 1), (n - 1, k + 1))


def test_restriction_same_type_needs_nonminimal():
    # quotient of the 3-chain collapses the end decorations together,
    # so dropping one of them keeps the whole space: case "not minimal"
    quot, _ = quotient(minimal_srs(A3), [BitVec.from_string("101")])
    assert quot.deco.rows[0] == quot.deco.rows[2]
    rest = restrict(quot, [0, 1])
    assert rest.type == quot.type


def test_quotient_of_chain_by_radical():
    quot, proj = quotient(minimal_srs(A3), [BitVec.from_string("101")])
    assert quot.type == (1, 0)
    assert quot.space.gram == BitMat.from_rows(["01", "10"])
    assert quot.deco == BitMat.from_rows(["01", "10", "01"])
    assert proj.matrix @ BitVec.from_string("101") == BitVec.zero(2)


def test_quotient_rejects_nonradical():
    with pytest.raises(SRSError, match="radical"):
        quotient(minimal_srs(A3), [BitVec.from_string("100")])


def test_radical_subspaces_order():
    subs = radical_subspaces(minimal_srs(STAR))
    assert subs[0] == ()
    assert [len(u) for u in subs] == [0, 1, 1, 1, 2]


def test_enumerate_quotients_counts():
    assert len(enumerate_quotients(parse_graph("n 2\ne 0 1"))) == 1
    assert [tuple(s.type) for s in enumerate_quotients(A3)] == [(1, 1), (1, 0)]
    star_classes = enumerate_quotients(STAR)
    assert Counter(tuple(s.type) for s in star_classes) == {(1, 2): 1, (1, 1): 3, (1, 0): 1}
    assert star_classes[0].is_minimal


def test_enumerated_quotients_pairwise_nonisomorphic():
    classes = enumerate_quotients(STAR)
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            if a.space.dim == b.space.dim:
                assert srs_isomorphic(a, b) is None


def test_isomorphism_after_coordinate_change():
    rng = random.Random(41)
    for g in [A3, A4, STAR]:
        s = minimal_srs(g)
        d = s.space.dim
        while True:
            t = BitMat(d, [rng.getrandbits(d) for _ in range(d)])
            t_inv = inverse(t)
            if t_inv is not None:
                break
        moved_gram = t_inv.transpose() @ s.space.gram @ t_inv
        moved = SRS(g, SympSpace(moved_gram), s.deco @ t.transpose())
        found = srs_isomorphic(s, moved)
        assert found is not None and found.is_isomorphism
        assert found.matrix == t


PLANE = SympSpace(BitMat.from_rows(["01", "10"]))
NULL_PLANE = SympSpace(BitMat.zeros(2, 2))


def test_symp_map_rejects_a_map_that_breaks_the_form():
    # injective, so the kernel condition holds and only the form fails
    with pytest.raises(ValueError, match="map does not preserve the forms"):
        SympMap(NULL_PLANE, PLANE, BitMat.identity(2))


def test_symp_map_names_a_kernel_outside_the_radical():
    with pytest.raises(ValueError, match="kernel not contained in the radical"):
        SympMap(PLANE, NULL_PLANE, BitMat.zeros(2, 2))


def test_isomorphic_rejects_different_graphs():
    with pytest.raises(SRSError):
        srs_isomorphic(minimal_srs(A3), minimal_srs(Graph(3)))


def test_nonisomorphic_when_dims_differ():
    quot, _ = quotient(minimal_srs(A3), [BitVec.from_string("101")])
    assert srs_isomorphic(minimal_srs(A3), quot) is None


def test_universal_map_onto_quotient():
    s = minimal_srs(A3)
    quot, proj = quotient(s, [BitVec.from_string("101")])
    u = universal_map(s, quot)
    assert u.matrix == proj.matrix
    assert not u.is_isomorphism
    ident = universal_map(s, s)
    assert ident.matrix == BitMat.identity(3)
    with pytest.raises(SRSError, match="minimal"):
        universal_map(quot, s)


def test_every_srs_is_a_quotient_of_the_minimal():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randrange(1, 6)
        g = Graph(n, random_graph_edges(rng, n))
        s = minimal_srs(g)
        for u in radical_subspaces(s):
            quot, _ = quotient(s, u)
            m = universal_map(s, quot)
            for p in range(n):
                assert m(s.deco.row(p)) == quot.deco.row(p)


def test_coclique_bound_reports():
    r = coclique_bound_check(STAR)
    assert (r.n, r.gamma, r.bound, r.holds) == (1, 3, 1, True)
    assert r.witness == (1, 2, 3)
    r = coclique_bound_check(A4)
    assert (r.n, r.bound, r.holds) == (2, 2, True)
    cycle5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    r = coclique_bound_check(cycle5)
    assert (r.n, r.gamma, r.bound, r.holds) == (2, 2, 3, True)


def test_json_roundtrip():
    for s in [minimal_srs(A4), quotient(minimal_srs(A3), [BitVec.from_string("101")])[0]]:
        payload = json.loads(json.dumps(srs_to_json(s)))
        assert srs_from_json(payload) == s


def test_json_rejects_tampering():
    payload = srs_to_json(minimal_srs(A3))
    wrong_type = dict(payload, type=[2, 0])
    with pytest.raises(SRSError, match="type"):
        srs_from_json(wrong_type)
    wrong_flag = dict(payload, minimal=False)
    with pytest.raises(SRSError, match="minimal"):
        srs_from_json(wrong_flag)
    broken = dict(payload, deco={**payload["deco"], "0": "010"})
    with pytest.raises(SRSError):
        srs_from_json(broken)


@pytest.mark.parametrize("field, value, message", [
    ("dim", True, '"dim" must be a non-negative integer'),
    ("dim", 3.0, '"dim" must be a non-negative integer'),
    ("dim", "3", '"dim" must be a non-negative integer'),
    ("gram", [[0, 1, 0], [1, 0, 1], [0, 1, 0]], '"gram" must be a list of bit strings'),
    ("gram", "010", '"gram" must be a list of bit strings'),
    ("deco", ["100", "010", "001"], '"deco" must map node numbers'),
    ("type", 5, '"type" must be a pair of integers'),
    ("type", [1.0, 1], '"type" must be a pair of integers'),
    ("minimal", 1, '"minimal" must be true or false'),
])
def test_json_rejects_wrong_value_types(field, value, message):
    payload = dict(srs_to_json(minimal_srs(A3)), **{field: value})
    with pytest.raises(SRSError, match=message):
        srs_from_json(payload)


@pytest.mark.parametrize("n", [MAX_NODES + 1, 10**20])
def test_json_rejects_node_counts_past_the_cap(n):
    payload = dict(srs_to_json(minimal_srs(A3)), graph={"nodes": n, "edges": []})
    with pytest.raises(ValueError, match="node cap"):
        srs_from_json(payload)


def test_json_rejects_non_objects():
    with pytest.raises(SRSError, match="not an object"):
        srs_from_json([1, 2])


def test_empty_graph_edge_case():
    s = minimal_srs(Graph(0))
    assert s.type == (0, 0)
    assert s.is_minimal
    assert enumerate_quotients(Graph(0)) == [s]
