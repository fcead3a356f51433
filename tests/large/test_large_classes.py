"""Graph classes past the unit tests' 7 nodes: every class on 8 and 9 nodes,
their automorphism groups, and the packed node invariants that split them."""

from __future__ import annotations

import itertools
import math

import pytest

import oracles
from symprs.graph import Graph, _node_invariants, automorphisms, graph_classes
from symprs.srs import coclique_bound_check

pytestmark = pytest.mark.trusted_constructors


def test_orbit_pruned_automorphisms_match_the_enumerate_all_search_and_the_classes_are_exact_on_8_nodes():
    # the unit tests compare both with the oracles only up to 7 nodes
    graph_classes.cache_clear()  # so the classes and the groups they hold are built afresh
    classes = graph_classes(8)
    # the classes whose new node has the unique largest key hold their groups, read off the base
    held = sum(getattr(g, "_group", None) is not None for g in classes)
    assert held == 9438, f"{held} classes hold a stored group, not 9438"
    lists = [automorphisms(g) for g in classes]
    fresh = [g for g, auts in zip(classes, lists) if auts != automorphisms(Graph._from_adj(g.adj))]
    assert not fresh, f"{len(fresh)} lists differ from a search on a fresh object, first {fresh[0]}"
    bad = [g for g, auts in zip(classes, lists) if auts != oracles.enumerated_automorphisms(g)]
    total = sum(map(len, lists))
    assert not bad, f"automorphisms differ from the enumerate-all search on {len(bad)} classes, first {bad[0]}"
    assert (len(classes), total) == (12346, 170510), f"{len(classes)} classes, sum of |Aut| {total}"
    # every labeled graph lies in some class: the class of g holds 8!/|Aut(g)| of them
    labeled = sum(math.factorial(8) // len(auts) for auts in lists)
    assert labeled == 2 ** 28, f"the classes hold {labeled} labeled graphs, not 2^28"
    # and in only one: no two classes are isomorphic
    buckets = {}
    for g in classes:
        inv = oracles.node_invariants(g.adj)
        buckets.setdefault(tuple(sorted(inv)), []).append((g.adj, inv))
    same = [
        (g, h)
        for bucket in buckets.values()
        for (g, gp), (h, hp) in itertools.combinations(bucket, 2)
        if oracles.enumerate_isomorphisms(g, h, gp, hp, first_only=True)
    ]
    assert not same, f"{len(same)} pairs of isomorphic classes, first {same[0]}"


def test_packed_node_invariants_split_the_nodes_as_the_oracle_tuples_do_on_every_8_node_candidate():
    # every mask of every base with 7 nodes, 133,632 candidates, pooled
    bad, count = [], 0
    to_tuple, to_packed = {}, {}  # each invariant met, and the one invariant of the other kind it met
    for base in graph_classes(7):
        for mask in range(1 << 7):
            rows = [r | (mask >> v & 1) << 7 for v, r in enumerate(base.adj)] + [mask]
            for p, t in zip(_node_invariants(rows), oracles.node_invariants(rows)):
                if to_tuple.setdefault(p, t) != t or to_packed.setdefault(t, p) != p:
                    bad.append((base, mask, p, t))
            count += 1
    assert not bad, f"packed invariants split the nodes unlike the oracle on {len(bad)} nodes, first {bad[0]}"
    assert count == 133632, f"{count} candidates"


def test_graph_classes_on_9_nodes_are_exact_and_keep_the_coclique_bound():
    classes = graph_classes(9)
    graph_classes.cache_clear()  # else the memo holds the 274,668 classes, about 220 MB, for the tests after this one
    assert len(classes) == 274668, f"{len(classes)} classes on 9 nodes"
    # the class of g holds 9!/|Aut(g)| labeled graphs, and the 2^36 on 9 nodes are all held
    labeled = sum(math.factorial(9) // len(automorphisms(g)) for g in classes)
    assert labeled == 2 ** 36, f"the classes hold {labeled} labeled graphs, not 2^36"
    fails = [g for g in classes if not coclique_bound_check(g).holds]
    assert not fails, f"the coclique bound fails on {len(fails)} classes, first {fails[0]}"
