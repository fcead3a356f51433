"""Finite simple graphs at desk scale.

Provides the graph inputs everything else decorates: parsing (edge-list
text or JSON), induced subgraphs, exact maximum cocliques, automorphism
groups by a backtracking search pruned by orbits, the Dynkin diagram
families, and enumeration of isomorphism classes up to 9 nodes, most of
them kept by a canonical-construction test rather than told apart by a
search, and given their automorphism groups by the same test. All
algorithms are exact and deterministic; none of them are meant for
graphs beyond a few dozen nodes.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .gf2 import BitMat, _INT, _drop_bit, _gather, _new

__all__ = [
    "Graph",
    "parse_graph",
    "graph_to_json",
    "induced_subgraph",
    "max_coclique",
    "automorphisms",
    "is_isomorphic",
    "dynkin_graph",
    "all_graphs",
    "graph_classes",
    "DYNKIN_FAMILIES",
]

MAX_NODES = 1 << 14  # far above any graph meant for this package; checked before allocating
MAX_COCLIQUE_NODES = 32
MAX_AUTOMORPHISM_NODES = 16
# is_isomorphic recurses once per node, so this stays well below Python's default recursion limit
MAX_ISOMORPHISM_NODES = 512
# 9!, the most any graph on 9 nodes has: every graph on at most 9 nodes keeps its list, so
# graph_classes(9) reads those of its 8-node bases; the group order is checked before any
# element of the list is built
MAX_AUTOMORPHISMS = 362_880
# graph_classes(9) makes about 2.2M candidates (slow, but it ends); checked before any recursion
MAX_CLASS_NODES = 9

DYNKIN_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first.

    The isomorphism search inlines this walk: through a generator,
    ``graph_classes`` takes about a third longer."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _row_edges(adj: Sequence[int]) -> Iterator[Iterator[tuple[int, int]]]:
    """Per row a, the edges (a, b) with b > a, lowest b first: the row's
    bits above a as one byte string of 0s and 1s that ``compress`` reads."""
    for a, row in enumerate(adj):
        flags = bin(row >> (a + 1))[:1:-1].encode().translate(_BIT_FLAGS)
        yield zip(itertools.repeat(a), itertools.compress(itertools.count(a + 1), flags))


def _checked_adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The adjacency rows of ``Graph(n, pairs)``, one edge at a time: raises
    at the first edge that is not a pair, has an endpoint that is not an
    int, out of range, a self-loop or a duplicate. A bool endpoint passes as
    the lean pass takes it, as 0 or 1."""
    adj = [0] * n
    for edge in pairs:
        try:
            a, b = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a pair") from None
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValueError(f"edge ({a!r}, {b!r}) has an endpoint that is not an int")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) out of range for {n} nodes")
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        if adj[a] >> b & 1:
            raise ValueError(f"duplicate edge {(min(a, b), max(a, b))}")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


class Graph:
    """An undirected simple graph on nodes 0..n-1: bit b of ``adj[a]`` is set iff a-b is an edge.

    Its slots are written only through their member descriptors' setters,
    bound once below the class (``_set_n``, ``_set_adj``, ``_set_group``),
    since ``__setattr__`` refuses every write; ``_from_adj`` makes the
    instance with ``gf2._new``, that is ``object.__new__``.
    """

    # _group: the sorted automorphism list that graph_classes stores on a
    # representative it built from its base's group, until automorphisms
    # hands it over; None or unset on every other graph
    __slots__ = ("n", "adj", "_group")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if type(n) is not int:
            raise ValueError(f"node count {n!r} is not an int")
        if n < 0:
            raise ValueError(f"negative node count {n}")
        if n > MAX_NODES:
            raise ValueError(f"{n} nodes exceeds the node cap of {MAX_NODES}")
        # One lean pass, checked in bulk: a node past n - 1 is no row
        # index (both rows are read before any shift, so no huge shift is
        # tried), a negative one no shift count, and each edge sets two
        # new bits unless it is a self-loop or a duplicate. Any failure
        # reruns the per-edge checks, which name the first culprit.
        pairs = list(edges)
        adj = [0] * n
        try:
            for a, b in pairs:
                row = adj[b]
                adj[a] |= 1 << b
                adj[b] = row | 1 << a
            valid = sum(map(int.bit_count, adj)) == 2 * len(pairs)
        except (IndexError, TypeError, ValueError):
            valid = False
        if not valid:
            adj = _checked_adjacency(n, pairs)
        _set_n(self, n)
        _set_adj(self, tuple(adj))

    @classmethod
    def _from_adj(cls, rows: Iterable[int]) -> "Graph":
        """Trusted: symmetric loop-free rows taken from graphs already held; checks only the cap."""
        adj = tuple(rows)
        if len(adj) > MAX_NODES:
            raise ValueError(f"{len(adj)} nodes exceeds the node cap of {MAX_NODES}")
        g = _new(cls)
        _set_n(g, len(adj))
        _set_adj(g, adj)
        return g

    def _with_node(self, nbrs: int) -> "Graph":
        """This graph plus a node n adjacent to the nodes whose bits ``nbrs`` sets."""
        return Graph._from_adj([r | (nbrs >> v & 1) << self.n for v, r in enumerate(self.adj)] + [nbrs])

    def _without_node(self, v: int) -> "Graph":
        """This graph minus node v, the later nodes renumbered down by one:
        ``induced_subgraph`` on every node but v."""
        return Graph._from_adj(_drop_bit(r, v) for u, r in enumerate(self.adj) if u != v)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through Graph(n, edges), since
        # the default slot restore would go through __setattr__; a stored
        # _group is not carried
        return Graph, (self.n, self.edge_list())

    def has_edge(self, a: int, b: int) -> bool:
        return (self.adj[a] >> b) & 1 == 1

    def degree(self, a: int) -> int:
        return self.adj[a].bit_count()

    def neighbors(self, a: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[a]))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edge_list())

    def edge_list(self) -> list[tuple[int, int]]:
        """The edges (a, b), a < b, in lexicographic order."""
        return list(itertools.chain.from_iterable(_row_edges(self.adj)))

    def adjacency(self) -> BitMat:
        return BitMat._trusted(self.n, self.adj)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply node relabeling: node i becomes perm[i]."""
        _check_node_types(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        rows = [0] * self.n
        for v, r in enumerate(self.adj):
            rows[perm[v]] = sum(1 << perm[b] for b in _bits(r))
        return Graph._from_adj(rows)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            rem = frontier
            while rem:
                v = (rem & -rem).bit_length() - 1
                rem &= rem - 1
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_list()})"


_set_n = Graph.n.__set__
_set_adj = Graph.adj.__set__
_set_group = Graph._group.__set__


def parse_graph(text: str) -> Graph:
    """Parse either the edge-list format or the JSON form.

    Edge-list format: a line "n <count>" followed by "e <i> <j>" lines;
    "#" starts a comment. JSON form: {"nodes": N, "edges": [[i, j], ...]}.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad graph JSON: {exc}") from exc
        return _graph_from_json(payload)

    n: int | None = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise ValueError(f"line {lineno}: repeated node-count line")
            if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise ValueError(f"line {lineno}: malformed node-count line {raw!r}")
            n = int(parts[1])
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before node-count line")
            if len(parts) != 3 or not all(f.isascii() and f.isdigit() for f in parts[1:]):
                raise ValueError(f"line {lineno}: malformed edge line {raw!r}")
            pairs.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise ValueError("missing node-count line")
    return Graph(n, pairs)


def _graph_from_json(payload) -> Graph:
    """The graph of a decoded JSON form {"nodes": N, "edges": [[i, j], ...]}."""
    if not isinstance(payload, dict) or "nodes" not in payload:
        raise ValueError('graph JSON needs a "nodes" field')
    nodes = payload["nodes"]
    edges = payload.get("edges", [])
    # type() rather than isinstance(): JSON true/false are bools, and
    # bool is a subclass of int
    if type(nodes) is not int:
        raise ValueError('"nodes" must be an integer')
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            raise ValueError(f"bad edge entry {e!r}")
    return Graph(nodes, edges)


def graph_to_json(g: Graph) -> dict:
    # each [a, b] straight from its row's zip, with no list of tuples between
    return {"nodes": g.n, "edges": list(map(list, itertools.chain.from_iterable(_row_edges(g.adj))))}


def _check_node_types(nodes: Sequence[int]) -> None:
    """Raise unless every entry of a node selection is an int, a bool not
    being one: one C-level pass, and the loop that names the first culprit
    only on failure."""
    try:
        kinds = {*map(type, nodes)}
    except TypeError:
        raise ValueError(f"node selection {nodes!r} is not a sequence") from None
    if kinds - _INT:
        v = next(v for v in nodes if type(v) is not int)
        raise ValueError(f"node {v!r} in selection is not an int")


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph on the given nodes, reindexed as 0..len(nodes)-1 in order."""
    _check_node_types(nodes)
    if len(set(nodes)) != len(nodes):
        raise ValueError("repeated node in selection")
    if any(not 0 <= v < g.n for v in nodes):
        raise ValueError("node selection out of range")
    return Graph._from_adj(_gather(g.adj[v], nodes) for v in nodes)


def max_coclique(g: Graph) -> tuple[int, ...]:
    """The lexicographically least maximum independent set.

    Branch and bound over nodes in index order, trying inclusion first, so
    the first maximum-size set reached is the lexicographically least one;
    pruning only discards branches that cannot beat the incumbent strictly,
    which are lexicographically later anyway.
    """
    if g.n > MAX_COCLIQUE_NODES:
        raise ValueError(f"{g.n} nodes exceeds the coclique cap of {MAX_COCLIQUE_NODES}")
    best: list[int] = []

    def grow(chosen: list[int], allowed: int, start: int):
        nonlocal best
        remaining = allowed >> start
        if len(chosen) + remaining.bit_count() <= len(best):
            return
        v = start
        rem = remaining
        while rem:
            if rem & 1:
                chosen.append(v)
                if len(chosen) > len(best):
                    best = chosen.copy()
                grow(chosen, allowed & ~g.adj[v], v + 1)
                chosen.pop()
                # after skipping v the bound may already be hopeless
                if len(chosen) + (allowed >> (v + 1)).bit_count() <= len(best):
                    return
            rem >>= 1
            v += 1

    grow([], (1 << g.n) - 1 if g.n else 0, 0)
    return tuple(best)


def _node_invariants(adj: Sequence[int]) -> list[int]:
    """Per node of the graph with adjacency rows ``adj``, one packed int:
    twice the triangles through it, shifted above the multiset of its
    neighbours' degrees, where a neighbour of degree d adds 1 at bit w*d
    and w = n.bit_length() for n = len(adj). A count is at most n - 1 <
    2^w, so no field carries into the next, and equal ints mean equal
    degree (the sum of the counts), triangles and sorted neighbour
    degrees. Isomorphisms preserve it, so it narrows the search and
    buckets graphs."""
    n = len(adj)
    w = n.bit_length()
    units = [1 << w * r.bit_count() for r in adj]
    top = w * n
    out = []
    for r in adj:
        tri = 0
        nbrs = 0
        rem = r
        while rem:
            low = rem & -rem
            u = low.bit_length() - 1
            rem ^= low
            tri += (r & adj[u]).bit_count()
            nbrs += units[u]
        out.append(tri << top | nbrs)
    return out


def _search_plan(g: Sequence[int], gp: list, hp: list) -> tuple[list[list[int]], list[int], list[int]]:
    """The set-up of a search for maps from the graph with rows ``g`` onto
    a graph with node invariants ``hp``; gp are g's ``_node_invariants``.
    Returns, per node of g, its candidate images (the nodes of h with
    equal invariants); the placement order, most constrained nodes first,
    ties by index for determinism; and per position, the mask ``want`` of
    the earlier positions adjacent to the node placed there."""
    n = len(g)
    by_inv: dict[tuple, list[int]] = {}
    for w, inv in enumerate(hp):
        by_inv.setdefault(inv, []).append(w)
    cands = [by_inv.get(inv, []) for inv in gp]
    order = sorted(range(n), key=[len(c) for c in cands].__getitem__)
    pos_of = [0] * n
    for pos, v in enumerate(order):
        pos_of[v] = pos
    want = []
    for pos, v in enumerate(order):
        mask = 0
        rem = g[v]
        while rem:
            low = rem & -rem
            p = pos_of[low.bit_length() - 1]
            rem ^= low
            if p < pos:
                mask |= 1 << p
        want.append(mask)
    return cands, order, want


def _isomorphisms(h: Sequence[int], plan: tuple, prefix: Sequence[int] = ()) -> tuple[int, ...] | None:
    """The first map, in search order, from the graph g that ``plan``
    (``_search_plan(g, gp, hp)``) was made for onto the graph with rows
    ``h`` and invariants hp that sends the first len(prefix) nodes of the
    placement order to ``prefix``; None if there is none.

    Backtracking in the plan's order, and the consistency check is one
    int compare: ``seen[w]`` marks the placed positions whose images are
    adjacent to w in h, so w fits at pos iff it equals ``want[pos]``."""
    cands, order, want = plan
    n = len(order)
    seen = [0] * n
    mapping = [-1] * n
    used = [False] * n
    for pos, w in enumerate(prefix):
        v = order[pos]
        if used[w] or seen[w] != want[pos] or w not in cands[v]:
            return None
        mapping[v] = w
        used[w] = True
        bit = 1 << pos
        rem = h[w]
        while rem:
            low = rem & -rem
            seen[low.bit_length() - 1] |= bit
            rem ^= low

    def place(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        need = want[pos]
        bit = 1 << pos
        for w in cands[v]:
            if used[w] or seen[w] != need:
                continue
            mapping[v] = w
            used[w] = True
            rem = h[w]
            while rem:
                low = rem & -rem
                seen[low.bit_length() - 1] |= bit
                rem ^= low
            if place(pos + 1):
                return True
            rem = h[w]
            while rem:
                low = rem & -rem
                seen[low.bit_length() - 1] ^= bit
                rem ^= low
            used[w] = False
        return False

    found = place(len(prefix))
    place = None  # it refers to itself: break the cycle, so the frames are freed now
    return tuple(mapping) if found else None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some relabeling of g is h. The search recurses once per
    node, so both graphs are capped at ``MAX_ISOMORPHISM_NODES``, checked
    before any work."""
    for x in (g, h):
        if x.n > MAX_ISOMORPHISM_NODES:
            raise ValueError(f"{x.n} nodes exceeds the isomorphism cap of {MAX_ISOMORPHISM_NODES}")
    gp, hp = _node_invariants(g.adj), _node_invariants(h.adj)
    if sorted(gp) != sorted(hp):
        return False
    return _isomorphisms(h.adj, _search_plan(g.adj, gp, hp)) is not None


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms as permutation tuples, lexicographically sorted.

    A search pruned by orbits (McKay & Piperno, "Practical graph
    isomorphism II", 2014) along the placement order v_0, v_1, ...: G_i,
    the automorphisms fixing v_0..v_(i-1), is a transversal of the orbit
    of v_i under G_i times G_(i+1). The levels are taken from the deepest
    up. At level i, each candidate image of v_i that agrees with the fixed
    nodes and is not yet in the orbit gets one first-only search with
    v_0..v_(i-1) fixed, and each map found is a new generator; the orbit
    is closed under all generators found so far, which keeps for every
    orbit point a product of generators that sends v_i there. The group
    order, the product of the orbit sizes, is checked against
    ``MAX_AUTOMORPHISMS`` before the list, every product of one
    transversal element per level, is built: one ``itemgetter`` per
    element so far, mapped over the level's transversal, in whatever order
    that gives, since the list is sorted at the end.

    A representative that ``graph_classes`` built from its base's group
    holds its list already (see there). The first call on that object is
    handed the stored list itself, with no search and no copy, and the
    object lets go of it, so nothing is kept for longer than that. Every
    later call, and every other graph, goes through the search, which
    gives an equal list.
    """
    group = getattr(g, "_group", None)
    if group is not None:
        _set_group(g, None)
        return group
    n = g.n
    if n > MAX_AUTOMORPHISM_NODES:
        raise ValueError(f"{n} nodes exceeds the automorphism cap of {MAX_AUTOMORPHISM_NODES}")
    identity = tuple(range(n))
    adj = g.adj
    inv = _node_invariants(adj)
    plan = _search_plan(adj, inv, inv)
    cands, order, _ = plan
    gens: list[tuple[int, ...]] = []
    transversals = []  # deepest level first
    fixed = (1 << n) - 1
    for i in range(n - 1, -1, -1):
        v = order[i]
        if len(cands[v]) == 1:
            break  # so has every earlier node, as the order puts them first
        fixed ^= 1 << v  # the nodes v_0..v_(i-1)
        row = adj[v] & fixed
        # orbit point -> a product of generators that fixes v_0..v_(i-1) and sends v there
        reach = {v: identity}
        for w in cands[v]:
            if w in reach or fixed >> w & 1 or adj[w] & fixed != row:
                continue
            found = _isomorphisms(adj, plan, [*order[:i], w])
            if found is None:
                continue
            gens.append(found)
            points = list(reach)
            for u in points:  # grows while it is walked
                t = reach[u]
                for s in gens:
                    x = s[u]
                    if x not in reach:
                        reach[x] = tuple(map(s.__getitem__, t))
                        points.append(x)
        if len(reach) > 1:
            transversals.append(list(reach.values()))
    order_of_group = math.prod(map(len, transversals))
    if order_of_group > MAX_AUTOMORPHISMS:
        raise ValueError(
            f"automorphism group of order {order_of_group} exceeds the list cap of {MAX_AUTOMORPHISMS}"
        )
    elements = [identity]
    for reach in transversals:
        # t after e, as itemgetter(*e)(t); e has n >= 2 entries, so it gives a tuple
        elements = [t for e in elements for t in map(itemgetter(*e), reach)]
    return sorted(elements)


def dynkin_graph(family: str, rank: int) -> Graph:
    """Dynkin diagrams for A/D/E; for B/C/F/G the parity image of the
    root pairing (the graph whose edges mark odd off-diagonal pairings).

    Node layout: the A-chain comes first (path 0-1-...), appended nodes
    last. D_{2m+2} attaches both fork nodes to node 0 of the A_{2m} chain;
    D_{2m+1} attaches its one extra node to node 1. E6 and E8 attach nodes
    p and q to nodes 0 and 1 of the A-chain; E7 attaches one node to node 2.
    """
    if type(rank) is not int:
        raise ValueError(f"rank {rank!r} is not an int")
    if rank > MAX_NODES:  # before any edge list is built
        raise ValueError(f"{rank} nodes exceeds the node cap of {MAX_NODES}")
    if family == "A":
        if rank < 1:
            raise ValueError("A requires rank >= 1")
        return _path(rank)
    if family == "D":
        if rank < 4:
            raise ValueError("D requires rank >= 4")
        chain = rank - 2 if rank % 2 == 0 else rank - 1
        edges = [(i, i + 1) for i in range(chain - 1)]
        if rank % 2 == 0:
            edges += [(rank - 2, 0), (rank - 1, 0)]
        else:
            edges += [(rank - 1, 1)]
        return Graph(rank, edges)
    if family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("E requires rank in {6, 7, 8}")
        chain = 4 if rank == 6 else 6
        edges = [(i, i + 1) for i in range(chain - 1)]
        if rank == 7:
            edges += [(6, 2)]
        else:
            edges += [(chain, 0), (chain + 1, 1)]
        return Graph(rank, edges)
    if family == "B":
        if rank < 2:
            raise ValueError("B requires rank >= 2")
        return Graph(rank, [])
    if family == "C":
        if rank < 2:
            raise ValueError("C requires rank >= 2")
        return Graph(rank, [(i, i + 1) for i in range(rank - 2)])
    if family == "F":
        if rank != 4:
            raise ValueError("F requires rank 4")
        return Graph(4, [(2, 3)])
    if family == "G":
        if rank != 2:
            raise ValueError("G requires rank 2")
        return Graph(2, [(0, 1)])
    raise ValueError(f"unknown family {family!r}")


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n nodes (2^(n choose 2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


# typed: True and 2.0 equal 1 and 2, and a keyword call's key is a tuple
# that would match, so they must reach the type check, not a cached tuple
@lru_cache(maxsize=None, typed=True)
def graph_classes(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of graphs on n nodes.

    Built by augmenting each (n-1)-node class with one neighbourhood for a
    new node per orbit of the class's automorphism group, the least mask
    of each orbit, and keeping a candidate only when its new node has the
    largest key of all its nodes: its degree first, then its packed
    ``_node_invariants`` int. This is the weak form of Read's orderly
    generation (Read, "Every one a winner", 1978) and of McKay's
    canonical construction path ("Isomorph-free exhaustive generation",
    J. Algorithms 1998). It is exact:

    - Every class keeps a candidate. Delete a node of largest key from a
      graph of the class: the orbit-least mask that adds it back to the
      base class left gives a candidate whose new node has that key.
    - The degree test reads only |M| and whether the mask M meets the
      base's nodes of largest degree. Both are invariant under Aut(base),
      so a whole orbit passes or fails together, and the test comes
      before the orbit is marked.
    - A candidate whose new node has the unique largest key is a new
      class, with no search. An isomorphism onto another such candidate
      maps new node to new node, so the bases are equal and the masks lie
      in one orbit.
    - A candidate whose new node ties for the largest key can only be
      isomorphic to another such candidate. It is searched against the
      tied representatives in its bucket, keyed by its sorted invariants.

    So each class keeps the first of its candidates that pass the test,
    in base-then-ascending-mask order, and trying every mask would keep
    the same ones.

    A new class of the third kind needs no search for its automorphisms
    either. Each one fixes the new node v, the only node with its key, so
    Aut(G') is the stabilizer of M in Aut(base), each element extended by
    v -> v (McKay 1998 uses the same fact). The base's list, which marks
    the orbits, is sorted with the identity first, and every element gains
    the same last entry, so keeping those that map M onto M gives the
    sorted list that ``automorphisms`` would search for. It is stored on
    the new representative and handed to the first ``automorphisms`` call
    on it, such as the next level's ``graph_classes(n + 1)``; about three
    classes in four on 8 nodes get theirs that way.

    A candidate that passes the degree test builds its rows and reads
    their ``_node_invariants``; on 7 nodes that is 1,401 of the 5,096
    orbits. Per call, each mask's list of bits (for the orbit marks and
    the nodes that tie in degree) and the column it adds to the base rows
    are tabled once. Candidates are rows tuples; only a new
    representative becomes a ``Graph``. Counts follow the classical
    sequence 1, 2, 4, 11, 34, 156, 1044, 12346, and n is capped at
    ``MAX_CLASS_NODES``.
    """
    if type(n) is not int:
        raise ValueError(f"node count {n!r} is not an int")
    if n < 0:
        raise ValueError("negative node count")
    if n > MAX_CLASS_NODES:
        raise ValueError(f"{n} nodes exceeds the class cap of {MAX_CLASS_NODES}")
    if n == 0:
        return (Graph(0),)
    out: list[Graph] = []
    identity = tuple(range(n))
    top = 1 << (n - 1)
    # per mask, its set bits and the column it adds to the base rows, one int per row
    bits_of: list[list[int]] = [[]]
    spread: list[tuple[int, ...]] = [()]
    for v in range(n - 1):
        bits_of += [bits + [v] for bits in bits_of]
        spread = [s + (0,) for s in spread] + [s + (top,) for s in spread]
    # sorted invariants (they fix the edge count) -> [(representative rows, invariants)],
    # only of the representatives whose new node ties for the largest key
    buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], list[int]]]] = {}
    for base in graph_classes(n - 1):
        adj = base.adj
        level = [0] * n  # per degree, the base nodes of that degree
        for v, r in enumerate(adj):
            level[r.bit_count()] |= 1 << v
        most = max(map(int.bit_count, adj), default=0)
        autos = automorphisms(base)
        # per automorphism but the first (the identity), the image of each node's bit
        ups = [[1 << w for w in perm] for perm in autos[1:]]
        # the same automorphisms, in the same sorted order, with the new node fixed
        fixing = [perm + (n - 1,) for perm in autos[1:]]
        seen = bytearray(top)
        for mask in range(top):
            d = mask.bit_count()
            # the degree test: the base nodes of largest degree gain one if mask meets them
            if d < (most + 1 if mask & level[most] else most) or seen[mask]:
                continue
            # mask is the least of its orbit under Aut(base): mark the rest of the orbit
            bits = bits_of[mask]
            images = [sum(map(up.__getitem__, bits)) for up in ups]
            for x in images:
                seen[x] = 1
            rows = (*map(int.__or__, adj, spread[mask]), mask)
            inv = _node_invariants(rows)
            # the largest invariant of the base nodes whose degree is d in the candidate
            rival = max(map(inv.__getitem__, bits_of[level[d] & ~mask | level[d - 1] & mask]), default=-1)
            if rival > inv[-1]:
                continue  # the invariant test
            if rival == inv[-1]:
                bucket = buckets.setdefault(tuple(sorted(inv)), [])
                if any(
                    _isomorphisms(rep, _search_plan(rows, inv, rep_inv)) is not None for rep, rep_inv in bucket
                ):
                    continue
                bucket.append((rows, inv))
            rep = Graph._from_adj(rows)
            if rival < inv[-1]:
                # the stabilizer of mask, the new node fixed: most are trivial
                group = [identity]
                if mask in images:
                    group += [t for t, x in zip(fixing, images) if x == mask]
                _set_group(rep, group)
            out.append(rep)
    return tuple(out)
