"""Finite simple graphs at desk scale.

Provides the graph inputs everything else decorates: parsing (edge-list
text or JSON), induced subgraphs, exact maximum cocliques, automorphism
groups by backtracking, the Dynkin diagram families, and enumeration of
isomorphism classes up to 8 nodes. All algorithms are exact and
deterministic; none of them are meant for graphs beyond a few dozen nodes.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .gf2 import BitMat

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


def _checked_adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The adjacency rows of ``Graph(n, pairs)``, one edge at a time: raises
    at the first edge out of range, self-loop or duplicate."""
    adj = [0] * n
    for a, b in pairs:
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
    """An undirected simple graph on nodes 0..n-1: bit b of ``adj[a]`` is set iff a-b is an edge."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def _from_adj(cls, rows: Iterable[int]) -> "Graph":
        """Trusted: symmetric loop-free rows taken from graphs already held; checks only the cap."""
        adj = tuple(rows)
        if len(adj) > MAX_NODES:
            raise ValueError(f"{len(adj)} nodes exceeds the node cap of {MAX_NODES}")
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", adj)
        return g

    def _with_node(self, nbrs: int) -> "Graph":
        """This graph plus a node n adjacent to the nodes whose bits ``nbrs`` sets."""
        return Graph._from_adj([r | (nbrs >> v & 1) << self.n for v, r in enumerate(self.adj)] + [nbrs])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

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
        """The edges (a, b), a < b, in lexicographic order: each row's bits
        above a, lowest first, as one byte string of 0s and 1s that
        ``compress`` reads."""
        out = []
        for a, row in enumerate(self.adj):
            flags = bin(row >> (a + 1))[:1:-1].encode().translate(_BIT_FLAGS)
            out.extend(zip(itertools.repeat(a), itertools.compress(itertools.count(a + 1), flags)))
        return out

    def adjacency(self) -> BitMat:
        return BitMat._trusted(self.n, self.adj)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply node relabeling: node i becomes perm[i]."""
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
    return {"nodes": g.n, "edges": list(map(list, g.edge_list()))}


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph on the given nodes, reindexed as 0..len(nodes)-1 in order."""
    if len(set(nodes)) != len(nodes):
        raise ValueError("repeated node in selection")
    if any(not 0 <= v < g.n for v in nodes):
        raise ValueError("node selection out of range")
    return Graph._from_adj(sum((g.adj[v] >> u & 1) << i for i, u in enumerate(nodes)) for v in nodes)


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


def _node_invariants(adj: Sequence[int]) -> list[tuple]:
    """Per node of the graph with adjacency rows ``adj``: degree, triangles
    through it, sorted neighbour degrees. Isomorphisms preserve it, so it
    narrows the search and buckets graphs."""
    degs = [r.bit_count() for r in adj]
    out = []
    for r in adj:
        tri = 0
        nbr_degs = []
        rem = r
        while rem:
            low = rem & -rem
            u = low.bit_length() - 1
            rem ^= low
            tri += (r & adj[u]).bit_count()
            nbr_degs.append(degs[u])
        nbr_degs.sort()
        out.append((len(nbr_degs), tri >> 1, tuple(nbr_degs)))
    return out


def _isomorphisms(
    g: Sequence[int], h: Sequence[int], gp: list, hp: list, first_only: bool
) -> list[tuple[int, ...]]:
    """Backtracking search for the maps from the graph with rows ``g`` onto
    the one with rows ``h``; gp and hp are their ``_node_invariants``, which
    the caller has already found equal when sorted.

    Nodes of g are placed in a fixed order, and the consistency check is
    one int compare: ``want[pos]`` marks the earlier positions adjacent to
    ``order[pos]`` in g, ``seen[w]`` the placed positions whose images are
    adjacent to w in h, so w fits at pos iff the two masks are equal."""
    n = len(g)
    by_inv: dict[tuple, list[int]] = {}
    for w, inv in enumerate(hp):
        by_inv.setdefault(inv, []).append(w)
    cands = [by_inv.get(inv, []) for inv in gp]
    # most constrained nodes first, ties by index for determinism
    order = sorted(range(n), key=lambda v: (len(cands[v]), v))
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
    seen = [0] * n
    mapping = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def place(pos: int) -> bool:
        if pos == n:
            found.append(tuple(mapping))
            return first_only
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

    place(0)
    return found


def is_isomorphic(g: Graph, h: Graph) -> bool:
    gp, hp = _node_invariants(g.adj), _node_invariants(h.adj)
    if sorted(gp) != sorted(hp):
        return False
    return bool(_isomorphisms(g.adj, h.adj, gp, hp, first_only=True))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms as permutation tuples, lexicographically sorted."""
    if g.n > MAX_AUTOMORPHISM_NODES:
        raise ValueError(f"{g.n} nodes exceeds the automorphism cap of {MAX_AUTOMORPHISM_NODES}")
    if g.n == 0:
        return [()]
    inv = _node_invariants(g.adj)
    return sorted(_isomorphisms(g.adj, g.adj, inv, inv, first_only=False))


def dynkin_graph(family: str, rank: int) -> Graph:
    """Dynkin diagrams for A/D/E; for B/C/F/G the parity image of the
    root pairing (the graph whose edges mark odd off-diagonal pairings).

    Node layout: the A-chain comes first (path 0-1-...), appended nodes
    last. D_{2m+2} attaches both fork nodes to node 0 of the A_{2m} chain;
    D_{2m+1} attaches its one extra node to node 1. E6 and E8 attach nodes
    p and q to nodes 0 and 1 of the A-chain; E7 attaches one node to node 2.
    """
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


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of graphs on n nodes.

    Built by augmenting each (n-1)-node class with one neighborhood for a
    new node per orbit of the class's automorphism group, the least mask
    of each orbit (Read, "Every one a winner", 1978), and deduplicating
    with exact isomorphism searches inside buckets keyed by the sorted
    node invariants. Every n-node class arises this way because deleting
    a node of any representative lands in some smaller class. Two masks
    in one orbit give isomorphic candidates, so in base-then-ascending-mask
    order the first candidate of every class is an orbit minimum: the
    representatives, and their order, are those that trying every mask
    gives. Candidates are rows tuples; only a new representative becomes
    a ``Graph``. Counts follow the classical sequence 1, 2, 4, 11, 34,
    156, 1044, 12346; n = 8 takes about 5 s cold (Python 3.11, 2-vCPU
    x86-64 host), and n is capped at ``MAX_CLASS_NODES``.
    """
    if n < 0:
        raise ValueError("negative node count")
    if n > MAX_CLASS_NODES:
        raise ValueError(f"{n} nodes exceeds the class cap of {MAX_CLASS_NODES}")
    if n == 0:
        return (Graph(0),)
    out: list[Graph] = []
    top = 1 << (n - 1)
    # sorted invariants (they fix the edge count) -> [(representative rows, invariants)]
    buckets: dict[tuple, list[tuple[tuple[int, ...], list[tuple]]]] = {}
    for base in graph_classes(n - 1):
        # per automorphism but the first (the identity), the image of each node's bit
        ups = [[1 << w for w in perm] for perm in automorphisms(base)[1:]]
        seen = bytearray(top)
        for mask in range(top):
            if seen[mask]:
                continue
            # mask is the least of its orbit under Aut(base): mark the rest of the orbit
            bits = list(_bits(mask))
            for up in ups:
                seen[sum([up[v] for v in bits])] = 1
            rows = (*(r | top if mask >> v & 1 else r for v, r in enumerate(base.adj)), mask)
            inv = _node_invariants(rows)
            bucket = buckets.setdefault(tuple(sorted(inv)), [])
            if not any(_isomorphisms(rows, rep, inv, rep_inv, first_only=True) for rep, rep_inv in bucket):
                bucket.append((rows, inv))
                out.append(Graph._from_adj(rows))
    return tuple(out)
