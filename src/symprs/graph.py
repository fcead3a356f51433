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
    "connected_graph_classes",
    "DYNKIN_FAMILIES",
]

MAX_COCLIQUE_NODES = 32
MAX_AUTOMORPHISM_NODES = 16

DYNKIN_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class Graph:
    """An undirected simple graph on nodes 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"negative node count {n}")
        seen: set[tuple[int, int]] = set()
        adj = [0] * n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for {n} nodes")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            edge = (min(a, b), max(a, b))
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(seen))
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Graph is immutable")

    def has_edge(self, a: int, b: int) -> bool:
        return (self.adj[a] >> b) & 1 == 1

    def degree(self, a: int) -> int:
        return self.adj[a].bit_count()

    def neighbors(self, a: int) -> tuple[int, ...]:
        return tuple(b for b in range(self.n) if (self.adj[a] >> b) & 1)

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> BitMat:
        return BitMat(self.n, self.adj)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply node relabeling: node i becomes perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        return Graph(self.n, [(perm[a], perm[b]) for a, b in self.edges])

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

    def profile(self) -> tuple:
        """Isomorphism-invariant fingerprint used to bucket candidates."""
        degs = [a.bit_count() for a in self.adj]
        per_node = []
        for v in range(self.n):
            tri = sum((self.adj[v] & self.adj[u]).bit_count() for u in self.neighbors(v)) // 2
            per_node.append((degs[v], tri, tuple(sorted(degs[u] for u in self.neighbors(v)))))
        return (self.n, len(self.edges), tuple(sorted(per_node)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

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
            if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
                raise ValueError(f"bad edge entry {e!r}")
        return Graph(nodes, [tuple(e) for e in edges])

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
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"line {lineno}: malformed node-count line {raw!r}")
            n = int(parts[1])
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before node-count line")
            if len(parts) != 3 or not (parts[1].isdigit() and parts[2].isdigit()):
                raise ValueError(f"line {lineno}: malformed edge line {raw!r}")
            pairs.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise ValueError("missing node-count line")
    return Graph(n, pairs)


def graph_to_json(g: Graph) -> dict:
    return {"nodes": g.n, "edges": [list(e) for e in g.edge_list()]}


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph on the given nodes, reindexed as 0..len(nodes)-1 in order."""
    if len(set(nodes)) != len(nodes):
        raise ValueError("repeated node in selection")
    if any(not 0 <= v < g.n for v in nodes):
        raise ValueError("node selection out of range")
    index = {v: i for i, v in enumerate(nodes)}
    edges = [(index[a], index[b]) for a, b in g.edges if a in index and b in index]
    return Graph(len(nodes), edges)


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


def _refine_candidates(g: Graph, h: Graph) -> list[list[int]] | None:
    """Per-node candidate lists in h for each node of g, or None if hopeless."""
    gp = [None] * g.n
    hp = [None] * h.n
    for v in range(g.n):
        tri = sum((g.adj[v] & g.adj[u]).bit_count() for u in g.neighbors(v)) // 2
        gp[v] = (g.degree(v), tri, tuple(sorted(g.degree(u) for u in g.neighbors(v))))
    for v in range(h.n):
        tri = sum((h.adj[v] & h.adj[u]).bit_count() for u in h.neighbors(v)) // 2
        hp[v] = (h.degree(v), tri, tuple(sorted(h.degree(u) for u in h.neighbors(v))))
    if sorted(gp) != sorted(hp):
        return None
    return [[w for w in range(h.n) if hp[w] == gp[v]] for v in range(g.n)]


def _isomorphisms(g: Graph, h: Graph, first_only: bool) -> list[tuple[int, ...]]:
    if g.n != h.n or len(g.edges) != len(h.edges):
        return []
    cands = _refine_candidates(g, h)
    if cands is None:
        return []
    # most constrained nodes first, ties by index for determinism
    order = sorted(range(g.n), key=lambda v: (len(cands[v]), v))
    mapping = [-1] * g.n
    used = [False] * h.n
    found: list[tuple[int, ...]] = []

    def place(pos: int) -> bool:
        if pos == g.n:
            found.append(tuple(mapping))
            return first_only
        v = order[pos]
        for w in cands[v]:
            if used[w]:
                continue
            ok = True
            for u in order[:pos]:
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if place(pos + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    place(0)
    return found


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return bool(_isomorphisms(g, h, first_only=True))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms as permutation tuples, lexicographically sorted."""
    if g.n > MAX_AUTOMORPHISM_NODES:
        raise ValueError(f"{g.n} nodes exceeds the automorphism cap of {MAX_AUTOMORPHISM_NODES}")
    if g.n == 0:
        return [()]
    return sorted(_isomorphisms(g, g, first_only=False))


def dynkin_graph(family: str, rank: int) -> Graph:
    """Dynkin diagrams for A/D/E; for B/C/F/G the parity image of the
    root pairing (the graph whose edges mark odd off-diagonal pairings).

    Node layout: the A-chain comes first (path 0-1-...), appended nodes
    last. D_{2m+2} attaches both fork nodes to node 0 of the A_{2m} chain;
    D_{2m+1} attaches its one extra node to node 1. E6 and E8 attach nodes
    p and q to nodes 0 and 1 of the A-chain; E7 attaches one node to node 2.
    """
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

    Built by augmenting each (n-1)-node class with every possible
    neighborhood for a new node, deduplicating with exact isomorphism
    tests inside invariant buckets. Every n-node class arises this way
    because deleting a node of any representative lands in some smaller
    class. Counts follow the classical sequence 1, 2, 4, 11, 34, 156,
    1044, 12346; n = 8 takes a while, larger n is out of scope.
    """
    if n < 0:
        raise ValueError("negative node count")
    if n == 0:
        return (Graph(0),)
    out: list[Graph] = []
    buckets: dict[tuple, list[int]] = {}
    for base in graph_classes(n - 1):
        base_edges = list(base.edges)
        for mask in range(1 << (n - 1)):
            edges = base_edges + [(v, n - 1) for v in range(n - 1) if (mask >> v) & 1]
            g = Graph(n, edges)
            key = g.profile()
            bucket = buckets.setdefault(key, [])
            if not any(is_isomorphic(g, out[i]) for i in bucket):
                bucket.append(len(out))
                out.append(g)
    return tuple(out)


def connected_graph_classes(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in graph_classes(n) if g.is_connected())
