"""Independent brute-force oracles the fast implementations are checked against."""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache
from typing import Iterable, Sequence

from symprs.cartan import MAX_ROOTS, CartanDatum, WeylRep
from symprs.extend import NEW_HYPERBOLIC, NEW_NULLVECTOR, ExtensionWitness, _require_minimal
from symprs.gf2 import BitMat, BitVec, RowEchelon, echelon_basis, inverse, rank, subspaces
from symprs.graph import MAX_NODES, Graph, _isomorphisms, _node_invariants, induced_subgraph
from symprs.srs import MAX_QUOTIENT_RADICAL_DIM, SRS, SRSError, SympMap
from symprs.symplectic import SymplecticBasis, SympSpace, mixed_completion, standard_space


def bit_string_bits(text) -> int:
    """The value of a vector's wire form, with the per-character check
    ``BitVec.from_string`` made before its checks ran in one string pass."""
    if not (isinstance(text, str) and all(c in "01" for c in text)):
        raise ValueError(f"not a bit string: {text!r}")
    return sum(1 << i for i, c in enumerate(text) if c == "1")


def bit_matrix_rows(rows, ncols: int | None = None) -> tuple[int, tuple[int, ...]]:
    """(ncols, rows) of ``BitMat.from_rows(rows, ncols)``, one ``BitVec``
    per row, each string row parsed by ``bit_string_bits``."""
    vecs = [r if isinstance(r, BitVec)
            else BitVec(len(r), bit_string_bits(r)) if isinstance(r, str)
            else BitVec.from_bits(r)
            for r in rows]
    if ncols is None:
        if not vecs:
            raise ValueError("cannot infer column count from zero rows")
        ncols = vecs[0].dim
    if any(v.dim != ncols for v in vecs):
        raise ValueError("ragged rows")
    return ncols, BitMat(ncols, (v.bits for v in vecs)).rows


def graph_rows(n: int, edges) -> tuple[int, ...]:
    """The adjacency rows of ``Graph(n, edges)``, with each edge checked in
    turn, as ``Graph`` did before its checks ran in bulk: the first edge out
    of range, self-loop or duplicate names the error."""
    if n < 0:
        raise ValueError(f"negative node count {n}")
    if n > MAX_NODES:
        raise ValueError(f"{n} nodes exceeds the node cap of {MAX_NODES}")
    adj = [0] * n
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) out of range for {n} nodes")
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        if adj[a] >> b & 1:
            raise ValueError(f"duplicate edge {(min(a, b), max(a, b))}")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj)


def graph_json_rows(payload) -> tuple[int, ...]:
    """The adjacency rows of ``graph._graph_from_json(payload)``, with each
    edge entry checked in turn before ``graph_rows``."""
    if not isinstance(payload, dict) or "nodes" not in payload:
        raise ValueError('graph JSON needs a "nodes" field')
    nodes = payload["nodes"]
    edges = payload.get("edges", [])
    if type(nodes) is not int:
        raise ValueError('"nodes" must be an integer')
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            raise ValueError(f"bad edge entry {e!r}")
    return graph_rows(nodes, edges)


def bit_string(v: BitVec) -> str:
    """The wire form of ``v``, one coordinate at a time, 0 first."""
    return "".join("1" if (v.bits >> i) & 1 else "0" for i in range(v.dim))


def dot(v: BitVec, w: BitVec) -> int:
    """The standard dot product mod 2."""
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch {v.dim} != {w.dim}")
    return (v.bits & w.bits).bit_count() & 1


def support(v: BitVec) -> tuple[int, ...]:
    """The coordinates set in ``v``, lowest first."""
    return tuple(i for i in range(v.dim) if v[i])


def col(m: BitMat, j: int) -> BitVec:
    """Column j of ``m``, one entry at a time."""
    return BitVec(m.nrows, sum(m.entry(i, j) << i for i in range(m.nrows)))


def decorations(s: SRS) -> list[BitVec]:
    """The rows of the decoration matrix, one vector per node."""
    return [s.deco.row(p) for p in range(s.deco.nrows)]


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """The edges (a, b) with a < b in lexicographic order, one node pair at a time."""
    return [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if g.adj[a] >> b & 1]


def form(space: SympSpace, v: BitVec, w: BitVec) -> int:
    """<v, w> as one matrix-vector product, then a dot product."""
    if v.dim != space.dim or w.dim != space.dim:
        raise ValueError(f"vector dimension mismatch in space of dim {space.dim}")
    return dot(v, space.gram @ w)


def pairing_rows(space: SympSpace, vectors: Sequence[BitVec]) -> list[int]:
    """The Gram matrix of a vector family as int rows, one ``form`` per pair."""
    return [sum(form(space, v, w) << q for q, w in enumerate(vectors)) for v in vectors]


def cocycle(beta: BitMat, v: BitVec, w: BitVec) -> int:
    """beta(v, w) as one matrix-vector product, then a dot product."""
    return dot(v, beta @ w)


Element = tuple[BitVec, int]


class CocycleLaw:
    """The group law of ``grp2.CocycleGroup`` on BitVec elements, with every
    cocycle value taken from ``cocycle`` above."""

    def __init__(self, beta: BitMat):
        self.beta = beta
        self.dim = beta.ncols

    def identity(self) -> Element:
        return (BitVec.zero(self.dim), 0)

    def cocycle(self, v: BitVec, w: BitVec) -> int:
        return cocycle(self.beta, v, w)

    def quadratic(self, v: BitVec) -> int:
        return self.cocycle(v, v)

    def multiply(self, g: Element, h: Element) -> Element:
        (v, a), (w, b) = g, h
        return (v ^ w, a ^ b ^ self.cocycle(v, w))

    def inverse(self, g: Element) -> Element:
        v, a = g
        return (v, a ^ self.quadratic(v))

    def commutator(self, g: Element, h: Element) -> Element:
        return self.multiply(self.multiply(g, h), self.multiply(self.inverse(g), self.inverse(h)))

    def element_order(self, g: Element) -> int:
        """The least k with g^k = 1, by repeated multiplication."""
        power, k = g, 1
        while power != self.identity():
            power, k = self.multiply(power, g), k + 1
        return k

    def closure(self, gens: Iterable[Element]) -> set[Element]:
        seen = {self.identity()}
        frontier = list(seen)
        gens = list(gens)
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = self.multiply(g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return seen


def extraspecial_sign(beta: BitMat) -> str:
    """Plus or minus by counting the vectors v with q(v) = beta(v, v) = 1
    over the whole nondegenerate space of dimension 2n."""
    d = beta.ncols
    n = d // 2
    ones = sum(cocycle(beta, v, v) for v in (BitVec(d, bits) for bits in range(1 << d)))
    if ones == (1 << (2 * n - 1)) - (1 << (n - 1)):
        return "plus"
    if ones == (1 << (2 * n - 1)) + (1 << (n - 1)):
        return "minus"
    raise AssertionError(f"nondegenerate q must hit an Arf count, got {ones}")


Columns = tuple[int, ...]  # a matrix as the tuple of its column images


def _columns(m: BitMat) -> Columns:
    return tuple(col(m, j).bits for j in range(m.ncols))


def _apply(m: Columns, v: int) -> int:
    """m v: the XOR of the columns that v selects, lowest set bit first."""
    out = 0
    while v:
        low = v & -v
        out ^= m[low.bit_length() - 1]
        v ^= low
    return out


def _compose(a: Columns, b: Columns) -> Columns:
    """The columns of a times b: a's images of b's columns."""
    return tuple([_apply(a, c) for c in b])


def _invert(m: Columns) -> Columns:
    """Gauss-Jordan on the pairs (m x, x) from x = e_j: once the first
    entries are the unit vectors e_i, the second ones are m^-1's columns."""
    pairs = [(image, 1 << j) for j, image in enumerate(m)]
    for i in range(len(pairs)):
        pivot = next(k for k in range(i, len(pairs)) if pairs[k][0] >> i & 1)
        pairs[i], pairs[pivot] = pairs[pivot], pairs[i]
        v, x = pairs[i]
        pairs = [(w ^ v, y ^ x) if k != i and w >> i & 1 else (w, y)
                 for k, (w, y) in enumerate(pairs)]
    return tuple(x for _, x in pairs)


def group_order_bfs(gens: Sequence[BitMat]) -> int:
    """Order of the generated matrix group by listing every element,
    breadth first from the identity."""
    if not gens:
        return 1
    cols = [_columns(g) for g in gens]
    identity = tuple(1 << j for j in range(gens[0].ncols))
    seen = {identity}
    queue = deque(seen)
    while queue:
        m = queue.popleft()
        for g in cols:
            image = _compose(g, m)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return len(seen)


def roots(c: CartanDatum) -> list[tuple[int, ...]]:
    """All roots in simple-root coordinates, sorted: the closure of the simple
    roots under s_i(beta) = beta - (sum_j C_ij beta_j) a_i, summed over the
    whole Cartan row."""
    n = c.rank
    seen = set()
    queue = deque(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    seen.update(queue)
    while queue:
        beta = queue.popleft()
        for i in range(n):
            coeff = sum(c.matrix[i][j] * beta[j] for j in range(n))
            image = beta[:i] + (beta[i] - coeff,) + beta[i + 1 :]
            if image not in seen:
                if len(seen) >= MAX_ROOTS:
                    raise RuntimeError(f"root closure exceeds {MAX_ROOTS}; not finite type?")
                seen.add(image)
                queue.append(image)
    return sorted(seen)


def weyl_orbit(rep: WeylRep, v: BitVec) -> list[BitVec]:
    """The orbit of v under the generators of ``rep``, breadth first with
    one ``BitMat @ BitVec`` per point and generator, sorted by bits."""
    seen = {v}
    queue = deque(seen)
    while queue:
        w = queue.popleft()
        for m in rep.generators:
            image = m @ w
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return sorted(seen, key=lambda u: u.bits)


def stabilizer_chain_order(gen_list: list[BitMat]) -> int:
    """Order via a base and strong generating set on F_2 vector points.

    Schreier-Sims with sifting. Level i acts with every strong generator
    stored at levels >= i (those fix the first i base points); verifying a
    level means rebuilding its orbit, then checking that all its Schreier
    generators sift to the identity through the deeper chain, and any
    residue that survives is installed where it got stuck, after which the
    levels between are re-verified deepest first. Iteration orders are
    fixed throughout, so the chain and the result are deterministic.
    """
    if not gen_list:
        return 1
    dim = gen_list[0].ncols
    if dim > 16:
        raise ValueError(
            "stabilizer chain dimension capped at 16: strong generators compose "
            "through two byte tables, and a level orbit can hold 2^dim - 1 points"
        )
    identity = tuple(1 << j for j in range(dim))
    ordered = sorted(set(gen_list), key=lambda m: m.rows)
    external = [cols for cols in map(_columns, ordered) if cols != identity]
    points: list[int] = []
    own: list[list[Columns]] = []  # generators first seen stuck at each level
    forward: list[dict[int, Columns]] = []  # orbit point -> coset representative
    backward: list[dict[int, Columns]] = []  # orbit point -> representative inverse

    def moved_point(m: Columns) -> int:
        return next(v for v in range(1, 1 << dim) if _apply(m, v) != v)

    def acting(i: int) -> list[Columns]:
        return [g for lvl in range(i, len(points)) for g in own[lvl]]

    def rebuild(i: int, gens: list[Columns]) -> list[int]:
        pairs = [(s, _invert(s)) for s in gens]
        forward[i] = {points[i]: identity}
        backward[i] = {points[i]: identity}
        order_found = [points[i]]
        queue = deque(order_found)
        while queue:
            v = queue.popleft()
            for s, back in pairs:
                w = _apply(s, v)
                if w not in forward[i]:
                    forward[i][w] = _compose(s, forward[i][v])
                    backward[i][w] = _compose(backward[i][v], back)
                    order_found.append(w)
                    queue.append(w)
        return order_found

    def sift(m: Columns, start: int) -> tuple[Columns, int]:
        for i in range(start, len(points)):
            back = backward[i].get(_apply(m, points[i]))
            if back is None:
                return m, i
            m = _compose(back, m)
        return m, len(points)

    def install(idx: int, m: Columns):
        if idx == len(points):
            points.append(moved_point(m))
            own.append([])
            forward.append({})
            backward.append({})
        own[idx].append(m)

    def verify(i: int):
        # pre: levels deeper than i are complete; only they get touched.
        gens = acting(i)
        orbit = rebuild(i, gens)
        for v in orbit:
            rep = forward[i][v]
            for s in gens:
                schreier = _compose(backward[i][_apply(s, v)], _compose(s, rep))
                residue, j = sift(schreier, i + 1)
                if residue != identity:
                    install(j, residue)
                    for level in range(j, i, -1):
                        verify(level)

    for g in external:
        residue, j = sift(g, 0)
        if residue != identity:
            install(j, residue)
            for level in range(j, -1, -1):
                verify(level)
    order = 1
    for trans in forward:
        order *= len(trans)
    return order


def isomorphisms(g: Graph, h: Graph, gp: list, hp: list, first_only: bool) -> list[tuple[int, ...]]:
    """The backtracking search ``graph._isomorphisms`` replaced: the same
    candidates and node order, but each placement compares edges pair by
    pair with every node already placed."""
    cands = [[w for w in range(h.n) if hp[w] == gp[v]] for v in range(g.n)]
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


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every relabeling that maps g onto itself, trying all n! of them in
    lexicographic order."""
    return [p for p in itertools.permutations(range(g.n)) if g.relabel(p) == g]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some relabeling of g is h, trying all n! of them."""
    return g.n == h.n and any(g.relabel(p) == h for p in itertools.permutations(range(g.n)))


@lru_cache(maxsize=None)
def graph_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of one representative per isomorphism class of graphs on
    n nodes, from augmenting each (n-1)-node class by every neighbourhood
    mask for a new node, with no automorphism pruning."""
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    top = 1 << (n - 1)
    buckets: dict[tuple, list[tuple[tuple[int, ...], list[tuple]]]] = {}
    for base in graph_classes(n - 1):
        for mask in range(top):
            rows = (*(r | top if mask >> v & 1 else r for v, r in enumerate(base)), mask)
            inv = _node_invariants(rows)
            bucket = buckets.setdefault(tuple(sorted(inv)), [])
            if not any(_isomorphisms(rows, rep, inv, rep_inv, first_only=True) for rep, rep_inv in bucket):
                bucket.append((rows, inv))
                out.append(rows)
    return tuple(out)


def validate_pairwise(g: Graph, space: SympSpace, deco: BitMat) -> None:
    """The SRS axioms checked one pair of nodes at a time; raises SRSError
    with the same message as ``SRS`` construction."""
    if deco.nrows != g.n:
        raise SRSError(f"{deco.nrows} decorations for {g.n} nodes")
    if deco.ncols != space.dim:
        raise SRSError(f"decorations have dimension {deco.ncols}, space has {space.dim}")
    for p in range(g.n):
        for q in range(p + 1, g.n):
            expected = 1 if g.has_edge(p, q) else 0
            if form(space, deco.row(p), deco.row(q)) != expected:
                raise SRSError(
                    f"nodes ({p}, {q}): pairing {1 - expected} but adjacency {expected}"
                )
    if rank(deco) != space.dim:
        raise SRSError("decorations do not span the space")


def greedy_basis(space: SympSpace) -> SymplecticBasis:
    """Greedy hyperbolic pairing with lowest-index choices, on BitVecs.

    Repeatedly take the lowest-index candidate vector that pairs
    nontrivially with some other candidate, take its lowest-index
    partner, record them as (x_i, y_i), and project the remaining
    candidates onto the orthogonal complement of the plane they span.
    Candidates left over at the end form the radical part z_1..z_k.
    """
    cands = [BitVec.basis(space.dim, i) for i in range(space.dim)] if space.dim else []
    xs: list[BitVec] = []
    ys: list[BitVec] = []
    while True:
        found = None
        for i in range(len(cands)):
            for j in range(len(cands)):
                if j != i and form(space, cands[i], cands[j]):
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            break
        i, j = found
        v, w = cands[i], cands[j]
        xs.append(v)
        ys.append(w)
        rest = [cands[t] for t in range(len(cands)) if t not in (i, j)]
        projected = []
        for c in rest:
            if form(space, c, w):
                c = c ^ v
            if form(space, c, v):
                c = c ^ w
            projected.append(c)
        cands = projected
    for z in cands:
        assert (space.gram @ z).is_zero(), "leftover basis vector outside the radical"
    return SymplecticBasis(tuple(xs), tuple(ys), tuple(cands))


def all_srs_on_space(g: Graph, space: SympSpace) -> list[SRS]:
    """Every decoration family on g into the given space, by backtracking.

    Pairing constraints are checked as each node is placed; the span
    condition only at the leaves. Exponential in nodes and dim, fine for
    the 4-node sweeps it exists for.
    """
    found: list[SRS] = []
    deco: list[BitVec] = []

    def place(p: int):
        if p == g.n:
            m = BitMat(space.dim, (v.bits for v in deco))
            if rank(m) == space.dim:
                found.append(SRS(g, space, m))
            return
        for bits in range(1 << space.dim):
            v = BitVec(space.dim, bits)
            if all(space.form(v, deco[q]) == (1 if g.has_edge(p, q) else 0) for q in range(p)):
                deco.append(v)
                place(p + 1)
                deco.pop()

    place(0)
    return found


def all_srs(g: Graph) -> list[SRS]:
    """Every SRS on g, over one model space per type of dim <= node count."""
    out: list[SRS] = []
    for dim in range(g.n + 1):
        for n in range(dim // 2 + 1):
            out.extend(all_srs_on_space(g, standard_space(n, dim - 2 * n)))
    return out


def span_of(vectors: list[BitVec], dim: int) -> set[BitVec]:
    span = {BitVec.zero(dim)}
    for v in vectors:
        span |= {w ^ v for w in span}
    return span


def subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def block_diag(a: BitMat, b: BitMat) -> BitMat:
    """Block-diagonal sum, ``a`` occupying the low coordinate indices."""
    rows = list(a.rows)
    rows.extend(r << a.ncols for r in b.rows)
    return BitMat(a.ncols + b.ncols, rows)


def _one_node_more(s: SRS, lam: BitVec, gram: BitMat, new_deco: BitVec) -> SRS:
    """s on the graph with one node attached to lam's support, in the space
    of ``gram``, the new node decorated by ``new_deco``."""
    n, d = s.graph.n, s.space.dim
    graph = Graph(n + 1, list(s.graph.edges) + [(q, n) for q in support(lam)])
    padded = [v.pad(d + 1) for v in decorations(s)] + [new_deco]
    return SRS(graph, SympSpace(gram), BitMat.from_rows(padded, ncols=d + 1))


def lift_indicator(s: SRS, lam: BitVec) -> BitVec:
    """c with c . D_q = lam(q) for every decoration, by one ``solve``
    against D instead of the system's cached D^-1."""
    _require_minimal(s, lam)
    c = solve(s.deco, lam)
    assert c is not None, "minimal decorations always invert"
    return c


def extend_extraspecial(s: SRS, lam: BitVec) -> tuple[SRS, ExtensionWitness]:
    """Extension of a nondegenerate system: always a new nullvector.

    The lifted form is represented by a unique w0, and the new node gets
    w0 + z for a fresh radical direction z, giving type (n, 1).
    """
    c = lift_indicator(s, lam)
    if not s.type.is_extraspecial:
        raise SRSError(f"space has type {tuple(s.type)}, not extraspecial")
    d = s.space.dim
    w0 = solve(s.space.gram, c)
    new_deco = w0.pad(d + 1) ^ BitVec.basis(d + 1, d)
    out = _one_node_more(s, lam, block_diag(s.space.gram, BitMat.zeros(1, 1)), new_deco)
    return out, ExtensionWitness(NEW_NULLVECTOR, w0, BitVec.zero(d), new_deco)


def extend_nullspace(s: SRS, lam: BitVec) -> tuple[SRS, ExtensionWitness]:
    """Extension of a totally degenerate system (type (0, k), no edges).

    A zero indicator adjoins one more nullvector; otherwise the kernel of
    the lifted form c pairs against a new vector y, creating the first
    hyperbolic plane: type (1, k - 1), new node decorated by y.
    """
    c = lift_indicator(s, lam)
    if s.type.n != 0:
        raise SRSError(f"space has type {tuple(s.type)}, not totally degenerate")
    d = s.space.dim
    y = BitVec.basis(d + 1, d)
    zero = BitVec.zero(d)
    if c.is_zero():
        out = _one_node_more(s, lam, BitMat.zeros(d + 1, d + 1), y)
        return out, ExtensionWitness(NEW_NULLVECTOR, zero, c, y)
    # The old form is zero, so y pairs with coordinate i exactly when c_i = 1.
    gram = BitMat(d + 1, [c[i] << d for i in range(d)] + [c.bits])
    x = BitVec.basis(d + 1, support(c)[0])
    return _one_node_more(s, lam, gram, y), ExtensionWitness(NEW_HYPERBOLIC, zero, c, y, x)


def double_extend_extraspecial(
    s: SRS, lam_p: BitVec, lam_q: BitVec, pq_edge: bool
) -> tuple[SRS, ExtensionWitness, ExtensionWitness]:
    """Both new nodes at once: solve G w = c for each lifted form, then
    append a hyperbolic plane or two nullvectors by the dichotomy."""
    _require_minimal(s, lam_p)
    _require_minimal(s, lam_q)
    if not s.type.is_extraspecial:
        raise SRSError(f"space has type {tuple(s.type)}, not extraspecial")
    c_p = lift_indicator(s, lam_p)
    c_q = lift_indicator(s, lam_q)
    w_p = solve(s.space.gram, c_p)
    w_q = solve(s.space.gram, c_q)
    assert w_p is not None and w_q is not None
    orthogonal = s.space.form(w_p, w_q) == 0
    d = s.space.dim
    graph = s.graph._with_node(lam_p.bits)._with_node(lam_q.bits | pq_edge << s.graph.n)
    hyperbolic = orthogonal == pq_edge
    tail = BitMat.from_rows(["01", "10"]) if hyperbolic else BitMat.zeros(2, 2)
    space = SympSpace(block_diag(s.space.gram, tail))
    deco_p = w_p.pad(d + 2) ^ BitVec.basis(d + 2, d)
    deco_q = w_q.pad(d + 2) ^ BitVec.basis(d + 2, d + 1)
    padded = [v.pad(d + 2) for v in decorations(s)] + [deco_p, deco_q]
    out = SRS(graph, space, BitMat.from_rows(padded, ncols=d + 2))
    assert out.type == ((s.type.n + 1, 0) if hyperbolic else (s.type.n, 2))
    zero = BitVec.zero(d)
    if hyperbolic:
        wit_p = ExtensionWitness(NEW_HYPERBOLIC, w_p, zero, deco_p, BitVec.basis(d + 2, d + 1))
        wit_q = ExtensionWitness(NEW_HYPERBOLIC, w_q, zero, deco_q, BitVec.basis(d + 2, d))
    else:
        wit_p = ExtensionWitness(NEW_NULLVECTOR, w_p, zero, deco_p)
        wit_q = ExtensionWitness(NEW_NULLVECTOR, w_q, zero, deco_q)
    return out, wit_p, wit_q


# The BitVec routes ``srs`` took for restriction, quotients and radical
# subspaces before it worked on int rows: one BitVec per coordinate, the
# projection built from projected standard basis vectors.


def restrict(s: SRS, nodes: Sequence[int]) -> SRS:
    """Re-coordinatize the kept decorations by their pivot entries."""
    sub_graph = induced_subgraph(s.graph, nodes)
    vecs = [s.deco.row(v) for v in nodes]
    basis = echelon_basis(vecs, dim=s.space.dim)
    m = len(basis)
    pivots = [support(b)[0] for b in basis]
    sub_space = SympSpace(BitMat(m, pairing_rows(s.space, basis)))
    new_deco = [BitVec.from_bits([v[p] for p in pivots]) for v in vecs]
    return SRS(sub_graph, sub_space, BitMat.from_rows(new_deco, ncols=m))


def quotient(s: SRS, u_basis: Sequence[BitVec]) -> tuple[SRS, SympMap]:
    """Project every vector, decorations and standard basis alike, by
    reducing it against the echelon basis of U."""
    for u in u_basis:
        if u.dim != s.space.dim:
            raise SRSError(f"subspace vector dimension {u.dim} != {s.space.dim}")
        if not (s.space.gram @ u).is_zero():
            raise SRSError(f"subspace vector {u} not in the radical")
    basis = echelon_basis(list(u_basis), dim=s.space.dim)
    pivots = [support(b)[0] for b in basis]
    keep = [j for j in range(s.space.dim) if j not in pivots]

    def project(v: BitVec) -> BitVec:
        bits = v.bits
        for b, p in zip(basis, pivots):
            if (bits >> p) & 1:
                bits ^= b.bits
        return BitVec.from_bits([(bits >> j) & 1 for j in keep])

    kept = [BitVec.basis(s.space.dim, j) for j in keep]
    quot_space = SympSpace(BitMat(len(keep), pairing_rows(s.space, kept)))
    proj = SympMap(
        s.space,
        quot_space,
        BitMat.from_cols([project(BitVec.basis(s.space.dim, j)) for j in range(s.space.dim)], nrows=len(keep)),
    )
    quot = SRS(s.graph, quot_space, BitMat.from_rows([project(v) for v in decorations(s)], ncols=len(keep)))
    return quot, proj


def radical_subspaces(s: SRS) -> list[tuple[BitVec, ...]]:
    """Each subspace vector as a chain of BitVec sums of radical vectors."""
    rad = s.space.radical
    k = len(rad)
    if k > MAX_QUOTIENT_RADICAL_DIM:
        raise SRSError(f"radical dimension {k} exceeds the cap of {MAX_QUOTIENT_RADICAL_DIM}")
    out = []
    for sub in subspaces(k):
        vecs = []
        for coeff in sub:
            v = BitVec.zero(s.space.dim)
            for i in support(coeff):
                v = v ^ rad[i]
            vecs.append(v)
        out.append(tuple(vecs))
    return out


def core_decorations(m: int) -> list[frozenset]:
    """The even-path core G(2m) of ``cartan``, by its recursive definition:
    head_m, then G(2m - 2) with x and y swapped, then tail_m."""
    if m == 0:
        return []
    if m == 1:
        return [frozenset({("x", 1)}), frozenset({("y", 1)})]
    swapped = [
        frozenset(("y" if kind == "x" else "x", i) for kind, i in v) for v in core_decorations(m - 1)
    ]
    head = frozenset({("x", m), ("x", m - 1)})
    tail = frozenset({("y", m), ("y", m - 1)})
    return [head, *swapped, tail]


# The completed-matrix routes that ``symplectic``, ``extend`` and ``grp2``
# ran before reading coordinates off the symplectic basis: change to the
# basis by inverting the matrix of basis columns, or solve against the
# whole completed Gram matrix.


def _basis_matrices(space: SympSpace) -> tuple[BitMat, BitMat]:
    """T with the symplectic basis x.., y.., z.. as columns, and T^-1."""
    t = BitMat.from_cols([*space.basis.x, *space.basis.y, *space.basis.z], nrows=space.dim)
    t_inv = inverse(t)
    assert t_inv is not None
    return t, t_inv


def default_completion_choices(space: SympSpace) -> tuple[BitMat, BitMat]:
    """T kill T^-1, where kill zeroes the hyperbolic coordinates, and the
    identity radical form."""
    n, k = space.type
    t, t_inv = _basis_matrices(space)
    kill = BitMat(space.dim, [0] * (2 * n) + [1 << (2 * n + j) for j in range(k)])
    return t @ kill @ t_inv, BitMat.identity(k)


def extend_minimal(
    s: SRS, lam: BitVec, choices: tuple[BitMat, BitMat] | None = None
) -> tuple[SRS, ExtensionWitness]:
    """Solve <<w, .>> = c against the completed Gram matrix and split the
    solution into w0 + z0 along the radical projection. The new coordinate
    pairs with the old ones as <<z0, .>>, in a fresh space of the bordered
    Gram matrix; the new node gets w0 plus it."""
    proj, radform = choices if choices is not None else default_completion_choices(s.space)
    mixed = mixed_completion(s.space, proj, radform)
    c = lift_indicator(s, lam)
    w_tilde = solve(mixed.matrix, c)
    assert w_tilde is not None, "mixed completion is nondegenerate"
    z0 = proj @ w_tilde
    w0 = w_tilde ^ z0
    d = s.space.dim
    pairings = mixed.matrix @ z0
    rows = [row | pairings[i] << d for i, row in enumerate(s.space.gram.rows)]
    gram = BitMat(d + 1, rows + [pairings.bits])
    new_deco = w0.pad(d + 1) ^ BitVec.basis(d + 1, d)
    out = _one_node_more(s, lam, gram, new_deco)
    if z0.is_zero():
        return out, ExtensionWitness(NEW_NULLVECTOR, w0, z0, new_deco)
    x_choice = BitVec.basis(d + 1, support(pairings)[0])
    return out, ExtensionWitness(NEW_HYPERBOLIC, w0, z0, new_deco, x_choice)


def group_cocycle(space: SympSpace) -> BitMat:
    """The standard splitting beta(x_i, y_i) = 1 moved to the space:
    (T^-1)^T std T^-1."""
    d, n = space.dim, space.type.n
    _, back = _basis_matrices(space)
    std = BitMat(d, tuple((1 << (n + i)) if i < n else 0 for i in range(d)))
    return back.transpose() @ std @ back


def orthogonal_project(s: SympSpace, wbasis: list[BitVec], v: BitVec) -> tuple[BitVec, BitVec]:
    """vW = sum_i <v, Y_i> X_i + <v, X_i> Y_i over W's symplectic basis
    lifted into the space, with every pairing taken by ``SympSpace.form``."""
    basis = echelon_basis(wbasis, dim=s.dim)
    sub = SympSpace(BitMat(len(basis), pairing_rows(s, basis)))

    def lift(coeff: BitVec) -> BitVec:
        out = BitVec.zero(s.dim)
        for t in support(coeff):
            out = out ^ basis[t]
        return out

    xs = [lift(c) for c in sub.basis.x]
    ys = [lift(c) for c in sub.basis.y]
    for z in map(lift, sub.basis.z):
        if s.form(v, z):
            raise ValueError("vector not orthogonal to the radical of W; no splitting exists")
    v_w = BitVec.zero(s.dim)
    for x, y in zip(xs, ys):
        if s.form(v, y):
            v_w = v_w ^ x
        if s.form(v, x):
            v_w = v_w ^ y
    return v ^ v_w, v_w


# Gaussian elimination with the transform kept in a second list, one
# elimination per solve and per right-hand-side column: the routines
# ``gf2`` ran before its single augmented elimination, kept to check it.


def row_reduce(m: BitMat) -> RowEchelon:
    """Reduced row echelon form with lowest-index pivoting.

    Scans columns left to right, picks the first available row as pivot,
    and clears the pivot column everywhere else, so the result is the
    unique RREF reached by a fixed elimination order.
    """
    work = list(m.rows)
    trans = [1 << i for i in range(m.nrows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        pivot = next((i for i in range(r, m.nrows) if (work[i] >> c) & 1), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        trans[r], trans[pivot] = trans[pivot], trans[r]
        for i in range(m.nrows):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
                trans[i] ^= trans[r]
        pivots.append(c)
        r += 1
    return RowEchelon(BitMat(m.ncols, work), tuple(pivots), BitMat(m.nrows, trans))


def kernel_basis(m: BitMat) -> list[BitVec]:
    """Basis of the right kernel {v : m @ v = 0}, one vector per free column.

    Free columns are visited in increasing index order and each basis vector
    has a 1 in exactly one free position, so the output is canonical.
    """
    ech = row_reduce(m)
    pivot_set = set(ech.pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        bits = 1 << f
        for r, p in enumerate(ech.pivots):
            if (ech.rref.rows[r] >> f) & 1:
                bits |= 1 << p
        basis.append(BitVec(m.ncols, bits))
    return basis


def solve(m: BitMat, b: BitVec) -> BitVec | None:
    """A particular solution of ``m @ x = b``, or None if inconsistent.

    Free variables are set to zero, so the solution is deterministic.
    Dimension mismatches are contract violations and raise.
    """
    if b.dim != m.nrows:
        raise ValueError(f"rhs dimension {b.dim} != row count {m.nrows}")
    ech = row_reduce(m)
    y = ech.transform @ b
    if y.bits >> ech.rank:
        return None
    bits = 0
    for r, p in enumerate(ech.pivots):
        bits |= ((y.bits >> r) & 1) << p
    return BitVec(m.ncols, bits)


def solve_mat(m: BitMat, b: BitMat) -> BitMat | None:
    """Solve ``m @ X = b`` column by column; None if any column fails."""
    if b.nrows != m.nrows:
        raise ValueError(f"rhs rows {b.nrows} != lhs rows {m.nrows}")
    cols = []
    for j in range(b.ncols):
        x = solve(m, col(b, j))
        if x is None:
            return None
        cols.append(x)
    return BitMat.from_cols(cols, nrows=m.ncols)
