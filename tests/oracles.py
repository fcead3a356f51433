"""Independent brute-force oracles the fast implementations are checked against."""

from __future__ import annotations

import itertools
from typing import Sequence

from symprs.gf2 import BitMat, BitVec, rank
from symprs.graph import Graph
from symprs.srs import SRS, SRSError
from symprs.symplectic import SymplecticBasis, SympSpace, standard_space


def form(space: SympSpace, v: BitVec, w: BitVec) -> int:
    """<v, w> as one matrix-vector product, then a dot product."""
    if v.dim != space.dim or w.dim != space.dim:
        raise ValueError(f"vector dimension mismatch in space of dim {space.dim}")
    return v.dot(space.gram @ w)


def cocycle(beta: BitMat, v: BitVec, w: BitVec) -> int:
    """beta(v, w) as one matrix-vector product, then a dot product."""
    return v.dot(beta @ w)


def validate_pairwise(g: Graph, space: SympSpace, deco: Sequence[BitVec]) -> None:
    """The SRS axioms checked one pair of nodes at a time; raises SRSError
    with the same message as ``SRS`` construction."""
    if len(deco) != g.n:
        raise SRSError(f"{len(deco)} decorations for {g.n} nodes")
    for p, v in enumerate(deco):
        if v.dim != space.dim:
            raise SRSError(f"decoration of node {p} has dimension {v.dim}, space has {space.dim}")
    for p in range(g.n):
        for q in range(p + 1, g.n):
            expected = 1 if g.has_edge(p, q) else 0
            if form(space, deco[p], deco[q]) != expected:
                raise SRSError(
                    f"nodes ({p}, {q}): pairing {1 - expected} but adjacency {expected}"
                )
    if rank(BitMat(space.dim, (v.bits for v in deco))) != space.dim:
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
                found.append(SRS(g, space, tuple(deco)))
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
