"""Shared helpers for building random-but-seeded test objects, the
fixture that validates every system the library builds, and the one that
checks the symplectic split each extension step carries."""

from __future__ import annotations

import hashlib
import random

import pytest

from symprs.gf2 import BitMat, kernel_basis
from symprs.graph import Graph
from symprs.srs import SRS, SympMap
from symprs.symplectic import SympSpace

_shipped_from_adj = Graph._from_adj


def checked_graph_rows(rows) -> Graph:
    """``Graph._from_adj(rows)``, checked: the rows must be those of
    ``Graph(len(rows), edges)`` for the edges their upper triangles list, so
    an asymmetric or looped row, or a bit past the last node, raises
    ``ValueError``. The shipped route keeps its node cap and builds the graph."""
    adj = tuple(rows)
    bad = [row for row in adj if type(row) is not int or row < 0]
    if bad:
        raise ValueError(f"adjacency row {bad[0]!r} is not a nonnegative int")
    g = _shipped_from_adj(adj)
    if Graph(g.n, g.edge_list()).adj != adj:
        raise ValueError("adjacency rows not symmetric and loop-free")
    return g


@pytest.fixture(autouse=True)
def validate_trusted_constructions(request, monkeypatch):
    """Point each ``_trusted`` constructor back at the checking one, which
    takes the same arguments, and ``Graph._from_adj`` at
    ``checked_graph_rows``, so every test validates in full each object the
    library builds without checks. Tests marked ``trusted_constructors``
    run the shipped path instead."""
    if request.node.get_closest_marker("trusted_constructors"):
        return
    for cls in (BitMat, SympSpace, SRS, SympMap):
        monkeypatch.setattr(cls, "_trusted", classmethod(lambda c, *args: c(*args)))
    monkeypatch.setattr(Graph, "_from_adj", classmethod(lambda c, rows: checked_graph_rows(rows)))


def assert_carried_split(space: SympSpace) -> None:
    """The hyperbolic pairs and radical rows that ``SympSpace._adjoined``
    preset on ``space``, against a fresh ``SympSpace`` of its Gram matrix: the
    radical rows are the canonical kernel basis, the pairs a symplectic
    basis of W, the coordinate subspace on the non-free columns (pairings
    <x_i, y_j> = [i == j], all others 0, no bit at a radical pivot, 2n + k
    vectors in all), and their map ``_hyperbolic`` equals the fresh
    space's, read off its greedy basis, on every unit vector. The fresh
    greedy basis is the int route that ``tests/test_kernel_oracles.py``
    checks against ``oracles.greedy_basis``; the oracle itself takes
    O(dim^3) word operations per space, seconds on a 120-step chain."""
    (xs, ys), radical = vars(space)["_pairs"], vars(space)["_radical"]
    fresh = SympSpace(space.gram)
    assert radical == [v.bits for v in kernel_basis(fresh.gram)]
    assert len(xs) == len(ys) and 2 * len(xs) + len(radical) == space.dim
    vectors = [v for pair in zip(xs, ys) for v in pair]
    # x_i, y_i are vectors 2i and 2i + 1, partners when their indices differ in bit 0
    assert fresh.pairing_rows(vectors) == [1 << (p ^ 1) for p in range(len(vectors))]
    pivots = sum(1 << (z.bit_length() - 1) for z in radical)
    assert not any(v & pivots for v in vectors)
    assert all(space._hyperbolic(1 << t) == fresh._hyperbolic(1 << t) for t in range(space.dim))


@pytest.fixture(autouse=True)
def check_carried_splits(request, monkeypatch):
    """Check the split of every space ``SympSpace._adjoined`` makes, as each
    extension step does, with ``assert_carried_split``. Tests marked
    ``trusted_constructors`` run the shipped path instead."""
    if request.node.get_closest_marker("trusted_constructors"):
        return
    adjoined = SympSpace._adjoined

    def checked(space, pairings):
        out = adjoined(space, pairings)
        assert_carried_split(out)
        return out

    monkeypatch.setattr(SympSpace, "_adjoined", checked)


def random_space(rng: random.Random, dim: int) -> SympSpace:
    """A random alternating form: random strictly-upper part, symmetrized."""
    rows = [0] * dim
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SympSpace(BitMat(dim, rows))


def random_graph_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.getrandbits(1)]


# sha256 of repr([g.edge_list() for g in graph_classes(n)]): pins the
# representatives and their order
CLASS_DIGESTS = {
    1: "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    2: "5966fecad2e05ece63219feec68426a1929fcff75826ae6ba102aa266f514976",
    3: "97898bbf759c44571d144a1ef11128f17e7d9436eec4eda5e3f7ac62f5c8628a",
    4: "4fbf815746528c147b083a8f8b88ca730875c298a9e0b7e3e6e4fd9f9999d473",
    5: "5528be38dc8bbe2d1949beafce91baffbfd615eb32447db56697134d773b71ad",
    6: "69ff61eadc53d527fcf77499650305610b8874c2bd7b9369ff706c83ce74dfd7",
    7: "298dcf9f71cde9049a3bb23398ffaa01ad8753532a3b669f61df8a9c3f8c7527",
    8: "d98a1114e5462fbc6ba9cdac2feb18975604f57e698333658a9e6fe891b1ec52",
}


def class_digest(classes: tuple[Graph, ...]) -> str:
    return hashlib.sha256(repr([g.edge_list() for g in classes]).encode()).hexdigest()
