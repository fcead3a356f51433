"""Shared helpers for building random-but-seeded test objects."""

from __future__ import annotations

import random

from symprs.gf2 import BitMat
from symprs.symplectic import SympSpace


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
