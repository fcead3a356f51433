"""The seeded dense graphs that the large checks share."""

from __future__ import annotations

import random

from conftest import random_graph_edges
from symprs.graph import Graph


def seeded_gnp(n: int) -> tuple[Graph, random.Random]:
    """G(n, 1/2) drawn from ``random.Random(n)``, one bit per pair (i, j),
    i < j, in row order, and the generator, to draw on from there."""
    rng = random.Random(n)
    return Graph(n, random_graph_edges(rng, n)), rng
