"""Symplectic root systems: graph decorations by vectors over GF(2).

An SRS on a graph assigns to every node a vector in a symplectic GF(2)
space so that two decorations pair to 1 exactly when their nodes are
adjacent, and the decorations span the space. Every graph admits one:
take the adjacency matrix itself as the Gram matrix and the standard
basis as decorations. That one is minimal (decorations form a basis),
it is unique up to isomorphism, and every other SRS on the graph is a
quotient of it by a subspace of the radical. This module implements the
objects, the minimal construction, restriction to induced subgraphs,
quotients, the classification by radical subspaces, and the coclique
bound n <= |nodes| - (max coclique size) that restriction forces.

A system stores its decorations as one matrix D, ``SRS.deco``: a
``BitMat`` whose row p decorates node p, so the axioms read D G D^T = A
and rank D = dim. The library builds the rows of D as ints, never a
vector per node: ``minimal_srs`` takes D = I, ``restrict`` gathers the
kept rows onto pivot coordinates, ``quotient`` projects every row,
``extend`` appends one row (a row of the old space is already a row of
the larger one) and ``build_by_extension`` reorders the rows. A minimal
system caches the columns of D^-1 (``SRS._deco_inverse``): ``minimal_srs``
presets them to the unit vectors, a system from elsewhere inverts D on
first read, and each extension step carries them to the larger system.

Systems are validated once, at the boundary. ``SRS(...)``, ``SympMap(...)``
and ``srs_from_json`` check every axiom of what they are given. The systems
this module builds itself hold the axioms by construction and skip the
re-check through the private ``_trusted`` constructors:

* ``minimal_srs``: the adjacency matrix is the Gram matrix of the standard
  basis, which spans;
* ``restrict``: decorations pair as before, so the kept ones pair as their
  nodes are adjacent, and they span the subspace W re-coordinatized on its
  echelon basis;
* ``quotient``: a radical vector pairs to 0 with everything, so dividing by
  a subspace of the radical (checked on the way in) keeps every pairing and
  the projection preserves the form, and images of a spanning set span.

``tests/conftest.py`` points every ``_trusted`` constructor back at the
checking one, so the test suite still validates each result in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .gf2 import (
    BitMat,
    BitVec,
    _echelon_rows,
    _eliminate,
    _string_bits,
    _transpose,
    inverse,
    kernel_basis,
    rank,
    row_combination,
    row_reduce,  # unused here; perfbench/selftest.py checks that tracing rebinds srs.row_reduce
    solve_mat,
    subspaces,
)
from .graph import Graph, _graph_from_json, graph_to_json, induced_subgraph, max_coclique
from .symplectic import SpaceType, SympSpace

__all__ = [
    "SRSError",
    "SRS",
    "SympMap",
    "minimal_srs",
    "restrict",
    "quotient",
    "enumerate_quotients",
    "radical_subspaces",
    "srs_isomorphic",
    "universal_map",
    "CocliqueReport",
    "coclique_bound_check",
    "srs_to_json",
    "srs_from_json",
    "MAX_QUOTIENT_RADICAL_DIM",
]

# G_2(7) = 29,212 quotients take about 20 s to build, G_2(8) = 417,199 minutes
MAX_QUOTIENT_RADICAL_DIM = 7
# G_2(200) has 3,012 digits, inside Python's 4,300-digit int-to-str limit
_MAX_COUNTED_RADICAL_DIM = 200


class SRSError(ValueError):
    """A decoration family violating the SRS axioms, with the first culprit."""


@dataclass(frozen=True)
class SRS:
    """A validated symplectic root system.

    ``deco`` is the decoration matrix D, one row per node: row p is the
    vector decorating node p, and D G D^T = A. ``SRS(...)`` checks the
    axioms; the library's own constructions, correct by construction (see
    the module docstring), build through ``_trusted``. So every reachable
    instance satisfies them; prefer the module functions over building
    instances by hand.
    """

    graph: Graph
    space: SympSpace
    deco: BitMat

    def __post_init__(self):
        g, space, deco = self.graph, self.space, self.deco
        if not isinstance(deco, BitMat):
            raise SRSError(f"decorations must be a BitMat with one row per node, got {type(deco).__name__}")
        if deco.nrows != g.n:
            raise SRSError(f"{deco.nrows} decorations for {g.n} nodes")
        if deco.ncols != space.dim:
            raise SRSError(f"decorations have dimension {deco.ncols}, space has {space.dim}")
        # D G D^T = A, compared row by row. Both sides are symmetric with
        # zero diagonal, so the first row that differs holds the first
        # failing pair (p, q), and there q > p.
        for p, (row, adj) in enumerate(zip(space.pairing_rows(deco.rows), g.adj)):
            diff = row ^ adj
            if diff:
                q = (diff & -diff).bit_length() - 1
                expected = (adj >> q) & 1
                raise SRSError(
                    f"nodes ({p}, {q}): pairing {1 - expected} but adjacency {expected}"
                )
        if len(_eliminate(list(deco.rows), space.dim)) != space.dim:
            raise SRSError("decorations do not span the space")

    @classmethod
    def _trusted(cls, graph: Graph, space: SympSpace, deco: BitMat) -> "SRS":
        """``SRS(graph, space, deco)`` without re-checking the axioms, for
        systems that hold them by construction."""
        s = object.__new__(cls)
        object.__setattr__(s, "graph", graph)
        object.__setattr__(s, "space", space)
        object.__setattr__(s, "deco", deco)
        return s

    @cached_property
    def _deco_inverse(self) -> list[int]:
        """The columns of D^-1 as ints, for a minimal system: the lifted
        form of an indicator lam is ``row_combination`` of them at lam. One
        inversion on first read, unless preset: ``minimal_srs`` sets the
        unit vectors, and ``extend._attach`` carries them to each extended
        system."""
        inv = inverse(self.deco)
        assert inv is not None, "minimal decorations always invert"
        return list(inv.transpose().rows)

    @property
    def type(self) -> SpaceType:
        return self.space.type

    @property
    def is_minimal(self) -> bool:
        # decorations always span, so they form a basis iff counts agree
        return self.graph.n == self.space.dim

    def __repr__(self) -> str:
        n, k = self.type
        return f"SRS(nodes={self.graph.n}, type=({n},{k}), minimal={self.is_minimal})"


@dataclass(frozen=True)
class SympMap:
    """A linear map that respects the forms, with kernel inside the radical.

    M^T G' M = G is checked on Gram rows, as the pairings of the columns of
    M. It implies the kernel condition (M v = 0 gives G v = M^T G' M v = 0),
    so the kernel is searched only to name the cause of a failure.
    """

    src: SympSpace
    dst: SympSpace
    matrix: BitMat

    def __post_init__(self):
        if self.matrix.shape != (self.dst.dim, self.src.dim):
            raise ValueError(f"matrix shape {self.matrix.shape} != {(self.dst.dim, self.src.dim)}")
        rows, gram = self.matrix.rows, self.src.gram.rows
        if tuple(self.dst.pairing_rows(_transpose(rows, self.src.dim))) != gram:
            if any(row_combination(gram, v.bits) for v in kernel_basis(self.matrix)):
                raise ValueError("kernel not contained in the radical")
            raise ValueError("map does not preserve the forms")

    @classmethod
    def _trusted(cls, src: SympSpace, dst: SympSpace, matrix: BitMat) -> "SympMap":
        """``SympMap(src, dst, matrix)`` without the checks, for a map that
        preserves the forms by construction."""
        m = object.__new__(cls)
        object.__setattr__(m, "src", src)
        object.__setattr__(m, "dst", dst)
        object.__setattr__(m, "matrix", matrix)
        return m

    def __call__(self, v: BitVec) -> BitVec:
        return self.matrix @ v

    @property
    def is_isomorphism(self) -> bool:
        return self.src.dim == self.dst.dim and rank(self.matrix) == self.src.dim


def minimal_srs(g: Graph) -> SRS:
    """The minimal SRS: adjacency matrix as Gram, standard basis as decorations."""
    return _minimal_on(g, SympSpace._trusted(g.adjacency()))


def _minimal_on(g: Graph, space: SympSpace) -> SRS:
    """The minimal SRS of g on ``space``, the space of g's adjacency matrix.
    D = I, so the columns of D^-1 are preset to the unit vectors."""
    s = SRS._trusted(g, space, BitMat.identity(g.n))
    object.__setattr__(s, "_deco_inverse", [1 << p for p in range(g.n)])
    return s


def _check_radical_cap(space: SympSpace) -> None:
    k = len(space._radical)
    if k > MAX_QUOTIENT_RADICAL_DIM:
        raise SRSError(f"radical dimension {k} exceeds the cap of {MAX_QUOTIENT_RADICAL_DIM}")


def _minimal_for_quotients(g: Graph) -> SRS:
    """``minimal_srs(g)``, built only once its radical is within
    ``MAX_QUOTIENT_RADICAL_DIM``. The radical takes one elimination of the
    adjacency matrix, and the system is built on the space whose radical
    was read, so that elimination is not repeated."""
    space = SympSpace._trusted(g.adjacency())
    _check_radical_cap(space)
    return _minimal_on(g, space)


def _gather(bits: int, positions: Sequence[int]) -> int:
    """Bit i of the result is bit ``positions[i]`` of ``bits``."""
    out = 0
    for i, p in enumerate(positions):
        out |= (bits >> p & 1) << i
    return out


def restrict(s: SRS, nodes: Sequence[int]) -> SRS:
    """The SRS induced on a node subset.

    Decorations of the kept nodes span some subspace W; the result lives
    on W re-coordinatized by its canonical echelon basis, so restricting
    a minimal SRS of a graph to the support of a smaller minimal SRS
    reproduces it on the nose, not just up to isomorphism. A vector of W
    has its echelon coordinates at the pivots, the lowest set bit of each
    echelon row.
    """
    sub_graph = induced_subgraph(s.graph, nodes)
    rows = [s.deco.rows[v] for v in nodes]
    basis = _echelon_rows(rows, s.space.dim)
    pivots = [(b & -b).bit_length() - 1 for b in basis]
    sub_space = SympSpace._trusted(BitMat._trusted(len(basis), s.space.pairing_rows(basis)))
    deco = BitMat._trusted(len(basis), (_gather(v, pivots) for v in rows))
    return SRS._trusted(sub_graph, sub_space, deco)


def quotient(s: SRS, u_basis: Sequence[BitVec]) -> tuple[SRS, SympMap]:
    """Quotient by a subspace of the radical, with the projection witness.

    Coordinates are the non-pivot positions of the echelon basis of U, so
    the quotient of a quotient stays deterministic. Projecting reduces a
    vector by the echelon rows at its pivot bits and keeps the other
    coordinates, so the image of unit vector j is the kept part of the
    echelon row pivoting at j, or the unit vector at j's position in the
    kept ones. The quotient's Gram matrix is G on the kept rows and
    columns: G is symmetric, so it is read off the transpose of the kept
    rows at the kept positions.
    """
    dim = s.space.dim
    gram = s.space.gram.rows
    for u in u_basis:
        if u.dim != dim:
            raise SRSError(f"subspace vector dimension {u.dim} != {dim}")
        if row_combination(gram, u.bits):
            raise SRSError(f"subspace vector {u} not in the radical")
    basis = _echelon_rows([u.bits for u in u_basis], dim)
    reducer = {(b & -b).bit_length() - 1: b for b in basis}
    keep = [j for j in range(dim) if j not in reducer]
    position = {j: i for i, j in enumerate(keep)}
    cols = [1 << position[j] if j in position else _gather(reducer[j], keep) for j in range(dim)]
    kept_cols = _transpose([gram[j] for j in keep], dim)
    quot_space = SympSpace._trusted(BitMat._trusted(len(keep), [kept_cols[j] for j in keep]))
    proj = SympMap._trusted(s.space, quot_space, BitMat._trusted(dim, _transpose(cols, len(keep))))
    deco = BitMat._trusted(len(keep), (row_combination(cols, v) for v in s.deco.rows))
    quot = SRS._trusted(s.graph, quot_space, deco)
    return quot, proj


def radical_subspaces(s: SRS) -> list[tuple[BitVec, ...]]:
    """All subspaces of the radical, as bases in space coordinates.

    Deterministic: subspace dimension ascending (so quotient types come
    out grouped), then the fixed order of echelon-basis enumeration.
    """
    _check_radical_cap(s.space)
    rad = s.space._radical
    dim = s.space.dim
    return [tuple(BitVec(dim, row_combination(rad, c.bits)) for c in sub) for sub in subspaces(len(rad))]


def enumerate_quotients(g: Graph) -> list[SRS]:
    """Every SRS on g up to isomorphism: one quotient per radical subspace.

    The first entry (zero subspace) is the minimal SRS itself. Subspaces of
    the radical biject with isomorphism classes, so entries are pairwise
    non-isomorphic; they are grouped by type since a quotient by an
    r-dimensional subspace has type (n, k - r). Subspace counts grow fast
    (Galois numbers), so radicals past ``MAX_QUOTIENT_RADICAL_DIM`` are
    rejected before the minimal system or any subspace is built;
    ``_quotient_type_counts`` counts the classes without building them.
    """
    minimal = _minimal_for_quotients(g)
    return [quotient(minimal, u)[0] for u in radical_subspaces(minimal)]


def _quotient_type_counts(n: int, k: int) -> dict[tuple[int, int], int]:
    """How many classes of each type ``enumerate_quotients`` gives on a
    graph whose minimal system has type (n, k), without building any.

    Classes biject with radical subspaces, and an r-dimensional one gives
    type (n, k - r), so that type occurs [k r]_2 times: the Gaussian
    binomial, the number of r-dimensional subspaces of GF(2)^k (Goldman
    and Rota, 1969). Radicals past ``_MAX_COUNTED_RADICAL_DIM`` are
    rejected before any count, since the counts would not print.
    """
    if k > _MAX_COUNTED_RADICAL_DIM:
        raise SRSError(f"radical dimension {k} exceeds the counting cap of {_MAX_COUNTED_RADICAL_DIM}")
    counts = {}
    binom = 1  # [k 0]_2
    for r in range(k + 1):
        counts[(n, k - r)] = binom
        binom = binom * ((1 << (k - r)) - 1) // ((1 << (r + 1)) - 1)
    return counts


def srs_isomorphic(a: SRS, b: SRS) -> SympMap | None:
    """The unique decoration-compatible isomorphism, or None.

    Both systems must live on the same graph (same node indexing); graphs
    that merely look alike after relabeling are a different question and
    are reported as an error, not as non-isomorphic.
    """
    if a.graph != b.graph:
        raise SRSError("systems live on different graphs")
    if a.space.dim != b.space.dim:
        return None
    # X with D_a X = D_b, row p for node p; M = X^T is onto because the
    # decorations of b span, hence bijective at equal dimension
    x = solve_mat(a.deco, b.deco)
    return None if x is None else SympMap(a.space, b.space, x.transpose())


def universal_map(a: SRS, b: SRS) -> SympMap:
    """The unique surjection from a minimal SRS onto any SRS on the same graph.

    Sends each decoration of ``a`` to the matching one of ``b``; an
    isomorphism exactly when ``b`` is minimal too.
    """
    if a.graph != b.graph:
        raise SRSError("systems live on different graphs")
    if not a.is_minimal:
        raise SRSError("source is not minimal")
    x = solve_mat(a.deco, b.deco)
    assert x is not None, "minimal decorations form a basis"
    m = x.transpose()
    assert rank(m) == b.space.dim, "universal map not surjective"
    return SympMap(a.space, b.space, m)


@dataclass(frozen=True)
class CocliqueReport:
    """The coclique bound n <= nodes - gamma for a graph's minimal SRS."""

    n: int
    gamma: int
    bound: int
    holds: bool
    witness: tuple[int, ...]


def coclique_bound_check(g: Graph) -> CocliqueReport:
    witness = max_coclique(g)  # first: it enforces the node cap
    n = SympSpace._trusted(g.adjacency()).type.n
    gamma = len(witness)
    bound = g.n - gamma
    return CocliqueReport(n, gamma, bound, n <= bound, witness)


def srs_to_json(s: SRS) -> dict:
    n, k = s.type
    return {
        "graph": graph_to_json(s.graph),
        "dim": s.space.dim,
        "gram": s.space.gram.to_strings(),
        "type": [n, k],
        "deco": {str(p): v for p, v in enumerate(s.deco.to_strings())},
        "minimal": s.is_minimal,
    }


def srs_from_json(payload: dict) -> SRS:
    """Rebuild and re-validate; declared type and minimality must agree."""
    if not isinstance(payload, dict):
        raise SRSError("malformed SRS JSON: not an object")
    try:
        graph = _graph_from_json(payload["graph"])
        gram_rows = payload["gram"]
        dim = payload["dim"]
        deco_map = payload["deco"]
    except KeyError as exc:
        raise SRSError(f"malformed SRS JSON: missing {exc}") from exc
    # type() rather than isinstance(): bool is a subclass of int
    if type(dim) is not int or dim < 0:
        raise SRSError(f'"dim" must be a non-negative integer, got {dim!r}')
    if not (isinstance(gram_rows, list) and all(isinstance(r, str) for r in gram_rows)):
        raise SRSError('"gram" must be a list of bit strings')
    if not isinstance(deco_map, dict):
        raise SRSError('"deco" must map node numbers to bit strings')
    if len(gram_rows) != dim:
        raise SRSError(f"gram has {len(gram_rows)} rows, dim is {dim}")
    space = SympSpace(BitMat.from_rows(gram_rows, ncols=dim))
    rows, dims = [], []
    for p in range(graph.n):
        key = str(p)
        if key not in deco_map:
            raise SRSError(f"missing decoration for node {p}")
        text = deco_map[key]
        rows.append(_string_bits(text))
        dims.append(len(text))
    for p, d in enumerate(dims):
        if d != dim:
            raise SRSError(f"decoration of node {p} has dimension {d}, space has {dim}")
    s = SRS(graph, space, BitMat(dim, rows))
    declared_type = payload.get("type", list(s.type))
    if not (isinstance(declared_type, list) and len(declared_type) == 2
            and all(type(x) is int for x in declared_type)):
        raise SRSError(f'"type" must be a pair of integers, got {declared_type!r}')
    if tuple(declared_type) != tuple(s.type):
        raise SRSError(f"declared type {tuple(declared_type)} != computed {tuple(s.type)}")
    minimal = payload.get("minimal", s.is_minimal)
    if type(minimal) is not bool:
        raise SRSError(f'"minimal" must be true or false, got {minimal!r}')
    if minimal != s.is_minimal:
        raise SRSError("declared minimality flag is wrong")
    return s
