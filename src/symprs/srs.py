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
kept rows onto pivot coordinates (or, deleting one node, keeps them or
drops one coordinate), ``quotient`` projects every row,
``SRS._appended`` adds one row for an extension step (a row of the old
space is already a row of the larger one) and ``build_by_extension``
reorders the rows.

Each system caches, per node v, the functional f_v with f_v(D_u) =
[u == v], and the mask of the nodes whose rows lie in a linear
dependency of the rows of D (``SRS._duals``). On a minimal system no node
is dependent and f_v is column v of D^-1, so the lifted form of an
indicator is a combination of them. ``minimal_srs`` presets them to the
unit vectors, ``_appended`` carries them to the larger system, and any
other system eliminates [D | I_n] once, on first read.

Deleting one node is the inverse of adding one: it moves the type by at
most one step, and it needs no elimination of the kept rows. Every
deletion of a node v reads ``SRS._duals``. Either D_v lies in a
dependency of the rows of D, and the kept rows still span: the result
keeps the space object, with its cached split and type, and D loses row
v. Or the kept rows span the kernel of f_v, a hyperplane: its echelon
basis is known from f_v alone, so the new Gram rows are O(1) word
operations each and D loses row v and one column. Both cases compute
exactly what the echelon route computes (see ``restrict``).

Systems are validated once, at the boundary. ``SRS(...)``, ``SympMap(...)``
and ``srs_from_json`` check every axiom of what they are given. The systems
this module builds itself hold the axioms by construction and skip the
re-check through the private ``_trusted`` constructors:

* ``minimal_srs``: the adjacency matrix is the Gram matrix of the standard
  basis, which spans;
* ``restrict``: decorations pair as before, so the kept ones pair as their
  nodes are adjacent, and they span the subspace W re-coordinatized on its
  echelon basis, also when one node is deleted through ``_duals``;
* ``quotient``: a radical vector pairs to 0 with everything, so dividing by
  a subspace of the radical (checked on the way in) keeps every pairing and
  the projection preserves the form, and images of a spanning set span.

``tests/conftest.py`` points every ``_trusted`` constructor back at the
checking one, so the test suite still validates each result in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gf2 import (
    BitMat,
    BitVec,
    _drop_bit,
    _echelon_rows,
    _eliminate,
    _gather,
    _new,
    _string_bits,
    _subspace_rows,
    _transpose,
    kernel_basis,
    rank,
    row_combination,
    row_reduce,  # unused here; perfbench/selftest.py checks that tracing rebinds srs.row_reduce
    solve_mat,
)
from .graph import Graph, _check_node_types, _graph_from_json, graph_to_json, induced_subgraph, max_coclique
from .symplectic import SpaceType, SympSpace, _cached_property

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
        systems that hold them by construction. The fields go straight into
        the instance ``__dict__``: the generated ``__init__`` of a frozen
        dataclass makes one generic ``__setattr__`` call per field."""
        s = _new(cls)
        fields = s.__dict__
        fields["graph"] = graph
        fields["space"] = space
        fields["deco"] = deco
        return s

    @_cached_property
    def _duals(self) -> tuple[list[int], int]:
        """For each node v the functional f_v with f_v(D_u) = [u == v], as an
        int over the space's coordinates, and the mask of the nodes that lie
        in a linear dependency of the rows of D, from one elimination of
        [D | I_n] on first read, unless preset: ``minimal_srs`` sets the
        unit vectors, and ``_appended`` carries them to the larger system.

        D spans, so the first dim eliminated rows have the unit vectors
        e_0, .., e_{dim-1} as their D part, and row i's I_n part writes e_i
        as a sum of rows of D: f_v(e_i) is its bit v, and f_v is column v
        of those parts. The other rows have D part 0, and their I_n parts
        span the dependencies among the rows of D, so a node lies in one
        exactly when its bit is set in one of them. No such f_v exists for
        that node, and its entry is unused. On a minimal system the mask is
        0 and the f_v are the columns of D^-1."""
        dim = self.space.dim
        rows = [row | 1 << (dim + p) for p, row in enumerate(self.deco.rows)]
        _eliminate(rows, dim)
        dependent = 0
        for row in rows[dim:]:
            dependent |= row
        return _transpose([row >> dim for row in rows[:dim]], self.graph.n), dependent >> dim

    def _appended(self, graph: Graph, space: SympSpace, w0: int) -> "SRS":
        """This minimal system plus one node, on ``graph`` (this graph plus
        that node) and ``space`` (this space plus a last coordinate e_d):
        the new node is decorated by w0 + e_d, appended as the last row of
        D. The old rows are kept as they are, since a row of the old space
        is a row of the larger one with e_d-coordinate 0; they span the old
        coordinates, and the new row adds e_d.

        The result carries its ``_duals`` with no elimination. The new D is
        D plus the row w0 + e_d, so its inverse is D^-1 plus the last row
        w0^T D^-1: old column p gains bit d = w0 . column p, and the new
        column is e_d. The result is minimal, so no node is dependent."""
        d = self.space.dim
        out = SRS._trusted(graph, space, BitMat._trusted(d + 1, self.deco.rows + (w0 | 1 << d,)))
        cols = [col | ((w0 & col).bit_count() & 1) << d for col in self._duals[0]]
        cols.append(1 << d)
        vars(out)["_duals"] = cols, 0
        return out

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
        preserves the forms by construction, filled as ``SRS._trusted`` is."""
        m = _new(cls)
        fields = m.__dict__
        fields["src"] = src
        fields["dst"] = dst
        fields["matrix"] = matrix
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
    D = I, so its ``_duals`` are preset to the unit vectors."""
    s = SRS._trusted(g, space, BitMat.identity(g.n))
    vars(s)["_duals"] = [1 << p for p in range(g.n)], 0
    return s


def _check_radical_cap(space: SympSpace) -> None:
    k = len(space._radical)
    if k > MAX_QUOTIENT_RADICAL_DIM:
        raise SRSError(f"radical dimension {k} exceeds the cap of {MAX_QUOTIENT_RADICAL_DIM}")


def _minimal_for_quotients(g: Graph) -> SRS:
    """``minimal_srs(g)``, built only once its radical is within
    ``MAX_QUOTIENT_RADICAL_DIM``. The radical is read off the greedy
    symplectic basis of the adjacency matrix, and the system is built on
    the space whose radical was read, so that basis is not built again."""
    space = SympSpace._trusted(g.adjacency())
    _check_radical_cap(space)
    return _minimal_on(g, space)


def restrict(s: SRS, nodes: Sequence[int]) -> SRS:
    """The SRS induced on a node subset.

    Decorations of the kept nodes span some subspace W; the result lives
    on W re-coordinatized by its canonical echelon basis, so restricting
    a minimal SRS of a graph to the support of a smaller minimal SRS
    reproduces it on the nose, not just up to isomorphism. A vector of W
    has its echelon coordinates at the pivots, the lowest set bit of each
    echelon row.

    Deleting one node v (``nodes`` every other node, ascending) reads
    ``SRS._duals`` instead of eliminating the kept rows, in one of two
    cases. If D_v lies in a dependency of the rows of D, the kept rows
    still span, W is the whole space, its echelon basis the unit vectors,
    and the result keeps this space object and the other rows of D as
    they are. Otherwise W is the kernel of f_v, the functional with
    f_v(D_u) = [u == v]. With c its top bit, the echelon basis of ker f_v
    is e_p + f_v(e_p) e_c for p != c (for p > c, f_v(e_p) = 0), pivoting
    at p, so the coordinates drop column c. Expanding the form on two such
    rows gives Gram row p as G_p + f_v(e_p) G_c + G_pc f_v without bit c,
    and the rows of D lose bit c. Both are what the echelon route computes.
    """
    _check_node_types(nodes)
    deleted = _deleted_node(nodes, s.graph.n)
    if deleted is not None:
        return _without_node(s, deleted)
    sub_graph = induced_subgraph(s.graph, nodes)
    rows = [s.deco.rows[v] for v in nodes]
    basis = _echelon_rows(rows, s.space.dim)
    pivots = [(b & -b).bit_length() - 1 for b in basis]
    sub_space = SympSpace._trusted(BitMat._trusted(len(basis), s.space.pairing_rows(basis)))
    deco = BitMat._trusted(len(basis), (_gather(v, pivots) for v in rows))
    return SRS._trusted(sub_graph, sub_space, deco)


def _deleted_node(nodes: Sequence[int], n: int) -> int | None:
    """v when ``nodes`` lists every node of n but v, in ascending order."""
    if len(nodes) != n - 1:
        return None
    nodes = list(nodes)
    v = next((i for i, u in enumerate(nodes) if u != i), n - 1)
    return v if nodes[v:] == list(range(v + 1, n)) else None


def _without_node(s: SRS, v: int) -> SRS:
    """``restrict`` to every node but v, by the two cases in its docstring."""
    graph = s.graph._without_node(v)
    funcs, dependent = s._duals
    rows = s.deco.rows[:v] + s.deco.rows[v + 1:]
    if dependent >> v & 1:
        return SRS._trusted(graph, s.space, BitMat._trusted(s.space.dim, rows))
    f = funcs[v]
    c = f.bit_length() - 1
    gram = s.space.gram.rows
    g_c = gram[c]
    sub_gram = [
        _drop_bit(row ^ (g_c if f >> p & 1 else 0) ^ (f if row >> c & 1 else 0), c)
        for p, row in enumerate(gram) if p != c
    ]
    dim = s.space.dim - 1
    sub_space = SympSpace._trusted(BitMat._trusted(dim, sub_gram))
    return SRS._trusted(graph, sub_space, BitMat._trusted(dim, (_drop_bit(row, c) for row in rows)))


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
    quot, cols = _quotient_rows(s, [u.bits for u in u_basis])
    proj = SympMap._trusted(s.space, quot.space, BitMat._trusted(dim, _transpose(cols, quot.space.dim)))
    return quot, proj


def _quotient_rows(s: SRS, u_rows: Sequence[int]) -> tuple[SRS, list[int]]:
    """``quotient`` by the span of radical vectors given as ints, past its
    checks, with the projection as its columns: the image of each unit
    vector, as an int."""
    dim = s.space.dim
    gram = s.space.gram.rows
    basis = _echelon_rows(u_rows, dim)
    reducer = {(b & -b).bit_length() - 1: b for b in basis}
    keep = [j for j in range(dim) if j not in reducer]
    position = {j: i for i, j in enumerate(keep)}
    cols = [1 << position[j] if j in position else _gather(reducer[j], keep) for j in range(dim)]
    kept_cols = _transpose([gram[j] for j in keep], dim)
    quot_space = SympSpace._trusted(BitMat._trusted(len(keep), [kept_cols[j] for j in keep]))
    deco = BitMat._trusted(len(keep), (row_combination(cols, v) for v in s.deco.rows))
    return SRS._trusted(s.graph, quot_space, deco), cols


def radical_subspaces(s: SRS) -> list[tuple[BitVec, ...]]:
    """All subspaces of the radical, as bases in space coordinates.

    Deterministic: subspace dimension ascending (so quotient types come
    out grouped), then the fixed order of echelon-basis enumeration.
    """
    dim = s.space.dim
    return [tuple(BitVec(dim, bits) for bits in sub) for sub in _radical_subspace_rows(s)]


def _radical_subspace_rows(s: SRS) -> list[tuple[int, ...]]:
    """``radical_subspaces`` with the basis vectors as ints."""
    _check_radical_cap(s.space)
    rad = s.space._radical
    return [tuple(row_combination(rad, c) for c in sub) for sub in _subspace_rows(len(rad))]


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
    return [_quotient_rows(minimal, u)[0] for u in _radical_subspace_rows(minimal)]


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

    @classmethod
    def _trusted(cls, n: int, gamma: int, bound: int, holds: bool, witness: tuple[int, ...]) -> "CocliqueReport":
        """``CocliqueReport(...)``, its fields filled as ``SRS._trusted`` fills them."""
        r = _new(cls)
        fields = r.__dict__
        fields["n"] = n
        fields["gamma"] = gamma
        fields["bound"] = bound
        fields["holds"] = holds
        fields["witness"] = witness
        return r


def coclique_bound_check(g: Graph) -> CocliqueReport:
    witness = max_coclique(g)  # first: it enforces the node cap
    n = SympSpace._trusted(g.adjacency()).type.n
    gamma = len(witness)
    bound = g.n - gamma
    return CocliqueReport._trusted(n, gamma, bound, n <= bound, witness)


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
    # every node's key is present, so any further key is a stray one
    if len(deco_map) > graph.n:
        nodes = set(map(str, range(graph.n)))
        stray = next(key for key in deco_map if key not in nodes)
        raise SRSError(f"decoration key {stray!r} is not a node number below {graph.n}")
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
