"""Root systems, their mod-2 shadows, and the Weyl action on them.

A Cartan datum (integer Cartan matrix plus symmetrizer) determines the
pairing (a_i, a_j) = d_i C_ij. Its parity graph has an edge wherever that
pairing is odd; the minimal SRS on the parity graph then carries a
representation of the Weyl group by symplectic matrices, under which
reducing a root's simple-root coordinates mod 2 intertwines the two
actions. For the simply laced families the parity graph is the diagram
itself, and the minimal SRS admits the explicit decorations built here,
one family at a time, inside a standard space of the appropriate type.

Orbits and group orders run on raw ints. A matrix there is the tuple of
its column images: M v is ``gf2.row_combination(cols, v)``, a product's
columns are the left factor's images of the right factor's columns, and
an identity test is one tuple comparison. The stabilizer chain keeps a
byte table of each strong generator, so its images of a matrix cost one
lookup per column. The chain is incremental: orbits only grow, and each
Schreier generator is sifted at most once. ``BitMat`` and ``BitVec``
appear only at the interface.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import BitMat, BitVec, _echelon_rows, _gather, byte_table, inverse
from .graph import Graph, automorphisms, dynkin_graph
from .srs import SRS, _minimal_for_quotients, _quotient_type_counts, _radical_subspace_rows, minimal_srs
from .symplectic import SympSpace, _row_reader, standard_space

__all__ = [
    "CartanDatum",
    "cartan_datum",
    "roots",
    "parity_graph",
    "ade_srs",
    "ade_table",
    "WeylRep",
    "weyl_rep",
    "weyl_orbit",
    "group_order",
    "automorphism_action_on_quotients",
    "MAX_ROOTS",
]

MAX_ROOTS = 10_000
# _table_compose reads a strong generator from at most two byte tables, and
# one level's orbit can hold all 2^dim - 1 nonzero vectors.
_MAX_CHAIN_DIM = 16


def _check_chain_dim(dim: int) -> None:
    if dim > _MAX_CHAIN_DIM:
        raise ValueError(
            f"stabilizer chain dimension capped at {_MAX_CHAIN_DIM}: strong generators compose "
            "through two byte tables, and a level orbit can hold 2^dim - 1 points"
        )


@dataclass(frozen=True)
class CartanDatum:
    """An integer Cartan matrix with a fixed symmetrizer.

    ``matrix[i][j]`` is C_ij, ``d[i]`` the symmetrizer entry; the pairing
    (a_i, a_j) = d_i C_ij must come out symmetric.
    """

    matrix: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]

    def __post_init__(self):
        c = self.matrix
        n = len(c)
        if len(self.d) != n or any(len(row) != n for row in c):
            raise ValueError("matrix and symmetrizer sizes disagree")
        for i in range(n):
            if c[i][i] != 2:
                raise ValueError(f"diagonal entry C[{i}][{i}] = {c[i][i]} != 2")
            if self.d[i] < 1:
                raise ValueError(f"symmetrizer entry d[{i}] = {self.d[i]} < 1")
        for i in range(n):
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise ValueError(f"off-diagonal entry C[{i}][{j}] = {c[i][j]} > 0")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise ValueError(f"zero pattern asymmetric at ({i}, {j})")
                if self.d[i] * c[i][j] != self.d[j] * c[j][i]:
                    raise ValueError(f"symmetrizer fails at ({i}, {j})")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def pairing(self, i: int, j: int) -> int:
        return self.d[i] * self.matrix[i][j]


def _chain_matrix(rank: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    return c


def cartan_datum(family: str, rank: int) -> CartanDatum:
    """The datum of a finite-type family, nodes numbered as in dynkin_graph.

    Simply laced families take d = 1 everywhere and C = 2I - adjacency.
    B_n makes the last root short, C_n makes it long, F4 shortens the last
    two, G2 lengthens the second; the double (triple) bond sits at the end
    of the chain in each case.
    """
    g = dynkin_graph(family, rank)  # checks the family and the rank
    if family in ("A", "D", "E"):
        c = [
            [2 if i == j else (-1 if g.has_edge(i, j) else 0) for j in range(rank)]
            for i in range(rank)
        ]
        return CartanDatum(tuple(map(tuple, c)), (1,) * rank)
    if family == "B":
        c = _chain_matrix(rank)
        c[rank - 1][rank - 2] = -2
        return CartanDatum(tuple(map(tuple, c)), (2,) * (rank - 1) + (1,))
    if family == "C":
        c = _chain_matrix(rank)
        c[rank - 2][rank - 1] = -2
        return CartanDatum(tuple(map(tuple, c)), (1,) * (rank - 1) + (2,))
    if family == "F":
        c = _chain_matrix(4)
        c[2][1] = -2
        return CartanDatum(tuple(map(tuple, c)), (2, 2, 1, 1))
    return CartanDatum(((2, -3), (-1, 2)), (1, 3))  # G


def roots(c: CartanDatum) -> list[tuple[int, ...]]:
    """All roots in simple-root coordinates, closed under simple reflections.

    Sorted lexicographically; raises if the closure exceeds MAX_ROOTS,
    which only happens for data outside finite type.
    """
    n = c.rank
    # s_i(beta) = beta - <beta, a_i^v> a_i, with <beta, a_i^v> summed over
    # the nonzero entries of Cartan row i only
    entries = [[(j, a) for j, a in enumerate(row) if a] for row in c.matrix]
    seen = set()
    queue = deque(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    seen.update(queue)
    while queue:
        beta = queue.popleft()
        for i, row in enumerate(entries):
            coeff = 0
            for j, a in row:
                coeff += a * beta[j]
            if not coeff:
                continue  # s_i fixes beta
            image = beta[:i] + (beta[i] - coeff,) + beta[i + 1 :]
            if image not in seen:
                if len(seen) >= MAX_ROOTS:
                    raise RuntimeError(f"root closure exceeds {MAX_ROOTS}; not finite type?")
                seen.add(image)
                queue.append(image)
    return sorted(seen)


def parity_graph(c: CartanDatum) -> Graph:
    """Edge i-j wherever the pairing (a_i, a_j) is odd."""
    n = c.rank
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if c.pairing(i, j) % 2])


# Explicit minimal decorations for the simply laced diagrams. Vectors are
# written over symbolic coordinates ("x", i), ("y", i) with i >= 1 and
# ("z", j), materialized in a standard space at the end; the even-path
# core G(2m) is shared by every family.


def _core(m: int) -> list[frozenset]:
    """The even-path core G(2m): head_m = {x_m, x_(m-1)}, then G(2m - 2) with
    x and y swapped, then tail_m = {y_m, y_(m-1)}, index 0 left out. As a
    loop: the p-th vectors from the two ends are head_(m-p) and tail_(m-p),
    swapped p times."""
    heads, tails = [], []
    for p in range(m):
        near, far = ("x", "y") if p % 2 == 0 else ("y", "x")
        indices = [i for i in (m - p, m - p - 1) if i]
        heads.append(frozenset((near, i) for i in indices))
        tails.append(frozenset((far, i) for i in indices))
    return heads + tails[::-1]


def _materialize(symbolic: Sequence[frozenset], n: int, k: int) -> BitMat:
    """The decoration matrix of the symbolic vectors in the standard space of type (n, k)."""
    offset = {"x": 0, "y": n, "z": 2 * n}
    return BitMat(2 * n + k, (sum(1 << (offset[kind] + i - 1) for kind, i in v) for v in symbolic))


def ade_srs(family: str, rank: int) -> SRS:
    """The minimal SRS of a simply laced diagram with its classical
    decorations, laid out in a standard space of type (n, k).

    Isomorphic to minimal_srs(dynkin_graph(family, rank)) via the change
    of basis sending node decorations to the standard basis; building it
    directly keeps the published coordinates on each node.
    """
    if family not in ("A", "D", "E"):
        raise ValueError(f"classical decorations exist for A/D/E only, not {family!r}")
    g = dynkin_graph(family, rank)
    if family == "A":
        n, k = rank // 2, rank % 2
        first = [("z", 1), ("y", n)] if n else [("z", 1)]  # z_1 alone for A1
        symbolic = [frozenset(first)] * k + _core(n)
    elif family == "D":
        n, k = (rank - 1) // 2, 2 - rank % 2
        if k == 1:
            extra = [frozenset({("z", 1), ("x", n), ("x", n - 1)})]
        else:
            extra = [frozenset({("z", 1), ("y", n)}), frozenset({("z", 2), ("y", n)})]
        symbolic = _core(n) + extra
    else:  # E
        n, k = rank // 2, rank % 2
        if k:  # E7
            symbolic = [*_core(3), frozenset({("z", 1), ("y", 3), ("y", 2), ("y", 1)})]
        else:  # E6, E8
            symbolic = [
                *_core(n - 1),
                frozenset({("y", n), ("y", n - 1)}),
                frozenset({("x", n), ("x", n - 1), ("x", n - 2)}),
            ]
    return SRS(g, standard_space(n, k), _materialize(symbolic, n, k))


def ade_table(family: str, rank: int) -> dict[tuple[int, int], int]:
    """Isomorphism classes of SRS on a simply laced diagram, counted by type
    from the diagram's type alone (``srs._quotient_type_counts``)."""
    if family not in ("A", "D", "E"):
        raise ValueError(f"the class table is for A/D/E diagrams, not {family!r}")
    return _quotient_type_counts(*SympSpace._trusted(dynkin_graph(family, rank).adjacency()).type)


@dataclass(frozen=True)
class WeylRep:
    """The Weyl group acting symplectically on the parity graph's SRS.

    ``generators[i]`` is the matrix of the i-th simple reflection on the
    minimal SRS of the parity graph; ``root_images`` maps each root to its
    mod-2 coordinate vector. Opposite roots always collide, so the map is
    2-to-1 at best; ``faithful_on_roots`` says whether it is exactly
    2-to-1, with ``collision_count`` the number of further identified
    pairs beyond that.
    """

    datum: CartanDatum
    srs: SRS
    generators: tuple[BitMat, ...]
    root_images: dict[tuple[int, ...], BitVec]
    faithful_on_roots: bool
    collision_count: int


def weyl_rep(c: CartanDatum) -> WeylRep:
    n = c.rank
    s = minimal_srs(parity_graph(c))
    gens = []
    for alpha in range(n):
        rows = list(BitMat.identity(n).rows)
        for j in range(n):
            rows[alpha] ^= (c.matrix[alpha][j] & 1) << j
        gens.append(BitMat(n, rows))
    all_roots = roots(c)
    images = {beta: BitVec.from_bits([b & 1 for b in beta]) for beta in all_roots}
    distinct = len(set(images.values()))
    pairs = len(all_roots) // 2
    return WeylRep(c, s, tuple(gens), images, distinct == pairs, pairs - distinct)


Columns = tuple[int, ...]  # a matrix as its column images (see the module docstring)


def _columns(m: BitMat) -> Columns:
    return m.transpose().rows


def _compose(a: Columns, b: Columns) -> Columns:
    """The columns of a times b: a's images of b's columns."""
    # row_combination(a, col) for each column, inlined: the stabilizer chain
    # spends most of its time here, on representative inverses and sifting.
    out = []
    for col in b:
        acc = 0
        while col:
            low = col & -col
            acc ^= a[low.bit_length() - 1]
            col ^= low
        out.append(acc)
    return tuple(out)


def _table_compose(table: list[list[int]], b: Columns) -> Columns:
    """_compose(a, b) read from byte_table(a), for a of dimension 1..16.

    The chain builds one table per strong generator and reads every orbit
    step and Schreier generator from it."""
    if len(table) == 1:
        (lo,) = table
        return tuple([lo[col] for col in b])
    lo, hi = table
    return tuple([lo[col & 255] ^ hi[col >> 8] for col in b])


def _inverse_columns(m: Columns) -> Columns:
    # BitMat(dim, m) is the transpose of m; its inverse has m^-1's columns as rows.
    inv = inverse(BitMat(len(m), m))
    assert inv is not None, "products of invertible generators are invertible"
    return inv.rows


def weyl_orbit(rep: WeylRep, v: BitVec) -> list[BitVec]:
    """Orbit of one vector under the generated matrix group, sorted."""
    dim = rep.datum.rank
    if v.dim != dim:
        raise ValueError(f"dimension mismatch {dim} != {v.dim}")
    # each generator applied as its column combination, read off a byte table
    apply = [_row_reader(_columns(m)) for m in rep.generators]
    seen = {v.bits}
    frontier = list(seen)
    while frontier:
        found = set()
        for m in apply:
            found.update(map(m, frontier))
        found -= seen
        seen |= found
        frontier = list(found)
    return [BitVec(dim, bits) for bits in sorted(seen)]


def group_order(generators: Iterable[BitMat], method: str = "chain") -> int:
    """Order of the matrix group the generators produce, by a deterministic
    stabilizer chain on vectors (``_stabilizer_chain_order``).

    Generators must be square, of one dimension at most 16 and invertible;
    anything else raises ValueError before any work starts. The dimension
    cap is checked first and holds whatever the group's order, even for
    the identity. ``method`` accepts only ``"chain"``.
    """
    gens = list(generators)
    if method != "chain":
        raise ValueError(f"unknown method {method!r}")
    if not gens:
        return 1
    dim = gens[0].ncols
    _check_chain_dim(dim)
    for g in gens:
        if g.nrows != g.ncols:
            raise ValueError(f"generator is not square: {g.shape}")
        if g.ncols != dim:
            raise ValueError(f"generators of mixed dimension {dim} and {g.ncols}")
    if any(inverse(g) is None for g in gens):
        raise ValueError("singular generator: not a group")
    return _stabilizer_chain_order(gens)


def _stabilizer_chain_order(gen_list: list[BitMat]) -> int:
    """Order via a base and strong generating set on F_2 vector points.

    Incremental Schreier-Sims (Seress, *Permutation Group Algorithms*,
    ch. 4; Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 4.4.2). Each level keeps its orbit, each point's coset
    representative and its inverse, an append-only list of acting strong
    generators, and per orbit point how many of them were tested there.
    Verifying a level extends its orbit, never rebuilding it, so the
    representatives stay valid, and sifts the Schreier generator of each
    untested (point, generator) pair through the deeper levels: each is
    sifted at most once. A residue that survives is installed at the level
    j where it got stuck, and the levels it joined are re-verified deepest
    first. A residue found verifying level i joins levels i+1..j: it is a
    product of level i's own generators, so level i's group and orbit stay
    as they are. A residue of an input generator joins levels 0..j.
    Iteration orders are fixed, so the chain and the result are deterministic.

    Each base point is the least vector (as an int) that the generator
    installed with it moves. That vector is always a standard basis vector
    e_j, so the image of a base point is read off as column j. Generators
    are square, invertible and of one dimension <= _MAX_CHAIN_DIM (checked
    by ``group_order``).
    """
    dim = gen_list[0].ncols
    identity = tuple(1 << j for j in range(dim))
    ordered = sorted(set(gen_list), key=lambda m: m.rows)
    external = [cols for cols in map(_columns, ordered) if cols != identity]
    base: list[int] = []  # coordinate j of each base point e_j
    orbits: list[list[int]] = []
    forward: list[dict[int, Columns]] = []  # orbit point -> coset representative
    backward: list[dict[int, Columns]] = []  # orbit point -> representative inverse
    # (generator, its byte table, its inverse) acting at each level, append-only
    acting: list[list[tuple[Columns, list[list[int]], Columns]]] = []
    tested: list[list[int]] = []  # orbit index -> acting generators tested there

    def sift(m: Columns, start: int) -> tuple[Columns, int]:
        for i in range(start, len(base)):
            j = base[i]
            w = m[j]
            if w == 1 << j:
                continue  # m fixes the base point; its representative is the identity
            back = backward[i].get(w)
            if back is None:
                return m, i
            m = _compose(back, m)
        return m, len(base)

    def install(top: int, idx: int, m: Columns):
        # m got stuck at level idx and joins levels top..idx
        if idx == len(base):
            # Vectors below e_j are combinations of fixed basis vectors.
            j = next(j for j, col in enumerate(m) if col != 1 << j)
            base.append(j)
            orbits.append([1 << j])
            forward.append({1 << j: identity})
            backward.append({1 << j: identity})
            acting.append([])
            tested.append([0])
        entry = (m, byte_table(m), _inverse_columns(m))
        for level in range(top, idx + 1):
            acting[level].append(entry)
        for level in range(idx, top - 1, -1):
            verify(level)

    def verify(i: int):
        # pre: levels deeper than i are complete; only they get touched.
        orbit, fwd, bwd = orbits[i], forward[i], backward[i]
        gens, done, b = acting[i], tested[i], base[i]
        p = 0
        while p < len(orbit):  # the orbit grows as it is scanned
            v = orbit[p]
            for _, table, s_inv in gens[done[p]:]:
                image = _table_compose(table, fwd[v])
                w = image[b]
                known = fwd.get(w)
                if known is None:  # a new point; its Schreier generator is the identity
                    fwd[w] = image
                    bwd[w] = _compose(bwd[v], s_inv)
                    orbit.append(w)
                    done.append(0)
                elif image != known:
                    residue, j = sift(_compose(bwd[w], image), i + 1)
                    if residue != identity:
                        install(i + 1, j, residue)
            done[p] = len(gens)
            p += 1

    for g in external:
        residue, j = sift(g, 0)
        if residue != identity:
            install(0, j, residue)
    return math.prod(map(len, orbits))


def automorphism_action_on_quotients(g: Graph) -> list[tuple[int, ...]]:
    """How each graph automorphism permutes the SRS classes on g.

    Classes are indexed as in enumerate_quotients (one per radical
    subspace); an automorphism acts on the minimal SRS by permuting
    coordinates, hence on radical subspaces, hence on classes. Rows are
    aligned with automorphisms(g).
    """
    s = _minimal_for_quotients(g)
    subs = _radical_subspace_rows(s)
    index = {tuple(_echelon_rows(sub, g.n)): i for i, sub in enumerate(subs)}
    # automorphisms(g) is sorted, so it starts with the identity, which fixes every class
    actions = [tuple(range(len(subs)))]
    for perm in automorphisms(g)[1:]:
        # Bit i of the image of u is bit inv[i] of u, inv[i] the preimage
        # of i, so that basis vector p maps to basis vector perm[p].
        # Permuting nodes preserves adjacency, hence is symplectic and fixes
        # the radical setwise.
        inv = sorted(range(g.n), key=perm.__getitem__)
        actions.append(
            tuple(index[tuple(_echelon_rows([_gather(u, inv) for u in sub], g.n))] for sub in subs)
        )
    return actions
