"""Symplectic vector spaces over GF(2).

A space is GF(2)^dim carrying an alternating bilinear form given by its
Gram matrix (symmetric with zero diagonal; over GF(2) that is exactly
"alternating"). Unlike characteristic zero the form may be degenerate:
its kernel is the radical, and every space splits into hyperbolic planes
plus a radical, which yields the type invariant (n, k) with dim = 2n + k.
Spaces with k = 0 are called extraspecial here, k = 1 almost extraspecial,
after the finite 2-groups they give rise to.

Everything is deterministic: the symplectic basis comes from a fixed
greedy pairing with lowest-index choices, and the radical basis is its
leftover part, so equal inputs always produce identical bases.

Forms are evaluated on Gram rows: the Gram image of a vector v is the XOR
of the Gram rows that v selects, and <v, w> is the parity of that image
AND w. ``form`` reads the image off a byte table of the Gram rows
(``gf2.byte_table``, one lookup per byte of v), which its first call
builds and the space caches, so a space that never calls ``form`` never
builds it. ``MixedForm.value``, which no library route calls, pairs on
the completed matrix's rows with ``gf2.bilinear`` and builds no table.
Routines that pair one vector with many compute its image once.
``pairing_rows`` gives the whole Gram matrix of a vector family of ints
in O(count x dim) word operations, and the symplectic basis carries each
candidate's image along with it, so a pair test or a projection step
costs O(1) word operations instead of a matrix-vector product.

Each space is decomposed once, into int rows: hyperbolic pairs
(``_pairs``) and the radical rows (``_radical``), the canonical kernel
basis; ``type`` counts them. A fresh space takes both from the greedy
symplectic basis (``_basis``), while a space made by ``_adjoined``, one
coordinate larger, takes them by an O(dim) update of the smaller space's
and builds no greedy basis. Either way the pairs span the coordinate
subspace W on the non-free columns of the Gram matrix, so
``_hyperbolic``, the inverse of the form on W, does not depend on which
pairs they are. On an adjoined space the greedy basis is built only
where its pairing itself is read: the public ``basis`` (which
``grp2.extraspecial_sign`` reads) and ``grp2.make_group``. The public
``radical`` and ``basis`` wrap the int rows as ``BitVec``s on first
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

from .gf2 import (
    BitMat,
    BitVec,
    _transpose,
    bilinear,
    byte_table,
    echelon_basis,
    rank,
    row_combination,
    table_combination,
)

__all__ = [
    "SpaceType",
    "SymplecticBasis",
    "SympSpace",
    "MixedForm",
    "standard_space",
    "orthogonal_project",
    "mixed_completion",
    "default_completion_choices",
    "random_completion_choices",
]


def _row_reader(rows: Sequence[int]) -> Callable[[int], int]:
    """v -> v^T M for the matrix with these rows, read off ``byte_table(rows)``:
    a single byte needs no loop over the table, so up to 8 rows it is the
    table's own ``__getitem__``."""
    table = byte_table(rows)
    return table[0].__getitem__ if len(table) == 1 else partial(table_combination, table)


class SpaceType(NamedTuple):
    """Isomorphism type (n, k): n hyperbolic pairs, k-dimensional radical."""

    n: int
    k: int

    @property
    def dim(self) -> int:
        return 2 * self.n + self.k

    @property
    def is_extraspecial(self) -> bool:
        return self.k == 0

    @property
    def is_almost_extraspecial(self) -> bool:
        return self.k == 1


class SymplecticBasis(NamedTuple):
    """Basis x_1..x_n, y_1..y_n, z_1..z_k with <x_i, y_j> = [i == j],
    all other basis pairings zero, and each z_j in the radical."""

    x: tuple[BitVec, ...]
    y: tuple[BitVec, ...]
    z: tuple[BitVec, ...]


class SympSpace:
    """GF(2)^dim with an alternating form; hyperbolic pairs, radical,
    basis and type cached, the pairs, radical and basis as int rows that
    ``radical`` and ``basis`` wrap. ``_adjoined`` presets ``_pairs`` and
    ``_radical`` on the space it makes, and then ``type`` and
    ``_hyperbolic`` read no greedy basis."""

    def __init__(self, gram: BitMat):
        if gram.nrows != gram.ncols:
            raise ValueError(f"Gram matrix not square: {gram.shape}")
        if not gram.is_symmetric():
            raise ValueError("Gram matrix not symmetric")
        if any(row >> i & 1 for i, row in enumerate(gram.rows)):
            raise ValueError("Gram matrix has nonzero diagonal (form not alternating)")
        self.gram = gram
        self.dim = gram.nrows

    @classmethod
    def _trusted(cls, gram: BitMat) -> "SympSpace":
        """``SympSpace(gram)`` without the checks, for a Gram matrix that is
        square, symmetric and zero on the diagonal by construction: a
        graph's adjacency matrix, or pairings in an alternating form."""
        s = object.__new__(cls)
        s.gram = gram
        s.dim = gram.nrows
        return s

    def form(self, v: BitVec, w: BitVec) -> int:
        """Evaluate <v, w>."""
        if v.dim != self.dim or w.dim != self.dim:
            raise ValueError(f"vector dimension mismatch in space of dim {self.dim}")
        return (self._image(v.bits) & w.bits).bit_count() & 1

    @cached_property
    def _image(self) -> Callable[[int], int]:
        """v -> v^T G on ints, read off a byte table of the Gram rows that
        the first ``form`` call builds."""
        return _row_reader(self.gram.rows)

    def pairing_rows(self, vectors: Sequence[int]) -> list[int]:
        """Gram matrix of a vector family given as ints, as rows: bit q of
        row p is <vectors[p], vectors[q]>. No vector may set a bit at or
        past the space's dimension.

        Computes B G B^T for B with the vectors as rows: first each Gram
        image v_q^T G, then, since B G B^T is symmetric, row p as the XOR
        of the columns of the image matrix that v_p selects. The images
        are the dense side (half their bits on a random form), so their
        transpose takes ``_transpose``'s string route where it pays, and a
        near-unit family such as a minimal system's costs one XOR per row.
        """
        images = [row_combination(self.gram.rows, v) for v in vectors]
        cols = _transpose(images, self.dim)
        return [row_combination(cols, v) for v in vectors]

    @cached_property
    def _radical(self) -> list[int]:
        """Deterministic basis of V^perp, the kernel of the Gram matrix: the
        z part of ``_basis``, unless ``_adjoined`` presets it.

        It is the canonical kernel basis (``gf2.kernel_basis``: lowest-index
        pivots, one vector per free column, free columns ascending). Each
        greedy candidate starts as e_t, its origin t, keeps its origin
        order, and only ever absorbs picked vectors of lower origin: a pair
        (v, w) picked from origins i < j is added only to candidates of
        origin above i (v) or above j (w), since the candidates before i
        have zero image and j is the first candidate that pairs with v.
        So a leftover z_t has its highest bit at t, and no bit at any other
        leftover origin, because no picked vector ever has one. Distinct
        highest bits make the leftover origins the set of highest bits of
        the kernel, which is the set of free columns, and a kernel vector
        is fixed by its bits at the free columns: so the z_t, in ascending
        origin order, are the kernel basis.

        So no x_i or y_i has a bit at a free column either, since the picked
        vectors never do, and the pairs span exactly the coordinate subspace
        W on the non-free columns.
        """
        return self._basis[2]

    @cached_property
    def _pairs(self) -> tuple[list[int], list[int]]:
        """Hyperbolic pairs as int rows x.., y.., with <x_i, y_j> = [i == j],
        <x_i, x_j> = <y_i, y_j> = 0, that span W, the coordinate subspace on
        the non-free columns: the x and y parts of ``_basis`` (the same
        lists, not copies), unless ``_adjoined`` presets them."""
        return self._basis[:2]

    @cached_property
    def radical(self) -> tuple[BitVec, ...]:
        return tuple(BitVec(self.dim, bits) for bits in self._radical)

    @cached_property
    def _basis(self) -> tuple[list[int], list[int], list[int]]:
        """The symplectic basis as int rows x.., y.., z..: greedy hyperbolic
        pairing with lowest-index choices.

        Repeatedly take the lowest-index candidate vector that pairs
        nontrivially with some other candidate, take its lowest-index
        partner, record them as (x_i, y_i), and project the remaining
        candidates onto the orthogonal complement of the plane they span.
        Candidates left over at the end form the radical part z_1..z_k.

        Candidates are int pairs (c, G c) that carry their Gram image. A
        candidate orthogonal to every recorded plane pairs with some other
        candidate exactly when its image is nonzero, so the search takes
        the first candidate with a nonzero image.
        """
        rows = self.gram.rows
        cands = [(1 << i, rows[i]) for i in range(self.dim)]
        xs: list[int] = []
        ys: list[int] = []
        while True:
            i = next((t for t, (_, g) in enumerate(cands) if g), None)
            if i is None:
                break
            v, gv = cands[i]
            j = next(t for t, (c, _) in enumerate(cands) if (gv & c).bit_count() & 1)
            w, gw = cands[j]
            xs.append(v)
            ys.append(w)
            projected = []
            for t, (c, g) in enumerate(cands):
                if t == i or t == j:
                    continue
                if (g & w).bit_count() & 1:
                    c ^= v
                    g ^= gv
                if (g & v).bit_count() & 1:
                    c ^= w
                    g ^= gw
                projected.append((c, g))
            cands = projected
        assert not any(g for _, g in cands), "leftover basis vector outside the radical"
        return xs, ys, [c for c, _ in cands]

    @cached_property
    def basis(self) -> SymplecticBasis:
        """The greedy symplectic basis (see ``_basis``)."""
        return SymplecticBasis(*(tuple(BitVec(self.dim, b) for b in part) for part in self._basis))

    def _hyperbolic(self, phi: int) -> int:
        """The w in the span of the hyperbolic pairs with <v, w> = phi . v for
        every v there: sum_i (phi . y_i) x_i + (phi . x_i) y_i, since the
        x_i-coordinate of a vector is its pairing with y_i and vice versa.
        As a matrix this map is H = sum_i x_i y_i^T + y_i x_i^T, symmetric.

        H does not depend on the pairs: they span W (see ``_pairs``), the
        form is nondegenerate on W, and H restricted to W is its inverse
        there, embedded with zeros on the free columns. Any symplectic basis
        of W gives that inverse, the greedy one or the carried one."""
        w = 0
        for x, y in zip(*self._pairs):
            if (phi & y).bit_count() & 1:
                w ^= x
            if (phi & x).bit_count() & 1:
                w ^= y
        return w

    def _adjoined(self, pairings: int) -> "SympSpace":
        """The space one coordinate larger: the new coordinate e_d pairs
        with old coordinate i as bit i of ``pairings``, and the old
        coordinates pair with each other as before. It carries its
        hyperbolic pairs and radical rows, in O(dim) int work and with no
        greedy basis.

        Let h = ``_hyperbolic``(pairings), 0 for zero pairings. An old
        vector pairs with e_d by its dot product with ``pairings``, and h
        pairs with every pair vector as ``pairings`` does, so e_d + h pairs
        with none, with a radical row z as z . pairings, and with e_d as
        pairings . h = 0, since H is alternating. If no radical row pairs
        with e_d, e_d + h pairs with nothing: it joins the radical, the
        pairs stay as they are (shared, not copied), type (n, k) ->
        (n, k + 1).
        Otherwise let z_m be the first radical row with z_m . pairings = 1.
        Then (z_m, e_d + h) is one more pair, since <z_m, e_d + h> = 1, and
        the later radical rows that pair with e_d absorb z_m, type
        (n + 1, k - 1).

        The radical rows stay the canonical kernel basis: one row per free
        column t_j, with its highest bit there and no bit at another free
        column (see ``_radical``). h is in the span of the pairs, so it has
        no bit at a free column. In the null case the free columns gain d,
        with row e_d + h. In the hyperbolic case the kept rows, z_j and
        z_j + z_m for j > m, are k - 1 kernel vectors with highest bits at
        the t_j other than t_m and no bit at another of them, so they are
        the canonical basis of the new kernel, of dimension k - 1, whose
        free columns are those t_j. The new pair, z_m and e_d + h, has no
        bit at a new free column, so the pairs span the new W and
        ``_hyperbolic`` reads the same map as a fresh space's.
        """
        d = self.dim
        rows = [old | ((pairings >> i & 1) << d) for i, old in enumerate(self.gram.rows)]
        rows.append(pairings)
        out = SympSpace._trusted(BitMat._trusted(d + 1, rows))
        radical = self._radical
        partner = 1 << d ^ self._hyperbolic(pairings) if pairings else 1 << d
        m = next((j for j, z in enumerate(radical) if (z & pairings).bit_count() & 1), None)
        if m is None:
            out._pairs, out._radical = self._pairs, radical + [partner]
            return out
        xs, ys = self._pairs
        z_m = radical[m]
        out._pairs = xs + [z_m], ys + [partner]
        out._radical = radical[:m] + [
            z ^ z_m if (z & pairings).bit_count() & 1 else z for z in radical[m + 1:]
        ]
        return out

    @cached_property
    def type(self) -> SpaceType:
        return SpaceType(len(self._pairs[0]), len(self._radical))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SympSpace):
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        n, k = self.type
        return f"SympSpace(dim={self.dim}, type=({n},{k}))"


def standard_space(n: int, k: int) -> SympSpace:
    """The model space of type (n, k): coordinates x_1..x_n, y_1..y_n, z_1..z_k.

    Its symplectic basis is known in advance: the coordinate vectors in
    that order, which is also what the greedy pairing of ``_basis`` picks,
    so the radical is the z coordinates."""
    if n < 0 or k < 0:
        raise ValueError(f"negative space type ({n}, {k})")
    dim = 2 * n + k
    rows = [0] * dim
    for i in range(n):
        rows[i] |= 1 << (n + i)
        rows[n + i] |= 1 << i
    s = SympSpace._trusted(BitMat._trusted(dim, rows))
    units = [1 << i for i in range(dim)]
    s._basis = units[:n], units[n:2 * n], units[2 * n:]
    return s


@dataclass(frozen=True)
class MixedForm:
    """A nondegenerate completion <<v, w>> = <v, w> + (pi(v), pi(w)).

    ``proj`` is an idempotent map onto the radical, ``radform`` a symmetric
    nondegenerate form on the radical written in the space's radical basis,
    and ``matrix`` the Gram matrix of the completed form, built on first read.
    """

    space: SympSpace
    proj: BitMat
    radform: BitMat

    @cached_property
    def matrix(self) -> BitMat:
        s = self.space
        # radical basis vector j has its highest set bit at free column t_j,
        # and no other basis vector sets bit t_j (see SympSpace._radical):
        # so bit t_j of a radical vector is its j-th coordinate, and row t_j
        # of proj maps a vector to the j-th coordinate of its projection
        coords = BitMat(s.dim, [self.proj.rows[z.bit_length() - 1] for z in s._radical])
        completed = s.gram ^ (coords.transpose() @ self.radform @ coords)
        assert rank(completed) == s.dim, "mixed completion came out degenerate"
        return completed

    def value(self, v: BitVec, w: BitVec) -> int:
        if v.dim != self.space.dim or w.dim != self.space.dim:
            raise ValueError(f"vector dimension mismatch in space of dim {self.space.dim}")
        return bilinear(self.matrix.rows, v.bits, w.bits)


def mixed_completion(s: SympSpace, proj: BitMat, radform: BitMat) -> MixedForm:
    """Complete a degenerate form to a nondegenerate one via radical choices.

    Requires proj idempotent with image exactly the radical, and radform
    symmetric of full rank k (arbitrary diagonal: over GF(2) a symmetric
    form need not be alternating, and for odd k it cannot be). The
    completed form is always nondegenerate.
    """
    k = len(s._radical)
    if proj.shape != (s.dim, s.dim):
        raise ValueError(f"projection shape {proj.shape} != {(s.dim, s.dim)}")
    # row i of A P is the combination of P's rows that row i of A selects
    if any(row_combination(proj.rows, row) != row for row in proj.rows):
        raise ValueError("projection is not idempotent")
    if any(row_combination(proj.rows, row) for row in s.gram.rows):
        raise ValueError("projection image not inside the radical")
    if rank(proj) != k:
        raise ValueError("projection image smaller than the radical")
    if radform.shape != (k, k):
        raise ValueError(f"radical form shape {radform.shape} != {(k, k)}")
    if not radform.is_symmetric():
        raise ValueError("radical form not symmetric")
    if rank(radform) != k:
        raise ValueError("radical form degenerate")
    return MixedForm(s, proj, radform)


def default_completion_choices(s: SympSpace) -> tuple[BitMat, BitMat]:
    """Canonical (proj, radform): project along W, the span of the cached
    hyperbolic pairs, onto the radical, identity radical form. The
    hyperbolic part of e_j is ``_hyperbolic`` of Gram row j, so the
    projection is I + H G. The default ``extend_minimal`` step never
    builds it: the projection drops out of that step."""
    cols = [(1 << j) ^ s._hyperbolic(g) for j, g in enumerate(s.gram.rows)]
    return BitMat(s.dim, cols).transpose(), BitMat.identity(len(s._radical))


def random_completion_choices(rng, s: SympSpace) -> tuple[BitMat, BitMat]:
    """A random valid (proj, radform) pair drawn from ``rng`` (a
    ``random.Random``), each uniform: a projection onto the radical, then a
    symmetric nondegenerate radical form with an unrestricted diagonal,
    drawn as a uniform symmetric matrix until one is nondegenerate.

    A projection onto the radical is v -> sum_j f_j(v) z_j with f_j(z_i) =
    [i == j], one for each choice of the functionals f_j. Bit t_j, where
    radical row z_j has its highest bit and no other radical row has one
    (see ``SympSpace._radical``), is one such f_j. Any other differs from
    it by a functional that vanishes on the radical, the kernel of the
    symmetric Gram matrix G, so by a combination a^T G of Gram rows. For a
    uniform a that combination is uniform over the dim - k dimensional row
    space of G, so the draw is uniform over all 2^(k (dim - k))
    projections. Row i of the projection combines the f_j of the radical
    rows with bit i set.
    """
    dim = s.dim
    k = len(s._radical)
    gram = s.gram.rows
    funcs = [1 << (z.bit_length() - 1) ^ row_combination(gram, rng.getrandbits(dim)) for z in s._radical]
    proj = BitMat(dim, [row_combination(funcs, col) for col in _transpose(s._radical, dim)])
    while True:
        rows = [0] * k
        for i in range(k):
            if rng.getrandbits(1):
                rows[i] |= 1 << i
            for j in range(i + 1, k):
                if rng.getrandbits(1):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        radform = BitMat(k, rows)
        if rank(radform) == k:
            return proj, radform


def orthogonal_project(s: SympSpace, wbasis: list[BitVec], v: BitVec) -> tuple[BitVec, BitVec]:
    """Split v = v0 + vW with vW in W and v0 orthogonal to W.

    W is the span of wbasis. Defined only for v orthogonal to the radical
    of W (otherwise no such splitting exists and this raises). vW lifts
    ``_hyperbolic``(phi) of W's own space, phi_t = <v, b_t> over a basis b.
    """
    if v.dim != s.dim:
        raise ValueError(f"vector dimension mismatch in space of dim {s.dim}")
    basis = [b.bits for b in echelon_basis(wbasis, dim=s.dim)]
    sub = SympSpace._trusted(BitMat._trusted(len(basis), s.pairing_rows(basis)))
    image = row_combination(s.gram.rows, v.bits)
    phi = sum(((image & b).bit_count() & 1) << t for t, b in enumerate(basis))
    if any((phi & z).bit_count() & 1 for z in sub._radical):
        raise ValueError("vector not orthogonal to the radical of W; no splitting exists")
    v_w = BitVec(s.dim, row_combination(basis, sub._hyperbolic(phi)))
    return v ^ v_w, v_w
