"""Symplectic vector spaces over GF(2).

A space is GF(2)^dim carrying an alternating bilinear form given by its
Gram matrix (symmetric with zero diagonal; over GF(2) that is exactly
"alternating"). Unlike characteristic zero the form may be degenerate:
its kernel is the radical, and every space splits into hyperbolic planes
plus a radical, which yields the type invariant (n, k) with dim = 2n + k.
Spaces with k = 0 are called extraspecial here, k = 1 almost extraspecial,
after the finite 2-groups they give rise to.

Everything is deterministic: the radical basis comes from kernel
elimination with lowest-index pivots, and the symplectic basis from a
fixed greedy pairing, so equal inputs always produce identical bases.

Forms are evaluated on Gram rows (``gf2.bilinear``): the Gram image of a
vector v is the XOR of the Gram rows that v selects, and <v, w> is the
parity of that image AND w. Routines that pair one vector with many
compute its image once. ``pairing_rows`` gives the whole Gram matrix of a
vector family in O(count x dim) word operations, and the symplectic basis
carries each candidate's image along with it, so a pair test or a
projection step costs O(1) word operations instead of a matrix-vector
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .gf2 import (
    BitMat,
    BitVec,
    bilinear,
    echelon_basis,
    inverse,
    kernel_basis,
    rank,
    row_combination,
    row_reduce,
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
]


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

    def vectors(self) -> list[BitVec]:
        return [*self.x, *self.y, *self.z]


class SympSpace:
    """GF(2)^dim with an alternating form; radical, basis and type cached."""

    def __init__(self, gram: BitMat):
        if gram.nrows != gram.ncols:
            raise ValueError(f"Gram matrix not square: {gram.shape}")
        if not gram.is_symmetric():
            raise ValueError("Gram matrix not symmetric")
        if not gram.diagonal().is_zero():
            raise ValueError("Gram matrix has nonzero diagonal (form not alternating)")
        self.gram = gram
        self.dim = gram.nrows

    def form(self, v: BitVec, w: BitVec) -> int:
        """Evaluate <v, w>."""
        if v.dim != self.dim or w.dim != self.dim:
            raise ValueError(f"vector dimension mismatch in space of dim {self.dim}")
        return bilinear(self.gram.rows, v.bits, w.bits)

    def pairing_rows(self, vectors: Sequence[BitVec]) -> list[int]:
        """Gram matrix of a vector family, as rows: bit q of row p is
        <vectors[p], vectors[q]>. Every vector must have the space's
        dimension.

        Computes B G B^T for B with the vectors as rows: first each Gram
        image v_p^T G, then each row as the XOR of the columns of B that
        the image selects.
        """
        images = [row_combination(self.gram.rows, v.bits) for v in vectors]
        cols = BitMat(self.dim, (v.bits for v in vectors)).transpose().rows
        return [row_combination(cols, g) for g in images]

    @cached_property
    def radical(self) -> tuple[BitVec, ...]:
        """Deterministic basis of V^perp, the kernel of the Gram matrix."""
        return tuple(kernel_basis(self.gram))

    @cached_property
    def basis(self) -> SymplecticBasis:
        """Greedy hyperbolic pairing with lowest-index choices.

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

        def vecs(bits: list[int]) -> tuple[BitVec, ...]:
            return tuple(BitVec(self.dim, b) for b in bits)

        return SymplecticBasis(vecs(xs), vecs(ys), vecs([c for c, _ in cands]))

    @cached_property
    def type(self) -> SpaceType:
        r = rank(self.gram)
        assert r % 2 == 0, "alternating form with odd rank"
        return SpaceType(r // 2, self.dim - r)

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
    """The model space of type (n, k): coordinates x_1..x_n, y_1..y_n, z_1..z_k."""
    dim = 2 * n + k
    rows = [0] * dim
    for i in range(n):
        rows[i] |= 1 << (n + i)
        rows[n + i] |= 1 << i
    return SympSpace(BitMat(dim, rows))


@dataclass(frozen=True)
class MixedForm:
    """A nondegenerate completion <<v, w>> = <v, w> + (pi(v), pi(w)).

    ``proj`` is an idempotent map onto the radical, ``radform`` a symmetric
    nondegenerate form on the radical written in the space's radical basis,
    and ``matrix`` the Gram matrix of the completed form.
    """

    space: SympSpace
    proj: BitMat
    radform: BitMat
    matrix: BitMat

    def value(self, v: BitVec, w: BitVec) -> int:
        return bilinear(self.matrix.rows, v.bits, w.bits)


def _radical_coords(s: SympSpace) -> BitMat:
    """A k x dim matrix C with C @ r = radical-basis coordinates of r."""
    k = len(s.radical)
    if k == 0:
        return BitMat.zeros(0, s.dim)
    rad = BitMat.from_cols(list(s.radical), nrows=s.dim)
    ech = row_reduce(rad)
    assert ech.rank == k
    return BitMat(s.dim, ech.transform.rows[:k])


def mixed_completion(s: SympSpace, proj: BitMat, radform: BitMat) -> MixedForm:
    """Complete a degenerate form to a nondegenerate one via radical choices.

    Requires proj idempotent with image exactly the radical, and radform
    symmetric of full rank k (arbitrary diagonal: over GF(2) a symmetric
    form need not be alternating, and for odd k it cannot be). The
    completed form is always nondegenerate.
    """
    k = len(s.radical)
    if proj.shape != (s.dim, s.dim):
        raise ValueError(f"projection shape {proj.shape} != {(s.dim, s.dim)}")
    if proj @ proj != proj:
        raise ValueError("projection is not idempotent")
    if not (s.gram @ proj).is_zero():
        raise ValueError("projection image not inside the radical")
    if rank(proj) != k:
        raise ValueError("projection image smaller than the radical")
    if radform.shape != (k, k):
        raise ValueError(f"radical form shape {radform.shape} != {(k, k)}")
    if not radform.is_symmetric():
        raise ValueError("radical form not symmetric")
    if rank(radform) != k:
        raise ValueError("radical form degenerate")
    coords = _radical_coords(s) @ proj
    completed = s.gram ^ (coords.transpose() @ radform @ coords)
    assert rank(completed) == s.dim, "mixed completion came out degenerate"
    return MixedForm(s, proj, radform, completed)


def default_completion_choices(s: SympSpace) -> tuple[BitMat, BitMat]:
    """Canonical (proj, radform): project along the hyperbolic planes of the
    cached symplectic basis onto its z-span, identity radical form."""
    sb = s.basis
    n, k = s.type
    if s.dim == 0:
        return BitMat.zeros(0, 0), BitMat.zeros(0, 0)
    t = BitMat.from_cols(sb.vectors(), nrows=s.dim)
    t_inv = inverse(t)
    assert t_inv is not None
    kill = BitMat(s.dim, [0] * (2 * n) + [1 << (2 * n + j) for j in range(k)])
    proj = t @ kill @ t_inv
    return proj, BitMat.identity(k)


def orthogonal_project(s: SympSpace, wbasis: list[BitVec], v: BitVec) -> tuple[BitVec, BitVec]:
    """Split v = v0 + vW with vW in W and v0 orthogonal to W.

    W is the span of wbasis. Defined only for v orthogonal to the radical
    of W (otherwise no such splitting exists and this raises). The W-part
    is computed from a symplectic basis of W as
    vW = sum_i <v, Y_i> X_i + <v, X_i> Y_i.
    """
    basis = echelon_basis(wbasis, dim=s.dim)
    sub = SympSpace(BitMat(len(basis), s.pairing_rows(basis)))

    def lift(coeff: BitVec) -> BitVec:
        out = BitVec.zero(s.dim)
        for t in coeff.support():
            out = out ^ basis[t]
        return out

    xs = [lift(c) for c in sub.basis.x]
    ys = [lift(c) for c in sub.basis.y]
    zs = [lift(c) for c in sub.basis.z]
    for z in zs:
        if s.form(v, z):
            raise ValueError("vector not orthogonal to the radical of W; no splitting exists")
    v_w = BitVec.zero(s.dim)
    for x, y in zip(xs, ys):
        if s.form(v, y):
            v_w = v_w ^ x
        if s.form(v, x):
            v_w = v_w ^ y
    return v ^ v_w, v_w
