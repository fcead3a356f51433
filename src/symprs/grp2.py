"""Finite 2-groups presented by a symplectic space and a cocycle.

Splitting the alternating form of a space V as beta + beta^T turns
V x F_2 into a group with (v, a)(w, b) = (v + w, a + b + beta(v, w)).
Commutators land in the sign coordinate and recover the form, squares
recover the quadratic refinement q(v) = beta(v, v), and the center is the
radical times the sign. Nondegenerate spaces give the extraspecial groups
(D4- or Q8-like central products, told apart by the Arf count of q),
one-dimensional radicals the almost extraspecial ones. Decorations of an
SRS lift to group elements, and a Burnside-basis argument decides whether
the lifts generate and whether they do so minimally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .gf2 import BitMat, BitVec, bilinear, inverse, rank
from .srs import SRS
from .symplectic import SympSpace

__all__ = [
    "CocycleGroup",
    "Element",
    "make_group",
    "lift_decoration",
    "BurnsideReport",
    "burnside_check",
    "extraspecial_sign",
]

Element = tuple[BitVec, int]


class CocycleGroup:
    """The group on space x F_2 twisted by a fixed splitting of the form."""

    __slots__ = ("space", "beta")

    def __init__(self, space: SympSpace, beta: BitMat):
        if beta.nrows != space.dim or beta.ncols != space.dim:
            raise ValueError(f"cocycle shape {beta.nrows}x{beta.ncols} != dim {space.dim}")
        if beta ^ beta.transpose() != space.gram:
            raise ValueError("cocycle does not split the form: beta + beta^T != gram")
        self.space = space
        self.beta = beta

    @property
    def dim(self) -> int:
        return self.space.dim

    def order(self) -> int:
        return 1 << (self.dim + 1)

    def identity(self) -> Element:
        return (BitVec.zero(self.dim), 0)

    def cocycle(self, v: BitVec, w: BitVec) -> int:
        return bilinear(self.beta.rows, v.bits, w.bits)

    def quadratic(self, v: BitVec) -> int:
        """q(v) = beta(v, v); (v, a) squares to (0, q(v))."""
        return self.cocycle(v, v)

    def multiply(self, g: Element, h: Element) -> Element:
        (v, a), (w, b) = g, h
        return (v ^ w, a ^ b ^ self.cocycle(v, w))

    def inverse(self, g: Element) -> Element:
        v, a = g
        return (v, a ^ self.quadratic(v))

    def commutator(self, g: Element, h: Element) -> Element:
        # Works out to (0, <v, w>): the group remembers the form.
        lhs = self.multiply(self.multiply(g, h), self.multiply(self.inverse(g), self.inverse(h)))
        return lhs

    def element_order(self, g: Element) -> int:
        v, a = g
        if v.is_zero():
            return 1 if a == 0 else 2
        return 4 if self.quadratic(v) else 2

    def elements(self) -> Iterator[Element]:
        for bits in range(1 << self.dim):
            for a in (0, 1):
                yield (BitVec(self.dim, bits), a)

    def center(self) -> list[Element]:
        """The radical paired with the sign coordinate, 2^(k+1) elements."""
        rad = self.space.radical
        out = []
        for bits in range(1 << len(rad)):
            z = BitVec.zero(self.dim)
            for i in range(len(rad)):
                if bits >> i & 1:
                    z ^= rad[i]
            out.extend([(z, 0), (z, 1)])
        return out

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

    def __repr__(self) -> str:
        n, k = self.space.type
        return f"CocycleGroup(order={self.order()}, type=({n},{k}))"


def make_group(space: SympSpace, diagonal: BitVec | None = None) -> CocycleGroup:
    """The canonical group of a space, optionally twisted on the diagonal.

    The splitting is transported from the standard one (beta(x_i, y_i) = 1
    on a symplectic basis, zero elsewhere), so the canonical extraspecial
    groups come out on the D4 side. ``diagonal`` flips q at the marked
    coordinates without changing the form, reaching the other central
    products (Q8 variants, Z4 for the almost extraspecial line).
    """
    d = space.dim
    basis = space.basis
    n = len(basis.x)
    cols = BitMat.from_cols(list(basis.vectors()), nrows=d)
    back = inverse(cols)
    assert back is not None
    std = BitMat(d, tuple((1 << (n + i)) if i < n else 0 for i in range(d)))
    beta = back.transpose() @ std @ back
    if diagonal is not None:
        if diagonal.dim != d:
            raise ValueError(f"diagonal dimension {diagonal.dim} != dim {d}")
        beta = beta ^ BitMat(d, tuple((diagonal[i]) << i for i in range(d)))
    return CocycleGroup(space, beta)


def lift_decoration(s: SRS, grp: CocycleGroup) -> list[Element]:
    """Decorations as group elements with sign 0; pairwise commutators then
    reproduce the graph's adjacency."""
    if grp.space != s.space:
        raise ValueError("group and SRS live on different spaces")
    return [(v, 0) for v in s.deco]


@dataclass(frozen=True)
class BurnsideReport:
    """Whether a set of elements generates, and how redundantly.

    ``quotient_dim`` is the F_2-dimension of G modulo its Frattini
    subgroup, ``image_rank`` the rank of the elements' images there;
    generation needs image_rank == quotient_dim, minimality additionally
    as many elements as that dimension.
    """

    generates: bool
    minimal: bool
    quotient_dim: int
    image_rank: int


def burnside_check(grp: CocycleGroup, gens: Iterable[Element]) -> BurnsideReport:
    """Burnside basis theorem for these groups.

    Squares and commutators land in the sign coordinate, so the Frattini
    subgroup is the sign line whenever some square or commutator is
    nontrivial (G/Frattini = V), and trivial only for gram = 0 with an
    alternating cocycle (G elementary abelian on V x F_2).
    """
    gens = list(gens)
    d = grp.dim
    elementary = grp.space.gram.is_zero() and all(
        grp.beta.entry(i, i) == 0 for i in range(d)
    )
    if elementary:
        quotient_dim = d + 1
        images = BitMat.from_rows(
            [BitVec(d + 1, v.bits | (a << d)) for v, a in gens], ncols=d + 1
        )
    else:
        quotient_dim = d
        images = BitMat.from_rows([v for v, _ in gens], ncols=d)
    image_rank = rank(images)
    generates = image_rank == quotient_dim
    return BurnsideReport(generates, generates and len(gens) == quotient_dim, quotient_dim, image_rank)


def extraspecial_sign(grp: CocycleGroup) -> str:
    """Arf invariant of q as the classical plus/minus type.

    Only extraspecial groups (nondegenerate space) carry the dichotomy:
    "plus" is the D4-like central product where q vanishes on
    2^(2n-1) + 2^(n-1) vectors, "minus" the Q8-like one.
    """
    n, k = grp.space.type
    if k != 0 or n == 0:
        raise ValueError(f"sign needs an extraspecial group; space has type ({n},{k})")
    ones = sum(grp.quadratic(BitVec(grp.dim, bits)) for bits in range(1 << grp.dim))
    if ones == (1 << (2 * n - 1)) - (1 << (n - 1)):
        return "plus"
    if ones == (1 << (2 * n - 1)) + (1 << (n - 1)):
        return "minus"
    raise AssertionError(f"nondegenerate q must hit an Arf count, got {ones}")
