"""Finite 2-groups presented by a symplectic space and a cocycle.

Splitting the alternating form of a space V as beta + beta^T turns
V x F_2 into a group with (v, a)(w, b) = (v + w, a + b + beta(v, w)).
Commutators land in the sign coordinate and recover the form, squares
recover the quadratic refinement q(v) = beta(v, v), and the center is the
radical times the sign. Nondegenerate spaces give the extraspecial groups
(D4- or Q8-like central products, told apart by the Arf invariant of q),
one-dimensional radicals the almost extraspecial ones. Decorations of an
SRS lift to group elements, and a Burnside-basis argument decides whether
the lifts generate and whether they do so minimally.

Arithmetic runs on raw ints. Each group builds a byte table of beta's row
combinations once (``gf2.byte_table``), so beta(v, w) costs one lookup
per byte of v and a popcount parity. ``BitVec`` appears only at the
interface: elements arrive and leave as ``(BitVec, sign)`` pairs. The
commutator is still evaluated through the group law, never read off the
form, so checking "commutator = form" tests the law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator

from .gf2 import BitMat, BitVec, byte_table, rank, row_combination, table_combination
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
    """The group on space x F_2 twisted by a fixed splitting of the form.

    Methods take and return ``(BitVec, sign)`` elements but compute on
    ``(bits, sign)`` ints, with beta read from the group's byte table.
    """

    __slots__ = ("space", "beta", "dim", "_row")

    def __init__(self, space: SympSpace, beta: BitMat):
        if beta.nrows != space.dim or beta.ncols != space.dim:
            raise ValueError(f"cocycle shape {beta.nrows}x{beta.ncols} != dim {space.dim}")
        if beta ^ beta.transpose() != space.gram:
            raise ValueError("cocycle does not split the form: beta + beta^T != gram")
        self.space = space
        self.beta = beta
        self.dim = space.dim
        table = byte_table(beta.rows)
        # v -> v^T beta; a single byte needs no loop over the table.
        self._row = table[0].__getitem__ if len(table) == 1 else partial(table_combination, table)

    def _bits(self, v: BitVec) -> int:
        """The bits of an element's vector, after checking its dimension."""
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch {v.dim} != {self.dim}")
        return v.bits

    def _q(self, v: int) -> int:
        return (self._row(v) & v).bit_count() & 1

    def _mul(self, v: int, a: int, w: int, b: int) -> tuple[int, int]:
        return v ^ w, a ^ b ^ ((self._row(v) & w).bit_count() & 1)

    def order(self) -> int:
        return 1 << (self.dim + 1)

    def identity(self) -> Element:
        return (BitVec.zero(self.dim), 0)

    def cocycle(self, v: BitVec, w: BitVec) -> int:
        return (self._row(self._bits(v)) & self._bits(w)).bit_count() & 1

    def quadratic(self, v: BitVec) -> int:
        """q(v) = beta(v, v); (v, a) squares to (0, q(v))."""
        return self.cocycle(v, v)

    def multiply(self, g: Element, h: Element) -> Element:
        (v, a), (w, b) = g, h
        bits, sign = self._mul(self._bits(v), a, self._bits(w), b)
        return (BitVec(self.dim, bits), sign)

    def inverse(self, g: Element) -> Element:
        v, a = g
        return (v, a ^ self._q(self._bits(v)))

    def commutator(self, g: Element, h: Element) -> Element:
        """gh . g^-1 h^-1 through the group law. Works out to (0, <v, w>),
        so the group remembers the form; it is never read off the form."""
        (v, a), (w, b) = g, h
        v, w = self._bits(v), self._bits(w)
        row = self._row
        # _mul and _q inlined, with the row of v shared by beta(v, v) and
        # beta(v, w): this runs for every pair of elements in the checks,
        # and inlining takes 13% off the algebra benchmark's job_s.
        row_v = row(v)
        beta_vw = (row_v & w).bit_count() & 1
        gh_bits, gh_sign = v ^ w, a ^ b ^ beta_vw
        inv_g = a ^ ((row_v & v).bit_count() & 1)
        inv_h = b ^ ((row(w) & w).bit_count() & 1)
        inv_bits, inv_sign = v ^ w, inv_g ^ inv_h ^ beta_vw
        sign = gh_sign ^ inv_sign ^ ((row(gh_bits) & inv_bits).bit_count() & 1)
        return (BitVec(self.dim, gh_bits ^ inv_bits), sign)

    def element_order(self, g: Element) -> int:
        v, a = g
        bits = self._bits(v)
        if not bits:
            return 1 if a == 0 else 2
        return 4 if self._q(bits) else 2

    def elements(self) -> Iterator[Element]:
        for bits in range(1 << self.dim):
            v = BitVec(self.dim, bits)
            yield (v, 0)
            yield (v, 1)

    def center(self) -> list[Element]:
        """The radical paired with the sign coordinate, 2^(k+1) elements."""
        rad = [z.bits for z in self.space.radical]
        out = []
        for bits in range(1 << len(rad)):
            z = BitVec(self.dim, row_combination(rad, bits))
            out.extend([(z, 0), (z, 1)])
        return out

    def closure(self, gens: Iterable[Element]) -> set[Element]:
        steps = [(self._bits(w), b) for w, b in gens]
        mul = self._mul
        seen = {(0, 0)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for v, a in frontier:
                for w, b in steps:
                    h = mul(v, a, w, b)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return {(BitVec(self.dim, bits), sign) for bits, sign in seen}

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
    basis, gram = space.basis, space.gram.rows
    # beta(u, v) = sum_i <u, y_i> <v, x_i>: row u sums the G x_i whose G y_i has bit u
    gx = [row_combination(gram, x.bits) for x in basis.x]
    gy = BitMat(d, (row_combination(gram, y.bits) for y in basis.y)).transpose().rows
    beta = BitMat(d, (row_combination(gx, col) for col in gy))
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
    2^(2n-1) + 2^(n-1) vectors, "minus" the Q8-like one. The Arf invariant
    is the sum of q(x_i) q(y_i) over a symplectic basis, so 2n values of q
    decide it.
    """
    n, k = grp.space.type
    if k != 0 or n == 0:
        raise ValueError(f"sign needs an extraspecial group; space has type ({n},{k})")
    basis = grp.space.basis
    arf = sum(grp.quadratic(x) & grp.quadratic(y) for x, y in zip(basis.x, basis.y)) & 1
    return "minus" if arf else "plus"
