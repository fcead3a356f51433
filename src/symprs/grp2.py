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
per byte of v and a popcount parity; up to dimension 8 that lookup is the
table's own ``__getitem__``. ``BitVec`` appears only at the interface:
elements arrive and leave as ``(BitVec, sign)`` pairs. Every element and
vector that enters goes through one check, ``CocycleGroup._bits``: the
dimension must match and the sign must be the int 0 or 1. Each group
keeps one zero vector, and the identity and every commutator are its two
shared elements (0, 0) and (0, 1), so a commutator allocates nothing. The
commutator is evaluated through the group law, never read off the form,
so checking "commutator = form" tests the law. ``srs verify`` checks it
on every pair of elements with ``_commutator_mismatches``, on truth
tables: ints whose bit w is a value at the vector w. One call of
``CocycleGroup._commutator_signs`` gives the commutator signs of one g
with every h as two tables, one per sign of h (the law makes their
vectors zero). It evaluates every term of the law: beta(v, .) as the
parity table of v's beta row, q(w) as one table per group, and q(v + w)
as that table translated by v. The form side is the parity table of the
Gram row of v, not derived from beta, and ``bit_count`` of the XOR
counts the mismatches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .gf2 import BitMat, BitVec, _eliminate, _transpose, row_combination
from .srs import SRS
from .symplectic import SympSpace, _row_reader

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

    __slots__ = ("space", "beta", "dim", "_row", "_zero", "_sign_line")

    def __init__(self, space: SympSpace, beta: BitMat):
        if beta.nrows != space.dim or beta.ncols != space.dim:
            raise ValueError(f"cocycle shape {beta.nrows}x{beta.ncols} != dim {space.dim}")
        if beta ^ beta.transpose() != space.gram:
            raise ValueError("cocycle does not split the form: beta + beta^T != gram")
        self.space = space
        self.beta = beta
        self.dim = space.dim
        self._row = _row_reader(beta.rows)  # v -> v^T beta
        # one zero vector, and the elements (0, 0) and (0, 1) that every
        # identity and commutator returns
        self._zero = zero = BitVec.zero(self.dim)
        self._sign_line = ((zero, 0), (zero, 1))

    def _bits(self, v: BitVec, sign: int = 0) -> int:
        """The bits of a vector, or of an element (v, sign), after checking
        the dimension and that the sign is the int 0 or 1."""
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch {v.dim} != {self.dim}")
        # type() rather than isinstance(): bool is a subclass of int
        if type(sign) is not int or sign >> 1:
            raise ValueError(f"element sign {sign!r} is not 0 or 1")
        return v.bits

    def _q(self, v: int) -> int:
        return (self._row(v) & v).bit_count() & 1

    def _mul(self, v: int, a: int, w: int, b: int) -> tuple[int, int]:
        return v ^ w, a ^ b ^ ((self._row(v) & w).bit_count() & 1)

    def order(self) -> int:
        return 1 << (self.dim + 1)

    def identity(self) -> Element:
        return self._sign_line[0]

    def cocycle(self, v: BitVec, w: BitVec) -> int:
        return (self._row(self._bits(v)) & self._bits(w)).bit_count() & 1

    def quadratic(self, v: BitVec) -> int:
        """q(v) = beta(v, v); (v, a) squares to (0, q(v))."""
        return self.cocycle(v, v)

    def multiply(self, g: Element, h: Element) -> Element:
        (v, a), (w, b) = g, h
        bits, sign = self._mul(self._bits(v, a), a, self._bits(w, b), b)
        return (BitVec(self.dim, bits) if bits else self._zero, sign)

    def inverse(self, g: Element) -> Element:
        v, a = g
        return (v, a ^ self._q(self._bits(v, a)))

    def commutator(self, g: Element, h: Element) -> Element:
        """gh . g^-1 h^-1 through the group law. Works out to (0, <v, w>),
        so the group remembers the form; it is never read off the form."""
        (v, a), (w, b) = g, h
        v, w = self._bits(v, a), self._bits(w, b)
        row = self._row
        # _mul and _q inlined, with the row of v shared by beta(v, v) and
        # beta(v, w): this runs for every pair of elements in the checks.
        row_v = row(v)
        beta_vw = (row_v & w).bit_count() & 1
        gh = a ^ b ^ beta_vw  # gh = (v + w, gh)
        # g^-1 h^-1 = (v, a + q(v)) (w, b + q(w)) = (v + w, inv)
        inv = a ^ ((row_v & v).bit_count() & 1) ^ b ^ ((row(w) & w).bit_count() & 1) ^ beta_vw
        # (u, gh)(u, inv) = (0, gh + inv + beta(u, u)) for u = v + w
        u = v ^ w
        return self._sign_line[gh ^ inv ^ ((row(u) & u).bit_count() & 1)]

    def _commutator_signs(self, v: int, a: int, q: int) -> tuple[int, int]:
        """The signs of [g, h] = gh . g^-1 h^-1 through the group law, for
        g = (v, a) and every h = (w, b), as one truth table over w per b:
        bit w of entry b is the sign of [g, (w, b)]. Bit u of q is
        q(u) = beta(u, u), tabled once per group by the caller. gh and
        g^-1 h^-1 both have the vector v + w, so the law makes the vector
        of [g, h] zero by construction and only its sign is kept."""
        d = self.dim
        ones = (1 << (1 << d)) - 1
        beta_v = _parity_table(self._row(v), d)  # w -> beta(v, w)
        q_u = _translated(q, v, d)  # w -> q(v + w), for the vector of gh and g^-1 h^-1
        inv_a = a ^ (q >> v & 1)  # g^-1 = (v, a + q(v))
        # h = (w, 0); h = (w, 1) flips every sign of gh and of g^-1 h^-1
        gh = beta_v ^ (ones if a else 0)
        inv = q ^ beta_v ^ (ones if inv_a else 0)
        return gh ^ inv ^ q_u, (gh ^ ones) ^ (inv ^ ones) ^ q_u

    def element_order(self, g: Element) -> int:
        v, a = g
        bits = self._bits(v, a)
        if not bits:
            return 1 + a
        return 4 if self._q(bits) else 2

    def elements(self) -> Iterator[Element]:
        yield from self._sign_line
        for bits in range(1, 1 << self.dim):
            v = BitVec(self.dim, bits)
            yield (v, 0)
            yield (v, 1)

    def center(self) -> list[Element]:
        """The radical paired with the sign coordinate, 2^(k+1) elements."""
        # entry bits of ``span`` is row_combination(radical, bits), doubled
        # one radical vector at a time: one XOR per element
        span = [0]
        for r in self.space._radical:
            span += [z ^ r for z in span]
        out = list(self._sign_line)
        for bits in span[1:]:
            z = BitVec(self.dim, bits)
            out.extend([(z, 0), (z, 1)])
        return out

    def closure(self, gens: Iterable[Element]) -> set[Element]:
        steps = [(self._bits(w, b), b) for w, b in gens]
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


def _parity_table(row: int, dim: int) -> int:
    """The truth table of w -> <row, w> over the 2^dim vectors w, bit w
    its value, built by doubling: adding bit i to w flips the value
    exactly when row has bit i."""
    table, width = 0, 1
    while width >> dim == 0:
        table |= (table ^ (1 << width) - 1 if row & 1 else table) << width
        row >>= 1
        width <<= 1
    return table


def _translated(table: int, v: int, dim: int) -> int:
    """The truth table w -> table(v + w) over dim variables: for each bit
    i of v, swap every two neighbouring blocks of 2^i bits."""
    ones = (1 << (1 << dim)) - 1
    width = 1
    while v:
        if v & 1:
            keep = ones // ((1 << width) + 1)  # the bits w with w & width == 0
            table = (table & keep) << width | (table >> width) & keep
        v >>= 1
        width <<= 1
    return table


def _commutator_mismatches(grp: CocycleGroup) -> int:
    """How many ordered pairs of elements g = (v, a), h = (w, b) have a
    commutator sign, by the group law, other than <v, w>, with the form
    read off the Gram rows: neither side is derived from the other."""
    d, gram = grp.dim, grp.space.gram.rows
    q = 0
    for u in range(1 << d):
        q |= grp._q(u) << u
    bad = 0
    for v in range(1 << d):
        want = _parity_table(row_combination(gram, v), d)  # w -> <v, w>
        for a in (0, 1):
            for got in grp._commutator_signs(v, a, q):
                bad += (got ^ want).bit_count()
    return bad


def make_group(space: SympSpace, diagonal: BitVec | None = None) -> CocycleGroup:
    """The canonical group of a space, optionally twisted on the diagonal.

    The splitting is transported from the standard one (beta(x_i, y_i) = 1
    on a symplectic basis, zero elsewhere), so the canonical extraspecial
    groups come out on the D4 side. ``diagonal`` flips q at the marked
    coordinates without changing the form, reaching the other central
    products (Q8 variants, Z4 for the almost extraspecial line).
    """
    d = space.dim
    (xs, ys, _), gram = space._basis, space.gram.rows
    # beta(u, v) = sum_i <u, y_i> <v, x_i>: row u sums the G x_i whose G y_i has bit u
    gx = [row_combination(gram, x) for x in xs]
    gy = _transpose([row_combination(gram, y) for y in ys], d)
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
    return [(s.deco.row(p), 0) for p in range(s.deco.nrows)]


class BurnsideReport(NamedTuple):
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
    # the sign rides along at bit dim, and counts only in the elementary case
    images = [grp._bits(v, a) | a << grp.dim for v, a in gens]
    elementary = grp.space.gram.is_zero() and not any(r >> i & 1 for i, r in enumerate(grp.beta.rows))
    quotient_dim = grp.dim + elementary
    image_rank = len(_eliminate(images, quotient_dim))
    generates = image_rank == quotient_dim
    return BurnsideReport(generates, generates and len(images) == quotient_dim, quotient_dim, image_rank)


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
    return "minus" if _arf(grp) else "plus"


def _arf(grp: CocycleGroup) -> int:
    """Arf invariant sum_i q(x_i) q(y_i) of q on the hyperbolic pairs of
    the symplectic basis, 0 when there are none."""
    basis = grp.space.basis
    return sum(grp.quadratic(x) & grp.quadratic(y) for x, y in zip(basis.x, basis.y)) & 1
