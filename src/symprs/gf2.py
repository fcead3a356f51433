"""Exact linear algebra over GF(2) on bit-packed rows.

Vectors and matrix rows are Python ints used as bitsets: bit ``i`` holds
coordinate ``i``, XOR is vector addition, and AND + popcount parity is the
dot product, so every row operation touches whole machine words at once.
Every rank, kernel, solve and inverse is one call of ``_eliminate``. It
pivots on the lowest-index row and column first, so every derived object is
deterministic, and it carries right-hand sides or the identity along as
augmented columns above the pivoted ones. It has two routes to the same
rows and pivots, chosen by size and density as ``_transpose`` chooses
its own: a row loop, which scans the rows for each pivot column and suits
random matrices, and from 1024 entries on, when the pivoted columns hold
fewer than 4 set bits per row, a column route, which finds each pivot and
the rows it clears from one int per column and suits near-identity
matrices such as an SRS's decorations.

Bilinear forms are evaluated on the rows of their matrix, never through a
matrix-vector product: ``row_combination(rows, v)`` is the row vector
v^T M, the XOR of the rows that ``v`` selects, and ``bilinear`` pairs it
with ``w`` by one AND and a popcount parity. Callers that pair one vector
against many keep its row combination (its Gram image) and pay one word
operation per pairing. Callers that combine the rows of one fixed matrix
hundreds of thousands of times build its ``byte_table`` once and read each
combination with one lookup per byte of the selector.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "BitVec",
    "BitMat",
    "RowEchelon",
    "rank",
    "row_reduce",
    "kernel_basis",
    "solve",
    "solve_mat",
    "inverse",
    "echelon_basis",
    "subspaces",
    "row_combination",
    "bilinear",
    "byte_table",
    "table_combination",
]

# an instance without running __init__, for the trusted constructors
_new = object.__new__
# the one type a bit or a selected node may have: a bool is no int here
_INT = frozenset((int,))
_BITS = frozenset((0, 1))


class BitVec:
    """An immutable vector over GF(2) with a fixed dimension.

    The string form lists coordinate 0 first: ``str(BitVec.from_string("1001"))``
    round-trips, and ``v[i]`` is the i-th bit.

    Its slots are written only through their member descriptors' setters,
    bound once below the class (``_set_dim``, ``_set_bits``), since
    ``__setattr__`` refuses every write.
    """

    __slots__ = ("dim", "bits")

    def __init__(self, dim: int, bits: int = 0):
        if type(dim) is not int:
            raise ValueError(f"dimension {dim!r} is not an int")
        if type(bits) is not int:
            raise ValueError(f"bits {bits!r} are not an int")
        if dim < 0:
            raise ValueError(f"negative dimension {dim}")
        if bits < 0 or bits >> dim:
            raise ValueError(f"bits 0x{bits:x} out of range for dimension {dim}")
        _set_dim(self, dim)
        _set_bits(self, bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BitVec is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("BitVec is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, since
        # the default slot restore would go through __setattr__
        return BitVec, (self.dim, self.bits)

    @classmethod
    def zero(cls, dim: int) -> "BitVec":
        return cls(dim, 0)

    @classmethod
    def basis(cls, dim: int, i: int) -> "BitVec":
        """The i-th standard basis vector."""
        if type(i) is not int:
            raise ValueError(f"basis index {i!r} is not an int")
        if not 0 <= i < dim:
            raise ValueError(f"basis index {i} out of range for dimension {dim}")
        return cls(dim, 1 << i)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        """The vector with these entries, coordinate 0 first, each the int 0
        or 1. The checks and the packing are C-level passes; the loop that
        names the first culprit runs only on failure."""
        try:
            entries = list(bits)
        except TypeError:
            raise ValueError(f"bits {bits!r} are not an iterable") from None
        if not (_INT.issuperset(map(type, entries)) and _BITS.issuperset(entries)):
            b = next(b for b in entries if type(b) is not int or b not in _BITS)
            raise ValueError(f"entry {b!r} is not a bit")
        # each entry is one byte, two hex digits, and the second is the bit
        return cls(len(entries), int(bytes(entries[::-1]).hex()[1::2] or "0", 2))

    @classmethod
    def from_string(cls, text: str) -> "BitVec":
        """Parse the wire form: '1001' means coordinates 0 and 3 are set."""
        bits = _string_bits(text)
        return cls(len(text), bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.dim))

    def __len__(self) -> int:
        return self.dim

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} != {other.dim}")
        return BitVec(self.dim, self.bits ^ other.bits)

    __add__ = __xor__

    def is_zero(self) -> bool:
        return self.bits == 0

    def pad(self, dim: int) -> "BitVec":
        """Reinterpret in a larger space, new coordinates zero."""
        if dim < self.dim:
            raise ValueError(f"cannot pad dimension {self.dim} down to {dim}")
        return BitVec(dim, self.bits)

    def __str__(self) -> str:
        return _bit_string(self.bits, self.dim)

    def __repr__(self) -> str:
        return f"BitVec({str(self)!r})" if self.dim else "BitVec(0)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVec):
            return NotImplemented
        return self.dim == other.dim and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.dim, self.bits))


_set_dim = BitVec.dim.__set__
_set_bits = BitVec.bits.__set__


class BitMat:
    """An immutable matrix over GF(2), stored as one int bitset per row.

    Its slots are written only through their member descriptors' setters,
    bound once below the class (``_set_nrows``, ``_set_ncols``,
    ``_set_rows``), as ``BitVec``'s are; ``_trusted`` makes the instance
    with ``object.__new__``, bound at module level as ``_new``.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, ncols: int, rows: Iterable[int]):
        if type(ncols) is not int:
            raise ValueError(f"column count {ncols!r} is not an int")
        if ncols < 0:
            raise ValueError(f"negative column count {ncols}")
        try:
            row_tuple = tuple(rows)
        except TypeError:
            raise ValueError(f"rows {rows!r} are not an iterable") from None
        # the type test rides in the range loop: from 2 to 160 rows, that
        # measured faster than a separate C-level pass, {*map(type, rows)}
        for r in row_tuple:
            if type(r) is not int:
                raise ValueError(f"row {r!r} is not an int")
            if r < 0 or r >> ncols:
                raise ValueError(f"row 0x{r:x} out of range for {ncols} columns")
        _set_nrows(self, len(row_tuple))
        _set_ncols(self, ncols)
        _set_rows(self, row_tuple)

    @classmethod
    def _trusted(cls, ncols: int, rows: Iterable[int]) -> "BitMat":
        """``BitMat(ncols, rows)`` without the checks, for int rows the
        library built below bit ``ncols``."""
        m = _new(cls)
        row_tuple = tuple(rows)
        _set_nrows(m, len(row_tuple))
        _set_ncols(m, ncols)
        _set_rows(m, row_tuple)
        return m

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BitMat is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("BitMat is immutable")

    def __reduce__(self):
        # rebuilt through the constructor, as for BitVec
        return BitMat, (self.ncols, self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int] | str | BitVec], ncols: int | None = None) -> "BitMat":
        """The matrix with these rows, each a wire-form string, a ``BitVec``
        or a sequence of bits; a string row becomes an int directly."""
        try:
            each = iter(rows)
        except TypeError:
            raise ValueError(f"rows {rows!r} are not an iterable") from None
        dims, values = [], []
        for r in each:
            if isinstance(r, str):
                values.append(_string_bits(r))
                dims.append(len(r))
            else:
                v = r if isinstance(r, BitVec) else BitVec.from_bits(r)
                values.append(v.bits)
                dims.append(v.dim)
        if ncols is None:
            if not dims:
                raise ValueError("cannot infer column count from zero rows")
            ncols = dims[0]
        if dims.count(ncols) != len(dims):
            raise ValueError("ragged rows")
        return cls(ncols, values)

    @classmethod
    def from_cols(cls, cols: Sequence[BitVec], nrows: int | None = None) -> "BitMat":
        if nrows is None:
            if not cols:
                raise ValueError("cannot infer row count from zero columns")
            nrows = cols[0].dim
        if any(c.dim != nrows for c in cols):
            raise ValueError("ragged columns")
        return cls(len(cols), _transpose([c.bits for c in cols], nrows))

    @classmethod
    def identity(cls, n: int) -> "BitMat":
        if type(n) is not int:  # before range() reads it
            raise ValueError(f"size {n!r} is not an int")
        return cls(n, (1 << i for i in range(n)))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMat":
        return cls(ncols, (0,) * nrows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError((i, j))
        return (self.rows[i] >> j) & 1

    def row(self, i: int) -> BitVec:
        return BitVec(self.ncols, self.rows[i])

    def transpose(self) -> "BitMat":
        return BitMat(self.nrows, _transpose(self.rows, self.ncols))

    def __xor__(self, other: "BitMat") -> "BitMat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} != {other.shape}")
        return BitMat(self.ncols, (a ^ b for a, b in zip(self.rows, other.rows)))

    __add__ = __xor__

    def __matmul__(self, other: "BitMat | BitVec") -> "BitMat | BitVec":
        if isinstance(other, BitVec):
            if other.dim != self.ncols:
                raise ValueError(f"dimension mismatch {self.ncols} != {other.dim}")
            bits = 0
            for i, r in enumerate(self.rows):
                bits |= ((r & other.bits).bit_count() & 1) << i
            return BitVec(self.nrows, bits)
        if other.nrows != self.ncols:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        # row i of the product combines the rows of other that row i selects
        return BitMat(other.ncols, [row_combination(other.rows, r) for r in self.rows])

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and _transpose(self.rows, self.ncols) == list(self.rows)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def diagonal(self) -> BitVec:
        n = min(self.nrows, self.ncols)
        return BitVec(n, sum((self.rows[i] >> i & 1) << i for i in range(n)))

    def to_strings(self) -> list[str]:
        """Rows in wire form, one bit string per row."""
        return [_bit_string(r, self.ncols) for r in self.rows]

    def __str__(self) -> str:
        return "\n".join(self.to_strings())

    def __repr__(self) -> str:
        return f"BitMat({self.nrows}x{self.ncols})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMat):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))


_set_nrows = BitMat.nrows.__set__
_set_ncols = BitMat.ncols.__set__
_set_rows = BitMat.rows.__set__


def _bit_string(bits: int, dim: int) -> str:
    """The wire form of a vector: coordinate 0 first, one character per
    coordinate. ``format`` writes the high bit first, hence the reversal,
    and pads to at least one digit, hence dim 0 apart."""
    return format(bits, f"0{dim}b")[::-1] if dim else ""


def _string_bits(text: str) -> int:
    """The bits of a vector's wire form. The check comes first and takes one
    C-level pass: ``int`` alone would also accept '_', surrounding
    whitespace, a sign and non-ASCII digits."""
    if not (isinstance(text, str) and not text.strip("01")):
        raise ValueError(f"not a bit string: {text!r}")
    return int(text[::-1], 2) if text else 0


def _transpose(rows: Sequence[int], ncols: int) -> list[int]:
    """The columns of the matrix with these rows (each below bit ``ncols``), as rows.

    The bit loop costs one step per set bit. From 1024 entries on, a
    matrix with at least one bit set in 8 is transposed at C speed
    instead: each row is written as ``ncols`` binary digits, last row
    first, into one string, and column j is the strided slice of the
    digit for bit j, read by one ``int``. On one 2.1 GHz x86 core with
    Python 3.11, a random 161 x 161 matrix takes about 0.24 ms that way
    against 3.3 ms in the loop, a 40 x 40 one at density 1/8 about the
    same both ways, and the identity of size 161 0.30 ms against 0.06 ms;
    the loop stays faster below 16 x 16 even at density 1/2.
    """
    size = len(rows) * ncols
    if size < 1024 or 8 * sum(map(int.bit_count, rows)) < size:
        cols = [0] * ncols
        for i, r in enumerate(rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return cols
    spec = f"0{ncols}b"
    digits = "".join([format(r, spec) for r in reversed(rows)])
    return [int(digits[k::ncols], 2) for k in range(ncols - 1, -1, -1)]


def _gather(bits: int, positions: Sequence[int]) -> int:
    """Bit i of the result is bit ``positions[i]`` of ``bits``. A plain
    loop: a ``sum`` over a generator takes about twice as long."""
    out = 0
    for i, p in enumerate(positions):
        out |= (bits >> p & 1) << i
    return out


def _drop_bit(bits: int, i: int) -> int:
    """``bits`` without bit i: the bits above it move down by one."""
    low = (1 << i) - 1
    return (bits & low) | (bits >> 1 & ~low)


def row_combination(rows: Sequence[int], bits: int) -> int:
    """XOR of ``rows[i]`` over the set bits i of ``bits``: the row vector
    bits^T M of the matrix with these rows."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[low.bit_length() - 1]
        bits ^= low
    return acc


def bilinear(rows: Sequence[int], v: int, w: int) -> int:
    """v^T M w over GF(2) for the matrix with these rows, on raw ints."""
    return (row_combination(rows, v) & w).bit_count() & 1


def byte_table(rows: Sequence[int]) -> list[list[int]]:
    """Every row combination of each run of 8 rows, precomputed.

    Entry ``[k][b]`` is ``row_combination(rows[8k:8k+8], b)``: one list of
    256 ints per started byte of the row index, each filled from the entry
    without its lowest set bit. This is the one-level table of the
    Four-Russians method; ``table_combination`` then costs one lookup per
    byte instead of one XOR per set bit.
    """
    table = []
    for start in range(0, len(rows), 8):
        chunk = rows[start:start + 8]
        combos = [0] * 256
        for b in range(1, 1 << len(chunk)):
            low = b & -b
            combos[b] = combos[b ^ low] ^ chunk[low.bit_length() - 1]
        table.append(combos)
    return table


def table_combination(table: Sequence[Sequence[int]], bits: int) -> int:
    """``row_combination(rows, bits)`` read from ``byte_table(rows)``;
    ``bits`` may not select a row index past the table."""
    acc = 0
    for combos in table:
        acc ^= combos[bits & 255]
        bits >>= 8
    return acc


class RowEchelon(NamedTuple):
    """Result of Gaussian elimination: ``transform @ original == rref``.

    ``pivots`` lists the pivot column of each leading row in increasing
    order; ``transform`` is square and invertible.
    """

    rref: BitMat
    pivots: tuple[int, ...]
    transform: BitMat

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _eliminate(rows: list[int], ncols: int) -> list[int]:
    """Reduce ``rows`` in place to RREF on their low ``ncols`` bits and
    return the pivot columns.

    Scans columns left to right, picks the first available row as pivot,
    and clears the pivot column everywhere else, so the result is the
    unique RREF reached by a fixed elimination order. Bits at ``ncols`` and
    above are never pivoted on; they ride along as augmented columns.
    A column set in no row is skipped without a search (row XORs never
    set it), so zero rows cost nothing.

    Two routes give the same rows, row order and pivots. The row loop
    scans the rows for each pivot column. From 1024 entries on, when the
    pivoted columns hold fewer than 4 set bits per row, the column route
    runs instead. It keeps one int per pivoted column that marks the rows
    setting it, read off one ``_transpose``. Each pivot is the lowest
    marked row at or below r. A swap moves the marks of the columns where
    the two rows differ; the pivot row is XORed only into the other marked
    rows, and the marks of its columns take one XOR each. No step scans
    all rows, so the cost follows the set bits of the pivot rows: the
    route pays on matrices that fill in little, such as near-identity
    decoration matrices, and loses on random ones, which fill in.

    On one 2.1 GHz x86 core with Python 3.11, the 161 x 161 decoration
    matrix of an extended system (239 set bits) takes about 0.15 ms on the
    column route against 1.5 ms in the loop, a random 160 x 160 matrix at
    density 1/2 about 4.4 ms against 2.2 ms, and one with 5 set bits per
    row (density 1/32) 2.7 ms against 2.2 ms. Below 1024 entries the loop
    runs, so a tiny elimination pays one multiply and one compare for the
    choice.
    """
    if len(rows) * ncols >= 1024:
        mask = (1 << ncols) - 1
        pivoted = list(map(mask.__and__, rows))
        if sum(map(int.bit_count, pivoted)) < 4 * len(rows):
            marks = _transpose(pivoted, ncols)
            pivots: list[int] = []
            for c in range(ncols):
                r = len(pivots)
                below = marks[c] >> r << r
                if not below:
                    continue
                low = below & -below
                pivot = low.bit_length() - 1
                top = rows[pivot]
                if pivot != r:
                    # the rows trade places, and so do their marks wherever they differ
                    rows[pivot], rows[r] = rows[r], top
                    moved = low | 1 << r
                    diff = (top ^ rows[pivot]) & mask
                    while diff:
                        bit = diff & -diff
                        marks[bit.bit_length() - 1] ^= moved
                        diff ^= bit
                others = marks[c] ^ 1 << r
                if others:
                    targets = others
                    while targets:
                        bit = targets & -targets
                        rows[bit.bit_length() - 1] ^= top
                        targets ^= bit
                    bits = top & mask
                    while bits:
                        bit = bits & -bits
                        marks[bit.bit_length() - 1] ^= others
                        bits ^= bit
                pivots.append(c)
            return pivots
    live = 0
    for row in rows:
        live |= row
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        bit = 1 << c
        if not live & bit:
            continue
        pivot = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        top = rows[pivot]
        rows[pivot], rows[r] = rows[r], top
        for i, row in enumerate(rows):
            if i != r and row & bit:
                rows[i] = row ^ top
        pivots.append(c)
    return pivots


def row_reduce(m: BitMat) -> RowEchelon:
    """Reduced row echelon form with lowest-index pivoting; the transform
    is the augmented part of the eliminated ``[m | I]``."""
    rows = [row | 1 << (m.ncols + i) for i, row in enumerate(m.rows)]
    pivots = _eliminate(rows, m.ncols)
    mask = (1 << m.ncols) - 1
    return RowEchelon(BitMat(m.ncols, (r & mask for r in rows)), tuple(pivots),
                      BitMat(m.nrows, (r >> m.ncols for r in rows)))


def rank(m: BitMat) -> int:
    return len(_eliminate(list(m.rows), m.ncols))


def kernel_basis(m: BitMat) -> list[BitVec]:
    """Basis of the right kernel {v : m @ v = 0}, one vector per free column.

    Free columns are visited in increasing index order and each basis vector
    has a 1 in exactly one free position, so the output is canonical.
    """
    rows = list(m.rows)
    pivots = _eliminate(rows, m.ncols)
    free = set(range(m.ncols)).difference(pivots)
    return [BitVec(m.ncols, sum((rows[r] >> f & 1) << p for r, p in enumerate(pivots)) | 1 << f)
            for f in sorted(free)]


def _solve_rows(m: BitMat, right: Sequence[int]) -> list[int] | None:
    """Rows of the solution X of ``m @ X = B`` with free variables zero, from
    one elimination of ``[m | B]`` (B given by its rows); None if a nonzero
    augmented part is left below the rank."""
    rows = [row | extra << m.ncols for row, extra in zip(m.rows, right)]
    pivots = _eliminate(rows, m.ncols)
    if any(rows[len(pivots):]):
        return None
    out = [0] * m.ncols
    for r, p in enumerate(pivots):
        out[p] = rows[r] >> m.ncols
    return out


def solve(m: BitMat, b: BitVec) -> BitVec | None:
    """The particular solution of ``m @ x = b`` with free variables zero, or
    None if inconsistent. Dimension mismatches are contract violations and raise."""
    if b.dim != m.nrows:
        raise ValueError(f"rhs dimension {b.dim} != row count {m.nrows}")
    x = _solve_rows(m, [(b.bits >> i) & 1 for i in range(m.nrows)])
    return None if x is None else BitVec(m.ncols, sum(bit << j for j, bit in enumerate(x)))


def solve_mat(m: BitMat, b: BitMat) -> BitMat | None:
    """Solve ``m @ X = b`` by one elimination of ``[m | b]``; None if any
    column is inconsistent."""
    if b.nrows != m.nrows:
        raise ValueError(f"rhs rows {b.nrows} != lhs rows {m.nrows}")
    x = _solve_rows(m, b.rows)
    return None if x is None else BitMat(b.ncols, x)


def inverse(m: BitMat) -> BitMat | None:
    """Two-sided inverse of a square matrix, or None if singular."""
    if m.nrows != m.ncols:
        raise ValueError(f"not square: {m.shape}")
    x = _solve_rows(m, [1 << i for i in range(m.nrows)])
    return None if x is None else BitMat(m.nrows, x)


def echelon_basis(vectors: Sequence[BitVec], dim: int | None = None) -> list[BitVec]:
    """Canonical (reduced-echelon) basis of the span of ``vectors``."""
    if dim is None:
        if not vectors:
            raise ValueError("cannot infer dimension from zero vectors")
        dim = vectors[0].dim
    if any(v.dim != dim for v in vectors):
        raise ValueError("ragged rows")
    return [BitVec(dim, bits) for bits in _echelon_rows([v.bits for v in vectors], dim)]


def _echelon_rows(rows: Sequence[int], ncols: int) -> list[int]:
    """``echelon_basis`` of int rows: the nonzero rows of their RREF."""
    rows = list(rows)
    return rows[:len(_eliminate(rows, ncols))]


def subspaces(dim: int) -> Iterator[tuple[BitVec, ...]]:
    """Every subspace of GF(2)^dim as a tuple of reduced-echelon basis rows.

    Deterministic order: dimension ascending, pivot columns lexicographic,
    then free entries counting up in binary. The zero subspace is the empty
    tuple. Subspace counts grow as Galois numbers (dim 6 already gives
    2825), so callers should keep dim small.
    """
    return (tuple(BitVec(dim, bits) for bits in rows) for rows in _subspace_rows(dim))


def _subspace_rows(dim: int) -> Iterator[tuple[int, ...]]:
    """``subspaces`` with the basis rows as ints."""
    for r in range(dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            pivot_set = set(pivots)
            free = [[j for j in range(p + 1, dim) if j not in pivot_set] for p in pivots]
            nfree = sum(len(f) for f in free)
            for mask in range(1 << nfree):
                rows = []
                k = 0
                for i, p in enumerate(pivots):
                    bits = 1 << p
                    for j in free[i]:
                        bits |= ((mask >> k) & 1) << j
                        k += 1
                    rows.append(bits)
                yield tuple(rows)
