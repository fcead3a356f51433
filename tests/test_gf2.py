"""Linear algebra core: frozen small cases plus algebraic laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from symprs.gf2 import (
    BitMat,
    BitVec,
    echelon_basis,
    inverse,
    kernel_basis,
    rank,
    row_reduce,
    solve,
    solve_mat,
    subspaces,
)

PATH3 = BitMat.from_rows(["010", "101", "010"])

# Galois numbers: subspace counts of GF(2)^d for d = 0..6.
GALOIS = [1, 2, 5, 16, 67, 374, 2825]


def bitmats(max_rows: int = 8, max_cols: int = 8):
    return st.integers(0, max_rows).flatmap(
        lambda r: st.integers(0, max_cols).flatmap(
            lambda c: st.lists(
                st.integers(0, (1 << c) - 1), min_size=r, max_size=r
            ).map(lambda rows: BitMat(c, rows))
        )
    )


def bitvecs(dim: int):
    return st.integers(0, (1 << dim) - 1).map(lambda b: BitVec(dim, b))


# frozen by hand: the 3-path adjacency matrix reduces to two pivot rows

def test_path3_rank():
    assert rank(PATH3) == 2


def test_path3_rref():
    ech = row_reduce(PATH3)
    assert ech.rref.to_strings() == ["101", "010", "000"]
    assert ech.pivots == (0, 1)
    assert ech.transform @ PATH3 == ech.rref


def test_path3_kernel():
    assert kernel_basis(PATH3) == [BitVec.from_string("101")]


def test_path3_solve():
    x = solve(PATH3, BitVec.from_string("101"))
    assert x == BitVec.from_string("010")
    assert solve(PATH3, BitVec.from_string("110")) is None


def test_solve_rhs_dim_mismatch_raises():
    try:
        solve(PATH3, BitVec.from_string("10"))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_bitvec_wire_roundtrip():
    for text in ["", "0", "1", "1001", "0110010"]:
        assert str(BitVec.from_string(text)) == text


def test_bitvec_ops():
    v = BitVec.from_string("1101")
    w = BitVec.from_string("0111")
    assert (v ^ w) == BitVec.from_string("1010")
    assert list(v) == [v[0], v[1], v[2], v[3]] == [1, 1, 0, 1]
    assert v.pad(6) == BitVec.from_string("110100")


def test_matmul_associativity_small():
    a = BitMat.from_rows(["110", "011"])
    b = BitMat.from_rows(["10", "11", "01"])
    c = BitMat.from_rows(["1", "0"])
    assert (a @ b) @ c == a @ (b @ c)


def test_identity_and_inverse():
    m = BitMat.from_rows(["110", "011", "001"])
    minv = inverse(m)
    assert minv is not None
    assert minv @ m == BitMat.identity(3)
    assert m @ minv == BitMat.identity(3)
    assert inverse(PATH3) is None


@given(bitmats())
@settings(max_examples=200, deadline=None)
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@given(bitmats())
@settings(max_examples=200, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@given(bitmats())
@settings(max_examples=200, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert (m @ v).is_zero()


@given(bitmats())
@settings(max_examples=200, deadline=None)
def test_transform_witnesses_rref(m):
    ech = row_reduce(m)
    assert ech.transform @ m == ech.rref
    assert inverse(ech.transform) is not None


@given(bitmats(max_rows=6, max_cols=6).flatmap(
    lambda m: st.tuples(st.just(m), bitvecs(m.ncols))))
@settings(max_examples=200, deadline=None)
def test_solve_recovers_consistent_systems(mx):
    m, x = mx
    b = m @ x
    s = solve(m, b)
    assert s is not None
    assert m @ s == b


@given(bitmats(max_rows=6, max_cols=6))
@settings(max_examples=100, deadline=None)
def test_rref_is_basis_invariant(m):
    # permuting rows never changes the reduced echelon form of the row space
    ech = row_reduce(m)
    flipped = BitMat(m.ncols, reversed(m.rows))
    assert row_reduce(flipped).rref == ech.rref


def test_solve_mat_roundtrip():
    m = BitMat.from_rows(["110", "011", "111"])
    x = BitMat.from_rows(["10", "01", "11"])
    b = m @ x
    got = solve_mat(m, b)
    assert got is not None
    assert m @ got == b


def test_echelon_basis_canonical():
    v1 = BitVec.from_string("1100")
    v2 = BitVec.from_string("0110")
    assert echelon_basis([v1, v2]) == echelon_basis([v2, v1, v1 ^ v2])


def test_subspace_counts_are_galois_numbers():
    for dim, expected in enumerate(GALOIS[:6]):
        seen = list(subspaces(dim))
        assert len(seen) == expected
        assert len(set(seen)) == expected


def test_subspaces_are_echelon_bases():
    for basis in subspaces(4):
        if not basis:
            continue
        m = BitMat.from_rows(list(basis), ncols=4)
        ech = row_reduce(m)
        assert ech.rank == len(basis)
        assert [ech.rref.row(i) for i in range(len(basis))] == list(basis)


def test_zero_dimension_edge_cases():
    assert str(BitVec.zero(0)) == ""
    empty = BitMat.zeros(0, 3)
    assert rank(empty) == 0
    assert len(kernel_basis(empty)) == 3
    null = BitMat.zeros(3, 0)
    assert rank(null) == 0
    assert kernel_basis(null) == []


@pytest.mark.parametrize("cls, args, message", [
    (BitVec, (3, True), "bits True are not an int"),
    (BitVec, (3, 1.0), "bits 1.0 are not an int"),
    (BitVec, (True, 1), "dimension True is not an int"),
    (BitVec, (3.0,), "dimension 3.0 is not an int"),
    (BitMat, (2, [True]), "row True is not an int"),
    (BitMat, (2, [1, 1.0]), "row 1.0 is not an int"),
    (BitMat, (2.0, [1]), "column count 2.0 is not an int"),
    (BitMat, (False, []), "column count False is not an int"),
], ids=repr)
def test_constructors_take_only_ints(cls, args, message):
    # a bool is no int here, and nothing is coerced
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(*args)


@pytest.mark.parametrize("build, args, message", [
    (BitVec.from_bits, ([True, 0],), "entry True is not a bit"),
    (BitVec.from_bits, ([1.0],), "entry 1.0 is not a bit"),
    (BitVec.from_bits, ((b for b in [0, 1, 2]),), "entry 2 is not a bit"),
    (BitMat.from_rows, ([[0, 1], [False, 1]],), "entry False is not a bit"),
    (BitVec.basis, (3, True), "basis index True is not an int"),
    (BitVec.basis, (3, 1.0), "basis index 1.0 is not an int"),
], ids=["from_bits-bool", "from_bits-float", "from_bits-2", "from_rows-bool", "basis-bool", "basis-float"])
def test_bit_builders_take_only_ints(build, args, message):
    # a bool is no bit and no index here, and a float escapes as no TypeError
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(*args)
    assert BitVec.from_bits([1, 0, 1, 1]) == BitVec.from_string("1011")
    assert BitVec.from_bits([]) == BitVec.zero(0)
    assert BitVec.basis(3, 1) == BitVec.from_string("010")
