"""Spaces, types, bases, projections, completions."""

from __future__ import annotations

import random

import pytest

from conftest import random_space
from symprs import gf2, symplectic
from symprs.gf2 import BitMat, BitVec, kernel_basis, rank
from symprs.symplectic import (
    SpaceType,
    SympSpace,
    default_completion_choices,
    mixed_completion,
    orthogonal_project,
    random_completion_choices,
    standard_space,
)

PATH3 = SympSpace(BitMat.from_rows(["010", "101", "010"]))
K3 = SympSpace(BitMat.from_rows(["011", "101", "110"]))
K4 = SympSpace(BitMat.from_rows(["0111", "1011", "1101", "1110"]))
HYPERBOLIC = SympSpace(BitMat.from_rows(["01", "10"]))


def test_gram_validation():
    with pytest.raises(ValueError):
        SympSpace(BitMat.from_rows(["01", "00"]))  # not symmetric
    with pytest.raises(ValueError):
        SympSpace(BitMat.from_rows(["11", "10"]))  # nonzero diagonal
    with pytest.raises(ValueError):
        SympSpace(BitMat.from_rows(["010", "101"]))  # not square


def test_types_of_small_spaces():
    assert SympSpace(BitMat.zeros(2, 2)).type == SpaceType(0, 2)
    assert HYPERBOLIC.type == (1, 0)
    assert PATH3.type == (1, 1)
    assert K3.type == (1, 1)
    assert K4.type == (2, 0)
    assert standard_space(3, 2).type == (3, 2)
    assert SpaceType(3, 2).dim == 8
    assert SpaceType(2, 0).is_extraspecial
    assert SpaceType(2, 1).is_almost_extraspecial


def test_standard_space_radical_is_the_kernel_basis():
    # standard_space fills in its basis; it must be the greedy pass's, and its
    # z part the kernel elimination's basis
    for n in range(7):
        for k in range(5):
            s = standard_space(n, k)
            assert s._basis == SympSpace(s.gram)._basis, (n, k)
            assert s._radical == [v.bits for v in kernel_basis(s.gram)], (n, k)
            assert s == SympSpace(s.gram)
    with pytest.raises(ValueError, match="negative"):
        standard_space(-1, 3)


def test_space_decomposition_runs_no_elimination(monkeypatch):
    # type and radical are read off the greedy symplectic basis alone;
    # symplectic reaches an elimination only through gf2 routines
    def eliminate(rows, ncols):
        raise AssertionError("the space decomposition ran a GF(2) elimination")

    assert not hasattr(symplectic, "_eliminate")
    monkeypatch.setattr(gf2, "_eliminate", eliminate)
    rng = random.Random(20)
    spaces = [random_space(rng, dim) for dim in (0, 1, 2, 5, 9, 17, 40)]
    spaces += [SympSpace(BitMat.zeros(6, 6)), standard_space(3, 2), standard_space(0, 4)]
    for s in spaces:
        n, k = s.type
        assert 2 * n + k == s.dim
        assert len(s._radical) == k
        assert [v.bits for v in s.radical] == s._radical


def test_complete_graph_type_formula():
    # K_{2m} is nondegenerate, K_{2m+1} has a one-dimensional radical
    for n in range(2, 11):
        gram = BitMat(n, [((1 << n) - 1) ^ (1 << i) for i in range(n)])
        assert SympSpace(gram).type == (n // 2, n % 2)


def test_symplectic_basis_hyperbolic_plane():
    sb = HYPERBOLIC.basis
    assert sb.x == (BitVec.from_string("10"),)
    assert sb.y == (BitVec.from_string("01"),)
    assert sb.z == ()


def test_symplectic_basis_zero_form():
    s = SympSpace(BitMat.zeros(2, 2))
    assert s.basis.x == ()
    assert s.basis.z == (BitVec.from_string("10"), BitVec.from_string("01"))


def test_symplectic_basis_path3():
    sb = PATH3.basis
    assert sb.x == (BitVec.from_string("100"),)
    assert sb.y == (BitVec.from_string("010"),)
    assert sb.z == (BitVec.from_string("101"),)


def test_radical_is_gram_kernel():
    for s in [PATH3, K3, K4, standard_space(2, 3)]:
        n, k = s.type
        assert len(s.radical) == k
        for r in s.radical:
            assert (s.gram @ r).is_zero()


def check_block_form(s: SympSpace):
    sb = s.basis
    n, k = s.type
    assert len(sb.x) == n and len(sb.y) == n and len(sb.z) == k
    if s.dim == 0:
        return
    t = BitMat.from_cols([*sb.x, *sb.y, *sb.z], nrows=s.dim)
    assert rank(t) == s.dim
    assert t.transpose() @ s.gram @ t == standard_space(n, k).gram


def test_basis_reconstructs_block_form():
    rng = random.Random(7)
    for s in [PATH3, K3, K4, standard_space(0, 0)]:
        check_block_form(s)
    for dim in range(1, 11):
        for _ in range(10):
            check_block_form(random_space(rng, dim))


def test_orthogonal_project_path3():
    # frozen by hand: W the hyperbolic plane on the first two coordinates
    v0, vw = orthogonal_project(PATH3, [BitVec.from_string("100"), BitVec.from_string("010")], BitVec.from_string("001"))
    assert vw == BitVec.from_string("100")
    assert v0 == BitVec.from_string("101")


def test_orthogonal_project_requires_radical_orthogonality():
    with pytest.raises(ValueError):
        orthogonal_project(PATH3, [BitVec.from_string("100")], BitVec.from_string("010"))


def test_orthogonal_project_properties_bruteforce():
    rng = random.Random(19)
    for _ in range(40):
        dim = rng.randrange(1, 7)
        s = random_space(rng, dim)
        wbasis = [BitVec(dim, rng.getrandbits(dim)) for _ in range(rng.randrange(1, dim + 1))]
        span = {BitVec.zero(dim)}
        for b in wbasis:
            span |= {v ^ b for v in span}
        w_radical = [t for t in span if all(s.form(t, u) == 0 for u in span)]
        v = BitVec(dim, rng.getrandbits(dim))
        if any(s.form(v, t) for t in w_radical):
            with pytest.raises(ValueError):
                orthogonal_project(s, wbasis, v)
            continue
        v0, vw = orthogonal_project(s, wbasis, v)
        assert v0 ^ vw == v
        assert vw in span
        assert all(s.form(v0, u) == 0 for u in span)
        # uniqueness up to the radical of W
        valid = {w for w in span if all(s.form(v ^ w, u) == 0 for u in span)}
        assert valid == {vw ^ t for t in w_radical}


def test_default_completion_type11():
    proj, radform = default_completion_choices(PATH3)
    sb = PATH3.basis
    assert (proj @ sb.x[0]).is_zero()
    assert (proj @ sb.y[0]).is_zero()
    assert proj @ sb.z[0] == sb.z[0]
    assert radform == BitMat.identity(1)
    # frozen by hand from the canonical choices
    completed = mixed_completion(PATH3, proj, radform)
    assert completed.matrix == BitMat.from_rows(["010", "101", "011"])
    assert rank(completed.matrix) == 3


def test_mixed_completion_dim1():
    s = SympSpace(BitMat.zeros(1, 1))
    done = mixed_completion(s, BitMat.identity(1), BitMat.identity(1))
    assert done.matrix == BitMat.from_rows(["1"])


def test_mixed_completion_rejects_bad_choices():
    proj, radform = default_completion_choices(PATH3)
    with pytest.raises(ValueError):
        mixed_completion(PATH3, BitMat.identity(3), radform)  # image too big
    with pytest.raises(ValueError):
        mixed_completion(PATH3, proj, BitMat.zeros(1, 1))  # degenerate radform
    with pytest.raises(ValueError):
        mixed_completion(standard_space(1, 2), *reversed(default_completion_choices(standard_space(1, 2))))


def test_mixed_completion_nondegenerate_random_sweep():
    rng = random.Random(23)
    for _ in range(25):
        dim = rng.randrange(0, 9)
        s = random_space(rng, dim)
        for _ in range(10):
            proj, radform = random_completion_choices(rng, s)
            done = mixed_completion(s, proj, radform)
            assert rank(done.matrix) == dim
            # the completion agrees with the original form on ker(proj)
            for _ in range(4):
                v = BitVec(dim, rng.getrandbits(dim))
                w = BitVec(dim, rng.getrandbits(dim))
                v ^= proj @ v
                w ^= proj @ w
                assert done.value(v, w) == s.form(v, w)


def test_random_projections_reach_every_projection_onto_the_radical():
    # P3 plus an isolated node: dim 4, radical dimension 2, so 2^(2 * 2) = 16
    # projections onto the radical; brute force over all 4 x 4 matrices
    s = SympSpace(BitMat.from_rows(["0100", "1010", "0100", "0000"]))
    assert s.type == (1, 2)
    valid = set()
    for bits in range(1 << 16):
        proj = BitMat(4, [bits >> 4 * i & 15 for i in range(4)])
        if proj @ proj == proj and (s.gram @ proj).is_zero() and rank(proj) == 2:
            valid.add(proj)
    assert len(valid) == 16
    rng = random.Random(4)
    seen = set()
    for _ in range(200):
        proj, radform = random_completion_choices(rng, s)
        mixed_completion(s, proj, radform)
        seen.add(proj)
    assert seen == valid


def test_completed_form_definition():
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randrange(1, 8)
        s = random_space(rng, dim)
        proj, radform = default_completion_choices(s)
        done = mixed_completion(s, proj, radform)
        for _ in range(10):
            v = BitVec(dim, rng.getrandbits(dim))
            w = BitVec(dim, rng.getrandbits(dim))
            # <<v,w>> - <v,w> only depends on the radical projections
            delta = done.value(v, w) ^ s.form(v, w)
            pv, pw = proj @ v, proj @ w
            delta2 = done.value(pv, pw) ^ s.form(pv, pw)
            assert delta == delta2


def test_adjoining_to_a3_a_pairing_in_the_image_gives_c4():
    # e0 + e2 = G e1 meets no radical row, so the new coordinate is null
    # only after adding h = H(e0 + e2) = e1: the radical gains e1 + e3
    c4 = PATH3._adjoined(0b101)
    assert c4.gram == BitMat.from_rows(["0101", "1010", "0101", "1010"])
    assert c4._radical == [0b0101, 0b1010]
    assert c4.type == (1, 2)
