"""The Gram-row form kernel against the per-pair oracles in ``oracles``.

Random alternating Gram matrices of dimension 0..40 and random, partly
invalid decoration families: form and cocycle values, the symplectic
basis, and SRS acceptance with its exact error message must all agree.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from symprs.gf2 import BitMat, BitVec, bilinear
from symprs.graph import Graph
from symprs.grp2 import CocycleGroup
from symprs.srs import SRS, SRSError
from symprs.symplectic import SympSpace

FAST = settings(deadline=None, max_examples=80)


def _alternating(dim: int, upper: int) -> BitMat:
    """The alternating form whose strict upper triangle is read from ``upper``."""
    rows = [0] * dim
    k = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            if upper >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return BitMat(dim, rows)


@st.composite
def spaces(draw, max_dim: int = 40) -> SympSpace:
    """Zero, sparse (1/8), half, dense (7/8) or complete alternating forms."""
    dim = draw(st.integers(0, max_dim))
    full = (1 << (dim * (dim - 1) // 2)) - 1
    a, b, c = (draw(st.integers(0, full)) for _ in range(3))
    upper = draw(st.sampled_from([0, a & b & c, a, a | b | c, full]))
    return SympSpace(_alternating(dim, upper))


def _vec(draw, dim: int) -> BitVec:
    return BitVec(dim, draw(st.integers(0, (1 << dim) - 1)))


@FAST
@given(st.data())
def test_form_matches_oracle(data):
    space = data.draw(spaces())
    for _ in range(8):
        v, w = _vec(data.draw, space.dim), _vec(data.draw, space.dim)
        assert space.form(v, w) == oracles.form(space, v, w)


@FAST
@given(st.data())
def test_cocycle_matches_oracle(data):
    space = data.draw(spaces(max_dim=16))
    d = space.dim
    # beta = strict upper part of the form plus any symmetric matrix
    sym = _alternating(d, data.draw(st.integers(0, (1 << (d * (d - 1) // 2)) - 1)))
    diag = data.draw(st.integers(0, (1 << d) - 1))
    upper = [r & ~((1 << (i + 1)) - 1) for i, r in enumerate(space.gram.rows)]
    beta = BitMat(d, (u ^ s ^ (diag & 1 << i) for i, (u, s) in enumerate(zip(upper, sym.rows))))
    grp = CocycleGroup(space, beta)
    for _ in range(8):
        v, w = _vec(data.draw, d), _vec(data.draw, d)
        assert grp.cocycle(v, w) == oracles.cocycle(beta, v, w)


@FAST
@given(st.data())
def test_bilinear_on_rectangular_matrices(data):
    nrows = data.draw(st.integers(0, 12))
    ncols = data.draw(st.integers(0, 12))
    m = BitMat(ncols, data.draw(st.lists(st.integers(0, (1 << ncols) - 1),
                                         min_size=nrows, max_size=nrows)))
    v, w = _vec(data.draw, nrows), _vec(data.draw, ncols)
    assert bilinear(m.rows, v.bits, w.bits) == v.dot(m @ w)
    assert m.transpose().rows == tuple(c.bits for c in m.col_vecs())
    assert m.is_symmetric() == (
        nrows == ncols and all(m.entry(i, j) == m.entry(j, i) for i in range(nrows) for j in range(i))
    )


@FAST
@given(spaces())
def test_basis_matches_oracle(space):
    assert space.basis == oracles.greedy_basis(space)


@FAST
@given(st.data())
def test_pairing_rows_match_oracle(data):
    space = data.draw(spaces())
    vecs = [_vec(data.draw, space.dim) for _ in range(data.draw(st.integers(0, 12)))]
    rows = space.pairing_rows(vecs)
    assert rows == [sum(oracles.form(space, v, w) << q for q, w in enumerate(vecs)) for v in vecs]


def _outcome(check, *args):
    try:
        check(*args)
    except SRSError as exc:
        return str(exc)
    return "accepted"


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_validation_matches_oracle(data):
    space = data.draw(spaces())
    d = space.dim
    n = data.draw(st.one_of(st.integers(0, d + 3), st.integers(d, d + 3)))
    deco = [_vec(data.draw, d) for _ in range(n)]
    if data.draw(st.integers(0, 3)):
        # seed standard basis vectors so that most families span
        for i in range(min(n, d)):
            deco[i] = BitVec.basis(d, i)
    edges = [(p, q) for p in range(n) for q in range(p + 1, n) if space.form(deco[p], deco[q])]
    node = st.integers(0, max(n - 1, 0))
    for _ in range(data.draw(st.integers(0, 2))):
        p, q = data.draw(node), data.draw(node)
        if p != q:
            e = (min(p, q), max(p, q))
            edges = [x for x in edges if x != e] if e in edges else edges + [e]
    graph = Graph(n, edges)
    tamper = data.draw(st.sampled_from(["none", "none", "count", "dim"]))
    if tamper == "count" and n:
        deco = deco[:-1]
    elif tamper == "dim" and n:
        p = data.draw(st.integers(0, n - 1))
        deco[p] = BitVec(d + 1, deco[p].bits)
    fast = _outcome(lambda: SRS(graph, space, tuple(deco)))
    slow = _outcome(oracles.validate_pairwise, graph, space, deco)
    assert fast == slow


def test_validation_names_first_bad_pair():
    # three nullvectors on a path 0-2-1: both (0, 2) and (1, 2) fail
    space = SympSpace(BitMat.zeros(3, 3))
    deco = [BitVec.basis(3, i) for i in range(3)]
    graph = Graph(3, [(1, 2), (0, 2)])
    message = "nodes (0, 2): pairing 0 but adjacency 1"
    assert _outcome(lambda: SRS(graph, space, tuple(deco))) == message
    assert _outcome(oracles.validate_pairwise, graph, space, deco) == message
