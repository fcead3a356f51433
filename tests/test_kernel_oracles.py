"""The int kernels against the BitVec/BitMat oracles in ``oracles``.

Bit strings of vectors and matrix rows must equal the per-bit join.

Random alternating Gram matrices of dimension 0..40 and random, partly
invalid decoration families: form and cocycle values, the symplectic
basis, and SRS acceptance with its exact error message must all agree.
The radical and symplectic basis kept as int rows must equal the kernel
and greedy-basis oracles. The 2-group law on (bits, sign) ints and the
commutator rows of the ``srs verify`` sweep must agree with the BitVec
law, the byte table with ``row_combination``, and the int stabilizer
chain with the BitMat chain and with enumeration. Every rank, kernel,
echelon basis, solve and inverse must equal the two-list elimination it
replaced. The default completion choices, the group's cocycle, the
orthogonal projection and every extension witness, read off the
symplectic basis, must equal the routes through basis-matrix inverses
and the completed Gram matrix. Restriction, quotients and radical
subspaces on int rows must equal the BitVec routes, and the double
extension as two single steps must equal its direct construction.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from symprs.cartan import cartan_datum, group_order, weyl_rep
from symprs.extend import build_by_extension, double_extend_extraspecial, extend_minimal
from symprs.gf2 import (
    BitMat,
    BitVec,
    bilinear,
    byte_table,
    echelon_basis,
    inverse,
    kernel_basis,
    rank,
    row_combination,
    row_reduce,
    solve,
    solve_mat,
    table_combination,
)
from symprs.graph import Graph
from symprs.grp2 import CocycleGroup, _commutator_mismatches, extraspecial_sign, make_group
from symprs.srs import (
    SRS,
    SRSError,
    _quotient_type_counts,
    enumerate_quotients,
    minimal_srs,
    quotient,
    radical_subspaces,
    restrict,
)
from symprs.symplectic import (
    SympSpace,
    default_completion_choices,
    orthogonal_project,
    random_completion_choices,
)

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
@given(st.integers(0, 200), st.lists(st.integers(0, (1 << 200) - 1), max_size=4))
@example(0, [])
@example(200, [])
def test_bit_strings_match_per_bit_oracle(dim, draws):
    ones = (1 << dim) - 1
    rows = [0, ones] + [r & ones for r in draws]
    strings = [oracles.bit_string(BitVec(dim, r)) for r in rows]
    assert [str(BitVec(dim, r)) for r in rows] == strings
    assert BitMat(dim, rows).to_strings() == strings


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
    assert bilinear(m.rows, v.bits, w.bits) == oracles.dot(v, m @ w)
    assert m.transpose().rows == tuple(oracles.col(m, j).bits for j in range(ncols))
    assert m.is_symmetric() == (
        nrows == ncols and all(m.entry(i, j) == m.entry(j, i) for i in range(nrows) for j in range(i))
    )


@FAST
@given(spaces())
def test_basis_matches_oracle(space):
    assert space.basis == oracles.greedy_basis(space)


@FAST
@given(spaces())
@example(SympSpace(BitMat.zeros(0, 0)))
def test_int_radical_and_basis_rows_match_oracles(space):
    assert space._radical == [v.bits for v in oracles.kernel_basis(space.gram)]
    assert space._basis == tuple([v.bits for v in part] for part in oracles.greedy_basis(space))
    assert space.type == (len(space._basis[0]), len(space._radical))


@FAST
@given(st.data())
def test_pairing_rows_match_oracle(data):
    space = data.draw(spaces())
    vecs = [_vec(data.draw, space.dim) for _ in range(data.draw(st.integers(0, 12)))]
    assert space.pairing_rows([v.bits for v in vecs]) == oracles.pairing_rows(space, vecs)


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
    # a D with one column too many
    matrix = BitMat(d + (tamper == "dim"), (v.bits for v in deco))
    fast = _outcome(lambda: SRS(graph, space, matrix))
    slow = _outcome(oracles.validate_pairwise, graph, space, matrix)
    assert fast == slow


def test_validation_names_first_bad_pair():
    # three nullvectors on a path 0-2-1: both (0, 2) and (1, 2) fail
    space = SympSpace(BitMat.zeros(3, 3))
    deco = BitMat.identity(3)
    graph = Graph(3, [(1, 2), (0, 2)])
    message = "nodes (0, 2): pairing 0 but adjacency 1"
    assert _outcome(lambda: SRS(graph, space, deco)) == message
    assert _outcome(oracles.validate_pairwise, graph, space, deco) == message


@FAST
@given(st.data())
def test_byte_table_matches_row_combination(data):
    width = data.draw(st.integers(0, 40))
    rows = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    table = byte_table(rows)
    assert len(table) == -(-len(rows) // 8) and all(len(c) == 256 for c in table)
    for _ in range(8):
        bits = data.draw(st.integers(0, (1 << len(rows)) - 1))
        assert table_combination(table, bits) == row_combination(rows, bits)


def _element(draw, dim: int):
    return (_vec(draw, dim), draw(st.integers(0, 1)))


@FAST
@given(st.data())
def test_group_law_matches_oracle(data):
    space = data.draw(spaces(max_dim=10))
    d = space.dim
    diagonal = data.draw(st.none() | st.builds(BitVec, st.just(d), st.integers(0, (1 << d) - 1)))
    grp = make_group(space, diagonal)
    law = oracles.CocycleLaw(grp.beta)
    for _ in range(8):
        g, h = _element(data.draw, d), _element(data.draw, d)
        assert grp.multiply(g, h) == law.multiply(g, h)
        assert grp.inverse(g) == law.inverse(g)
        assert grp.commutator(g, h) == law.commutator(g, h)
        assert grp.element_order(g) == law.element_order(g)
    gens = [_element(data.draw, d) for _ in range(data.draw(st.integers(0, 4)))]
    assert grp.closure(gens) == law.closure(gens)


@FAST
@given(st.data())
def test_sweep_law_matches_oracle(data):
    """``CocycleGroup._commutator_signs``, which the ``srs verify`` group
    sweep runs on every pair, against the BitVec law with q from the oracle,
    whose commutators must have the zero vector."""
    space = data.draw(spaces(max_dim=6))
    d = space.dim
    diagonal = data.draw(st.none() | st.builds(BitVec, st.just(d), st.integers(0, (1 << d) - 1)))
    grp = make_group(space, diagonal)
    law = oracles.CocycleLaw(grp.beta)
    q = [law.quadratic(BitVec(d, u)) for u in range(1 << d)]
    elements = list(grp.elements())
    for _ in range(4):
        v, a = data.draw(st.integers(0, (1 << d) - 1)), data.draw(st.integers(0, 1))
        got = [(BitVec.zero(d), sign) for sign in grp._commutator_signs(v, a, q)]
        assert got == [law.commutator((BitVec(d, v), a), h) for h in elements]
    assert _commutator_mismatches(grp) == 0


@FAST
@given(st.data())
def test_extraspecial_sign_matches_counting_oracle(data):
    space = data.draw(spaces(max_dim=10).filter(lambda s: s.type.k == 0 and s.type.n > 0))
    d = space.dim
    diagonal = data.draw(st.none() | st.builds(BitVec, st.just(d), st.integers(0, (1 << d) - 1)))
    grp = make_group(space, diagonal)
    assert extraspecial_sign(grp) == oracles.extraspecial_sign(grp.beta)


@FAST
@given(spaces())
def test_default_choices_and_cocycle_match_inverse_oracles(space):
    assert default_completion_choices(space) == oracles.default_completion_choices(space)
    assert make_group(space).beta == oracles.group_cocycle(space)


@st.composite
def minimal_systems(draw, max_nodes: int = 10):
    """The minimal system of a graph on up to ``max_nodes`` nodes, from
    ``minimal_srs`` or from ``build_by_extension``."""
    rows = draw(spaces(max_dim=max_nodes)).gram.rows
    n = len(rows)
    graph = Graph(n, [(p, q) for p in range(n) for q in range(p + 1, n) if rows[p] >> q & 1])
    return draw(st.sampled_from([minimal_srs, build_by_extension]))(graph)


@settings(deadline=None, max_examples=60)
@given(minimal_systems(max_nodes=7))
@example(minimal_srs(Graph(6)))
def test_quotient_type_counts_match_enumeration(s):
    """The Gaussian binomials against the types of the built classes."""
    n, k = s.type
    assume(k <= 6)
    assert _quotient_type_counts(n, k) == Counter(tuple(q.type) for q in enumerate_quotients(s.graph))


def _projection(project, *args):
    try:
        return project(*args)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=150)
@given(minimal_systems(), st.data())
def test_basis_routes_match_completed_matrix_oracles(s, data):
    space, n = s.space, s.graph.n
    assert default_completion_choices(space) == oracles.default_completion_choices(space)
    assert make_group(space).beta == oracles.group_cocycle(space)
    for _ in range(3):
        lam = _vec(data.draw, n)
        seed = data.draw(st.none() | st.integers(0, 2**32))
        choices = None if seed is None else random_completion_choices(random.Random(seed), space)
        assert extend_minimal(s, lam, choices) == oracles.extend_minimal(s, lam, choices)
        wbasis = [_vec(data.draw, n) for _ in range(data.draw(st.integers(0, n)))]
        v = _vec(data.draw, n)
        fast = _projection(orthogonal_project, space, wbasis, v)
        assert fast == _projection(oracles.orthogonal_project, space, wbasis, v)


@settings(deadline=None, max_examples=120)
@given(minimal_systems(max_nodes=8), st.data())
def test_srs_int_routes_match_bitvec_oracles(s, data):
    # every radical subspace, every quotient's single-node deletions and
    # its quotient by its whole radical; radicals up to dimension 4 keep
    # the sweep at 67 subspaces or fewer
    assume(len(s.space.radical) <= 4)
    subs = radical_subspaces(s)
    assert subs == oracles.radical_subspaces(s)
    n = s.graph.n
    for u in subs:
        q, proj = quotient(s, u)
        assert (q, proj) == oracles.quotient(s, u)  # SympMap equality compares matrices
        for v in range(n):
            nodes = [w for w in range(n) if w != v]
            assert restrict(q, nodes) == oracles.restrict(q, nodes)
        q_rad = list(q.space.radical)
        assert radical_subspaces(q) == oracles.radical_subspaces(q)
        assert quotient(q, q_rad) == oracles.quotient(q, q_rad)
    nodes = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    assert restrict(s, nodes) == oracles.restrict(s, nodes)
    # spanning sets that are dependent, or hold a vector outside the radical
    # or of the wrong dimension
    rad = [r.bits for r in s.space.radical]
    coeffs = data.draw(st.lists(st.integers(0, (1 << len(rad)) - 1), max_size=5))
    u_basis = [BitVec(s.space.dim, row_combination(rad, c)) for c in coeffs]
    if data.draw(st.booleans()):
        stray = _vec(data.draw, s.space.dim + data.draw(st.integers(0, 1)))
        u_basis.insert(data.draw(st.integers(0, len(u_basis))), stray)
    assert _projection(quotient, s, u_basis) == _projection(oracles.quotient, s, u_basis)


@settings(deadline=None, max_examples=120)
@given(minimal_systems(max_nodes=12).filter(lambda s: s.type.k == 0), st.data())
def test_double_extension_matches_direct_oracle(s, data):
    n = s.graph.n
    lam_p, lam_q = _vec(data.draw, n), _vec(data.draw, n)
    # the two edge values give the two outcomes of the dichotomy
    for pq_edge in (False, True):
        got = double_extend_extraspecial(s, lam_p, lam_q, pq_edge)
        assert got == oracles.double_extend_extraspecial(s, lam_p, lam_q, pq_edge)


@st.composite
def invertible(draw, dim: int) -> BitMat:
    """P L U for a permutation P and unit lower/upper triangular L, U: every
    invertible matrix has this form."""
    perm = draw(st.permutations(range(dim)))
    lower = [(1 << i) | draw(st.integers(0, (1 << i) - 1)) for i in range(dim)]
    upper = [(1 << i) | (draw(st.integers(0, (1 << dim) - 1)) >> (i + 1) << (i + 1))
             for i in range(dim)]
    return BitMat(dim, (1 << perm[i] for i in range(dim))) @ BitMat(dim, lower) @ BitMat(dim, upper)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_group_order_chain_matches_oracle_and_bfs(data):
    dim = data.draw(st.integers(0, 5))
    gens = data.draw(st.lists(invertible(dim), max_size=3))
    order = group_order(gens, method="chain")
    assert order == oracles.stabilizer_chain_order(gens)
    cap = 4096
    if order <= cap:
        assert group_order(gens, cap=cap) == order
    else:
        with pytest.raises(RuntimeError, match="cap"):
            group_order(gens, cap=cap)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_group_order_chain_matches_oracle_above_one_byte(data):
    # Small invertible blocks on scattered coordinates of a space of
    # dimension 9..12: the columns reach past the first byte, the group
    # stays small enough for the oracle.
    dim = data.draw(st.integers(9, 12))
    block = data.draw(st.integers(1, 5))
    coords = data.draw(st.permutations(range(dim)))[:block]
    gens = []
    for small in data.draw(st.lists(invertible(block), min_size=1, max_size=2)):
        rows = [1 << i for i in range(dim)]
        for i, row in enumerate(small.rows):
            rows[coords[i]] = sum(1 << coords[j] for j in range(block) if row >> j & 1)
        gens.append(BitMat(dim, rows))
    assert group_order(gens, method="chain") == oracles.stabilizer_chain_order(gens)


def test_group_order_chain_matches_oracle_on_weyl_images_above_one_byte():
    for family, rank in [("A", 9), ("D", 10), ("A", 11), ("D", 12)]:
        gens = list(weyl_rep(cartan_datum(family, rank)).generators)
        assert group_order(gens, method="chain") == oracles.stabilizer_chain_order(gens), (family, rank)


def _rows(draw, nrows: int, ncols: int) -> list[int]:
    return [draw(st.integers(0, (1 << ncols) - 1)) for _ in range(nrows)]


@st.composite
def matrices(draw, nrows: int | None = None, ncols: int | None = None, max_dim: int = 40) -> BitMat:
    """Random, sparse (1/8 of the bits) or low-rank (a product through a
    random inner dimension) matrices, so rank deficiency is common."""
    nrows = draw(st.integers(0, max_dim)) if nrows is None else nrows
    ncols = draw(st.integers(0, max_dim)) if ncols is None else ncols
    style = draw(st.sampled_from(["random", "sparse", "low rank"]))
    if style == "random":
        return BitMat(ncols, _rows(draw, nrows, ncols))
    if style == "sparse":
        a, b, c = (_rows(draw, nrows, ncols) for _ in range(3))
        return BitMat(ncols, (x & y & z for x, y, z in zip(a, b, c)))
    inner = draw(st.integers(0, min(nrows, ncols)))
    return BitMat(inner, _rows(draw, nrows, inner)) @ BitMat(ncols, _rows(draw, inner, ncols))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_elimination_matches_two_list_oracle(data):
    m = data.draw(matrices())
    slow = oracles.row_reduce(m)
    ech = row_reduce(m)
    assert (ech.rref, ech.pivots, ech.transform) == (slow.rref, slow.pivots, slow.transform)
    assert rank(m) == slow.rank
    assert kernel_basis(m) == oracles.kernel_basis(m)
    rows = [m.row(i) for i in range(m.nrows)]
    assert echelon_basis(rows, dim=m.ncols) == [slow.rref.row(i) for i in range(slow.rank)]

    # right-hand sides in the column space, anywhere, or mixed column by column
    k = data.draw(st.integers(0, 8))
    image = m @ BitMat(k, _rows(data.draw, m.ncols, k))
    noise = BitMat(k, _rows(data.draw, m.nrows, k))
    keep = data.draw(st.sampled_from([(1 << k) - 1, 0, data.draw(st.integers(0, (1 << k) - 1))]))
    b = BitMat(k, ((x & keep) | (y & ~keep) for x, y in zip(image.rows, noise.rows)))
    assert solve_mat(m, b) == oracles.solve_mat(m, b)
    for j in range(k):
        assert solve(m, oracles.col(b, j)) == oracles.solve(m, oracles.col(b, j))
    if keep == (1 << k) - 1:
        assert solve_mat(m, b) is not None


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_inverse_matches_two_list_oracle(data):
    dim = data.draw(st.integers(0, 40))
    m = data.draw(invertible(dim) | matrices(dim, dim))
    slow = oracles.row_reduce(m)
    assert inverse(m) == (slow.transform if slow.rank == dim else None)
