"""The int kernels against the BitVec/BitMat oracles in ``oracles``.

Bit strings of vectors and matrix rows must equal the per-bit join.

Random alternating Gram matrices of dimension 0..40 and random, partly
invalid decoration families: form and cocycle values, the symplectic
basis, and SRS acceptance with its exact error message must all agree.
Form, completed form, cocycle and group law also run at the byte
boundaries of their tables (dimensions 0, 1, 7, 8, 9, 16 and 17), and a
vector of the wrong dimension must raise the same ``ValueError``.
The radical and symplectic basis kept as int rows must equal the kernel
and greedy-basis oracles, also on forms of rank at most 6 with twin rows,
whose radicals are large. The 2-group law on (bits, sign) ints and the
commutator rows of the ``srs verify`` sweep must agree with the BitVec
law, the byte table with ``row_combination``, and the stabilizer chain
with the oracle chain and with enumeration, both on their own column
arithmetic. Every rank, kernel, echelon basis, solve and inverse must
equal the two-list elimination it replaced. The default completion choices, the group's cocycle, the
orthogonal projection and every extension witness, read off the
symplectic basis, must equal the routes through basis-matrix inverses
and the completed Gram matrix. Restriction, quotients and radical
subspaces on int rows must equal the BitVec routes, and the double
extension as two single steps must equal its direct construction. The
default extension step must equal the explicit one with
``default_completion_choices``, and the decoration inverse that
``minimal_srs`` presets and each step carries must equal a fresh
``inverse``, and so must the hyperbolic pairs and radical rows each step
carries equal a fresh decomposition. The two identities that leave the default step one
``_hyperbolic`` call must hold on random, standard and extended spaces.
``_transpose`` must equal the column-by-column oracle on both of its
routes, and ``pairing_rows`` the pairwise one also on families whose
images take the string route. On malformed edge lists and bit strings,
``Graph``, ``_graph_from_json``, ``BitVec.from_string`` and
``BitMat.from_rows`` must raise the same exception and message as the
entry-by-entry checks kept as oracles.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from unittest import mock

from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import assert_carried_split
from symprs import extend
from symprs.cartan import cartan_datum, group_order, weyl_rep
from symprs.extend import build_by_extension, double_extend_extraspecial, extend_minimal
from symprs.gf2 import (
    BitMat,
    BitVec,
    _transpose,
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
from symprs.graph import Graph, _graph_from_json, dynkin_graph
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
    mixed_completion,
    orthogonal_project,
    random_completion_choices,
    standard_space,
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
def spaces(draw, max_dim: int = 40, min_dim: int = 0) -> SympSpace:
    """Zero, sparse (1/8), half, dense (7/8) or complete alternating forms."""
    dim = draw(st.integers(min_dim, max_dim))
    full = (1 << (dim * (dim - 1) // 2)) - 1
    a, b, c = (draw(st.integers(0, full)) for _ in range(3))
    upper = draw(st.sampled_from([0, a & b & c, a, a | b | c, full]))
    return SympSpace(_alternating(dim, upper))


def _low_rank(dim: int, pairs: list[tuple[int, int]], twins: list[tuple[int, int]]) -> SympSpace:
    """The form sum of (a b^T + b a^T) over ``pairs`` (vectors as ints), of
    rank at most twice their number, after each (s, t) in ``twins`` copies
    coordinate s of every a and b to coordinate t, so Gram row t is row s."""
    for s, t in twins:
        pairs = [tuple(v & ~(1 << t) | (v >> s & 1) << t for v in pair) for pair in pairs]
    rows = [0] * dim
    for a, b in pairs:
        for i in range(dim):
            rows[i] ^= (b if a >> i & 1 else 0) ^ (a if b >> i & 1 else 0)
    return SympSpace(BitMat(dim, rows))


@st.composite
def low_rank_spaces(draw, max_dim: int = 40) -> SympSpace:
    """Forms of rank at most 6 with twin rows: radicals of dimension up to 40."""
    dim = draw(st.integers(0, max_dim))
    vec = st.integers(0, (1 << dim) - 1)
    pairs = draw(st.lists(st.tuples(vec, vec), max_size=3))
    coord = st.integers(0, max(dim - 1, 0))
    twins = draw(st.lists(st.tuples(coord, coord), max_size=dim // 2)) if dim else []
    return _low_rank(dim, pairs, twins)


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


# dimensions on both sides of the byte boundaries of a byte table: none,
# part of one, exactly one, one and a bit, two, two and a bit
BYTE_EDGES = (0, 1, 7, 8, 9, 16, 17)


def _at_byte_edges(case):
    """``@example(case(dim))`` for every dimension in ``BYTE_EDGES``."""

    def decorate(test):
        for dim in BYTE_EDGES:
            test = example(case(dim))(test)
        return test

    return decorate


def _edge_space(dim: int, rng: random.Random) -> SympSpace:
    return SympSpace(_alternating(dim, rng.getrandbits(dim * (dim - 1) // 2)))


def _edge_vecs(dim: int, rng: random.Random, count: int) -> list[BitVec]:
    """The all-ones vector, which reaches the last byte, then random ones."""
    return [BitVec(dim, (1 << dim) - 1)] + [BitVec(dim, rng.getrandbits(dim)) for _ in range(count - 1)]


def _value_error(fn, *args) -> str:
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return "no error"


@st.composite
def form_cases(draw, max_dim: int = 40):
    """A space and eight pairs of its vectors."""
    space = draw(spaces(max_dim))
    return space, [(_vec(draw, space.dim), _vec(draw, space.dim)) for _ in range(8)]


def _edge_form_case(dim: int):
    rng = random.Random(dim)
    vecs = _edge_vecs(dim, rng, 16)
    return _edge_space(dim, rng), list(zip(vecs[::2], vecs[1::2]))


@FAST
@given(form_cases())
@_at_byte_edges(_edge_form_case)
def test_form_matches_oracle(case):
    space, pairs = case
    mixed = mixed_completion(space, *default_completion_choices(space))
    for v, w in pairs:
        assert space.form(v, w) == oracles.form(space, v, w)
        assert mixed.value(v, w) == oracles.dot(v, mixed.matrix @ w)
    v, bad = pairs[0][0], BitVec(space.dim + 1)
    for args in ((v, bad), (bad, v)):
        assert _value_error(space.form, *args) == _value_error(oracles.form, space, *args)
        assert _value_error(mixed.value, *args) == _value_error(oracles.form, space, *args)


def _splitting(space: SympSpace, sym: int, diag: int) -> BitMat:
    """beta = the strict upper part of the form plus the symmetric matrix
    with strict upper triangle ``sym`` and diagonal ``diag``."""
    d = space.dim
    upper = [r & ~((1 << (i + 1)) - 1) for i, r in enumerate(space.gram.rows)]
    rows = _alternating(d, sym).rows
    return BitMat(d, (u ^ s ^ (diag & 1 << i) for i, (u, s) in enumerate(zip(upper, rows))))


@st.composite
def cocycle_cases(draw, max_dim: int = 16):
    """A space, a splitting of its form and eight pairs of vectors."""
    space = draw(spaces(max_dim))
    d = space.dim
    sym = draw(st.integers(0, (1 << (d * (d - 1) // 2)) - 1))
    beta = _splitting(space, sym, draw(st.integers(0, (1 << d) - 1)))
    return space, beta, [(_vec(draw, d), _vec(draw, d)) for _ in range(8)]


def _edge_cocycle_case(dim: int):
    rng = random.Random(dim)
    space = _edge_space(dim, rng)
    beta = _splitting(space, rng.getrandbits(dim * (dim - 1) // 2), rng.getrandbits(dim))
    vecs = _edge_vecs(dim, rng, 16)
    return space, beta, list(zip(vecs[::2], vecs[1::2]))


@FAST
@given(cocycle_cases())
@_at_byte_edges(_edge_cocycle_case)
def test_cocycle_matches_oracle(case):
    space, beta, pairs = case
    grp = CocycleGroup(space, beta)
    for v, w in pairs:
        assert grp.cocycle(v, w) == oracles.cocycle(beta, v, w)
    v, bad = pairs[0][0], BitVec(space.dim + 1)
    for args in ((v, bad), (bad, v)):
        assert _value_error(grp.cocycle, *args) == f"dimension mismatch {space.dim + 1} != {space.dim}"


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
@given(low_rank_spaces())
@example(_low_rank(0, [], []))
@example(_low_rank(1, [(1, 1)], []))
@example(_low_rank(8, [(0b00000011, 0b10000100), (0b01010000, 0b00101000)], [(1, 6)]))
@example(_low_rank(9, [(0b100000001, 0b011000000)], [(0, 4), (7, 3)]))
@example(_low_rank(17, [(0x10001, 0x0f0f0), (0x00ff0, 0x1000f), (0x0aaaa, 0x15555)], [(16, 8), (2, 12)]))
def test_low_rank_radical_and_basis_rows_match_oracles(space):
    assert space._radical == [v.bits for v in oracles.kernel_basis(space.gram)]
    assert space._basis == tuple([v.bits for v in part] for part in oracles.greedy_basis(space))
    assert space.type == (len(space._basis[0]), len(space._radical))
    assert space.radical == space.basis.z


@st.composite
def transpose_inputs(draw) -> BitMat:
    """Matrices on both sides of ``_transpose``'s route choice: small ones,
    and 40-80 rows at densities from none to full, as identity-like rows,
    or with every row's top bit set."""
    big = draw(st.booleans())
    nrows = draw(st.integers(40, 80) if big else st.integers(0, 12))
    ncols = draw(st.integers(0, 80) if big else st.integers(0, 12))
    mask = (1 << ncols) - 1
    rand = st.integers(0, mask)
    kind = draw(st.sampled_from(["zero", "sparse", "half", "dense", "full", "identity", "top"]))
    if kind == "identity":
        rows = [1 << i & mask for i in range(nrows)]
    else:
        rows = []
        for _ in range(nrows):
            a, b, c = draw(rand), draw(rand), draw(rand)
            rows.append({"zero": 0, "sparse": a & b & c, "half": a, "dense": a | b | c,
                         "full": mask, "top": a | 1 << ncols >> 1}[kind])
    return BitMat(ncols, rows)


@FAST
@given(transpose_inputs())
@example(BitMat(0, []))
@example(BitMat(0, [0] * 40))
@example(BitMat(64, []))
@example(BitMat.identity(64))
@example(BitMat(40, [(1 << 40) - 1] * 40))
@example(BitMat(33, [1 << 32 | i for i in range(32)]))
def test_transpose_matches_entrywise_oracle(m):
    string_route = m.nrows * m.ncols >= 1024 and 8 * sum(r.bit_count() for r in m.rows) >= m.nrows * m.ncols
    event(f"string route: {string_route}")
    assert _transpose(m.rows, m.ncols) == [oracles.col(m, j).bits for j in range(m.ncols)]


@FAST
@given(st.data())
def test_pairing_rows_match_oracle(data):
    # 32 vectors of dimension 32 make 1024 entries, from which images that
    # set one bit in 8 are transposed as a string
    big = data.draw(st.booleans())
    space = data.draw(spaces(min_dim=32) if big else spaces())
    count = data.draw(st.integers(32, 48) if big else st.integers(0, 12))
    vecs = [_vec(data.draw, space.dim) for _ in range(count)]
    assert space.pairing_rows([v.bits for v in vecs]) == oracles.pairing_rows(space, vecs)


def _result(fn, *args):
    """What ``fn(*args)`` gives: ("ok", value), or the exception's type and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the comparison covers every exception, not just ValueError
        return type(exc), str(exc)


edge_entries = (
    st.lists(st.integers(0, 6), min_size=2, max_size=2)  # valid, self-loops, duplicates
    | st.lists(st.integers(-3, 9), min_size=2, max_size=2)  # out of range
    | st.lists(st.integers(0, 6), max_size=3)  # wrong length
    | st.lists(st.booleans(), min_size=2, max_size=2)
    | st.tuples(st.integers(0, 6), st.integers(0, 6))
    | st.sampled_from([None, 3, "01", "ab", [1.0, 2], [0, "1"], [0, 1 << 62], [10**20, 0],
                       [0, -10**20], {0: 1, 1: 2}, (0, 1, 2)])
)


def _containers(edges: list):
    """The same edges as a list, a tuple and a generator, each made fresh."""
    return [lambda: list(edges), lambda: tuple(edges), lambda: (e for e in edges)]


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 6), st.lists(edge_entries, max_size=8))
@example(3, [[0, 1], [1, 0]])
@example(3, [[0, 1], [2, 2]])
@example(3, [[0, 5], [1, 1]])
@example(3, [[-1, 0]])
@example(2, [[True, False]])
@example(0, [[0, 1]])
def test_graph_checks_match_per_edge_oracle(n, edges):
    for make in _containers(edges):
        assert _result(lambda: Graph(n, make()).adj) == _result(oracles.graph_rows, n, make())
    for payload in ({"nodes": n, "edges": edges}, {"nodes": n, "edges": tuple(edges)}):
        assert _result(lambda: _graph_from_json(payload).adj) == _result(oracles.graph_json_rows, payload)


bit_texts = (
    st.text(alphabet="01_ +-\n\t\uff11\u0663b", max_size=5)
    | st.sampled_from(["0_1", " 01", "01\n", "+1", "\uff11", "", "-0", "0b1", "1" * 70])
    | st.none() | st.integers(0, 3) | st.binary(max_size=2) | st.lists(st.integers(0, 2), max_size=3)
)


@settings(deadline=None, max_examples=300)
@given(bit_texts, st.lists(bit_texts, max_size=4), st.none() | st.integers(0, 3))
@example("0_1", [], None)
@example(" 01", ["01", " 01"], 2)
@example("01\n", ["01", "1"], None)
@example("+1", [[0, 2], "x"], None)
@example("\uff11", [], 0)
@example("", [""], 0)
@example(5, [[0, 1], "10"], None)
def test_bit_string_checks_match_per_character_oracle(text, rows, ncols):
    def parsed(t):
        v = BitVec.from_string(t)
        return v.dim, v.bits

    def parsed_by_oracle(t):
        bits = oracles.bit_string_bits(t)
        return len(t), bits

    def matrix(rows, ncols):
        m = BitMat.from_rows(rows, ncols)
        return m.ncols, m.rows

    assert _result(parsed, text) == _result(parsed_by_oracle, text)
    assert _result(matrix, rows, ncols) == _result(oracles.bit_matrix_rows, rows, ncols)


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


@st.composite
def law_cases(draw, max_dim: int = 10):
    """A space, an optional diagonal twist, eight pairs of elements and up
    to four generators."""
    space = draw(spaces(max_dim))
    d = space.dim
    diagonal = draw(st.none() | st.builds(BitVec, st.just(d), st.integers(0, (1 << d) - 1)))
    pairs = [(_element(draw, d), _element(draw, d)) for _ in range(8)]
    gens = [_element(draw, d) for _ in range(draw(st.integers(0, 4)))]
    return space, diagonal, pairs, gens


def _edge_law_case(dim: int):
    rng = random.Random(dim)
    space = _edge_space(dim, rng)
    elements = [(v, rng.getrandbits(1)) for v in _edge_vecs(dim, rng, 19)]
    return space, BitVec(dim, rng.getrandbits(dim)), list(zip(elements[:16:2], elements[1:16:2])), elements[16:]


@FAST
@given(law_cases())
@_at_byte_edges(_edge_law_case)
def test_group_law_matches_oracle(case):
    space, diagonal, pairs, gens = case
    d = space.dim
    grp = make_group(space, diagonal)
    law = oracles.CocycleLaw(grp.beta)
    for g, h in pairs:
        assert grp.multiply(g, h) == law.multiply(g, h)
        assert grp.inverse(g) == law.inverse(g)
        assert grp.commutator(g, h) == law.commutator(g, h)
        assert grp.element_order(g) == law.element_order(g)
    assert grp.closure(gens) == law.closure(gens)
    g, bad = pairs[0][0], (BitVec(d + 1), 0)
    calls = [(grp.multiply, g, bad), (grp.multiply, bad, g), (grp.commutator, g, bad),
             (grp.commutator, bad, g), (grp.inverse, bad), (grp.element_order, bad), (grp.closure, [bad])]
    for fn, *args in calls:
        assert _value_error(fn, *args) == f"dimension mismatch {d + 1} != {d}"


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
        got, expected = extend_minimal(s, lam, choices), oracles.extend_minimal(s, lam, choices)
        assert got == expected
        assert got[0].type == expected[0].type
        assert got[0].space._radical == expected[0].space._radical
        # the default step never builds P: it must match the explicit route
        # through default_completion_choices, system and witness
        assert extend_minimal(s, lam) == extend_minimal(s, lam, default_completion_choices(space))
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


def _assert_carried_inverse(s: SRS) -> None:
    """s holds the columns of D^-1 from the routine that built it, not from
    a fresh inversion, and they equal ``inverse(D)``, with D D^-1 = I."""
    assert "_deco_inverse" in vars(s)
    carried = BitMat(s.graph.n, s._deco_inverse).transpose()
    assert carried == inverse(s.deco)
    assert s.deco @ carried == BitMat.identity(s.graph.n)


@settings(deadline=None, max_examples=60)
@given(
    minimal_systems(),
    st.lists(st.integers(0, 2**24 - 1), max_size=6),
    st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.booleans()),
    st.randoms(use_true_random=False),
)
@example(minimal_srs(Graph(0)), [0, 1, 2, 0], (0, 0, False), random.Random(0))
@example(minimal_srs(Graph(4, [(0, 1), (1, 2), (2, 3)])), [5, 0, 31], (3, 9, True), random.Random(1))
@example(minimal_srs(Graph(5)), [0, 7, 2, 63], (1, 2, False), random.Random(2))
def test_extensions_carry_the_decoration_inverse(s, lams, double, rng):
    """``minimal_srs`` presets D^-1 = I, and along an ``extend_minimal``
    chain, through ``double_extend_extraspecial`` and at every step of
    ``build_by_extension`` in a random order, each new system carries D^-1
    equal to a fresh inversion. Indicator bits past the current node count
    are dropped."""
    _assert_carried_inverse(minimal_srs(s.graph))
    t = s
    for bits in lams:
        n = t.graph.n
        t, _ = extend_minimal(t, BitVec(n, bits & ((1 << n) - 1)))
        _assert_carried_inverse(t)
    if s.type.k == 0:
        n, mask = s.graph.n, (1 << s.graph.n) - 1
        lam_p, lam_q, edge = double
        out, _, _ = double_extend_extraspecial(s, BitVec(n, lam_p & mask), BitVec(n, lam_q & mask), edge)
        _assert_carried_inverse(out)
    steps = []

    def recording(*args):
        out = extend_minimal(*args)
        steps.append(out[0])
        return out

    order = list(range(s.graph.n))
    rng.shuffle(order)
    with mock.patch.object(extend, "extend_minimal", recording):
        build_by_extension(s.graph, order)
    assert len(steps) == s.graph.n
    for t in steps:
        _assert_carried_inverse(t)


@settings(deadline=None, max_examples=60)
@given(
    minimal_systems(),
    st.lists(st.tuples(st.integers(0, 2**24 - 1), st.none() | st.integers(0, 2**32)), max_size=6),
    st.tuples(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.booleans()),
    st.randoms(use_true_random=False),
)
@example(minimal_srs(Graph(0)), [(0, None), (1, 3), (2, None), (0, 5)], (0, 0, False), random.Random(0))
@example(minimal_srs(dynkin_graph("A", 4)), [(5, 1), (0, None), (31, 2)], (3, 9, True), random.Random(1))
@example(minimal_srs(Graph(5)), [(0, 4), (7, None), (2, 6), (63, 7)], (1, 2, False), random.Random(2))
def test_extensions_carry_the_symplectic_split(s, steps, double, rng):
    """Every space an extension step makes carries hyperbolic pairs and
    radical rows that ``assert_carried_split`` accepts: along an
    ``extend_minimal`` chain, each step with the default choices (seed
    None) or with ``random_completion_choices`` from the seed, through
    ``double_extend_extraspecial`` and in ``build_by_extension`` in a
    random order; the greedy basis of a fresh space, which that check
    reads H from, is the oracle's. Indicator bits past the current node
    count are dropped."""
    made = []
    attach = extend._attach

    def recording(*args):
        out = attach(*args)
        made.append(out[0].space)
        return out

    with mock.patch.object(extend, "_attach", recording):
        t = s
        for bits, seed in steps:
            choices = None if seed is None else random_completion_choices(random.Random(seed), t.space)
            n = t.graph.n
            t, _ = extend_minimal(t, BitVec(n, bits & ((1 << n) - 1)), choices)
        if s.type.k == 0:
            n, mask = s.graph.n, (1 << s.graph.n) - 1
            lam_p, lam_q, edge = double
            double_extend_extraspecial(s, BitVec(n, lam_p & mask), BitVec(n, lam_q & mask), edge)
        order = list(range(s.graph.n))
        rng.shuffle(order)
        build_by_extension(s.graph, order)
    assert len(made) == len(steps) + 2 * (s.type.k == 0) + s.graph.n
    for space in made:
        assert_carried_split(space)
        # the fresh greedy basis that the split is checked against is the oracle's
        greedy = oracles.greedy_basis(space)
        fresh = SympSpace(space.gram)
        assert fresh._pairs == ([x.bits for x in greedy.x], [y.bits for y in greedy.y])


@st.composite
def extended_spaces(draw):
    """The space at the end of an ``extend_minimal`` chain from a minimal
    system; indicator bits past the current node count are dropped."""
    s = draw(minimal_systems(max_nodes=8))
    for bits in draw(st.lists(st.integers(0, 2**16 - 1), max_size=6)):
        n = s.graph.n
        s, _ = extend_minimal(s, BitVec(n, bits & ((1 << n) - 1)))
    return s.space


@FAST
@given(
    st.one_of(spaces(), st.builds(standard_space, st.integers(0, 12), st.integers(0, 12)), extended_spaces()),
    st.data(),
)
def test_hyperbolic_identities_of_the_default_step(space, data):
    """The two identities that leave the default ``extend_minimal`` step
    one ``_hyperbolic`` call, with H = ``_hyperbolic`` and G the Gram
    matrix: H G is the identity on the image of H, so H(G H phi) = H phi,
    and H vanishes on every combination of the radical pivots."""
    hyperbolic, gram = space._hyperbolic, space.gram.rows
    pivots = [1 << (r.bit_length() - 1) for r in space._radical]
    for _ in range(8):
        phi = data.draw(st.integers(0, (1 << space.dim) - 1))
        gamma = data.draw(st.integers(0, (1 << len(pivots)) - 1))
        h = hyperbolic(phi)
        assert hyperbolic(row_combination(gram, h)) == h
        assert hyperbolic(row_combination(pivots, gamma)) == 0


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
    order = group_order(gens)
    assert order == oracles.stabilizer_chain_order(gens)
    if order <= 4096:
        assert oracles.group_order_bfs(gens) == order


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
    assert group_order(gens) == oracles.stabilizer_chain_order(gens)


@st.composite
def chain_generators(draw) -> list[BitMat]:
    """Up to 6 generators of dimension 2..9: transvections, coordinate
    swaps, random invertibles, the identity, and repeats of earlier ones.
    Sparse generators make the chain find residues partway through a
    level's verification and install them several levels deeper."""
    dim = draw(st.integers(2, 9))
    gens: list[BitMat] = []
    for kind in draw(st.lists(st.sampled_from("tsiev"), max_size=6)):
        rows = [1 << k for k in range(dim)]
        if kind == "i" or (kind == "e" and not gens):
            gens.append(BitMat(dim, rows))
        elif kind == "e":
            gens.append(draw(st.sampled_from(gens)))
        elif kind == "v":
            gens.append(draw(invertible(dim)))
        else:
            i, j = draw(st.permutations(range(dim)))[:2]
            if kind == "t":
                rows[i] |= 1 << j
            else:
                rows[i], rows[j] = rows[j], rows[i]
            gens.append(BitMat(dim, rows))
    return gens


@settings(deadline=None, max_examples=40)
@given(chain_generators())
# Residues found verifying one level stick two levels deeper: GL(4, 2)
# comes out short unless they act on every level in between.
@example([BitMat(4, rows) for rows in ((14, 10, 7, 5), (1, 2, 12, 8), (2, 5, 3, 14))])
def test_group_order_chain_matches_oracle_on_mixed_generators(gens):
    order = group_order(gens)
    dim = gens[0].ncols if gens else 0
    assert math.prod(2**dim - 2**i for i in range(dim)) % order == 0  # Lagrange in GL(dim, 2)
    # The oracle takes seconds per group past |GL(7, 2)| < 2^48, which only
    # dimensions 8 and 9 reach; every group below that is checked.
    if order < 2**48:
        assert order == oracles.stabilizer_chain_order(gens)


def test_group_order_chain_matches_oracle_on_weyl_images_above_one_byte():
    for family, rank in [("A", 9), ("D", 10), ("A", 11), ("D", 12)]:
        gens = list(weyl_rep(cartan_datum(family, rank)).generators)
        assert group_order(gens) == oracles.stabilizer_chain_order(gens), (family, rank)


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
