"""The int kernels against their oracles at sizes past those of the unit
tests: the carried extension state, the column route of ``_eliminate``,
the greedy symplectic basis, single-node deletions and the commutator
truth table."""

from __future__ import annotations

import random

import pytest

import oracles
from conftest import random_graph_edges as gnp
from seeded import seeded_gnp
from symprs import extend, gf2
from symprs.extend import build_by_extension, extend_minimal
from symprs.gf2 import BitMat, BitVec, _eliminate, inverse, kernel_basis, rank, solve_mat
from symprs.graph import Graph, dynkin_graph
from symprs.grp2 import _commutator_mismatches, make_group
from symprs.srs import minimal_srs, quotient, restrict
from symprs.symplectic import SympSpace

pytestmark = pytest.mark.trusted_constructors


def test_carried_extension_state_stays_exact_at_dense_size(monkeypatch):
    # build_by_extension on a G(200, 1/2); the unit tests check every
    # carried split and D^-1, but only at their own small sizes
    g, _ = seeded_gnp(200)
    n = g.n
    steps = []
    step = extend.extend_minimal

    def recording(*args):
        out = step(*args)
        steps.append(out[0])
        return out

    monkeypatch.setattr(extend, "extend_minimal", recording)  # build_by_extension looks it up per call
    built = extend.build_by_extension(g)
    last = steps[-1]
    space, fresh = last.space, SympSpace(last.space.gram)
    xs, ys, _ = fresh._basis

    def unit_h(t):
        h = 0
        for x, y in zip(xs, ys):
            h ^= (x if y >> t & 1 else 0) ^ (y if x >> t & 1 else 0)
        return h

    checks = {
        "carried, not rebuilt": {"_pairs", "_radical"} <= vars(space).keys() and "_basis" not in vars(space)
        and "_duals" in vars(last),
        "_radical": space._radical == [v.bits for v in kernel_basis(space.gram)],
        "_hyperbolic": all(space._hyperbolic(1 << t) == unit_h(t) for t in range(n)),
        "_duals": BitMat(n, last._duals[0]).transpose() == inverse(last.deco) and last._duals[1] == 0,
        "type": built.type == space.type == fresh.type,
    }
    bad = [name for name, ok in checks.items() if not ok]
    assert not bad, f"build_by_extension on G(200, 1/2): wrong {bad}"


def test_near_identity_eliminations_take_the_column_route_and_stay_exact_at_dense_size(monkeypatch):
    # G(160, 1/2) extended by one node; the unit tests compare the two
    # routes only up to 64 x 64
    g, rng = seeded_gnp(160)
    n = g.n
    s = extend_minimal(minimal_srs(g), BitVec(n, rng.getrandbits(n)))[0]
    d, dim = s.deco, s.space.dim
    slow = oracles.row_reduce(d)
    assert slow.rank == dim == n + 1
    want = {
        "D": (list(slow.pivots), list(slow.rref.rows)),
        "[D | I_n]": (list(slow.pivots), [r | t << dim for r, t in zip(slow.rref.rows, slow.transform.rows)]),
        "inverse(D)": slow.transform,
        "solve_mat(D, D)": oracles.solve_mat(d, d),
    }
    calls = []
    transpose = gf2._transpose

    def counted(rows, ncols):
        calls.append(ncols)
        return transpose(rows, ncols)

    monkeypatch.setattr(gf2, "_transpose", counted)  # of the calls below, only the column route of _eliminate transposes
    rows, augmented = list(d.rows), [row | 1 << (dim + p) for p, row in enumerate(d.rows)]
    got, transposes = {}, {}
    for name, fn, args in [("D", _eliminate, (rows, dim)), ("[D | I_n]", _eliminate, (augmented, dim)),
                           ("inverse(D)", inverse, (d,)), ("solve_mat(D, D)", solve_mat, (d, d))]:
        calls.clear()
        out = fn(*args)
        got[name] = (out, args[0]) if fn is _eliminate else out
        transposes[name] = len(calls)
    bad = [name for name in want if got[name] != want[name]]
    loop = [name for name, count in transposes.items() if count != 1]
    assert not bad, f"differ from the oracle: {bad}"
    assert not loop, f"column route not taken once: {loop}"


def test_greedy_symplectic_basis_matches_the_candidate_list_oracle_at_large_sizes():
    # G(160, 1/2) and its extension, G(400, 1/64), D2047, A2000; the unit
    # tests compare it with the oracles only up to 200 coordinates
    g160, rng = seeded_gnp(160)
    extended = extend_minimal(minimal_srs(g160), BitVec(160, rng.getrandbits(160)))[0]
    rng = random.Random(400)
    g400 = Graph(400, [(i, j) for i in range(400) for j in range(i + 1, 400) if not rng.getrandbits(6)])
    grams = {
        "G(160, 1/2)": BitMat(160, g160.adj),
        "G(160, 1/2) extended by one node": extended.space.gram,
        "G(400, 1/64)": BitMat(400, g400.adj),
        "D2047": BitMat(2047, dynkin_graph("D", 2047).adj),
        "A2000": BitMat(2000, dynkin_graph("A", 2000).adj),
    }
    bad = []
    for name, gram in grams.items():
        space = SympSpace(gram)  # fresh, so its type is read off the greedy basis
        r = rank(gram)
        if space._basis != oracles.greedy_basis_rows(gram.rows):
            bad.append(f"{name}: _basis")
        if space.type != (r // 2, gram.nrows - r):
            bad.append(f"{name}: type {tuple(space.type)}, rank {r}")
    assert not bad, f"differ from the oracle or the rank: {bad}"


def test_single_node_deletions_stay_exact_at_a_larger_size():
    # G(60, 1/2) by extension, and a twin quotient: restrict to every node
    # but one reads one elimination of [D | I_n]; compare it with the
    # echelon oracle
    g, rng = seeded_gnp(60)
    built = build_by_extension(g)
    # node m + t is a non-adjacent twin of node t, so e_t + e_(m+t) is radical
    m, twins = 24, 12
    edges = gnp(rng, m)
    edges += [(u, m + t) for t in range(twins) for u in range(m) if (min(u, t), max(u, t)) in edges]
    edges += [(m + s, m + t) for t in range(twins) for s in range(t) if (s, t) in edges]
    twin = minimal_srs(Graph(m + twins, edges))
    quot, _ = quotient(twin, [BitVec(m + twins, 1 << t | 1 << (m + t)) for t in range(twins)])
    bad, taken = [], {"span kept": 0, "hyperplane": 0}
    for name, s in (("G(60, 1/2) built by extension", built), ("twin quotient", quot)):
        n = s.graph.n
        for v in range(n):
            nodes = [u for u in range(n) if u != v]
            got = restrict(s, nodes)
            if got != oracles.restrict(s, nodes):
                bad.append(f"{name}, node {v}")
            taken["span kept" if got.space is s.space else "hyperplane"] += 1
    missing = [case for case, count in taken.items() if not count]
    assert not bad, f"deletions differ from the oracle: {bad}"
    assert not missing, f"branch never taken: {missing}"


def test_verify_sweep_commutator_count_matches_the_per_pair_oracle_at_dimension_8():
    # A8, D8, E8; the unit tests compare the truth-table count with the
    # per-pair one only up to dimension 6
    spaces = {family: minimal_srs(dynkin_graph(family, 8)).space for family in "ADE"}
    groups = {}
    for family, space in spaces.items():
        groups[f"{family}8"] = make_group(space)
        groups[f"{family}8 twisted"] = make_group(space, BitVec(8, 0b10110101))
    swapped = make_group(spaces["A"])
    swapped.space = spaces["E"]  # the A8 law against the E8 form
    groups["A8 law, E8 form"] = swapped
    counts = {name: (_commutator_mismatches(grp), oracles.commutator_mismatches(grp)) for name, grp in groups.items()}
    bad = {name: pair for name, pair in counts.items() if pair[0] != pair[1]}
    assert not bad, f"truth-table and per-pair commutator counts differ: {bad}"
    assert counts["A8 law, E8 form"][0], "the swapped group counted no mismatch"
