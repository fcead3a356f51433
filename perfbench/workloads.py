"""The three workloads: seeded inputs, one repetition of each, output checks.

Each workload class builds its inputs from the seed in ``__init__`` (the
set-up phase: graphs generated and graph files written) and runs one
repetition in ``run(rep)``: the library job through ``rep.op`` and the CLI
calls through ``rep.cli``. Every op carries a check of its output; a check
returns ``None`` when the output is right and a reason otherwise. Library
functions are always reached through their module attribute at call time
(``S.minimal_srs``, not a name bound at import), so a traced run sees them.
"""

from __future__ import annotations

import json
import math
import os
import random

import symprs  # noqa: F401  (loads every submodule)
from symprs import cartan as C
from symprs import extend as E
from symprs import gf2
from symprs import graph as G
from symprs import grp2 as R
from symprs import srs as S

DEFAULT_SEED = 0

# graph_classes is memoized; bound here, before a traced run wraps it
clear_graph_classes = G.graph_classes.cache_clear

# dense: sizes chosen so that big-matrix work dominates and one
# repetition stays a few seconds at this commit
DENSE_N = 160
DENSE_BUILD_N = 72
DENSE_TWIN_BASE = 96
DENSE_TWINS = 3

# census: every class up to CENSUS_MAX_N nodes; the heavier per-class
# sweeps (quotients, exhaustive extension, building) up to CENSUS_SMALL_N
CENSUS_MAX_N = 7
CENSUS_SMALL_N = 5
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)
CENSUS_QUOTIENT_GRAPHS = 3
CENSUS_QUOTIENT_BASE = 8

# algebra: the 16 simply laced spaces of dimension <= 8; dimension 8 takes
# ALGEBRA_ROWS seeded rows of the commutator table
ADE_SPACES = ([("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 9)]
              + [("E", 6), ("E", 7), ("E", 8)])
ALGEBRA_ROWS = 32
ALGEBRA_GROUP_N = 15
# Root counts, and orders of the mod-2 Weyl images: |W| divided by the
# kernel of reduction mod 2 (trivial for E6 and A12, {±1} for E7, E8, D10,
# C8, F4 and G2, all 2^8 sign changes for B8).
WEYL_CASES = {
    ("E", 6): (72, 51840),
    ("E", 7): (126, 1451520),
    ("E", 8): (240, 348364800),
    ("D", 10): (180, 928972800),
    ("A", 12): (156, 6227020800),
    ("B", 8): (128, 40320),
    ("C", 8): (128, 5160960),
    ("F", 4): (48, 576),
    ("G", 2): (12, 6),
}


def galois_total(k: int) -> int:
    """Number of subspaces of GF(2)^k."""
    total = 0
    for r in range(k + 1):
        num = den = 1
        for i in range(r):
            num *= (1 << (k - i)) - 1
            den *= (1 << (i + 1)) - 1
        total += num // den
    return total


def random_graph(rng: random.Random, n: int) -> G.Graph:
    """G(n, 1/2)."""
    return G.Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.getrandbits(1)])


def twin_graph(rng: random.Random, m: int, twins: int) -> tuple[G.Graph, list[int]]:
    """A G(m, 1/2) graph with nonsingular adjacency (m even, resampled until
    it is), plus ``twins`` nodes, node t a non-adjacent twin of a distinct
    old node u (same neighbourhood, other twins included). The radical is
    then exactly the span of the vectors e_u + e_t, which are returned."""
    base = random_graph(rng, m)
    while gf2.rank(base.adjacency()) < m:
        base = random_graph(rng, m)
    sources = rng.sample(range(m), twins)
    edges = list(base.edges)
    for t, u in enumerate(sources):
        edges += [(v, m + t) for v in base.neighbors(u)]
        edges += [(m + s, m + t) for s in range(t) if base.has_edge(sources[s], u)]
    return G.Graph(m + twins, edges), [(1 << u) | (1 << (m + t)) for t, u in enumerate(sources)]


def write_graph(workdir: str, name: str, g: G.Graph) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(G.graph_to_json(g), handle)
    return path


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def random_choices(rng: random.Random, space) -> tuple[gf2.BitMat, gf2.BitMat]:
    """A random valid (projection, radical form) pair, from public calls only."""
    d, rad = space.dim, space.radical
    k = len(rad)
    while True:
        cols = list(rad) + [gf2.BitVec(d, rng.getrandbits(d)) for _ in range(d - k)]
        basis = gf2.BitMat.from_cols(cols, nrows=d)
        back = gf2.inverse(basis)
        if back is None:
            continue
        kill = gf2.BitMat(d, [(1 << i) if i < k else 0 for i in range(d)])
        rows = [0] * k
        for i in range(k):
            for j in range(i, k):
                if rng.getrandbits(1):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        radform = gf2.BitMat(k, rows)
        if gf2.rank(radform) == k:
            return basis @ kill @ back, radform


def extension_step_ok(before, after, witness) -> str | None:
    n, k = before.type
    want = (n, k + 1) if witness.case == E.NEW_NULLVECTOR else (n + 1, k - 1)
    if tuple(after.type) != want:
        return f"case {witness.case} but type {tuple(before.type)} -> {tuple(after.type)}"
    return None


class Dense:
    """Seeded G(n, 1/2) graphs: big-matrix work in gf2, symplectic, srs, extend."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"dense:{seed}")
        self.big = random_graph(rng, DENSE_N)
        attach = sorted(rng.sample(range(DENSE_N), DENSE_N // 2))
        self.lam = gf2.BitVec(DENSE_N, sum(1 << v for v in attach))
        self.attach = ",".join(map(str, attach))
        self.build = random_graph(rng, DENSE_BUILD_N)
        self.order = list(range(DENSE_BUILD_N))
        rng.shuffle(self.order)
        self.twin, twin_bits = twin_graph(rng, DENSE_TWIN_BASE, DENSE_TWINS)
        self.twin_vectors = [gf2.BitVec(self.twin.n, b) for b in twin_bits]
        self.big_path = write_graph(workdir, "dense-big.json", self.big)

    def run(self, rep):
        n = DENSE_N
        s = rep.op("minimal", self._minimal, self._check_minimal)
        out = rep.op("extend", lambda: E.extend_minimal(s, self.lam), lambda r: (
            extension_step_ok(s, r[0], r[1])
            or (None if r[0].graph.adj[n] == self.lam.bits else "new node attached wrongly")))
        rep.op("json", lambda: self._round_trip(out[0]), lambda r: (
            None if r[1] == out[0] else "srs_from_json(srs_to_json(s)) != s"),
            digest=lambda r: canonical(r[0]))
        rep.op("build", lambda: E.build_by_extension(self.build, self.order), lambda r: (
            None if r.graph == self.build
            and S.srs_isomorphic(r, S.minimal_srs(self.build)) is not None
            else "build_by_extension not isomorphic to minimal_srs"),
            digest=lambda r: canonical(S.srs_to_json(r)))
        rep.op("quotient", self._quotient, self._check_quotient,
               digest=lambda r: canonical(S.srs_to_json(r[1])))
        adj = self.big.adjacency()
        rep.op("row_reduce", lambda: gf2.row_reduce(adj), lambda r: (
            None if r.transform @ adj == r.rref and r.rank % 2 == 0 else "bad echelon form"))
        rep.op("inverse", lambda: gf2.inverse(adj), lambda r: self._check_inverse(adj, r))
        rep.op("matmul", lambda: (adj @ adj, adj @ self.lam), lambda r: self._check_products(adj, r))

        rep.cli("type", ["type", "--graph", self.big_path], lambda p: (
            None if p["dim"] == n and 2 * p["type"][0] + p["type"][1] == n else "bad type payload"))
        rep.cli("minimal", ["minimal", "--graph", self.big_path], lambda p: (
            None if p["dim"] == n and p["minimal"] and len(p["deco"]) == n else "bad minimal payload"))
        rep.cli("extend", ["extend", "--graph", self.big_path, "--attach", self.attach],
                lambda p: None if p["srs"]["dim"] == n + 1 else "bad extend payload")

    def _minimal(self):
        s = S.minimal_srs(self.big)
        s.type  # the type is cached on first use: compute it inside the timed op
        return s

    @staticmethod
    def _check_minimal(s):
        n, k = s.type
        return None if s.is_minimal and 2 * n + k == DENSE_N else f"minimal type ({n}, {k})"

    @staticmethod
    def _round_trip(s):
        payload = S.srs_to_json(s)
        return payload, S.srs_from_json(payload)

    def _quotient(self):
        m = S.minimal_srs(self.twin)
        return m, S.quotient(m, self.twin_vectors)[0]

    @staticmethod
    def _check_quotient(r):
        m, q = r
        n = DENSE_TWIN_BASE // 2
        if (tuple(m.type), tuple(q.type)) != ((n, DENSE_TWINS), (n, 0)):
            return f"quotient of type {tuple(m.type)} by the twins has type {tuple(q.type)}"
        return None

    @staticmethod
    def _check_inverse(adj, inv):
        full = gf2.rank(adj) == DENSE_N
        if inv is None:
            return "singular matrix inverted" if full else None
        return None if adj @ inv == gf2.BitMat.identity(DENSE_N) else "A @ inverse(A) != I"

    def _check_products(self, adj, r):
        square, image = r
        parity = sum((row.bit_count() & 1) << i for i, row in enumerate(adj.rows))
        if not square.is_symmetric() or square.diagonal().bits != parity:
            return "A @ A not symmetric with degree parities on its diagonal"
        want = sum(((row & self.lam.bits).bit_count() & 1) << i for i, row in enumerate(adj.rows))
        return None if image.bits == want else "A @ v wrong"


class Census:
    """Every isomorphism class on <= 7 nodes: thousands of tiny calls,
    dominated by graph isomorphism and per-call overhead."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = random.Random(f"census:{seed}")
        self.quotient_paths = [
            write_graph(workdir, f"census-quotients-{i}.json",
                        twin_graph(rng, CENSUS_QUOTIENT_BASE, 2 + i)[0])
            for i in range(CENSUS_QUOTIENT_GRAPHS)
        ]

    def run(self, rep):
        clear_graph_classes()  # start every repetition cold
        classes = rep.op("classes", lambda: [G.graph_classes(n) for n in range(CENSUS_MAX_N + 1)],
                         lambda r: None if tuple(map(len, r)) == CLASS_COUNTS
                         else f"class counts {tuple(map(len, r))}")
        for n in range(CENSUS_MAX_N + 1):
            rep.op(f"classes{n}", lambda n=n: [
                (S.minimal_srs(g).type, S.coclique_bound_check(g), G.automorphisms(g))
                for g in classes[n]], lambda r, n=n: self._check_classes(n, r))
        for n in range(CENSUS_SMALL_N + 1):
            for i, g in enumerate(classes[n]):
                rng = random.Random(f"census:{self.seed}:{n}:{i}")
                order = list(range(n))
                rng.shuffle(order)
                tag = f"{n}.{i}"
                rep.op(f"quotients{tag}", lambda g=g: [
                    (q, [S.restrict(q, [u for u in range(g.n) if u != v]) for v in range(g.n)])
                    for q in S.enumerate_quotients(g)], self._check_quotients)
                rep.op(f"extend{tag}", lambda g=g, rng=rng: self._extend_all(g, rng),
                       self._check_extend_all)
                rep.op(f"build{tag}", lambda g=g, order=order: E.build_by_extension(g, order),
                       lambda r, g=g: None if S.srs_isomorphic(r, S.minimal_srs(g)) is not None
                       else "build_by_extension not isomorphic to minimal_srs")

        rep.cli("verify", ["verify", "--seed", str(self.seed)], lambda p: (
            None if p["ok"] and all(r["checks"] > 0 for r in p["suites"].values())
            else "verify failed or ran an empty suite"))
        for i, path in enumerate(self.quotient_paths):
            rep.cli(f"quotients{i}", ["quotients", "--summary", "--graph", path], lambda p, k=2 + i: (
                None if p["total"] == galois_total(k) == sum(c for *_, c in p["by_type"])
                and p["by_type"][0][:2] == [CENSUS_QUOTIENT_BASE // 2, k]
                else "quotient count off"))

    @staticmethod
    def _check_classes(n, rows):
        labeled = 0
        for (t, report, auts) in rows:
            if not (report.holds and report.n == t.n <= n - report.gamma):
                return f"coclique bound fails: type {tuple(t)}, gamma {report.gamma}"
            if auts[0] != tuple(range(n)) or math.factorial(n) % len(auts):
                return "automorphism list malformed"
            labeled += math.factorial(n) // len(auts)
        if labeled != 1 << (n * (n - 1) // 2):
            return f"orbit sizes sum to {labeled}, not the labelled graph count"
        return None

    @staticmethod
    def _check_quotients(rows):
        k = rows[0][0].type.k
        if len(rows) != galois_total(k):
            return f"{len(rows)} quotients for radical dimension {k}"
        for q, subs in rows:
            for sub in subs:
                step = (sub.type.n - q.type.n, sub.type.k - q.type.k)
                if step not in ((0, -1), (-1, 1)) and not (step == (0, 0) and not q.is_minimal):
                    return f"restriction type step {step}"
        return None

    @staticmethod
    def _extend_all(g, rng):
        s = S.minimal_srs(g)
        choices = random_choices(rng, s.space)
        lams = [gf2.BitVec(g.n, bits) for bits in range(1 << g.n)]
        return (s, [E.extend_minimal(s, lam) for lam in lams],
                [E.extend_minimal(s, lam, choices) for lam in lams])

    @staticmethod
    def _check_extend_all(r):
        s, default, chosen = r
        for (a, wa), (b, _) in zip(default, chosen):
            reason = extension_step_ok(s, a, wa)
            if reason or S.srs_isomorphic(a, b) is None:
                return reason or "completion choice changed the extension class"
        null = sum(w.case == E.NEW_NULLVECTOR for _, w in default)
        return None if null == 1 << (2 * s.type.n) else f"{null} nullvector cases"


class Algebra:
    """The simply laced spaces of dimension <= 8 as 2-groups, and Weyl
    images: grp2 arithmetic and the cartan stabilizer chain."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"algebra:{seed}")
        self.rows = sorted(rng.sample(range(1 << 8), ALGEBRA_ROWS))
        self.orbit_starts = {case: rng.getrandbits(16) for case in WEYL_CASES}
        self.group_path = write_graph(workdir, "algebra-group.json",
                                      random_graph(rng, ALGEBRA_GROUP_N))

    def run(self, rep):
        for family, rank in ADE_SPACES:
            rep.op(f"group.{family}{rank}", lambda f=family, r=rank: self._group(f, r),
                   self._check_group, digest=lambda r: canonical(S.srs_to_json(r[0])))
        for (family, rank), (root_count, order) in WEYL_CASES.items():
            rep.op(f"weyl.{family}{rank}", lambda f=family, r=rank: self._weyl(f, r),
                   lambda r, rc=root_count, o=order: self._check_weyl(r, rc, o))

        rep.cli("weyl", ["weyl", "--family", "E", "--rank", "8"], lambda p: (
            None if (p["root_count"], p["image_order"]) == WEYL_CASES[("E", 8)]
            else "E8 root count or image order off"))
        rep.cli("group", ["group", "--graph", self.group_path], lambda p: (
            None if p["order"] == 1 << (ALGEBRA_GROUP_N + 1) and p["lifts_generate"]
            and p["center_order"] == 1 << (p["type"][1] + 1) else "bad group payload"))
        rep.cli("ade", ["ade", "--family", "D", "--rank", "12"], lambda p: (
            None if p["type"] == [5, 2] and sum(c for *_, c in p["table"]) == galois_total(2)
            else "bad D12 table"))

    def _group(self, family, rank):
        s = C.ade_srs(family, rank)
        grp = R.make_group(s.space)
        d = s.space.dim
        zero = gf2.BitVec.zero(d)
        vectors = [gf2.BitVec(d, bits) for bits in range(1 << d)]
        rows = [vectors[b] for b in self.rows] if d == 8 else vectors
        mismatches = sum(grp.commutator((v, 0), (w, 1)) != (zero, s.space.form(v, w))
                         for v in rows for w in vectors)
        lifts = R.lift_decoration(s, grp)
        report = R.burnside_check(grp, lifts)
        closure = grp.closure(lifts)
        sign = R.extraspecial_sign(grp) if s.type.k == 0 else None
        return s, grp, mismatches, report, closure, sign

    @staticmethod
    def _check_group(r):
        s, grp, mismatches, report, closure, sign = r
        if mismatches:
            return f"{mismatches} commutators differ from the form"
        if report.generates != (len(closure) == grp.order()):
            return "Burnside check disagrees with the closure"
        if s.type.k == 0 and sign != "plus":
            return f"canonical extraspecial group has sign {sign}"
        return None

    def _weyl(self, family, rank):
        c = C.cartan_datum(family, rank)
        rep = C.weyl_rep(c)
        d = rep.srs.space.dim
        start = gf2.BitVec(d, self.orbit_starts[(family, rank)] % ((1 << d) - 1) + 1)
        return (rep, C.group_order(rep.generators, method="chain"), C.roots(c),
                C.weyl_orbit(rep, start), start)

    @staticmethod
    def _check_weyl(r, root_count, order):
        rep, found, roots, orbit, start = r
        if found != order or len(roots) != root_count:
            return f"image order {found}, {len(roots)} roots"
        members = set(orbit)
        if start not in members or any(m @ v not in members for m in rep.generators for v in orbit):
            return "Weyl orbit not closed"
        return None


WORKLOADS = {"dense": Dense, "census": Census, "algebra": Algebra}
