"""Self-verification sweeps behind ``srs verify``.

Each sweep re-runs one structural result over every small case: the
restriction trichotomy, rebuilding by extension, Weyl intertwining mod 2,
the 2-group realization and the coclique bound. A sweep is a generator
that yields one item per check: ``None`` if the check passed, its failure
message if it failed (a tuple of messages if it failed in two ways). It
may also yield an int, that many passed checks at once, as the group
sweep does for the commutators of all pairs of elements it counted in
one pass. ``run`` does all the counting and reporting.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

from .cartan import MAX_ROOTS, cartan_datum, parity_graph, roots, weyl_rep
from .extend import NEW_NULLVECTOR, build_by_extension, double_extend_extraspecial, extend_minimal
from .gf2 import BitVec
from .graph import MAX_CLASS_NODES, Graph, dynkin_graph, graph_classes
from .grp2 import _commutator_mismatches, burnside_check, extraspecial_sign, lift_decoration, make_group
from .srs import coclique_bound_check, enumerate_quotients, minimal_srs, restrict, srs_isomorphic
from .symplectic import random_completion_choices

__all__ = ["SUITES", "run"]

SUITES = ("restriction", "extension", "weyl", "group", "coclique")

# the weyl sweep runs A, B, C and D up to max_rank; B_r and C_r have the
# most roots of these, 2 r^2
_MAX_RANK = math.isqrt(MAX_ROOTS // 2)


def _restriction(max_nodes: int, cases: Counter):
    for size in range(max_nodes + 1):
        for g in graph_classes(size):
            for s in enumerate_quotients(g):
                n0, k0 = s.type
                for v in range(g.n):
                    sub = restrict(s, [u for u in range(g.n) if u != v])
                    step = (sub.type.n - n0, sub.type.k - k0)
                    if step == (0, -1):
                        cases["nullvector_dropped"] += 1
                    elif step == (-1, 1):
                        cases["hyperbolic_collapsed"] += 1
                    elif step == (0, 0) and not s.is_minimal:
                        cases["type_kept"] += 1
                    else:
                        yield (
                            f"graph {g.edge_list()} class ({n0},{k0}) node {v}: "
                            f"type step {step}, minimal={s.is_minimal}"
                        )
                        continue
                    yield None


def _extension(max_nodes: int, trials: int, rng: random.Random):
    # Any insertion order rebuilds the minimal class.
    for size in range(max_nodes + 1):
        for g in graph_classes(size):
            orders = [list(range(size)), list(range(size - 1, -1, -1))]
            shuffled = list(range(size))
            rng.shuffle(shuffled)
            orders.append(shuffled)
            for order in orders:
                built = build_by_extension(g, order)
                ok = built.graph == g and srs_isomorphic(built, minimal_srs(g)) is not None
                yield None if ok else f"graph {g.edge_list()} order {order}: wrong class"
    # Exhaustive single extensions on small graphs: round trip and the
    # count of indicators that only add a nullvector.
    for size in range(min(max_nodes, 4) + 1):
        for g in graph_classes(size):
            s = minimal_srs(g)
            n0 = s.type.n
            null = 0
            for bits in range(1 << size):
                lam = BitVec(size, bits)
                out, wit = extend_minimal(s, lam)
                null += wit.case == NEW_NULLVECTOR
                ok = restrict(out, range(size)) == s
                yield None if ok else f"graph {g.edge_list()} lam {lam}: round trip broken"
            ok = null == 1 << (2 * n0)
            yield None if ok else f"graph {g.edge_list()}: {null} nullvector cases, not 2^{2 * n0}"
    # Completion choices never change the isomorphism class.
    probe = minimal_srs(dynkin_graph("D", 6))
    lam = BitVec.from_string("010001")
    base, _ = extend_minimal(probe, lam)
    for _ in range(trials):
        other, _ = extend_minimal(probe, lam, random_completion_choices(rng, probe.space))
        ok = srs_isomorphic(base, other) is not None
        yield None if ok else "choice-dependent extension class on D6 probe"
    # The double extension dichotomy on a nondegenerate seed.
    seed = minimal_srs(dynkin_graph("A", 4))
    for bits_p, bits_q, edge in itertools.product(range(4), range(4), (False, True)):
        out, _, _ = double_extend_extraspecial(seed, BitVec(4, bits_p), BitVec(4, bits_q), edge)
        wrong = ()
        if out.type not in ((3, 0), (2, 2)):
            wrong += (f"double extension type {tuple(out.type)}",)
        if restrict(out, range(4)) != seed:
            wrong += ("double extension forgot its seed",)
        yield wrong or None


def _weyl(max_rank: int):
    # The lowest and highest rank of each Cartan type, in DYNKIN_FAMILIES order.
    ranks = {"A": (1, max_rank), "B": (2, max_rank), "C": (2, max_rank), "D": (4, max_rank),
             "E": (6, 8), "F": (4, 4), "G": (2, 2)}
    for family, (low, high) in ranks.items():
        for rank in range(low, min(high, max_rank) + 1):
            c = cartan_datum(family, rank)
            rep = weyl_rep(c)
            gram = rep.srs.space.gram
            ok = parity_graph(c) == dynkin_graph(family, rank)
            yield None if ok else f"{family}{rank}: parity graph off the table"
            for m in rep.generators:
                ok = m.transpose() @ gram @ m == gram
                yield None if ok else f"{family}{rank}: non-symplectic generator"
            for beta in roots(c):
                image = rep.root_images[beta]
                for i in range(c.rank):
                    coeff = sum(c.matrix[i][j] * beta[j] for j in range(c.rank))
                    reflected = beta[:i] + (beta[i] - coeff,) + beta[i + 1 :]
                    if rep.root_images[reflected] != rep.generators[i] @ image:
                        yield f"{family}{rank}: intertwining fails at {beta}"
                        break
                    yield None


def _group(max_nodes: int):
    for size in range(min(max_nodes, 5) + 1):
        for g in graph_classes(size):
            s = minimal_srs(g)
            grp = make_group(s.space)
            # one check per ordered pair of elements: about 150k at the default size
            bad = _commutator_mismatches(grp)
            yield grp.order() ** 2 - bad
            yield from itertools.repeat(f"graph {g.edge_list()}: commutator is not the form", bad)
            k = s.type.k
            ok = len(grp.center()) == 1 << (k + 1)
            yield None if ok else f"graph {g.edge_list()}: center size"
            lifts = lift_decoration(s, grp)
            report = burnside_check(grp, lifts)
            ok = report.generates == (len(grp.closure(lifts)) == grp.order())
            yield None if ok else f"graph {g.edge_list()}: Burnside disagrees with closure"
            if k == 0 and size > 0:
                four = sum(1 for el in grp.elements() if grp.element_order(el) == 4)
                expected = "plus" if four // 2 == (1 << (size - 1)) - (1 << (size // 2 - 1)) else "minus"
                ok = extraspecial_sign(grp) == expected
                yield None if ok else f"graph {g.edge_list()}: sign vs order-4 count"


def _coclique(max_nodes: int):
    for size in range(max_nodes + 1):
        for g in graph_classes(size):
            ok = coclique_bound_check(g).holds
            yield None if ok else f"graph {g.edge_list()}: bound violated"
    # Even paths meet the bound exactly, alone and in disjoint unions.
    for m in (1, 2, 3):
        report = coclique_bound_check(dynkin_graph("A", 2 * m))
        yield None if report.n == report.bound else f"A{2 * m}: bound not tight"
    report = coclique_bound_check(Graph(6, [(0, 1), (2, 3), (4, 5)]))
    yield None if report.n == report.bound else "disjoint edges: bound not tight"


def run(names, max_nodes: int, max_rank: int, trials: int, seed: int) -> dict:
    """Run the named sweeps in order, sharing one ``random.Random(seed)``.

    Graphs go up to ``max_nodes`` nodes, Cartan types up to ``max_rank``,
    and ``trials`` random completions probe choice independence. Each
    suite reports ``ok``, its ``checks`` and its first five ``failures``;
    restriction also counts its ``cases``. Each item a sweep yields is one
    check, except an int, which is that many passed checks. A suite with
    no checks fails, also one whose counts add up to 0.
    ``max_nodes`` past ``MAX_CLASS_NODES``, or ``max_rank`` past the rank
    whose root systems fit in ``MAX_ROOTS``, raises before any sweep runs.
    """
    if max_nodes > MAX_CLASS_NODES:
        raise ValueError(f"{max_nodes} nodes exceeds the class cap of {MAX_CLASS_NODES}")
    if max_rank > _MAX_RANK:
        raise ValueError(f"rank {max_rank} exceeds the rank cap of {_MAX_RANK}")
    rng = random.Random(seed)
    cases = Counter()
    sweeps = {
        "restriction": lambda: _restriction(max_nodes, cases),
        "extension": lambda: _extension(max_nodes, trials, rng),
        "weyl": lambda: _weyl(max_rank),
        "group": lambda: _group(max_nodes),
        "coclique": lambda: _coclique(max_nodes),
    }
    suites = {}
    for name in names:
        checks = 0
        failures = []
        for item in sweeps[name]():
            if isinstance(item, int):
                checks += item
                continue
            checks += 1
            if item is not None:
                failures.extend((item,) if isinstance(item, str) else item)
        if checks == 0:
            # a sweep that checked nothing proves nothing
            failures.append("no checks ran")
        suites[name] = {"ok": not failures, "checks": checks, "failures": failures[:5]}
    if "restriction" in suites:
        suites["restriction"]["cases"] = dict(cases)
    return {"ok": all(result["ok"] for result in suites.values()), "seed": seed, "suites": suites}
