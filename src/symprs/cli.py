"""The ``srs`` command line tool.

One verb per task: classify a graph's minimal system (``type``), print it
(``minimal``), enumerate all classes on the graph (``quotients``), grow it
by a node (``extend``), compare two systems (``iso``), look up the simply
laced tables (``ade``), inspect a Weyl group's mod-2 image (``weyl``),
build the associated 2-group (``group``), check the coclique bound
(``coclique``), and run the self-verification sweeps (``verify``).

Output is JSON by default (keys sorted, so runs are byte-identical) or
``--format text`` for a human. Exit codes: 0 on success, 1 when a
computation fails or a verification suite finds a counterexample, 2 for
usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter

from .cartan import (
    ade_srs,
    ade_table,
    cartan_datum,
    group_order,
    parity_graph,
    roots,
    weyl_rep,
)
from .extend import (
    build_by_extension,
    double_extend_extraspecial,
    extend_minimal,
    witness_to_json,
)
from .gf2 import BitVec
from .graph import Graph, dynkin_graph, graph_classes, parse_graph
from .grp2 import burnside_check, extraspecial_sign, lift_decoration, make_group
from .srs import (
    SRSError,
    coclique_bound_check,
    enumerate_quotients,
    minimal_srs,
    restrict,
    srs_from_json,
    srs_isomorphic,
    srs_to_json,
)
from .symplectic import SympSpace, random_completion_choices

from .graph import DYNKIN_FAMILIES

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _load_srs(path: str):
    return srs_from_json(json.loads(_read_text(path)))


def _type_payload(args) -> dict:
    g = _load_graph(args.graph)
    space = SympSpace(g.adjacency())
    n, k = space.type
    return {
        "nodes": g.n,
        "edge_count": len(g.edges),
        "dim": space.dim,
        "type": [n, k],
        "extraspecial": space.type.is_extraspecial,
        "almost_extraspecial": space.type.is_almost_extraspecial,
    }


def _minimal_payload(args) -> dict:
    return srs_to_json(minimal_srs(_load_graph(args.graph)))


def _quotients_payload(args) -> dict:
    g = _load_graph(args.graph)
    classes = enumerate_quotients(g)
    by_type = Counter(tuple(s.type) for s in classes)
    payload = {
        "total": len(classes),
        "by_type": [[n, k, count] for (n, k), count in sorted(by_type.items(), reverse=True)],
    }
    if not args.summary:
        payload["classes"] = [srs_to_json(s) for s in classes]
    return payload


def _parse_attach(text: str, node_count: int) -> BitVec:
    lam = BitVec.zero(node_count)
    if text.strip() == "":
        return lam
    for part in text.split(","):
        try:
            node = int(part)
        except ValueError:
            raise ValueError(f"bad node {part!r} in attach list") from None
        if not 0 <= node < node_count:
            raise ValueError(f"attach node {node} out of range for {node_count} nodes")
        if lam[node]:
            raise ValueError(f"attach node {node} listed twice")
        lam ^= BitVec.basis(node_count, node)
    return lam


def _extend_payload(args) -> dict:
    g = _load_graph(args.graph)
    s = minimal_srs(g)
    lam = _parse_attach(args.attach, g.n)
    out, witness = extend_minimal(s, lam)
    n, k = out.type
    return {
        "case": witness.case,
        "type": [n, k],
        "witness": witness_to_json(witness),
        "srs": srs_to_json(out),
    }


def _iso_payload(args) -> dict:
    a = _load_srs(args.a)
    b = _load_srs(args.b)
    found = srs_isomorphic(a, b)
    return {
        "isomorphic": found is not None,
        "matrix": found.matrix.to_strings() if found is not None else None,
    }


def _ade_payload(args) -> dict:
    s = ade_srs(args.family, args.rank)
    table = ade_table(args.family, args.rank)
    n, k = s.type
    return {
        "family": args.family,
        "rank": args.rank,
        "type": [n, k],
        "table": [[tn, tk, count] for (tn, tk), count in sorted(table.items(), reverse=True)],
        "srs": srs_to_json(s),
    }


def _weyl_payload(args) -> dict:
    c = cartan_datum(args.family, args.rank)
    rep = weyl_rep(c)
    return {
        "family": args.family,
        "rank": args.rank,
        "root_count": len(roots(c)),
        "parity_graph": {"nodes": rep.srs.graph.n, "edges": [list(e) for e in rep.srs.graph.edge_list()]},
        "generators": [m.to_strings() for m in rep.generators],
        "faithful_on_roots": rep.faithful_on_roots,
        "collision_count": rep.collision_count,
        "image_order": group_order(rep.generators, method="chain"),
    }


def _group_payload(args) -> dict:
    g = _load_graph(args.graph)
    if g.n > 16:
        raise ValueError(f"group enumeration is capped at 16 nodes, got {g.n}")
    s = minimal_srs(g)
    diagonal = BitVec.from_string(args.diagonal) if args.diagonal is not None else None
    grp = make_group(s.space, diagonal)
    lifts = lift_decoration(s, grp)
    report = burnside_check(grp, lifts)
    orders = Counter(grp.element_order(el) for el in grp.elements())
    try:
        sign = extraspecial_sign(grp)
    except ValueError:
        sign = None
    n, k = s.type
    return {
        "order": grp.order(),
        "type": [n, k],
        "center_order": len(grp.center()),
        "sign": sign,
        "element_orders": {str(o): orders[o] for o in sorted(orders)},
        "lifts_generate": report.generates,
        "lifts_minimal": report.minimal,
    }


def _coclique_payload(args) -> dict:
    g = _load_graph(args.graph)
    report = coclique_bound_check(g)
    return {
        "nodes": g.n,
        "type_n": report.n,
        "gamma": report.gamma,
        "bound": report.bound,
        "holds": report.holds,
        "witness": list(report.witness),
    }


# Verification sweeps. Each returns {"ok", "checks", failures...}; verify
# aggregates them and the process exits 1 if any suite found a
# counterexample, printing the smallest one it hit.


def _verify_restriction(max_nodes: int, rng) -> dict:
    cases = Counter()
    checks = 0
    failures = []
    for size in range(max_nodes + 1):
        for g in graph_classes(size):
            for s in enumerate_quotients(g):
                n0, k0 = s.type
                for v in range(g.n):
                    sub = restrict(s, [u for u in range(g.n) if u != v])
                    step = (sub.type.n - n0, sub.type.k - k0)
                    checks += 1
                    if step == (0, -1):
                        cases["nullvector_dropped"] += 1
                    elif step == (-1, 1):
                        cases["hyperbolic_collapsed"] += 1
                    elif step == (0, 0) and not s.is_minimal:
                        cases["type_kept"] += 1
                    else:
                        failures.append(
                            f"graph {g.edge_list()} class ({n0},{k0}) node {v}: "
                            f"type step {step}, minimal={s.is_minimal}"
                        )
    return {"ok": not failures, "checks": checks, "cases": dict(cases), "failures": failures[:5]}


def _verify_extension(max_nodes: int, trials: int, rng) -> dict:
    checks = 0
    failures = []
    # Any insertion order rebuilds the minimal class.
    for size in range(max_nodes + 1):
        for g in graph_classes(size):
            orders = [list(range(size)), list(range(size - 1, -1, -1))]
            shuffled = list(range(size))
            rng.shuffle(shuffled)
            orders.append(shuffled)
            for order in orders:
                built = build_by_extension(g, order)
                checks += 1
                if built.graph != g or srs_isomorphic(built, minimal_srs(g)) is None:
                    failures.append(f"graph {g.edge_list()} order {order}: wrong class")
    # Exhaustive single extensions on small graphs: round trip and the
    # count of indicators that only add a nullvector.
    small = min(max_nodes, 4)
    for size in range(small + 1):
        for g in graph_classes(size):
            s = minimal_srs(g)
            n0, k0 = s.type
            null = 0
            for bits in range(1 << size):
                lam = BitVec(size, bits)
                out, wit = extend_minimal(s, lam)
                checks += 1
                if restrict(out, range(size)) != s:
                    failures.append(f"graph {g.edge_list()} lam {lam}: round trip broken")
                null += wit.case == "new_nullvector"
            if null != 1 << (2 * n0):
                failures.append(f"graph {g.edge_list()}: {null} nullvector cases, not 2^{2 * n0}")
            checks += 1
    # Completion choices never change the isomorphism class.
    probe = minimal_srs(dynkin_graph("D", 6))
    lam = BitVec.from_string("010001")
    base, _ = extend_minimal(probe, lam)
    for _ in range(trials):
        other, _ = extend_minimal(probe, lam, random_completion_choices(rng, probe.space))
        checks += 1
        if srs_isomorphic(base, other) is None:
            failures.append("choice-dependent extension class on D6 probe")
    # The double extension dichotomy on a nondegenerate seed.
    seed = minimal_srs(dynkin_graph("A", 4))
    for bits_p in range(4):
        for bits_q in range(4):
            for edge in (False, True):
                lam_p = BitVec(4, bits_p)
                lam_q = BitVec(4, bits_q)
                out, wp, wq = double_extend_extraspecial(seed, lam_p, lam_q, edge)
                checks += 1
                if out.type not in ((3, 0), (2, 2)):
                    failures.append(f"double extension type {tuple(out.type)}")
                if restrict(out, range(4)) != seed:
                    failures.append("double extension forgot its seed")
    return {"ok": not failures, "checks": checks, "failures": failures[:5]}


def _verify_weyl(max_rank: int) -> dict:
    checks = 0
    failures = []
    cases = []
    for family in DYNKIN_FAMILIES:
        low = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}[family]
        high = {"A": max_rank, "B": max_rank, "C": max_rank, "D": max_rank, "E": 8, "F": 4, "G": 2}[
            family
        ]
        for rank in range(low, high + 1):
            if family == "E" and rank not in (6, 7, 8):
                continue
            cases.append((family, rank))
    for family, rank in cases:
        if rank > max_rank:
            continue
        c = cartan_datum(family, rank)
        rep = weyl_rep(c)
        gram = rep.srs.space.gram
        if parity_graph(c) != dynkin_graph(family, rank):
            failures.append(f"{family}{rank}: parity graph off the table")
        checks += 1
        for m in rep.generators:
            checks += 1
            if m.transpose() @ gram @ m != gram:
                failures.append(f"{family}{rank}: non-symplectic generator")
        for beta in roots(c):
            image = rep.root_images[beta]
            for i in range(c.rank):
                coeff = sum(c.matrix[i][j] * beta[j] for j in range(c.rank))
                reflected = beta[:i] + (beta[i] - coeff,) + beta[i + 1 :]
                checks += 1
                if rep.root_images[reflected] != rep.generators[i] @ image:
                    failures.append(f"{family}{rank}: intertwining fails at {beta}")
                    break
    return {"ok": not failures, "checks": checks, "failures": failures[:5]}


def _verify_group(max_nodes: int, rng) -> dict:
    checks = 0
    failures = []
    limit = min(max_nodes, 5)
    for size in range(limit + 1):
        for g in graph_classes(size):
            s = minimal_srs(g)
            grp = make_group(s.space)
            elems = list(grp.elements())
            zero = BitVec.zero(size)
            for a, aa in elems:
                for b, bb in elems:
                    checks += 1
                    if grp.commutator((a, aa), (b, bb)) != (zero, s.space.form(a, b)):
                        failures.append(f"graph {g.edge_list()}: commutator is not the form")
                        break
            n, k = s.type
            if len(grp.center()) != 1 << (k + 1):
                failures.append(f"graph {g.edge_list()}: center size")
            checks += 1
            lifts = lift_decoration(s, grp)
            report = burnside_check(grp, lifts)
            closure = grp.closure(lifts)
            checks += 1
            if report.generates != (len(closure) == grp.order()):
                failures.append(f"graph {g.edge_list()}: Burnside disagrees with closure")
            if k == 0 and size > 0:
                four = sum(1 for el in elems if grp.element_order(el) == 4)
                expected = "plus" if four // 2 == (1 << (size - 1)) - (1 << (size // 2 - 1)) else "minus"
                checks += 1
                if extraspecial_sign(grp) != expected:
                    failures.append(f"graph {g.edge_list()}: sign vs order-4 count")
    return {"ok": not failures, "checks": checks, "failures": failures[:5]}


def _verify_coclique(max_nodes: int) -> dict:
    checks = 0
    failures = []
    for size in range(max_nodes + 1):
        for g in graph_classes(size):
            report = coclique_bound_check(g)
            checks += 1
            if not report.holds:
                failures.append(f"graph {g.edge_list()}: bound violated")
    # Even paths meet the bound exactly, alone and in disjoint unions.
    for m in (1, 2, 3):
        g = dynkin_graph("A", 2 * m)
        report = coclique_bound_check(g)
        checks += 1
        if report.n != report.bound:
            failures.append(f"A{2 * m}: bound not tight")
    union = Graph(6, [(0, 1), (2, 3), (4, 5)])
    report = coclique_bound_check(union)
    checks += 1
    if report.n != report.bound:
        failures.append("disjoint edges: bound not tight")
    return {"ok": not failures, "checks": checks, "failures": failures[:5]}


def _size(text: str) -> int:
    """argparse type for sweep sizes: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be non-negative, got {value}")
    return value


def _verify_payload(args) -> dict:
    max_nodes = min(args.max_nodes, 4) if args.quick else args.max_nodes
    max_rank = min(args.max_rank, 4) if args.quick else args.max_rank
    trials = 2 if args.quick else 6
    rng = random.Random(args.seed)
    runners = {
        "restriction": lambda: _verify_restriction(max_nodes, rng),
        "extension": lambda: _verify_extension(max_nodes, trials, rng),
        "weyl": lambda: _verify_weyl(max_rank),
        "group": lambda: _verify_group(max_nodes, rng),
        "coclique": lambda: _verify_coclique(max_nodes),
    }
    wanted = list(runners) if args.suite == "all" else [args.suite]
    suites = {name: runners[name]() for name in wanted}
    for result in suites.values():
        if result["checks"] == 0:
            # a sweep that checked nothing proves nothing
            result["ok"] = False
            result["failures"].append("no checks ran")
    return {
        "ok": all(result["ok"] for result in suites.values()),
        "seed": args.seed,
        "suites": suites,
    }


def _render_text(verb: str, payload: dict) -> list[str]:
    if verb == "type":
        n, k = payload["type"]
        return [
            f"graph: {payload['nodes']} nodes, {payload['edge_count']} edges",
            f"type ({n}, {k}), dim {payload['dim']}",
        ]
    if verb in ("minimal", "extend", "ade"):
        srs = payload if verb == "minimal" else payload["srs"]
        n, k = srs["type"]
        lines = [f"type ({n}, {k}), dim {srs['dim']}, minimal: {srs['minimal']}"]
        if verb == "extend":
            lines.insert(0, f"case: {payload['case']}")
        if verb == "ade":
            lines.insert(0, f"{payload['family']}{payload['rank']}")
            lines += [f"  ({tn}, {tk}): {count} classes" for tn, tk, count in payload["table"]]
        lines += [f"gram {row}" for row in srs["gram"]]
        lines += [f"node {p}: {srs['deco'][p]}" for p in sorted(srs["deco"], key=int)]
        return lines
    if verb == "quotients":
        lines = [f"{payload['total']} classes"]
        lines += [f"  ({n}, {k}): {count}" for n, k, count in payload["by_type"]]
        return lines
    if verb == "iso":
        if payload["isomorphic"]:
            return ["isomorphic", *payload["matrix"]]
        return ["not isomorphic"]
    if verb == "weyl":
        return [
            f"{payload['family']}{payload['rank']}: {payload['root_count']} roots",
            f"faithful on roots: {payload['faithful_on_roots']} "
            f"({payload['collision_count']} extra collisions)",
            f"image order {payload['image_order']}",
        ]
    if verb == "group":
        n, k = payload["type"]
        sign = payload["sign"] or "n/a"
        return [
            f"order {payload['order']}, type ({n}, {k}), center {payload['center_order']}, sign {sign}",
            f"lifts generate: {payload['lifts_generate']}, minimally: {payload['lifts_minimal']}",
        ]
    if verb == "coclique":
        status = "holds" if payload["holds"] else "VIOLATED"
        return [
            f"n = {payload['type_n']}, gamma = {payload['gamma']}, "
            f"bound = {payload['bound']}: {status}",
            f"witness coclique: {payload['witness']}",
        ]
    if verb == "verify":
        lines = []
        for name, result in payload["suites"].items():
            status = "ok" if result["ok"] else "FAILED"
            lines.append(f"{name}: {status} ({result['checks']} checks)")
            lines += [f"  {failure}" for failure in result.get("failures", [])]
        lines.append("all ok" if payload["ok"] else "FAILURES FOUND")
        return lines
    raise AssertionError(f"no text renderer for {verb}")


def _emit(verb: str, payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(verb, payload)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srs", description="symplectic root systems over F2 on graphs"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(handler=handler)
        return p

    p = add("type", "type of the minimal system on a graph", _type_payload)
    p.add_argument("--graph", required=True, help="graph file (edge list or JSON), - for stdin")
    p = add("minimal", "the minimal system on a graph", _minimal_payload)
    p.add_argument("--graph", required=True)
    p = add("quotients", "every system on a graph up to isomorphism", _quotients_payload)
    p.add_argument("--graph", required=True)
    p.add_argument("--summary", action="store_true", help="counts only, no decorations")
    p = add("extend", "attach one node to the minimal system", _extend_payload)
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--attach", default="", help="comma separated nodes the new node connects to"
    )
    p = add("iso", "decoration-compatible isomorphism of two systems", _iso_payload)
    p.add_argument("a", help="SRS JSON file")
    p.add_argument("b", help="SRS JSON file")
    p = add("ade", "classical decorations and class table of a diagram", _ade_payload)
    p.add_argument("--family", required=True, choices=("A", "D", "E"))
    p.add_argument("--rank", required=True, type=int)
    p = add("weyl", "mod-2 Weyl representation of a Cartan datum", _weyl_payload)
    p.add_argument("--family", required=True, choices=DYNKIN_FAMILIES)
    p.add_argument("--rank", required=True, type=int)
    p = add("group", "the 2-group presented by a graph's minimal system", _group_payload)
    p.add_argument("--graph", required=True)
    p.add_argument("--diagonal", help="bit string twisting q on the marked coordinates")
    p = add("coclique", "independence bound on the hyperbolic rank", _coclique_payload)
    p.add_argument("--graph", required=True)
    p = add("verify", "run self-verification sweeps", _verify_payload)
    p.add_argument(
        "--suite",
        choices=("restriction", "extension", "weyl", "group", "coclique", "all"),
        default="all",
    )
    p.add_argument("--max-nodes", type=_size, default=5)
    p.add_argument("--max-rank", type=_size, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller sweeps")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = args.handler(args)
    except (SRSError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args.verb, payload, args.format)
    return 0 if payload.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
