"""The ``srs`` command line tool.

One verb per task: classify a graph's minimal system (``type``), print it
(``minimal``), enumerate all classes on the graph (``quotients``), grow it
by a node (``extend``), compare two systems (``iso``), look up the simply
laced tables (``ade``), inspect a Weyl group's mod-2 image (``weyl``),
build the associated 2-group (``group``), check the coclique bound
(``coclique``), and run the self-verification sweeps of ``symprs.verify``
(``verify``). This module only parses arguments, dispatches to the
library and renders the result.

Output is JSON by default (keys sorted, so runs are byte-identical) or
``--format text`` for a human. Exit codes: 0 on success, 1 when a
computation fails, a verification suite finds a counterexample or stdout
is closed before the output is written, 2 for usage errors, including an
integer option not written in ASCII decimal digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from itertools import chain

from . import verify
from .cartan import _check_chain_dim, ade_srs, cartan_datum, group_order, weyl_rep
from .extend import extend_minimal, witness_to_json
from .gf2 import BitVec
from .graph import DYNKIN_FAMILIES, Graph, dynkin_graph, graph_to_json, parse_graph
from .grp2 import _arf, burnside_check, extraspecial_sign, lift_decoration, make_group
from .srs import (
    SRSError,
    _quotient_type_counts,
    coclique_bound_check,
    enumerate_quotients,
    minimal_srs,
    srs_from_json,
    srs_isomorphic,
    srs_to_json,
)
from .symplectic import SympSpace

__all__ = ["main"]

# `srs ade` prints O(rank^2) bits of JSON: 8.5 MB in about 1.1 s at rank
# 2,048 (under 0.1 s of it emitting), 129 MB in over 40 s at rank 8,000
_MAX_ADE_RANK = 2048


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
    space = SympSpace._trusted(g.adjacency())
    n, k = space.type
    return {
        "nodes": g.n,
        "edge_count": sum(row.bit_count() for row in g.adj) // 2,
        "dim": space.dim,
        "type": [n, k],
        "extraspecial": space.type.is_extraspecial,
        "almost_extraspecial": space.type.is_almost_extraspecial,
    }


def _minimal_payload(args) -> dict:
    return srs_to_json(minimal_srs(_load_graph(args.graph)))


def _quotients_payload(args) -> dict:
    g = _load_graph(args.graph)
    if args.summary:
        # counted from the type alone, under a far higher radical cap
        classes = None
        by_type = _quotient_type_counts(*SympSpace._trusted(g.adjacency()).type)
    else:
        classes = enumerate_quotients(g)
        by_type = Counter(tuple(s.type) for s in classes)
    payload = {
        "total": sum(by_type.values()),
        "by_type": [[n, k, count] for (n, k), count in sorted(by_type.items(), reverse=True)],
    }
    if classes is not None:
        payload["classes"] = [srs_to_json(s) for s in classes]
    return payload


def _decimal(text: str, signed: bool = False) -> int:
    """An integer written in ASCII decimal digits, with a leading '-' only
    when ``signed``. Bare ``int`` would also read '1_0' as 10, and accept
    '+3', ' 3' and non-ASCII digits; none of those is a number here."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        kind = "an integer" if signed else "a non-negative integer"
        raise argparse.ArgumentTypeError(f"expected {kind} in decimal digits, got {text!r}")
    return int(text)


def _parse_attach(text: str, node_count: int) -> BitVec:
    lam = BitVec.zero(node_count)
    if text.strip() == "":
        return lam
    for part in text.split(","):
        try:
            node = _decimal(part.strip())
        except argparse.ArgumentTypeError:
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
    # dynkin_graph checks the family's rank range and the node cap, then the
    # O(rank^2) output is capped before any decoration is built
    dynkin_graph(args.family, args.rank)
    if args.rank > _MAX_ADE_RANK:
        raise ValueError(f"rank {args.rank} exceeds the ade cap of {_MAX_ADE_RANK}")
    s = ade_srs(args.family, args.rank)
    n, k = s.type
    table = _quotient_type_counts(n, k)
    return {
        "family": args.family,
        "rank": args.rank,
        "type": [n, k],
        "table": [[tn, tk, count] for (tn, tk), count in sorted(table.items(), reverse=True)],
        "srs": srs_to_json(s),
    }


def _weyl_payload(args) -> dict:
    # dynkin_graph checks the family's rank range and the node cap; the image
    # order needs the stabilizer chain, so a rank past its cap fails before
    # the datum, the roots and the representation are built
    dynkin_graph(args.family, args.rank)
    _check_chain_dim(args.rank)
    c = cartan_datum(args.family, args.rank)
    rep = weyl_rep(c)
    return {
        "family": args.family,
        "rank": args.rank,
        "root_count": len(rep.root_images),
        "parity_graph": graph_to_json(rep.srs.graph),
        "generators": [m.to_strings() for m in rep.generators],
        "faithful_on_roots": rep.faithful_on_roots,
        "collision_count": rep.collision_count,
        "image_order": group_order(rep.generators),
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
    # (0, 0) has order 1 and (0, 1) order 2; for v != 0 both (v, a) square
    # to (0, q(v)), so they have order 4 if q(v) = 1 and 2 otherwise.
    # q(h + z) = q(h) + q(z) for h in the span of the hyperbolic pairs and z
    # in the radical, where q is linear: q = 1 on half of all vectors if q is
    # nonzero on the radical, else on 2^k (2^(2n-1) - (-1)^Arf 2^(n-1)) ones.
    n, k = s.type
    if any(map(grp.quadratic, grp.space.basis.z)):
        q_ones = 1 << (grp.dim - 1)
    else:
        q_ones = ((1 << 2 * n) - (-1) ** _arf(grp) * (1 << n)) << k >> 1
    counts = {1: 1, 2: 1 + 2 * ((1 << grp.dim) - 1 - q_ones), 4: 2 * q_ones}
    try:
        sign = extraspecial_sign(grp)
    except ValueError:
        sign = None
    return {
        "order": grp.order(),
        "type": [n, k],
        # the center is the radical times the sign line, whatever the diagonal
        "center_order": 1 << (k + 1),
        "sign": sign,
        "element_orders": {str(o): count for o, count in counts.items() if count},
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


def _verify_payload(args) -> dict:
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    if args.quick:
        return verify.run(names, min(args.max_nodes, 4), min(args.max_rank, 4), 2, args.seed)
    return verify.run(names, args.max_nodes, args.max_rank, 6, args.seed)


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


_quote = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, ``json.dumps`` encodes in pure Python, one call per
    int of every edge pair. This walks the payload shapes the verbs build
    and joins a flat list of ints, of strings or of [int, int] pairs in one
    string operation; any other subtree goes to ``json.dumps`` itself."""
    out: list[str] = []
    _put(obj, "\n", out)
    return "".join(out)


def _put(obj, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``obj``; ``nl`` is a newline plus its indent."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is dict and all(type(key) is str for key in obj):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _quote(key) + ": ")
            _put(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        flat = _flat_items(obj, inner)
        if flat is not None:
            out.append("[" + inner + ("," + inner).join(flat) + nl + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _put(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        # floats, tuples, non-str keys, subclasses: exact, because a JSON
        # string never holds a raw newline
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl))


def _flat_items(items: list, inner: str):
    """The item texts of a list of ints, of strings or of [int, int]
    pairs, one C-level pass each; None for any other list. ``type() is``
    rather than isinstance(): bool is a subclass of int."""
    kinds = set(map(type, items))
    if kinds == {int}:
        return map(int.__repr__, items)
    if kinds == {str}:
        return map(_quote, items)
    if kinds == {list} and set(map(len, items)) == {2}:
        flat = tuple(chain.from_iterable(items))
        if set(map(type, flat)) == {int}:
            return _pair_blocks(flat, inner)
    return None


# pairs per % template: one template for the whole list would cost a second
# copy of its output at the peak, about 300 KB for 6,400 edges
_BLOCK = 64


def _pair_blocks(flat: tuple, inner: str) -> list[str]:
    """The texts of the [int, int] pairs whose ints ``flat`` lists in order,
    ``_BLOCK`` pairs to a string and one ``%`` per string, the items of
    each joined as ``_put`` joins a list's."""
    deeper = inner + "  "
    sep = "," + inner
    pair = "[" + deeper + "%d," + deeper + "%d" + inner + "]"
    step = 2 * _BLOCK
    whole = len(flat) - len(flat) % step
    block = sep.join([pair] * _BLOCK)
    out = [block % flat[i:i + step] for i in range(0, whole, step)]
    if whole < len(flat):
        out.append(sep.join([pair] * ((len(flat) - whole) // 2)) % flat[whole:])
    return out


def _emit(verb: str, payload: dict, fmt: str):
    if fmt == "json":
        print(_json_text(payload))
    else:
        print("\n".join(_render_text(verb, payload)))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: ``parse_args`` returns a fresh namespace each time, and the
    handler is looked up by verb in ``main``."""
    parser = argparse.ArgumentParser(
        prog="srs", description="symplectic root systems over F2 on graphs"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("type", "type of the minimal system on a graph")
    p.add_argument("--graph", required=True, help="graph file (edge list or JSON), - for stdin")
    p = add("minimal", "the minimal system on a graph")
    p.add_argument("--graph", required=True)
    p = add("quotients", "every system on a graph up to isomorphism")
    p.add_argument("--graph", required=True)
    p.add_argument("--summary", action="store_true", help="counts only, no decorations")
    p = add("extend", "attach one node to the minimal system")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--attach", default="", help="comma separated nodes the new node connects to"
    )
    p = add("iso", "decoration-compatible isomorphism of two systems")
    p.add_argument("a", help="SRS JSON file")
    p.add_argument("b", help="SRS JSON file")
    p = add("ade", "classical decorations and class table of a diagram")
    p.add_argument("--family", required=True, choices=("A", "D", "E"))
    p.add_argument("--rank", required=True, type=_decimal)
    p = add("weyl", "mod-2 Weyl representation of a Cartan datum")
    p.add_argument("--family", required=True, choices=DYNKIN_FAMILIES)
    p.add_argument("--rank", required=True, type=_decimal)
    p = add("group", "the 2-group presented by a graph's minimal system")
    p.add_argument("--graph", required=True)
    p.add_argument("--diagonal", help="bit string twisting q on the marked coordinates")
    p = add("coclique", "independence bound on the hyperbolic rank")
    p.add_argument("--graph", required=True)
    p = add("verify", "run self-verification sweeps")
    p.add_argument(
        "--suite",
        choices=(*verify.SUITES, "all"),
        default="all",
    )
    p.add_argument("--max-nodes", type=_decimal, default=5)
    p.add_argument("--max-rank", type=_decimal, default=6)
    p.add_argument("--seed", type=lambda text: _decimal(text, signed=True), default=0)
    p.add_argument("--quick", action="store_true", help="smaller sweeps")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = globals()[f"_{args.verb}_payload"](args)
    except (SRSError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(args.verb, payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early. Point it at devnull so that the
        # interpreter's flush at exit cannot raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if payload.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
