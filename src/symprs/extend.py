"""Growing minimal systems one node at a time.

Given a minimal SRS and an indicator of which existing nodes the new node
should attach to, there is an essentially unique minimal SRS on the
extended graph. The indicator lifts to a linear form; representing that
form through a nondegenerate completion of the (possibly degenerate)
symplectic form yields a vector w0 + z0 split along the radical, and the
radical part decides between the two possible outcomes:

* z0 = 0: the space grows by a new nullvector z, the new node gets w0 + z,
  type (n, k) -> (n, k + 1);
* z0 != 0: the space grows by the partner y of a hyperbolic pair, the new
  node gets w0 + y, type (n, k) -> (n + 1, k - 1).

Extraspecial (k = 0) and totally-degenerate (n = 0) inputs admit direct
constructions that the general route reproduces exactly; both are
provided. Every choice made along the way is recorded in a witness so a
run can be replayed and audited. Folding extensions over all nodes of a
graph builds its minimal SRS from nothing, in any node order, and all
orders agree up to isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMat, BitVec, block_diag, inverse, solve
from .graph import Graph
from .srs import SRS, SRSError, minimal_srs
from .symplectic import MixedForm, SympSpace, default_completion_choices, mixed_completion

__all__ = [
    "ExtensionWitness",
    "lift_indicator",
    "extend_extraspecial",
    "extend_nullspace",
    "extend_minimal",
    "double_extend_extraspecial",
    "build_by_extension",
    "replay",
    "witness_to_json",
    "witness_from_json",
]

NEW_NULLVECTOR = "new_nullvector"
NEW_HYPERBOLIC = "new_hyperbolic"


@dataclass(frozen=True)
class ExtensionWitness:
    """The choices behind one extension step.

    ``w0`` and ``z0`` live in the old space (z0 is the radical part that
    decided the case), ``new_deco`` in the new one. ``x_choice`` is the
    recorded pairing partner in the hyperbolic case: a vector of the new
    space pairing to 1 with the adjoined coordinate.
    """

    case: str
    w0: BitVec
    z0: BitVec
    new_deco: BitVec
    x_choice: BitVec | None = None


def _require_minimal(s: SRS, lam: BitVec):
    if not s.is_minimal:
        raise SRSError("extension requires a minimal system")
    if lam.dim != s.graph.n:
        raise ValueError(f"indicator dimension {lam.dim} != node count {s.graph.n}")


def _extended_graph(g: Graph, lam: BitVec) -> Graph:
    return Graph(g.n + 1, list(g.edges) + [(q, g.n) for q in lam.support()])


def lift_indicator(s: SRS, lam: BitVec) -> BitVec:
    """Coefficients of the unique linear form taking value lam(q) on each
    decoration; exists and is unique because the decorations are a basis."""
    _require_minimal(s, lam)
    inv = inverse(s.deco_matrix())
    assert inv is not None, "minimal decorations always invert"
    return inv @ lam


def extend_extraspecial(s: SRS, lam: BitVec) -> tuple[SRS, ExtensionWitness]:
    """Extension of a nondegenerate system: always a new nullvector.

    The lifted form is represented by a unique w0, and the new node gets
    w0 + z for a fresh radical direction z, giving type (n, 1).
    """
    _require_minimal(s, lam)
    if not s.type.is_extraspecial:
        raise SRSError(f"space has type {tuple(s.type)}, not extraspecial")
    c = lift_indicator(s, lam)
    w0 = solve(s.space.gram, c)
    assert w0 is not None
    return _attach_nullvector(s, lam, w0, BitVec.zero(s.space.dim))


def extend_nullspace(s: SRS, lam: BitVec) -> tuple[SRS, ExtensionWitness]:
    """Extension of a totally degenerate system (type (0, k), no edges).

    A zero indicator adjoins one more nullvector; otherwise the kernel of
    the lifted form pairs against a new vector y, creating the first
    hyperbolic plane: type (1, k - 1), new node decorated by y.
    """
    _require_minimal(s, lam)
    if s.type.n != 0:
        raise SRSError(f"space has type {tuple(s.type)}, not totally degenerate")
    c = lift_indicator(s, lam)
    if c.is_zero():
        return _attach_nullvector(s, lam, BitVec.zero(s.space.dim), c)
    return _attach_hyperbolic(s, lam, BitVec.zero(s.space.dim), c, list(c))


def extend_minimal(
    s: SRS, lam: BitVec, choices: tuple[BitMat, BitMat] | None = None
) -> tuple[SRS, ExtensionWitness]:
    """Extension of an arbitrary minimal system.

    Solves <<w, .>> = lifted form against a mixed completion built from
    ``choices`` (a radical projection and a symmetric nondegenerate form
    on the radical; defaults are canonical), splits the solution into
    w0 + z0 along the radical, and attaches a nullvector or a hyperbolic
    partner according to z0. Different choices give isomorphic results.
    """
    _require_minimal(s, lam)
    proj, radform = choices if choices is not None else default_completion_choices(s.space)
    mixed = mixed_completion(s.space, proj, radform)
    c = lift_indicator(s, lam)
    w_tilde = solve(mixed.matrix, c)
    assert w_tilde is not None, "mixed completion is nondegenerate"
    z0 = proj @ w_tilde
    w0 = w_tilde ^ z0
    if z0.is_zero():
        return _attach_nullvector(s, lam, w0, z0)
    pairings = list(mixed.matrix @ z0)
    return _attach_hyperbolic(s, lam, w0, z0, pairings)


def _attach_nullvector(s: SRS, lam: BitVec, w0: BitVec, z0: BitVec) -> tuple[SRS, ExtensionWitness]:
    d = s.space.dim
    space = SympSpace(block_diag(s.space.gram, BitMat.zeros(1, 1)))
    new_deco = w0.pad(d + 1) ^ BitVec.basis(d + 1, d)
    out = SRS(
        _extended_graph(s.graph, lam),
        space,
        tuple(v.pad(d + 1) for v in s.deco) + (new_deco,),
    )
    n, k = s.type
    assert out.type == (n, k + 1)
    return out, ExtensionWitness(NEW_NULLVECTOR, w0, z0, new_deco)


def _attach_hyperbolic(
    s: SRS, lam: BitVec, w0: BitVec, z0: BitVec, pairings: list[int]
) -> tuple[SRS, ExtensionWitness]:
    d = s.space.dim
    x_index = next((i for i, bit in enumerate(pairings) if bit), None)
    assert x_index is not None, "the radical part pairs nontrivially with something"
    rows = [old | (pairings[i] << d) for i, old in enumerate(s.space.gram.rows)]
    rows.append(sum(bit << i for i, bit in enumerate(pairings)))
    space = SympSpace(BitMat(d + 1, rows))
    new_deco = w0.pad(d + 1) ^ BitVec.basis(d + 1, d)
    out = SRS(
        _extended_graph(s.graph, lam),
        space,
        tuple(v.pad(d + 1) for v in s.deco) + (new_deco,),
    )
    n, k = s.type
    assert out.type == (n + 1, k - 1)
    return out, ExtensionWitness(
        NEW_HYPERBOLIC, w0, z0, new_deco, BitVec.basis(d + 1, x_index)
    )


def double_extend_extraspecial(
    s: SRS, lam_p: BitVec, lam_q: BitVec, pq_edge: bool
) -> tuple[SRS, ExtensionWitness, ExtensionWitness]:
    """Attach two nodes p, q at once to a nondegenerate system.

    With w_p, w_q the representing vectors of the two lifted forms, the
    outcome follows a strict dichotomy: when <w_p, w_q> agrees with the
    requested p-q adjacency the two new coordinates must pair to 1 and the
    result is again extraspecial of type (n + 1, 0); when they disagree
    the new coordinates are two fresh nullvectors and the type is (n, 2).
    Restricting away either new node recovers the corresponding single
    extension on the nose.
    """
    _require_minimal(s, lam_p)
    _require_minimal(s, lam_q)
    if not s.type.is_extraspecial:
        raise SRSError(f"space has type {tuple(s.type)}, not extraspecial")
    c_p = lift_indicator(s, lam_p)
    c_q = lift_indicator(s, lam_q)
    w_p = solve(s.space.gram, c_p)
    w_q = solve(s.space.gram, c_q)
    assert w_p is not None and w_q is not None
    orthogonal = s.space.form(w_p, w_q) == 0
    d = s.space.dim
    n = s.graph.n
    edges = list(s.graph.edges)
    edges += [(v, n) for v in lam_p.support()]
    edges += [(v, n + 1) for v in lam_q.support()]
    if pq_edge:
        edges.append((n, n + 1))
    graph = Graph(n + 2, edges)
    hyperbolic = orthogonal == pq_edge
    tail = BitMat.from_rows(["01", "10"]) if hyperbolic else BitMat.zeros(2, 2)
    space = SympSpace(block_diag(s.space.gram, tail))
    deco_p = w_p.pad(d + 2) ^ BitVec.basis(d + 2, d)
    deco_q = w_q.pad(d + 2) ^ BitVec.basis(d + 2, d + 1)
    out = SRS(graph, space, tuple(v.pad(d + 2) for v in s.deco) + (deco_p, deco_q))
    assert out.type == ((s.type.n + 1, 0) if hyperbolic else (s.type.n, 2))
    zero = BitVec.zero(d)
    if hyperbolic:
        wit_p = ExtensionWitness(NEW_HYPERBOLIC, w_p, zero, deco_p, BitVec.basis(d + 2, d + 1))
        wit_q = ExtensionWitness(NEW_HYPERBOLIC, w_q, zero, deco_q, BitVec.basis(d + 2, d))
    else:
        wit_p = ExtensionWitness(NEW_NULLVECTOR, w_p, zero, deco_p)
        wit_q = ExtensionWitness(NEW_NULLVECTOR, w_q, zero, deco_q)
    return out, wit_p, wit_q


def build_by_extension(g: Graph, order: list[int] | None = None) -> SRS:
    """Build a minimal SRS on g by extending node by node from nothing.

    ``order`` fixes the insertion sequence (default 0..n-1); the result is
    always minimal and isomorphic to minimal_srs(g) whatever the order.
    """
    sequence = list(order) if order is not None else list(range(g.n))
    if sorted(sequence) != list(range(g.n)):
        raise ValueError("order must be a permutation of the nodes")
    s = minimal_srs(Graph(0))
    for v in sequence:
        lam = BitVec.from_bits([1 if g.has_edge(v, u) else 0 for u in sequence[: s.graph.n]])
        s, _ = extend_minimal(s, lam)
    position = {v: i for i, v in enumerate(sequence)}
    return SRS(g, s.space, tuple(s.deco[position[p]] for p in range(g.n)))


def replay(
    s: SRS, lam: BitVec, witness: ExtensionWitness, choices: tuple[BitMat, BitMat] | None = None
) -> SRS:
    """Re-run an extension and check every recorded choice still matches."""
    out, fresh = extend_minimal(s, lam, choices)
    if fresh != witness:
        raise SRSError(f"witness mismatch: recorded {witness}, replay produced {fresh}")
    return out


def witness_to_json(w: ExtensionWitness) -> dict:
    return {
        "case": w.case,
        "w0": str(w.w0),
        "z0": str(w.z0),
        "new_deco": str(w.new_deco),
        "x_choice": None if w.x_choice is None else str(w.x_choice),
    }


def witness_from_json(payload: dict) -> ExtensionWitness:
    try:
        return ExtensionWitness(
            payload["case"],
            BitVec.from_string(payload["w0"]),
            BitVec.from_string(payload["z0"]),
            BitVec.from_string(payload["new_deco"]),
            None if payload.get("x_choice") is None else BitVec.from_string(payload["x_choice"]),
        )
    except KeyError as exc:
        raise ValueError(f"malformed witness JSON: missing {exc}") from exc
