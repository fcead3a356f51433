"""Growing minimal systems one node at a time.

Given a minimal SRS and an indicator of which existing nodes the new node
should attach to, there is an essentially unique minimal SRS on the
extended graph. The indicator lifts to a linear form; representing that
form through a nondegenerate completion of the (possibly degenerate)
symplectic form yields a vector w0 + z0 split along the radical, read off
the symplectic basis (coordinates there are form values, so no completed
matrix is built), and the radical part decides between two outcomes:

* z0 = 0: the space grows by a new nullvector z, the new node gets w0 + z,
  type (n, k) -> (n, k + 1);
* z0 != 0: the space grows by the partner y of a hyperbolic pair, the new
  node gets w0 + y, type (n, k) -> (n + 1, k - 1).

A default step costs one ``_hyperbolic`` call and O(dim) int work: the
lifted form is read off the columns of D^-1, which the system caches as
its per-node functionals (``SRS._duals``) and each step carries to the
next, and the default projection P onto the radical is never built,
since two identities make it drop out of the step (``extend_minimal``).
The new space carries its hyperbolic pairs and radical rows the same way
(``SympSpace._adjoined``): the null case keeps the pairs and adds e_d to
the radical, the hyperbolic case moves one radical row into a new pair,
on the default route and with explicit choices alike. So no step builds
a greedy symplectic basis. The pairs differ from the greedy ones, but
``_hyperbolic`` does not depend on the pairs (see
``SympSpace._hyperbolic``), so every witness and output is the same.

Extraspecial (k = 0) and totally-degenerate (n = 0) inputs admit direct
constructions that the general route reproduces exactly; the tests keep
both as independent oracles (``tests/oracles.py``). Every choice made
along the way is recorded in a witness so a run can be replayed and
audited. Folding extensions over all nodes of a graph builds its minimal
SRS from nothing, in any node order, and all orders agree up to
isomorphism.

The extended system is not re-validated (``SRS._trusted``). Since z0 is
radical and P w0 = 0, the lifted form is c . v = <w0, v> + <<z0, v>>, and
the adjoined coordinate e pairs with v as <<z0, v>>. So the new decoration
w0 + e, appended as the last row of D, pairs with row q as c . D_q =
lam(q). The old rows are kept as they are (``SRS._appended``), so old
pairings are unchanged. ``build_by_extension`` only reorders the rows of
the result.
The test suite validates every result in full (``tests/conftest.py``), and
acceptance criterion 3 checks that the built system is isomorphic to the
minimal one.
"""

from __future__ import annotations

from typing import NamedTuple

from .gf2 import BitMat, BitVec, _gather, row_combination
from .graph import Graph, _check_node_types
from .srs import SRS, SRSError, minimal_srs

__all__ = [
    "ExtensionWitness",
    "lift_indicator",
    "extend_minimal",
    "double_extend_extraspecial",
    "build_by_extension",
    "replay",
    "witness_to_json",
    "witness_from_json",
]

NEW_NULLVECTOR = "new_nullvector"
NEW_HYPERBOLIC = "new_hyperbolic"


class ExtensionWitness(NamedTuple):
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


def lift_indicator(s: SRS, lam: BitVec) -> BitVec:
    """Coefficients of the unique linear form taking value lam(q) on each
    decoration; exists and is unique because the decorations are a basis.
    It is c = D^-1 lam, read off the columns of D^-1 that the system
    caches as ``SRS._duals``."""
    _require_minimal(s, lam)
    return BitVec(s.space.dim, row_combination(s._duals[0], lam.bits))


def extend_minimal(
    s: SRS, lam: BitVec, choices: tuple[BitMat, BitMat] | None = None
) -> tuple[SRS, ExtensionWitness]:
    """Extension of an arbitrary minimal system.

    Represents the lifted form c as <<w0 + z0, .>> in the mixed completion
    built from ``choices`` (a radical projection P and a symmetric
    nondegenerate form R on the radical; defaults are canonical), with z0
    in the radical and P w0 = 0, and attaches a nullvector or a hyperbolic
    partner according to z0. Different choices give isomorphic results.
    Over the radical basis r_j, with gamma_j = c . r_j, z0 has coordinates
    R^-1 gamma and w0 is (I + P) w for w = ``_hyperbolic``(c + P^T c). The
    new coordinate pairs with the old ones as P^T Gamma, where Gamma is the
    sum of the unit vectors at the radical pivots (top bits) that gamma
    selects: ``SympSpace._adjoined`` makes the larger space from these
    pairings, and ``SRS._appended`` the larger system, decorating the new
    node by w0 plus the new coordinate.

    The pairings are zero exactly when z0 is, the null case, and then the
    new space gains a nullvector. Otherwise radical row r_j pairs with them
    as gamma_j (P is the identity on the radical), so one that pairs to 1
    exists, and the new coordinate is the partner of a hyperbolic pair:
    the new radical is one row shorter. So the h = ``_hyperbolic``(pairings)
    of ``_adjoined`` is 0 in the null case.

    Explicit choices are checked as ``mixed_completion`` checks them, and R
    inverted, once per space and pair of matrices
    (``SympSpace._completion``): a sweep over all indicators with the same
    choices pays for both once.

    The default choices (``default_completion_choices``) are never built:
    R is the identity, and with H the symmetric map ``_hyperbolic`` and G
    the Gram matrix, P = I + H G. Two identities leave one ``_hyperbolic``
    call per step:

    * w0 = H c. Here c + P^T c = G H c, and H G is the identity on the
      image of H (the span of the hyperbolic pairs), so w = H G H c = H c,
      and P w = w + H G w = 0.
    * P^T Gamma = Gamma. No x_i or y_i has a bit at a radical pivot (see
      ``SympSpace._radical``), so H Gamma = 0 and P^T = I + G H fixes it.
    """
    _require_minimal(s, lam)
    space = s.space
    c = row_combination(s._duals[0], lam.bits)
    radical = space._radical
    gamma = sum(((c & r).bit_count() & 1) << j for j, r in enumerate(radical))
    pivots = row_combination([1 << (r.bit_length() - 1) for r in radical], gamma)
    if choices is None:
        w0, z0, pairings = space._hyperbolic(c), row_combination(radical, gamma), pivots
    else:
        proj, radform = choices
        rows, radform_inverse = space._completion(proj, radform)  # raises on invalid choices
        w = space._hyperbolic(c ^ row_combination(rows, c))
        w0 = w ^ sum(((r & w).bit_count() & 1) << i for i, r in enumerate(rows))
        # R is symmetric, so R^-1 is too: R^-1 gamma combines its rows
        alpha = row_combination(radform_inverse, gamma)
        z0, pairings = row_combination(radical, alpha), row_combination(rows, pivots)
    d = space.dim
    out = s._appended(s.graph._with_node(lam.bits), space._adjoined(pairings), w0)
    assert (len(out.space._radical) < len(radical)) == bool(pairings), "case and type disagree"
    case = NEW_HYPERBOLIC if pairings else NEW_NULLVECTOR
    x_choice = BitVec(d + 1, pairings & -pairings) if pairings else None
    return out, ExtensionWitness(case, BitVec(d, w0), BitVec(d, z0), out.deco.row(d), x_choice)


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

    Runs as two single extensions: p always adds a nullvector z, and the
    lifted form of q takes the value <w_p, w_q> + [p ~ q] on z, so q adds
    the partner of z exactly when that value is 1. Both witnesses report
    the outcome of the second step.
    """
    _require_minimal(s, lam_p)
    _require_minimal(s, lam_q)
    if not s.type.is_extraspecial:
        raise SRSError(f"space has type {tuple(s.type)}, not extraspecial")
    n, d = s.graph.n, s.space.dim
    mid, step_p = extend_minimal(s, lam_p)
    out, step_q = extend_minimal(mid, BitVec(n + 1, lam_q.bits | pq_edge << n))
    wit_q = step_q._replace(w0=BitVec(d, step_q.w0.bits), z0=BitVec.zero(d))
    x_choice = BitVec.basis(d + 2, d + 1) if step_q.case == NEW_HYPERBOLIC else None
    wit_p = wit_q._replace(w0=step_p.w0, new_deco=step_p.new_deco.pad(d + 2), x_choice=x_choice)
    return out, wit_p, wit_q


def build_by_extension(g: Graph, order: list[int] | None = None) -> SRS:
    """Build a minimal SRS on g by extending node by node from nothing.

    ``order`` fixes the insertion sequence (default 0..n-1); the result is
    always minimal and isomorphic to minimal_srs(g) whatever the order.
    """
    try:
        sequence = list(order) if order is not None else list(range(g.n))
    except TypeError:
        raise ValueError(f"order {order!r} is not an iterable") from None
    _check_node_types(sequence)
    if sorted(sequence) != list(range(g.n)):
        raise ValueError("order must be a permutation of the nodes")
    s = minimal_srs(Graph(0))
    for i, v in enumerate(sequence):
        s, _ = extend_minimal(s, BitVec(i, _gather(g.adj[v], sequence[:i])))
    position = {v: i for i, v in enumerate(sequence)}
    rows = s.deco.rows
    return SRS._trusted(g, s.space, BitMat._trusted(s.space.dim, (rows[position[p]] for p in range(g.n))))


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
    if not isinstance(payload, dict):
        raise ValueError(f"malformed witness JSON: expected an object, got {type(payload).__name__}")
    try:
        case = payload["case"]
        if case not in (NEW_NULLVECTOR, NEW_HYPERBOLIC):
            raise ValueError(f"malformed witness JSON: unknown case {case!r}")
        return ExtensionWitness(
            case,
            BitVec.from_string(payload["w0"]),
            BitVec.from_string(payload["z0"]),
            BitVec.from_string(payload["new_deco"]),
            None if payload.get("x_choice") is None else BitVec.from_string(payload["x_choice"]),
        )
    except KeyError as exc:
        raise ValueError(f"malformed witness JSON: missing {exc}") from exc
