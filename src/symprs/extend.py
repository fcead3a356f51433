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

A default step costs three ``_hyperbolic`` calls and O(dim) int work: the
lifted form is read off the columns of D^-1 that the system caches and
each step carries to the next, and the default projection P onto the
radical is never built: its transpose is applied through ``_hyperbolic``,
and P itself vanishes on the vector it would be applied to
(``extend_minimal``). What remains per node is the greedy symplectic
basis of the new space, which ``_attach``'s type check computes and the
next step's ``_hyperbolic`` reads.

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
lam(q). The old rows are kept as they are, since a row of the old space is
a row of the larger one with e-coordinate 0: old pairings are unchanged,
and the old rows span the old coordinates, e the new one.
``build_by_extension`` only reorders the rows of the result.
The test suite validates every result in full (``tests/conftest.py``), and
acceptance criterion 3 checks that the built system is isomorphic to the
minimal one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMat, BitVec, _solve_bits, row_combination
from .graph import Graph
from .srs import SRS, SRSError, _gather, minimal_srs
from .symplectic import SympSpace, mixed_completion

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


def lift_indicator(s: SRS, lam: BitVec) -> BitVec:
    """Coefficients of the unique linear form taking value lam(q) on each
    decoration; exists and is unique because the decorations are a basis.
    It is c = D^-1 lam, read off the system's cached columns of D^-1."""
    _require_minimal(s, lam)
    return BitVec(s.space.dim, row_combination(s._deco_inverse, lam.bits))


def _completion_maps(space: SympSpace, choices: tuple[BitMat, BitMat] | None):
    """The maps u -> P^T u, w -> (I + P) w for w in the span of the
    hyperbolic pairs, and gamma -> R^-1 gamma of the mixed completion built
    from ``choices``, on ints: read off ``proj``'s rows once
    ``mixed_completion`` has validated them, or through ``_hyperbolic`` for
    the default choices (see ``extend_minimal``).
    """
    if choices is None:
        gram, hyperbolic = space.gram.rows, space._hyperbolic
        return (
            lambda u: u ^ row_combination(gram, hyperbolic(u)),
            # H G is the identity on the hyperbolic span, so P w = w + H G w = 0
            lambda w: w,
            lambda gamma: gamma,
        )
    proj, radform = choices
    mixed_completion(space, proj, radform)  # raises on invalid choices
    return (
        lambda u: row_combination(proj.rows, u),
        lambda w: w ^ sum(((r & w).bit_count() & 1) << i for i, r in enumerate(proj.rows)),
        lambda gamma: _solve_bits(radform, gamma),
    )


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
    new coordinate pairs with the old ones as P^T Gamma, the sum of the rows
    of P at the radical pivots (top bits) that gamma selects.

    The step needs P only through u -> P^T u and w -> P w. The default P
    (``default_completion_choices``) is never built: with H the symmetric
    map ``_hyperbolic`` and G the Gram matrix, its column j is e_j + H G e_j,
    so P = I + H G and P^T = I + G H, and P^T is one ``_hyperbolic`` call.
    P w costs nothing: w lies in the span of the hyperbolic pairs, where
    H G is the identity, so P w = 0 and w0 = w. The default R is the
    identity. c is read off the cached columns of D^-1, as in
    ``lift_indicator``, and ``_attach`` carries them to the result.
    """
    _require_minimal(s, lam)
    transposed, complement, radical_coords = _completion_maps(s.space, choices)
    c = row_combination(s._deco_inverse, lam.bits)
    radical = s.space._radical
    gamma = sum(((c & r).bit_count() & 1) << j for j, r in enumerate(radical))
    alpha = radical_coords(gamma)
    assert alpha is not None, "radical form is nondegenerate"
    w = s.space._hyperbolic(c ^ transposed(c))
    pivots = row_combination([1 << (r.bit_length() - 1) for r in radical], gamma)
    return _attach(s, lam, complement(w), row_combination(radical, alpha), transposed(pivots))


def _attach(
    s: SRS, lam: BitVec, w0: int, z0: int, pairings: int
) -> tuple[SRS, ExtensionWitness]:
    """Adjoin one coordinate that pairs with old coordinate i as bit i of
    ``pairings`` says, and decorate the new node by w0 plus it.

    Zero pairings adjoin a nullvector: type (n, k) -> (n, k + 1). Otherwise
    the new coordinate is the partner of a hyperbolic pair, type
    (n + 1, k - 1), and ``x_choice`` is the lowest coordinate it pairs with.

    The result carries D^-1 with no elimination. The new D is D plus the
    row w0 + e_d, so its inverse is D^-1 plus the last row w0^T D^-1: old
    column p gains bit d = w0 . column p, and the new column is e_d.
    """
    d = s.space.dim
    rows = [old | ((pairings >> i & 1) << d) for i, old in enumerate(s.space.gram.rows)]
    rows.append(pairings)
    new_deco = BitVec(d + 1, w0 | 1 << d)
    out = SRS._trusted(
        s.graph._with_node(lam.bits),
        SympSpace._trusted(BitMat._trusted(d + 1, rows)),
        BitMat._trusted(d + 1, s.deco.rows + (new_deco.bits,)),
    )
    inverse_cols = [col | ((w0 & col).bit_count() & 1) << d for col in s._deco_inverse]
    inverse_cols.append(1 << d)
    object.__setattr__(out, "_deco_inverse", inverse_cols)
    n, k = s.type
    if not pairings:
        assert out.type == (n, k + 1)
        return out, ExtensionWitness(NEW_NULLVECTOR, BitVec(d, w0), BitVec(d, z0), new_deco)
    assert out.type == (n + 1, k - 1)
    x_choice = BitVec(d + 1, pairings & -pairings)
    return out, ExtensionWitness(NEW_HYPERBOLIC, BitVec(d, w0), BitVec(d, z0), new_deco, x_choice)


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
    zero = BitVec.zero(d)
    wit_p = ExtensionWitness(
        step_q.case, step_p.w0, zero, step_p.new_deco.pad(d + 2),
        BitVec.basis(d + 2, d + 1) if step_q.case == NEW_HYPERBOLIC else None,
    )
    wit_q = ExtensionWitness(
        step_q.case, BitVec(d, step_q.w0.bits), zero, step_q.new_deco, step_q.x_choice
    )
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
