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
lifted form is read off the columns of D^-1 that the system caches and
each step carries to the next, and the default projection P onto the
radical is never built, since two identities make it drop out of the
step (``extend_minimal``). The new space's hyperbolic pairs and radical
rows are carried the same way (``_attach``): the null case keeps the
pairs and adds e_d to the radical, the hyperbolic case moves one radical
row into a new pair, on the default route and with explicit choices
alike. So no step builds a greedy symplectic basis. The pairs differ
from the greedy ones, but ``_hyperbolic`` does not depend on the pairs
(see ``SympSpace._hyperbolic``), so every witness and output is the
same.

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
    selects. c is read off the cached columns of D^-1, as in
    ``lift_indicator``, and ``_attach`` carries them to the result.

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
    c = row_combination(s._deco_inverse, lam.bits)
    radical = space._radical
    gamma = sum(((c & r).bit_count() & 1) << j for j, r in enumerate(radical))
    pivots = row_combination([1 << (r.bit_length() - 1) for r in radical], gamma)
    if choices is None:
        return _attach(s, lam, space._hyperbolic(c), row_combination(radical, gamma), pivots)
    proj, radform = choices
    mixed_completion(space, proj, radform)  # raises on invalid choices
    w = space._hyperbolic(c ^ row_combination(proj.rows, c))
    w0 = w ^ sum(((r & w).bit_count() & 1) << i for i, r in enumerate(proj.rows))
    alpha = _solve_bits(radform, gamma)
    assert alpha is not None, "radical form is nondegenerate"
    return _attach(s, lam, w0, row_combination(radical, alpha), row_combination(proj.rows, pivots))


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

    The new space carries its hyperbolic pairs and radical rows too, in
    O(dim) int work and with no greedy basis. An old vector pairs with e_d
    by its dot product with ``pairings``, and old vectors pair with each
    other as before. With zero pairings, e_d joins the radical and the
    pairs stay as they are (shared, not copied). Otherwise let z_m be the
    first radical row with z_m . pairings = 1. It exists exactly when the
    type goes to (n + 1, k - 1): were pairings zero on the radical, it
    would be G v for some v, and e_d + v a new radical vector, type
    (n, k + 1). So asserting z_m checks what a type assertion would,
    without building a greedy basis. Then (z_m, e_d + h), with
    h = ``_hyperbolic``(pairings), is one more pair: h pairs with every
    old pair vector as pairings does, so e_d + h pairs with none, and
    <z_m, e_d + h> = 1. The later radical rows that pair with e_d absorb
    z_m. On the default route h = 0, since pairings is a sum of radical
    pivots there (see ``extend_minimal``).

    The radical rows stay the canonical kernel basis: one row per free
    column t_j, with its highest bit there and no bit at another free
    column (see ``SympSpace._radical``). In the hyperbolic case the kept
    rows, z_j and z_j + z_m for j > m, are k - 1 kernel vectors with
    highest bits at the t_j other than t_m and no bit at another of them,
    so they are the canonical basis of the new kernel, of dimension
    k - 1, whose free columns are those t_j. In the null case the free
    columns gain d, with row e_d. The new pair, z_m and e_d + h, has no
    bit at a new free column, so the pairs span the new W and
    ``_hyperbolic`` reads the same map as a fresh space's.
    """
    space = s.space
    d = space.dim
    rows = [old | ((pairings >> i & 1) << d) for i, old in enumerate(space.gram.rows)]
    rows.append(pairings)
    new_deco = BitVec(d + 1, w0 | 1 << d)
    new_space = SympSpace._trusted(BitMat._trusted(d + 1, rows))
    out = SRS._trusted(
        s.graph._with_node(lam.bits),
        new_space,
        BitMat._trusted(d + 1, s.deco.rows + (new_deco.bits,)),
    )
    inverse_cols = [col | ((w0 & col).bit_count() & 1) << d for col in s._deco_inverse]
    inverse_cols.append(1 << d)
    object.__setattr__(out, "_deco_inverse", inverse_cols)
    radical = space._radical
    if not pairings:
        new_space._pairs = space._pairs
        new_space._radical = radical + [1 << d]
        return out, ExtensionWitness(NEW_NULLVECTOR, BitVec(d, w0), BitVec(d, z0), new_deco)
    m = next((j for j, z in enumerate(radical) if (z & pairings).bit_count() & 1), None)
    assert m is not None, "a hyperbolic step needs a radical row that pairs with the new coordinate"
    z_m = radical[m]
    xs, ys = space._pairs
    new_space._pairs = xs + [z_m], ys + [1 << d ^ space._hyperbolic(pairings)]
    new_space._radical = radical[:m] + [
        z ^ z_m if (z & pairings).bit_count() & 1 else z for z in radical[m + 1:]
    ]
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
