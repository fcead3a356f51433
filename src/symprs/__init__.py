"""Symplectic root systems over GF(2).

A symplectic root system decorates the nodes of a finite graph with
vectors of an alternating GF(2)-space so that two decorations pair to 1
exactly when the nodes are adjacent, and the decorations span. This
package constructs the minimal system of any graph, classifies all its
quotients, grows systems node by node, realizes the simply laced
diagrams explicitly, represents Weyl groups on them mod 2, and builds
the central extensions they present. Everything is exact bit arithmetic;
no floats, no randomness outside seeded tests.
"""

from .cartan import (
    CartanDatum,
    WeylRep,
    ade_srs,
    ade_table,
    automorphism_action_on_quotients,
    cartan_datum,
    group_order,
    parity_graph,
    roots,
    weyl_orbit,
    weyl_rep,
)
from .extend import (
    ExtensionWitness,
    build_by_extension,
    double_extend_extraspecial,
    extend_minimal,
    replay,
    witness_from_json,
    witness_to_json,
)
from .gf2 import BitMat, BitVec
from .graph import Graph, dynkin_graph, graph_classes, graph_to_json, parse_graph
from .grp2 import (
    BurnsideReport,
    CocycleGroup,
    burnside_check,
    extraspecial_sign,
    lift_decoration,
    make_group,
)
from .srs import (
    SRS,
    CocliqueReport,
    SRSError,
    SympMap,
    coclique_bound_check,
    enumerate_quotients,
    minimal_srs,
    quotient,
    radical_subspaces,
    restrict,
    srs_from_json,
    srs_isomorphic,
    srs_to_json,
    universal_map,
)
from .symplectic import (
    MixedForm,
    SpaceType,
    SympSpace,
    default_completion_choices,
    mixed_completion,
    standard_space,
)

__all__ = [
    "BitMat",
    "BitVec",
    "BurnsideReport",
    "CartanDatum",
    "CocliqueReport",
    "CocycleGroup",
    "ExtensionWitness",
    "Graph",
    "MixedForm",
    "SRS",
    "SRSError",
    "SpaceType",
    "SympMap",
    "SympSpace",
    "WeylRep",
    "ade_srs",
    "ade_table",
    "automorphism_action_on_quotients",
    "build_by_extension",
    "burnside_check",
    "cartan_datum",
    "coclique_bound_check",
    "default_completion_choices",
    "double_extend_extraspecial",
    "dynkin_graph",
    "enumerate_quotients",
    "extend_minimal",
    "extraspecial_sign",
    "graph_classes",
    "graph_to_json",
    "group_order",
    "lift_decoration",
    "make_group",
    "minimal_srs",
    "mixed_completion",
    "parity_graph",
    "parse_graph",
    "quotient",
    "radical_subspaces",
    "replay",
    "restrict",
    "roots",
    "srs_from_json",
    "srs_isomorphic",
    "srs_to_json",
    "standard_space",
    "universal_map",
    "weyl_orbit",
    "weyl_rep",
    "witness_from_json",
    "witness_to_json",
]
