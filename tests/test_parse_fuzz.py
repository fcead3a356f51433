"""Fuzz the parse boundaries: only SRSError or ValueError may leave them.

``parse_graph``, ``srs_from_json`` and ``witness_from_json`` get arbitrary
JSON-like values, arbitrary text, and valid payloads with one field
replaced or deleted. Integers include node counts far beyond the node cap,
which must be rejected before anything is allocated.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from symprs.extend import extend_minimal, witness_from_json, witness_to_json
from symprs.gf2 import BitVec
from symprs.graph import MAX_NODES, dynkin_graph, parse_graph
from symprs.srs import SRSError, minimal_srs, srs_from_json, srs_to_json

FUZZ = settings(deadline=None, max_examples=300)

KEYS = ("nodes", "edges", "graph", "gram", "dim", "deco", "type", "minimal",
        "case", "w0", "z0", "new_deco", "x_choice", "0", "1")

# node counts past the cap that no list could hold; drawn ints stay below
# 2^20, so even an unchecked [0] * n is small
huge = st.sampled_from([MAX_NODES + 1, 1 << 62, 10**20])
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(1 << 20), 1 << 20)
    | st.sampled_from([-1, 0, 1, 2, MAX_NODES]) | huge
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["", "0", "1", "01", "10", "110", "new_nullvector", "new_hyperbolic"])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

SRS_PAYLOAD = srs_to_json(minimal_srs(dynkin_graph("D", 4)))
WITNESS_PAYLOAD = witness_to_json(
    extend_minimal(minimal_srs(dynkin_graph("A", 3)), BitVec.from_string("101"))[1])


def only_clean_errors(fn, payload) -> None:
    """Call fn; any exception other than SRSError/ValueError fails the test."""
    try:
        fn(payload)
    except (SRSError, ValueError):
        pass


@st.composite
def mutations(draw, payload: dict) -> dict:
    """payload with one key (its own, or any of KEYS) replaced or deleted."""
    out = dict(payload)
    key = draw(st.sampled_from(sorted(payload)) | st.sampled_from(KEYS))
    if draw(st.booleans()):
        out.pop(key, None)
    else:
        out[key] = draw(huge | json_values)
    return out


@FUZZ
@given(json_values | huge.map(lambda n: {"nodes": n}) | mutations(SRS_PAYLOAD["graph"]))
def test_parse_graph_json(value):
    only_clean_errors(parse_graph, json.dumps(value))


@FUZZ
@given(st.text(alphabet="ne0123456789 #\n-x", max_size=40)
       | st.builds("n {}\ne 0 1\n".format, huge | scalars))
def test_parse_graph_edge_list(text):
    only_clean_errors(parse_graph, text)


@FUZZ
@given(json_values
       | huge.map(lambda n: dict(SRS_PAYLOAD, graph={"nodes": n}))
       | mutations(SRS_PAYLOAD)
       | mutations(SRS_PAYLOAD["graph"]).map(lambda graph: dict(SRS_PAYLOAD, graph=graph))
       | mutations(SRS_PAYLOAD["deco"]).map(lambda deco: dict(SRS_PAYLOAD, deco=deco)))
def test_srs_from_json(payload):
    only_clean_errors(srs_from_json, payload)


@FUZZ
@given(json_values | mutations(WITNESS_PAYLOAD))
def test_witness_from_json(payload):
    only_clean_errors(witness_from_json, payload)
