import itertools
import random

import pytest

from oracles import extend_extraspecial, extend_nullspace
from symprs.extend import (
    NEW_HYPERBOLIC,
    NEW_NULLVECTOR,
    build_by_extension,
    double_extend_extraspecial,
    extend_minimal,
    lift_indicator,
    replay,
    witness_from_json,
    witness_to_json,
)
from symprs.gf2 import BitMat, BitVec
from symprs.graph import Graph, all_graphs, dynkin_graph
from symprs.srs import SRSError, minimal_srs, restrict, srs_isomorphic
from symprs.symplectic import default_completion_choices, mixed_completion, random_completion_choices


def indicators(n):
    return (BitVec(n, bits) for bits in range(1 << n))


def test_lift_indicator_inverts_decoration_pairing():
    s = minimal_srs(dynkin_graph("A", 4))
    for lam in indicators(4):
        c = lift_indicator(s, lam)
        for q in range(4):
            assert (c.bits & s.deco.rows[q]).bit_count() % 2 == lam[q]


def test_lift_indicator_rejects_nonminimal():
    s = minimal_srs(dynkin_graph("A", 3))
    quotiented = s.space.radical[0]
    from symprs.srs import quotient

    small, _ = quotient(s, [quotiented])
    with pytest.raises(SRSError):
        lift_indicator(small, BitVec.zero(3))


def test_extend_round_trip_is_exact():
    s = minimal_srs(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    for lam in indicators(4):
        out, _ = extend_minimal(s, lam)
        assert restrict(out, range(4)) == s
        for q in range(4):
            assert out.graph.has_edge(q, 4) == bool(lam[q])
        assert out.is_minimal


def test_extension_type_transitions():
    s = minimal_srs(dynkin_graph("A", 3))  # type (1, 1)
    seen = set()
    for lam in indicators(3):
        out, wit = extend_minimal(s, lam)
        if wit.case == NEW_NULLVECTOR:
            assert out.type == (1, 2)
            assert wit.z0.is_zero() and wit.x_choice is None
        else:
            assert out.type == (2, 0)
            assert not wit.z0.is_zero()
            assert wit.x_choice is not None
        seen.add(wit.case)
    assert seen == {NEW_NULLVECTOR, NEW_HYPERBOLIC}


def test_nullvector_case_count_is_2_to_2n():
    # The lifted form lands in the image of the degenerate pairing for
    # exactly 2^(2n) of the 2^(2n+k) indicators.
    for graph in [
        dynkin_graph("A", 3),
        dynkin_graph("A", 5),
        Graph(4, [(0, 1)]),
        Graph(4, []),
        dynkin_graph("D", 5),
        Graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)]),
    ]:
        s = minimal_srs(graph)
        n, k = s.type
        null = sum(
            1 for lam in indicators(graph.n) if extend_minimal(s, lam)[1].case == NEW_NULLVECTOR
        )
        assert null == 1 << (2 * n)


def test_extraspecial_matches_general_route():
    for graph in [dynkin_graph("A", 2), dynkin_graph("A", 4), Graph(4, [(0, 1), (2, 3)])]:
        s = minimal_srs(graph)
        assert s.type.is_extraspecial
        for lam in indicators(graph.n):
            special = extend_extraspecial(s, lam)
            general = extend_minimal(s, lam)
            assert special == general


def test_nullspace_matches_general_route():
    for n in range(1, 5):
        s = minimal_srs(Graph(n, []))
        assert s.type == (0, n)
        for lam in indicators(n):
            special = extend_nullspace(s, lam)
            general = extend_minimal(s, lam)
            assert special == general


def test_extraspecial_rejects_wrong_type():
    s = minimal_srs(dynkin_graph("A", 3))
    with pytest.raises(SRSError, match="extraspecial"):
        extend_extraspecial(s, BitVec.zero(3))
    with pytest.raises(SRSError, match="degenerate"):
        extend_nullspace(minimal_srs(dynkin_graph("A", 2)), BitVec.zero(2))


def test_indicator_dimension_checked():
    s = minimal_srs(dynkin_graph("A", 2))
    with pytest.raises(ValueError, match="indicator dimension"):
        extend_minimal(s, BitVec.zero(3))


def test_choice_independence_up_to_isomorphism():
    rng = random.Random(20)
    s = minimal_srs(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]))
    for lam in [BitVec.from_string("10010"), BitVec.from_string("11100"), BitVec.zero(5)]:
        results = [extend_minimal(s, lam)[0]]
        for _ in range(6):
            results.append(extend_minimal(s, lam, random_completion_choices(rng, s.space))[0])
        for other in results[1:]:
            assert srs_isomorphic(results[0], other) is not None


@pytest.mark.parametrize("proj, radform, message", [
    (["010", "000", "000"], None, "projection is not idempotent"),
    (["100", "010", "001"], None, "projection image not inside the radical"),
    (None, ["0"], "radical form degenerate"),
])
def test_bad_choices_raise_the_mixed_completion_messages(proj, radform, message):
    s = minimal_srs(dynkin_graph("A", 3))
    default_proj, default_radform = default_completion_choices(s.space)
    proj = default_proj if proj is None else BitMat.from_rows(proj)
    radform = default_radform if radform is None else BitMat.from_rows(radform)
    with pytest.raises(ValueError) as direct:
        mixed_completion(s.space, proj, radform)
    assert str(direct.value) == message
    with pytest.raises(ValueError) as through_extension:
        extend_minimal(s, BitVec.from_string("101"), (proj, radform))
    assert str(through_extension.value) == message


def test_explicit_choices_change_data_not_class():
    # At least one nonstandard choice should produce different raw data,
    # otherwise the isomorphism test above is vacuous.
    rng = random.Random(21)
    s = minimal_srs(dynkin_graph("D", 6))
    lam = BitVec.from_string("010001")
    base, _ = extend_minimal(s, lam)
    found_different = False
    for _ in range(12):
        out, _ = extend_minimal(s, lam, random_completion_choices(rng, s.space))
        if out != base:
            found_different = True
    assert found_different


def test_double_extension_dichotomy_table():
    # All four (orthogonal, requested edge) combinations on one space.
    s = minimal_srs(dynkin_graph("A", 2))
    # w = G^-1 c, so <w_p, w_q> = c_p . G^-1 c_q; pick indicators realizing
    # both orthogonality values.
    lam_orth = (BitVec.from_string("10"), BitVec.from_string("10"))
    lam_skew = (BitVec.from_string("10"), BitVec.from_string("01"))
    for (lam_p, lam_q), orth in [(lam_orth, True), (lam_skew, False)]:
        for edge in (False, True):
            out, wit_p, wit_q = double_extend_extraspecial(s, lam_p, lam_q, edge)
            if orth == edge:
                assert out.type == (2, 0)
                assert wit_p.case == wit_q.case == NEW_HYPERBOLIC
            else:
                assert out.type == (1, 2)
                assert wit_p.case == wit_q.case == NEW_NULLVECTOR
            assert out.graph.has_edge(2, 3) == edge
            assert restrict(out, range(2)) == s


def test_double_extension_restricts_to_single_extensions():
    s = minimal_srs(dynkin_graph("A", 4))
    for bits_p, bits_q, edge in itertools.product(range(16), range(16), (False, True)):
        lam_p = BitVec(4, bits_p)
        lam_q = BitVec(4, bits_q)
        out, _, _ = double_extend_extraspecial(s, lam_p, lam_q, edge)
        single_p = extend_extraspecial(s, lam_p)[0]
        single_q = extend_extraspecial(s, lam_q)[0]
        assert srs_isomorphic(restrict(out, [0, 1, 2, 3, 4]), single_p) is not None
        got_q = restrict(out, [0, 1, 2, 3, 5])
        assert srs_isomorphic(got_q, single_q) is not None


def test_build_by_extension_small_sweep():
    for n in range(6):
        for g in all_graphs(n):
            built = build_by_extension(g)
            assert built.graph == g
            assert built.is_minimal
            assert srs_isomorphic(built, minimal_srs(g)) is not None


def test_build_by_extension_order_independent():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    rng = random.Random(7)
    base = build_by_extension(g)
    for _ in range(5):
        order = list(range(6))
        rng.shuffle(order)
        other = build_by_extension(g, order)
        assert other.graph == g
        assert srs_isomorphic(base, other) is not None
    with pytest.raises(ValueError, match="permutation"):
        build_by_extension(g, [0, 0, 1, 2, 3, 4])


def test_a_chain_growth_alternates_types():
    # Growing a path one node at a time flips between (m, 0) and (m, 1).
    s = minimal_srs(Graph(0))
    for length in range(1, 9):
        lam = BitVec.zero(length - 1)
        if length > 1:
            lam ^= BitVec.basis(length - 1, length - 2)
        s, wit = extend_minimal(s, lam)
        m = length // 2
        if length % 2:
            assert wit.case == NEW_NULLVECTOR
            assert s.type == (m, 1)
        else:
            assert wit.case == NEW_HYPERBOLIC
            assert s.type == (m, 0)
    assert srs_isomorphic(s, minimal_srs(dynkin_graph("A", 8))) is not None


def test_replay_checks_witness():
    s = minimal_srs(dynkin_graph("D", 4))
    lam = BitVec.from_string("1010")
    out, wit = extend_minimal(s, lam)
    assert replay(s, lam, wit) == out
    tampered = witness_from_json({**witness_to_json(wit), "w0": str(wit.w0 ^ s.deco.row(0))})
    with pytest.raises(SRSError, match="witness mismatch"):
        replay(s, lam, tampered)


def test_witness_json_round_trip():
    s = minimal_srs(dynkin_graph("A", 3))
    for lam in indicators(3):
        _, wit = extend_minimal(s, lam)
        assert witness_from_json(witness_to_json(wit)) == wit
    with pytest.raises(ValueError, match="malformed"):
        witness_from_json({"case": NEW_NULLVECTOR})
    fields = {"w0": "", "z0": "", "new_deco": ""}
    for case in (5, "new_radical", None, True):
        with pytest.raises(ValueError, match="unknown case"):
            witness_from_json({"case": case, **fields})
    for payload in ([1], "new_nullvector", None, 3):
        with pytest.raises(ValueError, match="expected an object"):
            witness_from_json(payload)


def test_hyperbolic_witness_pairs_with_new_coordinate():
    s = minimal_srs(Graph(5, [(0, 1), (2, 3)]))
    d = s.space.dim
    for lam in indicators(5):
        out, wit = extend_minimal(s, lam)
        if wit.case != NEW_HYPERBOLIC:
            continue
        new_coord = BitVec.basis(d + 1, d)
        assert out.space.form(new_coord, wit.x_choice) == 1
        assert wit.new_deco == wit.w0.pad(d + 1) ^ new_coord


def test_extension_from_empty_graph_builds_first_node():
    s = minimal_srs(Graph(0))
    out, wit = extend_minimal(s, BitVec.zero(0))
    assert out == minimal_srs(Graph(1, []))
    assert wit.case == NEW_NULLVECTOR
