"""End-to-end tests for the srs command line tool."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from symprs.cli import _MAX_ADE_RANK, main
from symprs.graph import MAX_CLASS_NODES, MAX_COCLIQUE_NODES, MAX_NODES, Graph
from symprs.srs import _MAX_COUNTED_RADICAL_DIM, MAX_QUOTIENT_RADICAL_DIM, SRS, CocliqueReport
from symprs.symplectic import SympSpace
from test_golden import GOLDEN, _argv

A4_EDGES = "n 4\ne 0 1\ne 1 2\ne 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, text, name="g.graph"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_type_verb(tmp_path, capsys):
    path = write_graph(tmp_path, A4_EDGES)
    code, out, _ = run(capsys, "type", "--graph", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == [2, 0]
    assert payload["extraspecial"] is True
    assert payload["dim"] == 4


def test_type_accepts_json_graphs(tmp_path, capsys):
    path = write_graph(tmp_path, '{"nodes": 3, "edges": [[0, 1], [1, 2]]}')
    code, out, _ = run(capsys, "type", "--graph", path)
    assert code == 0
    assert json.loads(out)["type"] == [1, 1]


def test_minimal_round_trips_through_json(tmp_path, capsys):
    from symprs.srs import minimal_srs, srs_from_json
    from symprs.graph import parse_graph

    path = write_graph(tmp_path, A4_EDGES)
    code, out, _ = run(capsys, "minimal", "--graph", path)
    assert code == 0
    assert srs_from_json(json.loads(out)) == minimal_srs(parse_graph(A4_EDGES))


def test_quotients_counts(tmp_path, capsys):
    path = write_graph(tmp_path, "n 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _ = run(capsys, "quotients", "--graph", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["total"] == 2
    assert payload["by_type"] == [[2, 1, 1], [2, 0, 1]]
    assert len(payload["classes"]) == 2
    code, out, _ = run(capsys, "quotients", "--graph", path, "--summary")
    assert "classes" not in json.loads(out)


def _forbid_constructing(monkeypatch, cls, message):
    """Make ``cls(...)`` and the library's ``cls._trusted(...)`` both raise."""

    def built(*args):
        raise AssertionError(message)

    monkeypatch.setattr(cls, "__init__", built)
    monkeypatch.setattr(cls, "_trusted", classmethod(built))


def _forbid_building(monkeypatch):
    def built(*args):
        raise AssertionError("a subspace or quotient was built")

    monkeypatch.setattr("symprs.srs.subspaces", built)
    monkeypatch.setattr("symprs.srs.quotient", built)


def test_quotients_summary_counts_without_building(tmp_path, capsys, monkeypatch):
    """Twelve isolated nodes: radical dimension 12, so G_2(12) classes."""
    _forbid_building(monkeypatch)
    path = write_graph(tmp_path, "n 12\n")
    code, out, _ = run(capsys, "quotients", "--graph", path, "--summary")
    payload = json.loads(out)
    assert code == 0
    assert payload["total"] == 488_176_700_923 == sum(count for *_, count in payload["by_type"])
    assert payload["by_type"][0] == [0, 12, 1] and payload["by_type"][-1] == [0, 0, 1]


def test_quotients_check_the_radical_cap_before_any_subspace(tmp_path, capsys, monkeypatch):
    _forbid_building(monkeypatch)
    path = write_graph(tmp_path, "n 10\ne 0 1\n")  # type (1, 8)
    code, out, err = run(capsys, "quotients", "--graph", path)
    assert code == 1 and out == ""
    assert err == f"error: radical dimension 8 exceeds the cap of {MAX_QUOTIENT_RADICAL_DIM}\n"


@pytest.mark.parametrize("n", [MAX_QUOTIENT_RADICAL_DIM + 1, 300, MAX_NODES])
def test_quotients_cap_the_radical_before_building_the_minimal_system(tmp_path, capsys, monkeypatch, n):
    """Isolated nodes: radical dimension n, read before the minimal system
    on n unit decorations is built."""
    _forbid_constructing(monkeypatch, SRS, "an SRS was built")
    path = write_graph(tmp_path, f"n {n}\n")
    code, out, err = run(capsys, "quotients", "--graph", path)
    assert code == 1 and out == ""
    assert err == f"error: radical dimension {n} exceeds the cap of {MAX_QUOTIENT_RADICAL_DIM}\n"


@pytest.mark.parametrize("n", [_MAX_COUNTED_RADICAL_DIM + 1, 300, MAX_NODES])
def test_quotients_summary_caps_the_radical_before_counting(tmp_path, capsys, n):
    """Isolated nodes: radical dimension n, whose counts would not print."""
    path = write_graph(tmp_path, f"n {n}\n")
    code, out, err = run(capsys, "quotients", "--graph", path, "--summary")
    assert code == 1 and out == ""
    assert err == f"error: radical dimension {n} exceeds the counting cap of {_MAX_COUNTED_RADICAL_DIM}\n"


def test_extend_then_iso(tmp_path, capsys):
    # Attaching a node to both ends of the path gives the 5-cycle's
    # minimal system; the iso verb should confirm that.
    path = write_graph(tmp_path, A4_EDGES)
    code, out, _ = run(capsys, "extend", "--graph", path, "--attach", "0,3")
    assert code == 0
    extended = tmp_path / "ext.json"
    extended.write_text(json.dumps(json.loads(out)["srs"]))

    cycle = write_graph(
        tmp_path, "n 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n", "c5.graph"
    )
    code, out, _ = run(capsys, "minimal", "--graph", cycle)
    minimal = tmp_path / "c5.json"
    minimal.write_text(out)

    code, out, _ = run(capsys, "iso", str(extended), str(minimal))
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["matrix"] is not None


def test_extend_rejects_bad_attach(tmp_path, capsys):
    path = write_graph(tmp_path, A4_EDGES)
    code, _, err = run(capsys, "extend", "--graph", path, "--attach", "0,9")
    assert code == 1
    assert "out of range" in err
    code, _, err = run(capsys, "extend", "--graph", path, "--attach", "1,1")
    assert code == 1
    assert "twice" in err


def test_iso_distinct_classes(tmp_path, capsys):
    path = write_graph(tmp_path, "n 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _ = run(capsys, "quotients", "--graph", path)
    classes = json.loads(out)["classes"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(classes[0]))
    b.write_text(json.dumps(classes[1]))
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out) == {"isomorphic": False, "matrix": None}


def test_iso_different_graphs_is_an_error(tmp_path, capsys):
    a4 = write_graph(tmp_path, A4_EDGES, "a4.graph")
    a3 = write_graph(tmp_path, "n 3\ne 0 1\ne 1 2\n", "a3.graph")
    code, out, _ = run(capsys, "minimal", "--graph", a4)
    (tmp_path / "a4.json").write_text(out)
    code, out, _ = run(capsys, "minimal", "--graph", a3)
    (tmp_path / "a3.json").write_text(out)
    code, _, err = run(capsys, "iso", str(tmp_path / "a4.json"), str(tmp_path / "a3.json"))
    assert code == 1
    assert err.startswith("error:")


def test_ade_verb(capsys):
    code, out, _ = run(capsys, "ade", "--family", "D", "--rank", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == [2, 2]
    assert payload["table"] == [[2, 2, 1], [2, 1, 3], [2, 0, 1]]
    assert payload["srs"]["minimal"] is True


@pytest.mark.parametrize("rank", [_MAX_ADE_RANK + 1, MAX_NODES])
def test_ade_caps_the_rank_before_building_decorations(capsys, monkeypatch, rank):
    def built(*args):
        raise AssertionError("the ade system was built")

    monkeypatch.setattr("symprs.cli.ade_srs", built)
    code, out, err = run(capsys, "ade", "--family", "A", "--rank", str(rank))
    assert code == 1 and out == ""
    assert err == f"error: rank {rank} exceeds the ade cap of {_MAX_ADE_RANK}\n"


def test_ade_rejects_other_families(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ade", "--family", "B", "--rank", "3"])
    assert info.value.code == 2
    capsys.readouterr()


def test_weyl_verb(capsys):
    code, out, _ = run(capsys, "weyl", "--family", "A", "--rank", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["root_count"] == 6
    assert payload["image_order"] == 6
    assert payload["faithful_on_roots"] is True

    code, out, _ = run(capsys, "weyl", "--family", "B", "--rank", "2")
    payload = json.loads(out)
    assert payload["faithful_on_roots"] is False
    assert payload["image_order"] == 2
    assert payload["parity_graph"]["edges"] == []


def test_group_verb(tmp_path, capsys):
    path = write_graph(tmp_path, "n 2\ne 0 1\n")
    code, out, _ = run(capsys, "group", "--graph", path)
    payload = json.loads(out)
    assert code == 0
    assert payload["order"] == 8
    assert payload["sign"] == "plus"
    assert payload["element_orders"] == {"1": 1, "2": 5, "4": 2}
    code, out, _ = run(capsys, "group", "--graph", path, "--diagonal", "11")
    payload = json.loads(out)
    assert payload["sign"] == "minus"
    assert payload["element_orders"] == {"1": 1, "2": 1, "4": 6}


def test_group_sign_absent_off_the_extraspecial_case(tmp_path, capsys):
    path = write_graph(tmp_path, "n 3\ne 0 1\ne 1 2\n")
    code, out, _ = run(capsys, "group", "--graph", path)
    assert code == 0
    assert json.loads(out)["sign"] is None


def test_coclique_verb(tmp_path, capsys):
    path = write_graph(tmp_path, A4_EDGES)
    code, out, _ = run(capsys, "coclique", "--graph", path)
    payload = json.loads(out)
    assert code == 0
    assert payload == {
        "bound": 2,
        "gamma": 2,
        "holds": True,
        "nodes": 4,
        "type_n": 2,
        "witness": [0, 2],
    }


def test_coclique_checks_the_node_cap_before_any_elimination(tmp_path, capsys, monkeypatch):
    _forbid_constructing(monkeypatch, SympSpace, "a space was built for its elimination")
    n = MAX_COCLIQUE_NODES + 1
    path = write_graph(tmp_path, f"n {n}\n" + "".join(f"e {v} {v + 1}\n" for v in range(n - 1)))
    code, out, err = run(capsys, "coclique", "--graph", path)
    assert code == 1 and out == ""
    assert err == f"error: {n} nodes exceeds the coclique cap of {MAX_COCLIQUE_NODES}\n"


def test_verify_quick_all_green(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert set(payload["suites"]) == {
        "restriction",
        "extension",
        "weyl",
        "group",
        "coclique",
    }
    assert all(s["failures"] == [] for s in payload["suites"].values())


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "weyl", "--max-rank", "3")
    payload = json.loads(out)
    assert code == 0
    assert list(payload["suites"]) == ["weyl"]


def test_verify_weyl_sweep_reaches_e8(capsys):
    # E7 and E8 run only from rank 8 up; the count pins every Cartan type swept.
    code, out, _ = run(capsys, "verify", "--suite", "weyl", "--max-rank", "8")
    assert code == 0
    assert json.loads(out)["suites"]["weyl"]["checks"] == 12465


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--quick", "--seed", "7")
    _, second, _ = run(capsys, "verify", "--quick", "--seed", "7")
    assert first == second


def test_text_format_smoke(tmp_path, capsys):
    path = write_graph(tmp_path, A4_EDGES)
    for argv in (
        ["type", "--graph", path],
        ["minimal", "--graph", path],
        ["quotients", "--graph", path],
        ["extend", "--graph", path, "--attach", "0"],
        ["ade", "--family", "A", "--rank", "3"],
        ["weyl", "--family", "G", "--rank", "2"],
        ["group", "--graph", path],
        ["coclique", "--graph", path],
        ["verify", "--suite", "coclique", "--quick"],
    ):
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        assert out.strip()
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


def test_missing_file_is_a_clean_error(capsys):
    code, out, err = run(capsys, "type", "--graph", "/no/such/file")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("text", ["n \u0663\ne \u0660 \u0661\n", "n \u00b3\n"])
def test_type_rejects_graph_numbers_not_in_ascii_digits(tmp_path, capsys, text):
    code, out, err = run(capsys, "type", "--graph", write_graph(tmp_path, text))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: malformed node-count line")


def run_process(*argv, stdout=subprocess.PIPE):
    """``python -m symprs.cli`` in a fresh interpreter, with src on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    command = [sys.executable, "-m", "symprs.cli", *argv]
    return subprocess.run(
        command, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=300, check=False
    )


def test_cli_as_a_process(tmp_path):
    done = run_process(*_argv("type_path4"))
    assert b"exit %d\n" % done.returncode + done.stdout == (GOLDEN / "type_path4.out").read_bytes()
    done = run_process("type", "--graph", str(tmp_path / "missing.g"))
    assert done.returncode == 1
    assert done.stderr.startswith(b"error:") and b"Traceback" not in done.stderr
    assert run_process("ade", "--family", "A", "--rank", "x").returncode == 2


def test_closed_stdout_exits_one_without_a_traceback(tmp_path, capsys):
    rng = random.Random(0)
    edges = [f"e {p} {q}\n" for p in range(120) for q in range(p + 1, 120) if rng.getrandbits(1)]
    graph = write_graph(tmp_path, "n 120\n" + "".join(edges))
    code, out, _ = run(capsys, "minimal", "--graph", graph)
    assert code == 0 and len(out) > 1 << 16  # more than a pipe buffer holds
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_process("minimal", "--graph", graph, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-verb"])
    assert info.value.code == 2
    capsys.readouterr()


def test_stdin_graph(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(A4_EDGES))
    code, out, _ = run(capsys, "type", "--graph", "-")
    assert code == 0
    assert json.loads(out)["type"] == [2, 0]


@pytest.mark.parametrize("text, message", [
    ('{"nodes": 2, "edges": [[0, 1.7]]}', "bad edge entry"),
    ('{"nodes": true}', '"nodes" must be an integer'),
    ('{"nodes": 2, "edges": [[false, true]]}', "bad edge entry"),
    ('{"nodes": 2, "edges": null}', '"edges" must be a list'),
])
def test_graph_json_rejects_non_integers(tmp_path, capsys, text, message):
    code, out, err = run(capsys, "type", "--graph", write_graph(tmp_path, text))
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("n", [MAX_NODES + 1, 10**20])
@pytest.mark.parametrize("text", ['{{"nodes": {n}}}', "n {n}\n"])
def test_type_rejects_node_counts_past_the_cap(tmp_path, capsys, text, n):
    code, out, err = run(capsys, "type", "--graph", write_graph(tmp_path, text.format(n=n)))
    assert (code, out) == (1, "")
    assert err == f"error: {n} nodes exceeds the node cap of {MAX_NODES}\n"


def test_weyl_rank_past_the_chain_cap_fails_before_building_roots(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("roots enumerated for a rank the chain cannot take")

    monkeypatch.setattr("symprs.cartan.roots", unreachable)
    monkeypatch.setattr("symprs.cli.roots", unreachable)
    code, out, err = run(capsys, "weyl", "--family", "B", "--rank", "17")
    assert (code, out) == (1, "")
    assert err == "error: stabilizer chain scans all vectors; dimension capped at 16\n"


@pytest.mark.parametrize("verb, family", [("ade", "A"), ("weyl", "C")])
def test_rank_past_the_node_cap_is_a_clean_error(capsys, verb, family):
    code, out, err = run(capsys, verb, "--family", family, "--rank", str(MAX_NODES + 1))
    assert (code, out) == (1, "")
    assert err == f"error: {MAX_NODES + 1} nodes exceeds the node cap of {MAX_NODES}\n"


def test_iso_rejects_non_string_decoration(tmp_path, capsys):
    code, out, _ = run(capsys, "minimal", "--graph", write_graph(tmp_path, A4_EDGES))
    good = write_graph(tmp_path, out, "good.json")
    bad = json.loads(out)
    bad["deco"]["0"] = 5
    bad_path = write_graph(tmp_path, json.dumps(bad), "bad.json")
    code, out, err = run(capsys, "iso", good, bad_path)
    assert (code, out) == (1, "")
    assert "not a bit string: 5" in err


@pytest.mark.parametrize("node, value, message", [
    ("2", "010", "decoration of node 2 has dimension 3, space has 4"),
    ("3", None, "missing decoration for node 3"),
])
def test_iso_names_the_node_of_a_bad_decoration(tmp_path, capsys, node, value, message):
    code, out, _ = run(capsys, "minimal", "--graph", write_graph(tmp_path, A4_EDGES))
    good = write_graph(tmp_path, out, "good.json")
    bad = json.loads(out)
    if value is None:
        del bad["deco"][node]
    else:
        bad["deco"][node] = value
    code, out, err = run(capsys, "iso", good, write_graph(tmp_path, json.dumps(bad), "bad.json"))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["--max-nodes", "-3", "--max-rank", "-1"],
    ["--max-nodes", "-1"],
    ["--suite", "weyl", "--max-rank", "-2"],
])
def test_verify_negative_sizes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(["verify", *argv])
    assert info.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--suite", "weyl", "--max-rank", "0"],
    ["--suite", "restriction", "--max-nodes", "0"],
])
def test_verify_with_zero_checks_fails(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv)
    payload = json.loads(out)
    (suite,) = payload["suites"].values()
    assert code == 1
    assert payload["ok"] is False
    assert suite["checks"] == 0 and suite["ok"] is False
    assert suite["failures"] == ["no checks ran"]


@pytest.mark.parametrize("argv", [
    ["--max-nodes", "10"],
    ["--suite", "restriction", "--max-nodes", "2000"],
])
def test_verify_rejects_max_nodes_past_the_class_cap_before_any_sweep(capsys, monkeypatch, argv):
    def swept(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr("symprs.verify.graph_classes", swept)
    monkeypatch.setattr("symprs.verify.cartan_datum", swept)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {argv[-1]} nodes exceeds the class cap of {MAX_CLASS_NODES}\n"


@pytest.mark.parametrize("rank", ["71", "100000"])
def test_verify_rejects_max_rank_past_the_root_cap_before_any_sweep(capsys, monkeypatch, rank):
    def swept(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr("symprs.verify.graph_classes", swept)
    monkeypatch.setattr("symprs.verify.cartan_datum", swept)
    code, out, err = run(capsys, "verify", "--max-rank", rank)
    assert code == 1 and out == ""
    assert err == f"error: rank {rank} exceeds the rank cap of 70\n"


@pytest.mark.parametrize("suite, name, fake, argv, checks, first", [
    ("restriction", "restrict", lambda s, nodes: s, ["--max-nodes", "3"], 80,
     "graph [] class (0,1) node 0: type step (0, 0), minimal=True"),
    ("extension", "srs_isomorphic", lambda a, b: None, ["--max-nodes", "3", "--quick"], 109,
     "graph [] order []: wrong class"),
    ("weyl", "parity_graph", lambda c: Graph(0), ["--max-rank", "3"], 240,
     "A1: parity graph off the table"),
    ("group", "extraspecial_sign", lambda grp: "neither", ["--max-nodes", "4"], 12479,
     "graph [(0, 1)]: sign vs order-4 count"),
    ("coclique", "coclique_bound_check", lambda g: CocliqueReport(1, 0, 0, False, ()),
     ["--max-nodes", "3"], 12, "graph []: bound violated"),
])
def test_verify_reports_a_failing_suite(capsys, monkeypatch, suite, name, fake, argv, checks, first):
    monkeypatch.setattr(f"symprs.verify.{name}", fake)
    code, out, _ = run(capsys, "verify", "--suite", suite, *argv)
    payload = json.loads(out)
    result = payload["suites"][suite]
    assert code == 1
    assert payload["ok"] is False and result["ok"] is False
    assert result["checks"] == checks
    assert 1 <= len(result["failures"]) <= 5
    assert result["failures"][0] == first


@pytest.mark.parametrize("argv", [
    ["ade", "--family", "A", "--rank", "1_0"],
    ["ade", "--family", "D", "--rank", "+6"],
    ["weyl", "--family", "A", "--rank", "\u0663"],
    ["weyl", "--family", "G", "--rank", " 2"],
    ["verify", "--max-nodes", "1_0"],
    ["verify", "--max-rank", "\uff13"],
    ["verify", "--seed", "1_0"],
    ["verify", "--seed=--7"],
    ["verify", "--seed", "+7"],
    ["verify", "--seed", "-"],
])
def test_integer_options_take_only_ascii_decimal_digits(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "decimal digits" in capsys.readouterr().err


@pytest.mark.parametrize("attach", ["1_0", "\u0663", "+1", "0,,1", "-1"])
def test_extend_rejects_non_decimal_attach_nodes(tmp_path, capsys, attach):
    path = write_graph(tmp_path, A4_EDGES)
    code, out, err = run(capsys, "extend", "--graph", path, "--attach", attach)
    assert (code, out) == (1, "")
    assert "bad node '" in err


def test_integer_options_accept_signed_seeds_and_spaced_attach(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coclique", "--max-nodes", "1", "--seed", "-7")
    assert code == 0 and json.loads(out)["seed"] == -7
    path = write_graph(tmp_path, A4_EDGES)
    _, spaced, _ = run(capsys, "extend", "--graph", path, "--attach", " 0 , 3 ")
    _, plain, _ = run(capsys, "extend", "--graph", path, "--attach", "0,3")
    assert spaced == plain
