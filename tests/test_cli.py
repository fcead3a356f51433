"""End-to-end tests for the srs command line tool."""

import json

import pytest

from symprs.cli import main

A4_EDGES = "n 4\ne 0 1\ne 1 2\ne 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, text, name="g.graph"):
    path = tmp_path / name
    path.write_text(text)
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


def test_iso_rejects_non_string_decoration(tmp_path, capsys):
    code, out, _ = run(capsys, "minimal", "--graph", write_graph(tmp_path, A4_EDGES))
    good = write_graph(tmp_path, out, "good.json")
    bad = json.loads(out)
    bad["deco"]["0"] = 5
    bad_path = write_graph(tmp_path, json.dumps(bad), "bad.json")
    code, out, err = run(capsys, "iso", good, bad_path)
    assert (code, out) == (1, "")
    assert "not a bit string: 5" in err


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
