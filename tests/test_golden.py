"""Golden corpus: the stdout of every ``srs`` verb on fixed inputs, byte for byte.

Each case runs ``symprs.cli.main`` in-process and compares stdout and the
exit code with ``tests/golden/<case>.out``. Inputs live in
``tests/golden/inputs``. When output changes on purpose, re-record with

    PYTHONPATH=src python3 tests/test_golden.py

and say in the change log why the bytes moved.

The cases run the library's trusted constructors as shipped, without the
full re-validation that ``tests/conftest.py`` gives every other test, so
the bytes pinned here are those of the fast path.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import pytest

from symprs.cli import _build_parser, main
from symprs.gf2 import BitMat
from symprs.graph import Graph
from symprs.srs import SRS
from symprs.symplectic import SympSpace

pytestmark = pytest.mark.trusted_constructors

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# case name -> argv; "@name" stands for tests/golden/inputs/name
CASES = {
    "type_path4": ["type", "--graph", "@path4.g"],
    "type_empty0": ["type", "--graph", "@empty0.g"],
    "type_random40": ["type", "--graph", "@random40.json"],
    "type_petersen_text": ["type", "--graph", "@petersen.json", "--format", "text"],
    "minimal_cycle5": ["minimal", "--graph", "@cycle5.json"],
    "minimal_random40": ["minimal", "--graph", "@random40.json"],
    "minimal_d6_text": ["minimal", "--graph", "@d6.g", "--format", "text"],
    "quotients_d6": ["quotients", "--graph", "@d6.g"],
    "quotients_twins8": ["quotients", "--graph", "@twins8.g"],
    "quotients_petersen_summary": ["quotients", "--graph", "@petersen.json", "--summary"],
    "quotients_empty3_text": ["quotients", "--graph", "@empty3.g", "--format", "text"],
    "extend_path4": ["extend", "--graph", "@path4.g", "--attach", "0,3"],
    "extend_d6": ["extend", "--graph", "@d6.g", "--attach", "4,5"],
    "extend_star5": ["extend", "--graph", "@star5.g", "--attach", "1,2"],
    "extend_empty0": ["extend", "--graph", "@empty0.g"],
    "extend_random40": ["extend", "--graph", "@random40.json", "--attach", "0,7,19,33,39"],
    "extend_twins8_text": ["extend", "--graph", "@twins8.g", "--attach", "0,6", "--format", "text"],
    "iso_cycle5_relabeled": ["iso", "@cycle5_minimal.json", "@cycle5_recoordinated.json"],
    "iso_d6_minimal_vs_quotient": ["iso", "@d6_minimal.json", "@d6_quotient.json"],
    "iso_d6_quotients_text": ["iso", "@d6_quotient.json", "@d6_quotient.json", "--format", "text"],
    "iso_random40_minimal_self": ["iso", "@random40_minimal.json", "@random40_minimal.json"],
    "ade_a1": ["ade", "--family", "A", "--rank", "1"],
    "ade_a4": ["ade", "--family", "A", "--rank", "4"],
    "ade_a5": ["ade", "--family", "A", "--rank", "5"],
    "ade_d6": ["ade", "--family", "D", "--rank", "6"],
    "ade_d7": ["ade", "--family", "D", "--rank", "7"],
    "ade_e8": ["ade", "--family", "E", "--rank", "8"],
    "ade_e6_text": ["ade", "--family", "E", "--rank", "6", "--format", "text"],
    "ade_e7_text": ["ade", "--family", "E", "--rank", "7", "--format", "text"],
    "weyl_a3": ["weyl", "--family", "A", "--rank", "3"],
    "weyl_b3": ["weyl", "--family", "B", "--rank", "3"],
    "weyl_g2": ["weyl", "--family", "G", "--rank", "2"],
    "weyl_e8": ["weyl", "--family", "E", "--rank", "8"],
    "weyl_f4_text": ["weyl", "--family", "F", "--rank", "4", "--format", "text"],
    "group_path4": ["group", "--graph", "@path4.g"],
    "group_cycle5_twisted": ["group", "--graph", "@cycle5.json", "--diagonal", "10100"],
    "group_k4": ["group", "--graph", "@k4.g"],
    "group_empty3": ["group", "--graph", "@empty3.g"],
    "group_petersen": ["group", "--graph", "@petersen.json"],
    "group_star5_text": ["group", "--graph", "@star5.g", "--diagonal", "11000", "--format", "text"],
    "group_empty16": ["group", "--graph", "@empty16.g"],
    "group_empty16_twisted": ["group", "--graph", "@empty16.g", "--diagonal", "1" * 16],
    "coclique_petersen": ["coclique", "--graph", "@petersen.json"],
    "coclique_random12": ["coclique", "--graph", "@random12.g"],
    "coclique_k4": ["coclique", "--graph", "@k4.g"],
    "coclique_star5_text": ["coclique", "--graph", "@star5.g", "--format", "text"],
    "verify_quick": ["verify", "--quick"],
    "verify_default": ["verify"],
    "verify_weyl_text": ["verify", "--suite", "weyl", "--max-rank", "4", "--format", "text"],
}


def _inputs(argv: list[str]) -> list[str]:
    return [str(INPUTS / a[1:]) if a.startswith("@") else a for a in argv]


def _argv(case: str) -> list[str]:
    return _inputs(CASES[case])


def _render(case: str) -> bytes:
    """Exit code line, then the exact stdout of the verb."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(case))
    return f"exit {code}\n".encode() + out.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(case):
    expected = (GOLDEN / f"{case}.out").read_bytes()
    assert _render(case) == expected


# each exits before any stdout: argparse rejects the first group (exit 2),
# and the library or the file system the second (exit 1)
USAGE_ERRORS = [
    ["ade", "--family", "A", "--rank", "x"],
    ["type"],
    ["nosuchverb"],
    ["minimal", "--graph", "@path4.g", "--format", "xml"],
    ["verify", "--suite", "nosuchsuite"],
]
COMPUTATION_ERRORS = [
    ["ade", "--family", "A", "--rank", "0"],
    ["type", "--graph", "@nosuchfile.g"],
    ["group", "--graph", "@path4.g", "--diagonal", "10"],
    ["weyl", "--family", "G", "--rank", "3"],
]


def _exit_code(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``main`` on argv, usage errors included, and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(_inputs(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_golden_cases_rerun_in_one_process():
    """The parser is built once per process and shared: every case, run
    twice in a shuffled order with failed calls between them, still gives
    the bytes and the exit code of its golden file."""
    expected = {case: (GOLDEN / f"{case}.out").read_bytes() for case in CASES}
    order = sorted(CASES) * 2
    random.Random(0).shuffle(order)
    for i, case in enumerate(order):
        assert _render(case) == expected[case], case
        assert _exit_code(USAGE_ERRORS[i % len(USAGE_ERRORS)]) == (2, "")
        assert _exit_code(COMPUTATION_ERRORS[i % len(COMPUTATION_ERRORS)]) == (1, "")
    assert _build_parser() is _build_parser()


def test_every_verb_has_a_golden_case():
    verbs = {argv[0] for argv in CASES.values()}
    assert verbs == {"type", "minimal", "quotients", "extend", "iso", "ade", "weyl",
                     "group", "coclique", "verify"}


def test_golden_cases_run_the_trusted_path():
    g = Graph(2, [(0, 1)])
    s = SRS._trusted(g, SympSpace(g.adjacency()), BitMat.zeros(0, 2))  # no decorations: unchecked
    assert s.deco == BitMat.zeros(0, 2)


if __name__ == "__main__":
    for name in sorted(CASES):
        (GOLDEN / f"{name}.out").write_bytes(_render(name))
