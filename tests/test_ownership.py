"""Each cache is written only by the module that owns it: the split of a
space (``_pairs``, ``_radical``, ``_basis``) and its checked completion
choices (``_completions``) by ``symplectic``, and the columns of D^-1
(``_deco_inverse``) and what a single-node deletion reads (``_deletions``)
by ``srs``. An extension step asks
``SympSpace._adjoined`` and ``SRS._appended`` for the larger space and
system instead of presetting their caches itself."""

import ast
import pathlib

import pytest

import symprs

OWNERS = {
    "_pairs": "symplectic", "_radical": "symplectic", "_basis": "symplectic", "_completions": "symplectic",
    "_deco_inverse": "srs", "_deletions": "srs",
}
SOURCES = sorted(pathlib.Path(symprs.__file__).parent.glob("*.py"))


def _writes(tree: ast.AST):
    """(attribute name, line) of each attribute the code sets: as an
    assignment target (plain, augmented, annotated or unpacked), as a
    string key stored into a mapping such as ``vars(x)``, or as the
    literal name passed to ``setattr`` or ``object.__setattr__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                yield node.slice.value, node.lineno
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            key = node.args[1]
            if name in ("setattr", "__setattr__") and isinstance(key, ast.Constant):
                yield key.value, node.lineno


def test_the_check_sees_every_way_of_writing():
    code = (
        "s._pairs = 1\n"
        "a._radical, b = [], 2\n"
        "a.b._basis += 1\n"
        "object.__setattr__(out, '_deco_inverse', [])\n"
        "setattr(x, '_radical', 0)\n"
        "vars(x)['_pairs'] = 0\n"
        "y = s._pairs\n"
    )
    assert sorted(_writes(ast.parse(code)), key=lambda write: write[1]) == [
        ("_pairs", 1), ("_radical", 2), ("_basis", 3), ("_deco_inverse", 4), ("_radical", 5), ("_pairs", 6),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_owner_writes_its_caches(path):
    foreign = [
        f"{path.name}:{line} sets {name}, which only {OWNERS[name]} may set"
        for name, line in _writes(ast.parse(path.read_text(encoding="utf-8")))
        if OWNERS.get(name, path.stem) != path.stem
    ]
    assert foreign == []
