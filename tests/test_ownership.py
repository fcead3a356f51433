"""Each cache is written only by the module that owns it: the split of a
space (``_pairs``, ``_radical``, ``_basis``) and its checked completion
choices (``_completions``) by ``symplectic``, the per-node functionals
that give the columns of D^-1 and single-node deletions (``_duals``) by
``srs``, and the automorphism list a graph class holds (``_group``) by
``graph``. An extension step asks
``SympSpace._adjoined`` and ``SRS._appended`` for the larger space and
system instead of presetting their caches itself.

The immutable values are built one way: slots through setters bound at
module level, frozen dataclass fields into the instance ``__dict__``, and
no module calls ``object.__setattr__``."""

import ast
import pathlib

import pytest

import symprs

OWNERS = {
    "_pairs": "symplectic", "_radical": "symplectic", "_basis": "symplectic", "_completions": "symplectic",
    "_duals": "srs", "_group": "graph",
}
SOURCES = sorted(pathlib.Path(symprs.__file__).parent.glob("*.py"))


def _writes(tree: ast.AST):
    """(attribute name, line) of each attribute the code sets: as an
    assignment target (plain, augmented, annotated or unpacked), as a
    string key stored into a mapping such as ``vars(x)``, as a keyword of
    ``x.__dict__.update(...)`` or ``vars(x).update(...)``, as the literal
    name passed to ``setattr`` or ``object.__setattr__``, or as the slot
    whose setter ``Class.slot.__set__`` is bound or called."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "__set__" and isinstance(node.value, ast.Attribute):
            yield node.value.attr, node.lineno
        elif isinstance(node, ast.Call) and _is_dict_update(node.func):
            for keyword in node.keywords:
                if keyword.arg is not None:
                    yield keyword.arg, node.lineno
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                yield node.slice.value, node.lineno
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            key = node.args[1]
            if name in ("setattr", "__setattr__") and isinstance(key, ast.Constant):
                yield key.value, node.lineno


def _is_dict_update(func: ast.expr) -> bool:
    """Whether ``func`` is ``x.__dict__.update`` or ``vars(x).update``."""
    if not (isinstance(func, ast.Attribute) and func.attr == "update"):
        return False
    target = func.value
    if isinstance(target, ast.Attribute):
        return target.attr == "__dict__"
    return isinstance(target, ast.Call) and isinstance(target.func, ast.Name) and target.func.id == "vars"


def test_the_check_sees_every_way_of_writing():
    code = (
        "s._pairs = 1\n"
        "a._radical, b = [], 2\n"
        "a.b._basis += 1\n"
        "object.__setattr__(out, '_duals', [])\n"
        "setattr(x, '_radical', 0)\n"
        "vars(x)['_pairs'] = 0\n"
        "y = s._pairs\n"
        "s.__dict__.update(_duals=0, graph=1)\n"
        "vars(x).update(_completions={})\n"
        "_set_group = Graph._group.__set__\n"
        "SRS._duals.__set__(s, [])\n"
        "d.update(_basis=0)\n"
    )
    assert sorted(_writes(ast.parse(code)), key=lambda write: write[1]) == [
        ("_pairs", 1), ("_radical", 2), ("_basis", 3), ("_duals", 4), ("_radical", 5), ("_pairs", 6),
        ("_duals", 8), ("graph", 8), ("_completions", 9), ("_group", 10), ("_duals", 11),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_owner_writes_its_caches(path):
    foreign = [
        f"{path.name}:{line} sets {name}, which only {OWNERS[name]} may set"
        for name, line in _writes(ast.parse(path.read_text(encoding="utf-8")))
        if OWNERS.get(name, path.stem) != path.stem
    ]
    assert foreign == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_calls_object_setattr(path):
    calls = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert calls == []
