"""The immutable values ``BitVec``, ``BitMat`` and ``Graph`` copy, deepcopy
and pickle by rebuilding through a constructor, and refuse to set or
delete any slot; systems that hold them, minimal and extended, copy and
pickle too. Values from the unchecked routes (``_trusted``,
``Graph._from_adj``) behave as the publicly constructed ones."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from symprs.extend import ExtensionWitness, extend_minimal
from symprs.gf2 import BitMat, BitVec
from symprs.graph import Graph, _set_group, automorphisms, dynkin_graph
from symprs.srs import SRS, CocliqueReport, SympMap, coclique_bound_check, minimal_srs
from symprs.symplectic import SympSpace

DUPLICATES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}

VALUES = [
    BitVec(0),
    BitVec(70, 1 << 69 | 5),
    BitMat(0, []),
    BitMat(3, [0b101, 0b010]),
    Graph(0),
    dynkin_graph("E", 8),
]


@pytest.mark.parametrize("how", DUPLICATES)
@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_values_copy_and_pickle_through_a_constructor(value, how):
    again = DUPLICATES[how](value)
    assert type(again) is type(value)
    assert again == value
    slots = [name for name in type(value).__slots__ if hasattr(value, name)]
    assert [getattr(again, name) for name in slots] == [getattr(value, name) for name in slots]


@pytest.mark.parametrize("how", DUPLICATES)
def test_a_copied_graph_leaves_its_stored_group_behind(how):
    # graph_classes stores a group this way until automorphisms takes it
    held, group = dynkin_graph("D", 5), automorphisms(dynkin_graph("D", 5))
    _set_group(held, group)
    again = DUPLICATES[how](held)
    assert getattr(again, "_group", None) is None
    assert held._group is group
    assert automorphisms(again) == group


@pytest.mark.parametrize("how", DUPLICATES)
def test_minimal_and_extended_systems_copy_and_pickle(how):
    minimal = minimal_srs(dynkin_graph("D", 6))
    extended = extend_minimal(minimal, BitVec(6, 0b100101))[0]
    for s in (minimal, extended):
        s.space.type  # fill the space's caches first
        again = DUPLICATES[how](s)
        assert again == s
        assert again.space.type == s.space.type
        assert (again.space._pairs, again.space._radical) == (s.space._pairs, s.space._radical)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_no_slot_can_be_set_or_deleted(value):
    message = f"{type(value).__name__} is immutable"
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match=f"^{message}$"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"^{message}$"):
            delattr(value, name)


def _shipped_and_public() -> dict[str, tuple[object, object]]:
    """Each value built by an unchecked route as the library ships it, with
    an equal one built by the public constructor."""
    g = dynkin_graph("D", 5)
    gram = BitMat._trusted(g.n, g.adj)
    space = SympSpace(BitMat(g.n, g.adj))
    identity = BitMat._trusted(g.n, [1 << p for p in range(g.n)])
    step = extend_minimal(minimal_srs(g), BitVec(g.n, 0b10011))[1]
    report = coclique_bound_check(g)
    return {
        "BitMat._trusted": (gram, BitMat(g.n, g.adj)),
        "Graph._from_adj": (Graph._from_adj(g.adj), Graph(g.n, g.edge_list())),
        "SRS._trusted": (SRS._trusted(g, space, identity), SRS(g, space, BitMat.identity(g.n))),
        "SympMap._trusted": (SympMap._trusted(space, space, identity), SympMap(space, space, BitMat.identity(g.n))),
        "ExtensionWitness._trusted": (step, ExtensionWitness(*dataclasses.astuple(step))),
        "CocliqueReport._trusted": (report, CocliqueReport(*dataclasses.astuple(report))),
    }


def _fields(value) -> list[str]:
    return [f.name for f in dataclasses.fields(value)] if dataclasses.is_dataclass(value) else type(value).__slots__


ROUTES = list(_shipped_and_public())


@pytest.mark.trusted_constructors
@pytest.mark.parametrize("route", ROUTES)
def test_unchecked_routes_build_the_public_values(route):
    shipped, public = _shipped_and_public()[route]
    assert type(shipped) is type(public)
    assert shipped == public and public == shipped
    assert hash(shipped) == hash(public)
    assert repr(shipped) == repr(public)
    names = [name for name in _fields(public) if hasattr(public, name)]
    assert [getattr(shipped, name) for name in names] == [getattr(public, name) for name in names]


@pytest.mark.trusted_constructors
@pytest.mark.parametrize("route", ROUTES)
def test_unchecked_routes_build_immutable_values(route):
    shipped, _ = _shipped_and_public()[route]
    for name in _fields(shipped):
        with pytest.raises(AttributeError):
            setattr(shipped, name, 0)
        with pytest.raises(AttributeError):
            delattr(shipped, name)
    assert shipped == _shipped_and_public()[route][1]


@pytest.mark.trusted_constructors
@pytest.mark.parametrize("how", DUPLICATES)
@pytest.mark.parametrize("route", ROUTES)
def test_unchecked_routes_copy_and_pickle(route, how):
    shipped, public = _shipped_and_public()[route]
    again = DUPLICATES[how](shipped)
    assert type(again) is type(public)
    assert again == public
    assert hash(again) == hash(public)
