"""The immutable values ``BitVec``, ``BitMat`` and ``Graph`` copy, deepcopy
and pickle by rebuilding through a constructor, and refuse to set or
delete any slot; systems that hold them, minimal and extended, copy and
pickle too."""

from __future__ import annotations

import copy
import pickle

import pytest

from symprs.extend import extend_minimal
from symprs.gf2 import BitMat, BitVec
from symprs.graph import Graph, automorphisms, dynkin_graph
from symprs.srs import minimal_srs

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
    object.__setattr__(held, "_group", group)
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
