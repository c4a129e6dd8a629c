"""The identity records: immutable, equal only within their class, hashed by their fields."""

import copy
import pickle
from collections import namedtuple

import pytest

from dllab.algebra import RationalElement, RingParams, ring_params
from dllab.dlgraph import Box, DLVertex, HeightCube, graph_params, tree_root, tree_vertex
from dllab.group import GroupElement
from dllab.qilab import BoundaryMap, InteriorMap, LevelPerm, PrefixRewrite, Shift
from dllab.record import Record

RING = ring_params(3, 3)
GRAPH = graph_params(2, 2)
CUBE = HeightCube(((0, 2),))
SWAP = LevelPerm(((0, (1, 0)),))
IDENTITY_MAP = BoundaryMap(2, ())

# (class, field names, field values, a field list the constructor rejects
# and its ValueError message, or None); the values are built afresh for
# each record compared
RECORDS = [
    (RingParams, ("q", "d", "l"), lambda: (3, 3, (0, 1)), None),
    (RationalElement, ("params", "num", "den"), lambda: (RING, (1, 2), (0, 1)), None),
    (GroupElement, ("params", "exps", "P"),
     lambda: (RING, (1, 0), RationalElement(RING, (1,), (0, 0))), None),
    (DLVertex, ("params", "coords"), lambda: (GRAPH, (tree_root(1), tree_vertex(-1, [(-1, 1)]))), None),
    (HeightCube, ("intervals", "k"), lambda: (((0, 4), (1, 5)), 2), None),
    (Box, ("cube", "roots"), lambda: (CUBE, (tree_root(0), tree_root(-2))), None),
    (Shift, ("m",), lambda: (2,), None),
    (LevelPerm, ("perms",), lambda: (((0, (1, 0)), (2, (0, 1))),),
     ((((0, (1, 0)), (0, (0, 1))),), "duplicate permuted index")),
    (PrefixRewrite, ("lo", "hi", "table"), lambda: (0, 0, (((0,), (1,)), ((1,), (0,)))),
     ((1, 0, ()), "empty rewrite window")),
    (BoundaryMap, ("q", "prims"), lambda: (2, (Shift(1), SWAP)), ((3, (SWAP,)), "alphabet has 3")),
    (InteriorMap, ("params", "maps"), lambda: (GRAPH, (IDENTITY_MAP, IDENTITY_MAP)),
     ((GRAPH, (IDENTITY_MAP,)), "need 2 coordinate maps")),
]


@pytest.mark.parametrize("cls, names, values, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_identity_record(cls, names, values, bad):
    a, b = cls(*values()), cls(**dict(zip(names, values())))
    fields = tuple(getattr(a, name) for name in names)
    assert fields == values()
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, fields)) + ")"
    # a record of another class with the same fields, or a tuple, is never equal
    twin = namedtuple(cls.__name__, names)(*fields)
    for other in (twin, fields):
        assert a != other and other != a
        assert not a == other and not other == a
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in names) == fields
    if bad is not None:
        args, message = bad
        with pytest.raises(ValueError, match=message):
            cls(*args)


@pytest.mark.parametrize("cls, names, values, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_copies_and_pickles(cls, names, values, bad):
    a = cls(*values())
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b.__class__ is cls
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)


def test_copies_of_a_cached_prefix_rewrite():
    a = PrefixRewrite(0, 0, (((0,), (1,)), ((1,), (0,))))
    assert a._lookup == {(0,): (1,), (1,): (0,)}
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
        # a copy is rebuilt from its fields alone, then caches its own lookup
        assert "_lookup" not in vars(b) and b._lookup == a._lookup


def test_every_identity_record_goes_through_the_base():
    classes = {r[0] for r in RECORDS}
    assert set(Record.__subclasses__()) == classes
    for cls in classes:
        own = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"} & set(vars(cls))
        assert not own, f"{cls.__name__} defines {sorted(own)}"
