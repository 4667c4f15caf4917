"""The contract of the library's value classes.

Each class is built by position and by keyword, compares by value (or,
for ``CactusNetwork``, by identity), is hashable exactly when it is
frozen, refuses assignment when frozen, and has a repr naming its fields.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cactusnet.combinat import KrewerasPair, Matching, NoncrossingPartition
from cactusnet.groves import GroveMeasurements
from cactusnet.network import CactusNetwork, Edge, QuotientGraph, ValidationReport

SIGMA = NoncrossingPartition(3, ((1,), (2, 3)))

# class -> (field values, other field values); the frozen classes first
VALUES = {
    NoncrossingPartition: ({"n": 3, "blocks": ((1,), (2, 3))},
                           {"n": 3, "blocks": ((1, 2, 3),)}),
    KrewerasPair: ({"sigma": SIGMA, "tilde_blocks": ((4, 5), (6,))},
                   {"sigma": SIGMA, "tilde_blocks": ((4,), (5, 6))}),
    Matching: ({"n": 2, "pairs": ((1, 2), (3, 4))},
               {"n": 2, "pairs": ((1, 4), (2, 3))}),
    Edge: ({"id": "e", "ends": ("b1", "v"), "conductance": Fraction(1, 2)},
           {"id": "e", "ends": ("b1", "v"), "conductance": Fraction(1, 3)}),
    GroveMeasurements: ({"n": 2, "boundary": ((1,), (2,)), "d": 1, "nvertices": 2,
                         "classes": {"\x00\x01": 2}},
                        {"n": 2, "boundary": ((1,), (2,)), "d": 1, "nvertices": 2,
                         "classes": {}}),
    ValidationReport: ({"checks": [("planar", True, "")]},
                       {"checks": [("planar", False, "no")]}),
    QuotientGraph: ({"boundary": ((1,), (2,)), "internal": ("v",),
                     "edges": (("e", (1,), "v", Fraction(1)),), "loop_ids": ()},
                    {"boundary": ((1,), (2,)), "internal": ("v",),
                     "edges": (), "loop_ids": ("e",)}),
    CactusNetwork: ({"n": 1, "shape": ((1,),), "internal_vertices": (),
                     "edges": (), "rotations": {"b1": ()}},
                    {"n": 1, "shape": ((1,),), "internal_vertices": ("v",),
                     "edges": (), "rotations": {"b1": (), "v": ()}}),
}
FROZEN = (NoncrossingPartition, KrewerasPair, Matching, Edge)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_construction_by_position_and_keyword(cls):
    fields, _ = VALUES[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for obj in (by_position, by_keyword):
        assert {f: getattr(obj, f) for f in fields} == fields
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_equality_and_hashing(cls):
    fields, other = VALUES[cls]
    a, b, c = cls(**fields), cls(**fields), cls(**other)
    assert a == a and not a != a
    assert a != c and not a == c
    assert a != fields and a != tuple(fields.values())
    if cls is CactusNetwork:  # identity equality, identity hash
        assert a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2
    else:
        assert a == b and not a != b
    if cls in FROZEN:
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert len({a, b, c}) == 2
    elif cls is not CactusNetwork:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_frozen_classes_refuse_assignment(cls):
    fields, other = VALUES[cls]
    obj = cls(**fields)
    name = next(iter(fields))
    if cls in FROZEN:
        with pytest.raises(AttributeError):
            setattr(obj, name, other[name])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == fields[name]
    else:
        setattr(obj, name, other[name])
        assert getattr(obj, name) == other[name]


def test_noncrossing_partition_has_slots():
    assert NoncrossingPartition.__slots__ == ("n", "blocks")
    assert not hasattr(SIGMA, "__dict__")


def test_validation_report_gets_a_fresh_list():
    first, second = ValidationReport(), ValidationReport()
    first.add("planar", True)
    assert first.checks == [("planar", True, "")] and second.checks == []
    assert ValidationReport() == ValidationReport(checks=[])


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_repr_names_the_fields(cls):
    fields, _ = VALUES[cls]
    assert repr(cls(**fields)) == cls.__qualname__ + "(" + ", ".join(
        f"{f}={v!r}" for f, v in fields.items()) + ")"


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_copy_and_pickle_keep_the_fields(cls):
    fields, _ = VALUES[cls]
    obj = cls(**fields)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert {f: getattr(twin, f) for f in fields} == fields
