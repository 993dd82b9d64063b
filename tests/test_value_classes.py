"""The value classes keep what `@dataclass(frozen=True)` gave them.

Each of the library's eleven value classes is a slotted `Frozen` subclass:
constructor order, keyword names and defaults, field equality and hashing
within one class, the `Class(field=value, ...)` repr and immutability are
pinned here; `Entry`'s order is pinned in `test_validity.py`.
"""

import copy
import pickle

import pytest

from grothlab.algebra import Polynomial
from grothlab.insertion import InTrace, OutTrace
from grothlab.partitions import SignedPair, TExtension
from grothlab.polynomials import BasisExpansion, FamilySpec
from grothlab.tableaux import Entry, MultisetTableau, ShiftedMultisetTableau, SkewFilling
from grothlab.verify import CaseResult

EXT = TExtension((2, 1), ((2, 2),), (1,), (1,))

# (class, {field: value} in constructor order); the values are arbitrary
# but of the field's type
CASES = [
    (Entry, {"value": 2, "primed": True}),
    (MultisetTableau, {"rows": (((1, 1), (2,)), ((3,),))}),
    (ShiftedMultisetTableau, {"rows": (((Entry(1, True), Entry(1)), (Entry(2),)), ((Entry(3),),)), "signed": True}),
    (SkewFilling, {"outer": (3, 1), "inner": (1,), "rows": ((1, 2), (2,))}),
    (FamilySpec, {"family": "P", "mu": (2, 1), "n": 3, "t_cap": 2, "x_cap": 7}),
    (BasisExpansion, {"basis": "pschur", "n": 3, "nt": 2, "coefficients": (((2, 1), Polynomial.constant(1, 0, 2)),)}),
    (TExtension, {"base": EXT.base, "chain": EXT.chain, "increments": EXT.increments, "columns": EXT.columns}),
    (SignedPair, {"sigma": (1, 0), "extension": EXT}),
    (OutTrace, {"removed": Entry(2), "removed_cell": (0, 1), "path": ((1, 0, Entry(2), Entry(3)),),
                "appended_cell": (2, 0), "appended": Entry(3)}),
    (InTrace, {"corner_cell": (2, 0), "removed": Entry(3), "path": ((1, 0, Entry(3), Entry(2)),),
               "deposit_cell": (0, 1), "deposit": Entry(2)}),
    (CaseResult, {"name": "psi (2, 1)", "passed": False, "detail": "boom"}),
]
IDS = [cls.__name__ for cls, _ in CASES]


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_the_constructor_takes_the_fields_in_order_or_by_name(cls, fields):
    by_position = cls(*fields.values())
    by_name = cls(**fields)
    assert by_position == by_name
    assert tuple(getattr(by_name, f) for f in fields) == tuple(fields.values())


def test_the_constructor_defaults():
    assert Entry(2).primed is False
    assert ShiftedMultisetTableau(()).signed is False
    assert MultisetTableau(()).signed is False
    spec = FamilySpec("J", (2, 1), 3)
    assert (spec.t_cap, spec.x_cap) == (1, None)
    assert CaseResult("c", True).detail == ""


@pytest.mark.parametrize("kwargs, message", [
    ({"family": "Q", "mu": (1,), "n": 1}, "unknown family 'Q'"),
    ({"family": "J", "mu": (1, 2), "n": 2}, "mu must be a partition without trailing zeros: (1, 2)"),
    ({"family": "P", "mu": (2, 2), "n": 2}, "family P needs a strict partition: (2, 2)"),
    ({"family": "J", "mu": (1,), "n": 0}, "need at least one x-variable"),
    ({"family": "J", "mu": (1,), "n": 1, "t_cap": -1}, "t_cap must be nonnegative"),
    ({"family": "J", "mu": (1,), "n": 1, "x_cap": -1}, "x_cap must be nonnegative"),
])
def test_family_spec_checks_its_fields(kwargs, message):
    with pytest.raises(ValueError) as info:
        FamilySpec(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    # slots leave no room for a field the class does not have
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, fields):
    a, b = cls(**fields), cls(**copy.deepcopy(fields))
    assert a == b and not a != b
    if cls is BasisExpansion:
        # a Polynomial coefficient has no hash, so neither has its expansion
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    for name in fields:
        if cls is FamilySpec and name != "x_cap":
            continue  # a changed family, mu, n or t_cap would fail the checks here
        other = cls(**{**fields, name: None})
        assert a != other and not a == other, name
    # an object of another class, even one holding the same values, is not equal
    assert a.__eq__(tuple(fields.values())) is NotImplemented
    assert a != tuple(fields.values())
    assert a != object()


def test_objects_of_two_classes_are_never_equal():
    rows = (((1,), (2,)), ((3,),))
    straight, shifted = MultisetTableau(rows), ShiftedMultisetTableau(rows)
    assert straight.rows == shifted.rows and straight.signed == shifted.signed
    assert straight != shifted and shifted != straight
    assert straight != rows and straight != (rows,)
    assert shifted != (rows, False)
    assert len({straight, shifted}) == 2
    # two classes with the same number of fields, holding the same values
    values = ((0, 1), Entry(2), (), (1, 0), Entry(2))
    assert OutTrace(*values) != InTrace(*values)


@pytest.mark.parametrize("cls, fields", CASES[1:], ids=IDS[1:])
def test_repr_names_the_class_and_each_field(cls, fields):
    obj = cls(**fields)
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(obj) == f"{cls.__qualname__}({body})"


def test_entry_repr_is_its_text():
    assert repr(Entry(2, True)) == "Entry(2')"
    assert repr(Entry(3)) == "Entry(3)"
    assert repr((Entry(1), Entry(1, True))) == "(Entry(1), Entry(1'))"


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_object(cls, fields):
    obj = cls(**fields)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj
