"""The constructors that `Frozen` compiles from `__slots__`.

Copy and pickle rebuild a value class through `cls(*slots)`, so every
constructor, compiled or hand-written, must take the slots positionally and
in slot order.  `test_value_classes.py` pins each class's fields, defaults,
equality, repr and pickling; this module pins the rule itself.
"""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import grothlab
from grothlab.frozen import Frozen


def _value_classes():
    for info in pkgutil.iter_modules(grothlab.__path__):
        importlib.import_module(f"grothlab.{info.name}")
    found, todo = [], [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("grothlab."):
                found.append(sub)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


VALUE_CLASSES = _value_classes()


def test_the_walk_finds_every_value_class():
    names = {cls.__name__ for cls in VALUE_CLASSES}
    assert {"Entry", "MultisetTableau", "ShiftedMultisetTableau", "SkewFilling", "FamilySpec",
            "BasisExpansion", "TExtension", "SignedPair", "OutTrace", "InTrace", "CaseResult"} <= names


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=[cls.__qualname__ for cls in VALUE_CLASSES])
def test_every_constructor_takes_the_slots_in_order(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls.__slots__)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def _compiled(cls):
    return cls.__init__.__code__.co_filename == "<string>"


def test_only_family_spec_writes_its_own_constructor():
    # it checks input from outside the program
    assert [cls.__name__ for cls in VALUE_CLASSES if not _compiled(cls)] == ["FamilySpec"]


@pytest.mark.parametrize("cls", list(filter(_compiled, VALUE_CLASSES)), ids=lambda cls: cls.__qualname__)
def test_every_compiled_constructor_writes_each_slot(cls):
    values = [object() for _ in cls.__slots__]
    obj = cls(*values)
    assert all(getattr(obj, name) is value for name, value in zip(cls.__slots__, values))


_SHARED = []


class _Probe(Frozen, b=_SHARED):
    __slots__ = ("a", "b")


def test_a_default_is_bound_as_the_object_itself():
    # the very object given as the class keyword, not one rebuilt from its repr
    assert _Probe(1).b is _SHARED
    assert _Probe(1, 2) == _Probe(a=1, b=2)
    assert pickle.loads(pickle.dumps(_Probe(1, (2,)))) == _Probe(1, (2,))


def test_a_default_must_name_a_field():
    with pytest.raises(TypeError, match="Broken has no field 'c' to default"):
        class Broken(Frozen, c=0):
            __slots__ = ("a", "b")

