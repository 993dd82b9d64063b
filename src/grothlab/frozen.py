"""The base of grothlab's immutable value classes.

The library's value classes (tableau entries and tableaux, family specs,
T-extensions, insertion traces, ...) are plain slotted classes rather than
dataclasses, because importing `dataclasses` and executing the methods it
generates took about two thirds of `import grothlab.cli`.

A subclass lists its fields in `__slots__`, in constructor order, and
writes each one in an explicit `__init__` with `object.__setattr__`.  From
those slots the base builds one reader of the field tuple per class,
`_values`, and gives through it what `@dataclass(frozen=True)` gave:
equality over the fields between instances of the same class, the hash of
the field tuple, the `Class(field=value, ...)` repr, and `AttributeError`
on assigning or deleting a field.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        # the reader is compiled from the slot names (identifiers, which
        # Python checks), as dataclasses builds its methods, so that it reads
        # them with the interpreter's own attribute loads: an
        # operator.attrgetter reader made equality and hashing a quarter slower
        cls._values = eval("lambda self: (" + "".join(f"self.{name}, " for name in cls.__slots__) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which writes the
        # slots that the frozen __setattr__ guards
        return type(self), self._values()
