"""The base of grothlab's immutable value classes.

The library's value classes (tableau entries and tableaux, family specs,
T-extensions, insertion traces, ...) are plain slotted classes rather than
dataclasses, because importing `dataclasses` and executing the methods it
generates took about two thirds of `import grothlab.cli`.

A subclass lists its fields in `__slots__`, in constructor order, writes
each one in an explicit `__init__` with `object.__setattr__`, and returns
the same fields, in the same order, from `_key()`.  The base then gives
what `@dataclass(frozen=True)` gave: equality over the fields between
instances of the same class, the hash of the field tuple, the
`Class(field=value, ...)` repr, and `AttributeError` on assigning or
deleting a field.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()

    def _key(self) -> tuple:
        """The field values, in constructor order."""
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which writes the
        # slots that the frozen __setattr__ guards
        return type(self), self._key()
