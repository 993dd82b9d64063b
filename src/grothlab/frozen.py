"""The base of grothlab's immutable value classes.

The library's value classes (tableau entries and tableaux, family specs,
T-extensions, insertion traces, ...) are plain slotted classes rather than
dataclasses, because importing `dataclasses` and executing the methods it
generates took about two thirds of `import grothlab.cli`.

A subclass states its fields once, in `__slots__` in constructor order, and
the defaults of trailing fields as class keywords, as in
`class Entry(Frozen, primed=False)`.  Unless the class writes its own
`__init__` (as `FamilySpec` does, to check its input), the base compiles
`__init__(self, value, primed=False)`, which writes each field with
`object.__setattr__`.  Either way the constructor takes the slots in slot
order, since copy and pickle rebuild through it.  From the slots the base
also builds one reader of the field tuple per class, `_values`, and gives
through it what `@dataclass(frozen=True)` gave: equality over the fields
between instances of the same class, the hash of the field tuple, the
`Class(field=value, ...)` repr, and `AttributeError` on assigning or
deleting a field.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        # the reader and the constructor are compiled from the slot names
        # (identifiers, which Python checks), as dataclasses builds its
        # methods, so that they use the interpreter's own attribute loads: an
        # operator.attrgetter reader made equality and hashing a quarter slower
        names = cls.__slots__
        cls._values = eval("lambda self: (" + "".join(f"self.{name}, " for name in names) + ")")
        if "__init__" in cls.__dict__:
            return
        unknown = defaults.keys() - set(names)
        if unknown:
            raise TypeError(f"{cls.__name__} has no field {min(unknown)!r} to default")
        # each default is bound by name in the function's namespace, so the
        # constructor gets the object itself, whatever its repr
        params = "".join(f", {n}=_default_{n}" if n in defaults else f", {n}" for n in names)
        body = "".join(f"\n    object.__setattr__(self, {n!r}, {n})" for n in names) or "\n    pass"
        namespace = {f"_default_{n}": value for n, value in defaults.items()}
        exec(f"def __init__(self{params}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
