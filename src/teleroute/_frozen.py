"""The common base of the package's immutable value types.

A subclass lists its fields, in order, in __slots__ and sets each one in
its own __init__ through _set, since plain assignment is refused. The
base gives what a frozen dataclass gives, without importing dataclasses
(and inspect with it) or generating code per class at import:

- assigning or deleting an attribute raises AttributeError;
- two instances of the same class are equal when their field tuples are,
  and hash as that tuple;
- the repr reads Name(field=value, ...);
- copy, deepcopy and pickle rebuild an instance by calling the class with
  its fields in order, so __init__ checks the copy as it did the original.
"""

from __future__ import annotations

# object.__setattr__ under a module-level name: the __init__ of every
# value type sets its fields through it, past Frozen.__setattr__
_set = object.__setattr__


class Frozen:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()
