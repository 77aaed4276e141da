"""The common base of the package's immutable value types.

A subclass names its fields once, in order, in __slots__. The base's
__init__ binds positional arguments to them in that order, and keyword
arguments by name, and raises TypeError as a function with those
parameters would. A subclass that checks its arguments does so in its
own __init__ and ends with one super().__init__ call. The base gives
what a frozen dataclass gives, without importing dataclasses (and
inspect with it) or generating code per class at import:

- assigning or deleting an attribute raises AttributeError;
- two instances of the same class are equal when their field tuples are,
  and hash as that tuple;
- the repr reads Name(field=value, ...);
- copy, deepcopy and pickle rebuild an instance by calling the class with
  its fields in slot order, the order __init__ binds them in, so
  __init__ checks the copy as it did the original.
"""

from __future__ import annotations

# object.__setattr__ under a module-level name: Frozen.__init__ sets
# every field through it, past Frozen.__setattr__
_set = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # an index, not zip: the loop runs for every value built
        i = 0
        for name in names:
            _set(self, name, args[i])
            i += 1

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """One value per slot, in slot order, from positional and keyword
        arguments; else the TypeError a function whose parameters are the
        slots would raise."""
        names = self.__slots__
        rest = names[len(args):]
        if len(args) + len(kwargs) == len(names):
            try:
                return args + tuple([kwargs[name] for name in rest])
            except KeyError:
                pass  # a keyword is unknown or repeats a positional argument
        cls = f"{self.__class__.__qualname__}()"
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} positional arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls} got an unexpected keyword argument {name!r}")
            if name not in rest:
                raise TypeError(f"{cls} got multiple values for argument {name!r}")
        missing = ", ".join([repr(name) for name in rest if name not in kwargs])
        raise TypeError(f"{cls} missing required arguments: {missing}")

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
