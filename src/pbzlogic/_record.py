"""Immutable value classes with slots, for the records that validate or
override dunders (plain records are `typing.NamedTuple`s).

A subclass lists its fields, in constructor order, in `__slots__` (plus
`"__dict__"` when it keeps a `functools.cached_property`) and sets them in
its own `__init__` with `object.__setattr__`.  The base gives it a repr,
equality and hashing by fields, pickling through the constructor, and an
AttributeError on assignment or deletion.  It imports only `operator`, so
no command pays at start-up for the standard library's record decorator and
the `inspect` module that it loads.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecord:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls.__match_args__ = cls._fields
        # the field values, compared and hashed: one value for one field
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
