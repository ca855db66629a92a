"""Plain slotted record classes: value equality and a field-by-field repr.

The result and value types a grid command builds are ``__slots__``
classes with explicit ``__init__`` methods rather than dataclasses, so
importing them generates no code and loads neither :mod:`dataclasses` nor
the :mod:`inspect` it pulls in.  :class:`Record` supplies what the
dataclass decorator generated besides ``__init__``: ``_fields`` (every
slot, base classes' first -- the dataclass field order), equality over
those fields between instances of one class, a ``repr`` that lists them,
and no hash.  :class:`FrozenRecord` adds refused assignment, a hash over
the fields (the frozen dataclass's, ``hash`` of the field tuple) and
pickling through the constructor.
"""

from __future__ import annotations

from typing import Any, Tuple


class Record:
    """Base of a mutable slotted record whose slots are its fields."""

    __slots__ = ()

    #: Every field in declaration order, base classes' first.
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _values(self) -> Tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """Base of an immutable, hashable slotted record whose ``__init__``
    stores its fields once, through :meth:`_store`."""

    __slots__ = ()

    def _store(self, *values: Any) -> None:
        """Set every field, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> Tuple[Any, ...]:
        return (self.__class__, self._values())


def as_dict(value: Any) -> Any:
    """``value`` with every record -- a :class:`Record` or a named tuple --
    turned into a ``{field: value}`` dict in field order, recursively
    through lists, tuples and dicts: what :func:`dataclasses.asdict` made
    of the dataclasses these records replace."""
    fields = getattr(type(value), "_fields", None)
    if fields is not None:
        return {name: as_dict(getattr(value, name)) for name in fields}
    if isinstance(value, (list, tuple)):
        return type(value)(as_dict(item) for item in value)
    if isinstance(value, dict):
        return {as_dict(key): as_dict(item) for key, item in value.items()}
    return value
