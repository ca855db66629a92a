"""Plain slotted record classes: one shared constructor, value equality
and a field-by-field repr.

The result and value types a grid command builds are ``__slots__``
classes rather than dataclasses, so importing them generates no code and
loads neither :mod:`dataclasses` nor the :mod:`inspect` it pulls in.  A
record declares its fields once, in ``__slots__``; :class:`Record`
supplies the rest of what the dataclass decorator generated: ``_fields``
(every slot, base classes' first -- the dataclass field order), one
``__init__`` that takes the fields by position or by name and fills the
omitted trailing ones from the class's ``_defaults``, equality over the
fields between instances of one class, a ``repr`` that lists them, and no
hash.  :class:`FrozenRecord` adds refused assignment, a hash over the
fields (the frozen dataclass's, ``hash`` of the field tuple) and pickling
through the constructor.
"""

from __future__ import annotations

from typing import Any, Mapping, Tuple

#: Marks an argument that was not given.
_MISSING = object()


class Record:
    """Base of a mutable slotted record whose slots are its fields."""

    __slots__ = ()

    #: Every field in declaration order, base classes' first.
    _fields: Tuple[str, ...] = ()

    #: The value of every field that may be omitted, by name (merged
    #: with the base classes').  These fields follow all the others, and
    #: each value is shared by every instance, so it must be immutable.
    _defaults: Mapping[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._defaults = {
            **super(cls, cls)._defaults, **cls.__dict__.get("_defaults", {})
        }
        optional = [name in cls._defaults for name in cls._fields]
        if set(cls._defaults) - set(cls._fields) or optional != sorted(optional):
            raise TypeError(
                f"{cls.__qualname__}: defaults must name its last fields"
            )

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        name = self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments "
                f"but {len(args)} were given"
            )
        assign = object.__setattr__
        for field, value in zip(fields, args):
            assign(self, field, value)
        defaults = self._defaults
        for field in fields[len(args):]:
            value = kwargs.pop(field, _MISSING)
            if value is _MISSING:
                value = defaults.get(field, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{name}() missing required field {field!r}")
            assign(self, field, value)
        if kwargs:
            # What is left was given twice or is not a field.
            raise TypeError(f"{name}() got repeated or unknown fields {sorted(kwargs)}")

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
    """Base of an immutable, hashable slotted record."""

    __slots__ = ()

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
