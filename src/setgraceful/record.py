"""Immutable value records: the common base of the package's result types.

A record is a slotted class whose ``__slots__`` name its fields in
constructor order.  Unless the class writes its own ``__init__`` (to
validate or convert its arguments), its constructor is generated from
``__slots__``: it takes every field, each required, and sets each once
with ``set_field``.  Afterwards assigning or deleting a field raises
AttributeError.  Records compare equal when they are of the same class and
their fields compare equal, hash by those fields, and print as
``Name(field=value, ...)``.  The module imports nothing, so a process that
loads the package does not pay for ``dataclasses`` and ``inspect``.
"""

from __future__ import annotations

# Sets a field from a record's __init__, past the __setattr__ that refuses
# assignment.  A plain name, because hot constructors call it per field.
set_field = object.__setattr__


def _fields(record: Record) -> tuple:
    """A record's field values, in __slots__ order; what it compares, hashes and pickles by."""
    return tuple(getattr(record, name) for name in record.__slots__)


class Record:
    """Base of the immutable value types; subclasses list their fields in __slots__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if cls.__init__ is object.__init__:
            cls.__init__ = _GeneratedInit()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self) -> int:
        return hash(_fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuild through the constructor: the default slot-state restore
        # would go through __setattr__.
        return self.__class__, _fields(self)


class _GeneratedInit:
    """A record's constructor, compiled from its __slots__ on first lookup.

    Built from source, as ``collections.namedtuple`` builds ``__new__``, so a
    call makes one set_field store per field; the source holds only slot
    names, which Python has checked are identifiers.  Compiling on first
    lookup spares each process the types it never builds.
    """

    def __get__(self, record: Record | None, cls: type[Record]) -> object:
        fields = cls.__slots__
        body = "; ".join(f"set_field(self, {name!r}, {name})" for name in fields)
        scope = {"set_field": set_field, "__name__": cls.__module__}
        exec(f"def __init__(self, {', '.join(fields)}):\n    {body}\n", scope)
        init = cls.__init__ = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        return init.__get__(record, cls)
