"""Immutable value records: the common base of the package's result types.

A record is a slotted class whose ``__slots__`` name its fields in
constructor order.  Its ``__init__`` sets each field once with
``set_field``; afterwards assigning or deleting a field raises
AttributeError.  Records compare equal when they are of the same class and
their fields compare equal, hash by those fields, and print as
``Name(field=value, ...)``.  The module imports nothing, so a process that
loads the package does not pay for ``dataclasses`` and ``inspect``.
"""

from __future__ import annotations

# Sets a field from a record's __init__, past the __setattr__ that refuses
# assignment.  A plain name, because hot constructors call it per field.
set_field = object.__setattr__


class Record:
    """Base of the immutable value types; subclasses list their fields in __slots__."""

    __slots__ = ()

    def _key(self) -> tuple:
        """The fields that equality and hashing read; all of them by default."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
