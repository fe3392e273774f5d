"""Frozen value records: the base of every value class in the package.

A subclass declares its fields as class annotations, in order, and their
defaults as class attributes. ``Record`` gives it positional and keyword
construction, immutability, equality and hashing by class and field
values, the ``Name(field=value, ...)`` repr, and ``replace``. A subclass
validates in ``__post_init__``, which runs after every construction,
``replace`` included; it may fix a field with ``object.__setattr__``.

It stands in for ``dataclasses``, whose import (``inspect`` among others)
and generated methods cost every CLI call more than the package itself
took to import.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Immutable fields taken from the class annotations."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        cls, fields = type(self), self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        state = self.__dict__
        for name in fields:
            if name in values:
                state[name] = values[name]
            elif name in self._defaults:
                state[name] = self._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; raise ValueError naming the field first."""

    def replace(self, **changes) -> Record:
        """A copy with the given fields changed, validated again."""
        return type(self)(**{**self.__dict__, **changes})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((self.__class__, *self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"
