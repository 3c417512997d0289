"""One base class for the package's immutable value records.

A record's fields are its annotated class attributes along the MRO, base
class first; a field's default is its class attribute, and unannotated
class attributes stay class attributes.  ``__init_subclass__`` collects
the fields once per class and the methods read them, so no method is
built from source.  Construction (positional, keyword, defaults, then
``__post_init__``), ``repr``, ``==`` and ``hash`` behave as a frozen data
class's, and assignment or deletion raises AttributeError.
"""

from __future__ import annotations

_MISSING = object()


class _Record:
    """Base of the package's frozen value records (see the module docstring)."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = {}  # insertion-ordered: an override keeps its base's place
        for klass in reversed(cls.__mro__):
            names.update(dict.fromkeys(klass.__dict__.get("__annotations__", ())))
        cls._fields = cls.__match_args__ = tuple(names)
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            if name not in fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            values[name] = value
        for name in fields:
            value = values.get(name, cls._defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
            object.__setattr__(self, name, value)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        """The field values, in field order."""
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
