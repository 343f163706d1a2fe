"""Frozen records: the part of ``@dataclass(frozen=True)`` that hahnforge uses.

``@record`` reads the fields of a class from its own annotations, in order,
and installs ``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__``,
``__delattr__`` and, unless the class defines one, ``__init__``.  Each is a
closure over the field names, so creating a record class generates and
compiles no code, and the program needs neither ``dataclasses`` nor the
``inspect`` it imports.  They behave as a frozen dataclass's do:

* ``__init__`` takes the fields positionally or by keyword, fills in the
  class-level defaults, then calls ``__post_init__`` if the class has one.
  A class that defines its own ``__init__`` sets each field with
  ``object.__setattr__`` and runs its own checks;
* ``==`` compares the fields marked for comparison, only between instances
  of the same class, and ``hash`` hashes the same tuple.  A class that
  defines its own ``__eq__`` keeps it, and its own ``__hash__``;
* ``repr`` is ``Name(field=value, ...)`` over all fields;
* setting or deleting any attribute raises ``AttributeError``.

Instances keep a ``__dict__``, so ``functools.cached_property`` works on them.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default", "compare")

    def __init__(self, default: object, compare: bool) -> None:
        self.default = default
        self.compare = compare


def field(*, default: object, compare: bool = True) -> _Field:
    """A field's default, and whether ``==`` and ``hash`` read the field."""
    return _Field(default, compare)


def _fields_of(names: tuple[str, ...]):
    """self -> the tuple of the named fields."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(names[0])
        return lambda self: (one(self),)
    return lambda self: ()


def _init(names: tuple[str, ...], defaults: dict[str, object], post_init):
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs) -> None:
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            set_field(self, name, value)
        for name in kwargs:  # not a field, or a field also given by position
            raise TypeError(f"{type(self).__name__}() got an unexpected argument {name!r}")
        if post_init is not None:
            post_init(self)

    return __init__


def _setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Make ``cls`` a frozen record over its annotated fields."""
    names = tuple(cls.__annotations__)  # the class's own annotations (3.10+)
    defaults: dict[str, object] = {}
    compared = []
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            value, compare = value.default, value.compare
            setattr(cls, name, value)
        else:
            compare = True
        if value is not _MISSING:
            defaults[name] = value
        if compare:
            compared.append(name)
    everything, key = _fields_of(names), _fields_of(tuple(compared))

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, everything(self)))
        return f"{type(self).__qualname__}({shown})"

    if "__init__" not in cls.__dict__:
        cls.__init__ = _init(names, defaults, getattr(cls, "__post_init__", None))
    if "__eq__" not in cls.__dict__:
        cls.__eq__, cls.__hash__ = __eq__, __hash__
    cls.__repr__ = __repr__
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls
