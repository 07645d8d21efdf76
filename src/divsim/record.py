"""Value records: small classes whose instances are their field values.

A record class declares its fields as annotated class attributes, in order,
with a default where it has one, as a dataclass would. The base gives it a
constructor that takes the fields by position or name, equality within the
class, a ``Name(field=value, ...)`` repr and ``_replace``, a copy with some
fields changed. A ``Record`` is frozen: it hashes as its field tuple, and
assignment raises ``FrozenInstanceError``, so a constructor sets fields
with ``set_field``. A ``MutableRecord`` allows assignment and is
unhashable. Pickling needs nothing more, as it restores the instance's
``__dict__``. All of this is read off the class when it is created; no
method is built from source text, so importing many record classes costs
little.
"""

from __future__ import annotations

from operator import attrgetter

# Sets a field in a constructor, past a frozen record's ``__setattr__``.
set_field = object.__setattr__


def check_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an int and not a bool, as a
    constructor asks of a count or a bound."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


def _values_getter(fields: tuple):
    """A function from a record to its ``fields``' values, as a tuple."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return lambda record: ()


class MutableRecord:
    """A record whose fields can be assigned; see the module docstring.

    It defines no ``__setattr__``, so assignment stays as fast as on a
    plain object."""

    _fields = ()  # field names in declaration order
    _defaults = {}  # field name -> default, for the fields that have one
    _values = staticmethod(_values_getter(()))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        cls._values = staticmethod(_values_getter(cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes at most {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in given:
                raise TypeError(f"{name}() got an unexpected or repeated argument {field!r}")
            given[field] = value
        values = {**self._defaults, **given}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing argument(s): {', '.join(missing)}")
        for field in fields:
            set_field(self, field, values[field])

    def _astuple(self) -> tuple:
        """The field values, in field order."""
        return self._values(self)

    def _replace(self, **changes):
        """A copy with the fields named in ``changes`` set to their values.
        It is built by the class's constructor, whose checks run again."""
        return type(self)(**{**dict(zip(self._fields, self._values(self))), **changes})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


class Record(MutableRecord):
    """A frozen record, hashable as its field tuple."""

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
