"""The base of the package's frozen record classes, built with no generated code.

A record class names its fields, in the order of its ``__init__``
parameters, in ``__match_args__`` (so ``match`` reads them positionally),
and its ``__init__`` validates them and stores them with
``vars(self).update``. ``field_repr`` is the text of such a record.
"""

from __future__ import annotations


def field_repr(record) -> str:
    """``Name(field=value, ...)``, over the fields in ``__match_args__``."""
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record.__match_args__)
    return f"{type(record).__qualname__}({fields})"


class Frozen:
    """A record whose attributes are fixed once ``__init__`` has stored them:
    setting or deleting one raises AttributeError. It compares and hashes by
    identity, unless its class sets ``_by_value``: then by the tuple of its
    fields, and only against records of the same class."""

    __match_args__: tuple[str, ...] = ()
    _by_value = False
    __repr__ = field_repr

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self._by_value and type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values()) if self._by_value else object.__hash__(self)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)
