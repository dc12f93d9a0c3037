"""The immutable base of the package's value classes.

A subclass names its fields in ``_fields`` (those left out of its repr in
``_hidden``) and stores them in ``__init__`` through ``vars(self)``, as
assignment is refused.  The base gives what a frozen dataclass would:
equality on the field values for instances of the same class only, the
hash of that tuple, the repr ``Name(field=value, ...)``, and
``FrozenInstanceError`` on assignment or deletion.  Instances keep their
``__dict__``, so ``functools.cached_property`` and pickling work as usual.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Frozen:
    _fields: tuple = ()
    _hidden: tuple = ()

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        attrs = vars(self)
        shown = ", ".join(
            f"{name}={attrs[name]!r}" for name in self._fields if name not in self._hidden
        )
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
