"""The immutable value base of the records that validate their fields.

A subclass names its fields in ``__slots__``, and its own ``__init__``
validates the values and passes them, in slot order, to ``Frozen.__init__``,
which sets each one once.  Equality, hashing and repr read the fields in
slot order, as a frozen dataclass's would, but no method is generated at
import, so defining a record costs no more than defining any class.
Records that validate nothing, such as ``specfun.QuadratureResult``, are
``typing.NamedTuple``s instead.
"""

from __future__ import annotations


class Frozen:
    """Value semantics over ``__slots__``: equal exactly when the classes
    match and the fields compare equal, hashed on the field tuple, and
    immutable once built."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the default restores
        # slots through the __setattr__ below
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
