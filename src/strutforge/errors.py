"""What every module of the package shares: the exception types and
``Value``, the base of the immutable value classes.  This module imports
nothing of the package, so a module that needs only these, such as
``counting``, loads no other.
"""

from __future__ import annotations

import operator


class StructuralError(ValueError):
    """A graph fails the unitrivalent-tree invariants (cycle, bad degree)."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NoCrossingError(DomainError):
    """The relation/diagram ratio never crosses 1 for this color count."""


class CapacityError(RuntimeError):
    """An enumeration exceeded its configured size guard."""


class UnluckyPrimeError(RuntimeError):
    """Modular ranks kept disagreeing after exhausting retry primes."""


class CacheError(RuntimeError):
    """The result cache could not be read or written."""


_set = object.__setattr__


class Value:
    """Base of the package's immutable values: a subclass names its
    fields, in order, in ``__slots__`` and sets them in ``__init__``
    with ``_set`` (``object.__setattr__``); assigning or deleting an
    attribute afterwards raises AttributeError.

    ``==`` and ``hash`` read the fields named by the class keyword
    ``compared``, and ``repr`` those named by ``shown``; each defaults to
    every field.  ``replace(**changes)`` builds a copy through
    ``__init__``, whose checks it passes again, and unpickling rebuilds
    a value the same way.
    """

    __slots__ = ()

    def __init_subclass__(cls, compared: tuple[str, ...] | None = None,
                          shown: tuple[str, ...] | None = None) -> None:
        super().__init_subclass__()
        cls._compared_values = operator.attrgetter(*(compared or cls.__slots__))
        cls._shown = shown or cls.__slots__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared_values(self) == self._compared_values(other)

    def __hash__(self) -> int:
        return hash(self._compared_values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes: object) -> Value:
        """A copy with ``changes`` to its fields."""
        return type(self)(**{**{name: getattr(self, name) for name in self.__slots__},
                             **changes})

    def __reduce__(self) -> tuple:
        return _rebuilt, (type(self), tuple(getattr(self, name) for name in self.__slots__))


def _rebuilt(cls: type, values: tuple) -> Value:
    """A pickled value, built again through its class's ``__init__``."""
    return cls(**dict(zip(cls.__slots__, values)))
