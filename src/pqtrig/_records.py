"""The construction path shared by the package's validated records, and
the checks of a count, of a real argument and of a Hölder order."""

import math
import operator

from .errors import DomainError


def count(value, what: str) -> int:
    """``value`` as an int, or DomainError where ``operator.index`` refuses
    it (a float such as 10.0 included), so a count never reaches ``range``
    or a kernel as a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def real(value, what: str) -> float:
    """``value`` as a float, or DomainError where it is no real number (a
    string, None) or no float holds it; nan and inf are the caller's."""
    if type(value) is float:  # the common case, at a third of the cost
        return value
    try:
        if not isinstance(value, (str, bytes, bytearray)):  # which float() parses
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise DomainError(f"{what} must be a real number, got {value!r}")


def holder_order(value) -> float:
    """A Hölder order as a float; DomainError unless it is a finite real.
    Each public entry that takes an order calls this once, before it
    computes anything."""
    r = real(value, "Hölder order")
    if not math.isfinite(r):
        raise DomainError(f"Hölder order must be a finite real, got {r!r}")
    return r


class Validated:
    """Mixin that checks a NamedTuple record's fields on every construction.

    A record is ``class R(Validated, _RFields)``: the NamedTuple
    ``_RFields`` holds the fields and their defaults, and ``R._check``
    raises on a bad value.  ``_make`` (and so ``_replace``), pickling and
    ``copy`` all construct through ``R(...)``, so none of them yields an
    unchecked record.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return self.__class__, tuple(self)
