"""Exact half-integer arithmetic.

Every representation parameter in this package (a, b, weights, character
entries) lives in (1/2)Z.  Storing twice the value as an int keeps parity
checks and comparisons exact; floats never enter validation paths.

fractions, which imports decimal, is imported only where a Fraction is read
or built (parse, from_fraction, coerce of a value that is not a HalfInt,
int or str, as_fraction and hashing), so a command that builds its
half-integers from ints loads neither.
"""

from __future__ import annotations

from functools import total_ordering

from .frozen import Frozen


@total_ordering
class HalfInt(Frozen):
    """A number n/2 with n an integer, stored as ``twice = n``; it compares,
    hashes and prints as a number, not as a ``Frozen`` record."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError(f"twice must be an int, got {type(twice).__name__}")
        object.__setattr__(self, "twice", twice)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "HalfInt":
        return cls(2 * n)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "HalfInt":
        from fractions import Fraction

        f = Fraction(f)
        if f.denominator not in (1, 2):
            raise ValueError(f"{f} is not a half-integer")
        return cls(f.numerator * (2 // f.denominator))

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse an exact literal: an optional sign, then digits with an
        optional ``/denominator`` (``"7/2"``, ``"-3"``) or a decimal with an
        optional exponent (``"3.5"``).  ``_`` (which Fraction takes from 3.11)
        and inner spaces (from 3.12) are refused, so every Python agrees.  A
        refusal names the literal, never its exact value."""
        from fractions import Fraction

        try:
            literal = text.strip()
            if "_" in literal or any(map(str.isspace, literal)):
                raise ValueError(f"Invalid literal for Fraction: {literal!r}")
            value = Fraction(literal)
            if value.denominator > 2:
                raise ValueError(f"{literal} is not a half-integer")
            return cls.from_fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"cannot parse half-integer from {text!r}: zero denominator") from None
        except ValueError as exc:
            raise ValueError(f"cannot parse half-integer from {text!r}: {exc}") from None

    @classmethod
    def coerce(cls, value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls.from_int(value)
        if isinstance(value, str):
            return cls.parse(value)
        from fractions import Fraction

        if isinstance(value, Fraction):
            return cls.from_fraction(value)
        raise TypeError(f"cannot coerce {value!r} to HalfInt")

    # -- views ------------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __int__(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    # -- arithmetic (closed over HalfInt; ints are lifted) ----------------

    @staticmethod
    def _twice_of(other) -> int:
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        t = self._twice_of(other)
        if t is NotImplemented:
            return NotImplemented
        return HalfInt(self.twice + t)

    __radd__ = __add__

    def __sub__(self, other):
        t = self._twice_of(other)
        if t is NotImplemented:
            return NotImplemented
        return HalfInt(self.twice - t)

    def __rsub__(self, other):
        t = self._twice_of(other)
        if t is NotImplemented:
            return NotImplemented
        return HalfInt(t - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __mul__(self, other):
        # restricted to int factors so the result stays a half-integer
        if isinstance(other, int):
            return HalfInt(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        t = self._twice_of(other)
        if t is NotImplemented:
            return NotImplemented
        return self.twice == t

    def __lt__(self, other) -> bool:
        t = self._twice_of(other)
        if t is NotImplemented:
            return NotImplemented
        return self.twice < t

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        twice = self.twice
        if twice % 2 == 0:
            return str(twice // 2)
        return f"{twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


HALF = HalfInt(1)
