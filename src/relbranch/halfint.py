"""Exact half-integer arithmetic.

Every representation parameter in this package (a, b, weights, character
entries) lives in (1/2)Z.  Storing twice the value as an int keeps parity
checks and comparisons exact; floats never enter validation paths, and
neither does fractions: a literal is read with int arithmetic alone.
"""

from __future__ import annotations

import re
from functools import total_ordering

from .frozen import Frozen

# The literals HalfInt.parse reads; \d is Unicode's, as it is for int.
_LITERAL = re.compile(r"([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?\d+))?)")

# The largest |exponent| of a literal: Python's default int digit limit, so
# no literal names a value that a plain digit literal could not.  A larger one
# is refused before any power of ten is built.
MAX_EXPONENT = 4300


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
    def parse(cls, text: str) -> "HalfInt":
        """Parse an exact literal in Fraction's grammar of Python 3.10, with
        no ``_`` or space inside it: an optional sign, then digits with an
        optional ``/denominator`` (``"7/2"``, ``"-3"``) or a decimal with an
        optional exponent (``"3.5"``, ``"35e-1"``) of at most MAX_EXPONENT in
        size.  Whitespace around the literal is stripped.  A refusal names
        the literal, never its exact value, in Fraction's words where
        Fraction refuses it too."""
        literal = text.strip()
        try:
            match = _LITERAL.fullmatch(literal)
            if match is None:
                raise ValueError(f"Invalid literal for Fraction: {literal!r}")
            sign, digits, denominator, decimals, e = match.groups()
            num, den = int(digits or "0"), int(denominator or "1")
            if decimals:
                den = 10 ** len(decimals)
                num = num * den + int(decimals)
            e = int(e or "0")
            if abs(e) > MAX_EXPONENT:
                raise ValueError(f"exponent {e} is beyond the cap MAX_EXPONENT = {MAX_EXPONENT}")
            if not den:
                raise ValueError("zero denominator")
            twice, rest = divmod(2 * num * 10 ** max(e, 0), den * 10 ** max(-e, 0))
            if rest:
                raise ValueError(f"{literal} is not a half-integer")
        except ValueError as exc:
            raise ValueError(f"cannot parse half-integer from {text!r}: {exc}") from None
        return cls(-twice if sign == "-" else twice)

    @classmethod
    def coerce(cls, value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls.from_int(value)
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"cannot coerce {value!r} to HalfInt")

    # -- views ------------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

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
        # an integral value hashes as the int it equals
        return hash(self.twice // 2 if self.is_integer else (self.twice, 2))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        twice = self.twice
        if twice % 2 == 0:
            return str(twice // 2)
        return f"{twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


HALF = HalfInt(1)
