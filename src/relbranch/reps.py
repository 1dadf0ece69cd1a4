"""Discrete-series parameter bookkeeping for the two unitary families.

A parameter is a signature (p, q), a side (+/-), a level (the group itself
or its rank-one-smaller subgroup), and an exact half-integer a, held as the
int twice = 2a.  Validity means two things, checked in this order:

  parity      2a is odd iff p+q is even (level G); 2a is even iff p+q is
              even (subgroup level);
  good range  a - (p+q-1)/2 in N at level G, a - (p+q-2)/2 in N at the
              subgroup level.

Given parity, the good-range offset is automatically an integer, so range
reduces to a lower bound; the two checks are still reported separately so
errors name the violated clause.  Only this module works out the bound;
every other reads it from bound_twice, or valid_twice for a range of a.

A packet character, a character of Z2 x Z2, is its sign pair
(on_E1, on_E2) on the two generators: epsilon_of gives the one attached to a
side, and CHARACTER_TEXTS writes the text of each.

The commands read all of this module.  The parser of format_param's text
and the minimal K-type checks, which none reads, live beside their tests in
tests/test_reps.py.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .frozen import Frozen
from .halfint import format_twice, parse_twice


class ParamError(ValueError):
    """A parameter fails validation."""


class ParityError(ParamError):
    """Violated clause: parity of 2a against p+q."""


class GoodRangeError(ParamError):
    """Violated clause: good-range lower bound."""


class Side(Enum):
    PLUS = "+"
    MINUS = "-"


class GroupLevel(Enum):
    G = "G"
    GPRIME = "G'"


# read by the per-row functions below, bound once: before Python 3.12 each
# read of an enum member (Side.PLUS) takes about 0.1 us
_G, _PLUS = GroupLevel.G, Side.PLUS


class Signature(Frozen):
    """A signature (p, q) with p, q >= 1."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if p < 1 or q < 1:
            raise ParamError(f"signature entries must be positive, got ({p}, {q})")
        super().__init__(p, q)

    @property
    def n(self) -> int:
        return self.p + self.q

    def __str__(self) -> str:
        return f"U({self.p},{self.q})"


# the text of each of the four characters, the one place a character is written
CHARACTER_TEXTS = {(e1, e2): f"({e1:+d},{e2:+d})" for e1 in (1, -1) for e2 in (1, -1)}
EPSILON_1 = (1, -1)
EPSILON_2 = (-1, 1)


class DiscreteSeriesParam(NamedTuple):
    sig: Signature
    side: Side
    level: GroupLevel
    twice: int  # 2a

    def __str__(self) -> str:
        return format_param(self)


def bound_twice(sig: Signature, level: GroupLevel) -> int:
    """Twice the good-range bound: p+q-1 at level G, p+q-2 at the subgroup
    level.  A valid 2a has its parity and is at least it.

    U(1,1) has no subgroup level: there the bound would admit b = 0, which
    no interlacing pattern (and so no branch query) accepts.  Every path to
    a subgroup-level parameter or range reads the bound here, so each one
    refuses U(1,1) with the same message.
    """
    if level is _G:
        return sig.n - 1
    if sig.n == 2:
        raise GoodRangeError(
            f"{sig} has no subgroup-level parameters: the good range would admit "
            "b = 0, and branching needs b > 0"
        )
    return sig.n - 2


def valid_twice(sig: Signature, level: GroupLevel, lo_twice: int, hi_twice: int) -> range:
    """2a for the valid parameters with lo <= a <= hi, from 2lo and 2hi,
    ascending: a steps by 1 from the good-range bound, so they are counted
    without building any."""
    bound = bound_twice(sig, level)
    return range(bound + 2 * max(0, (lo_twice - bound + 1) // 2), hi_twice + 1, 2)


def make_param(sig: Signature, side: Side, level: GroupLevel, a) -> DiscreteSeriesParam:
    """Validate and build a parameter from a's text as written (a str) or
    from the int twice a; any other type, bool included, is a TypeError.
    Errors name the violated clause and echo a as written, a twice int as
    format_twice writes it."""
    twice = parse_twice(a) if type(a) is str else a
    if type(twice) is not int:
        raise TypeError(f"a must be a str or the int 2a, got {type(a).__name__}")
    bound = bound_twice(sig, level)
    # 2a must have the parity of twice the bound
    want_odd = bound % 2 == 1
    if (twice % 2 == 1) != want_odd:
        raise ParityError(
            f"parity: 2a must be {'odd' if want_odd else 'even'} for {sig} at level "
            f"{level.value}, got a = {_written(a)}"
        )
    if twice < bound:
        raise GoodRangeError(
            f"good range: need a >= {format_twice(bound)} for {sig} at level "
            f"{level.value}, got a = {_written(a)}"
        )
    return DiscreteSeriesParam(sig, side, level, twice)


def _written(a) -> str:
    """a as make_param's caller wrote it: its text, or the text of a twice int."""
    return a if type(a) is str else format_twice(a)


def epsilon_of(param: DiscreteSeriesParam) -> tuple[int, int]:
    """The sign pair of the packet character attached to the side:
    plus -> (+1,-1), minus -> (-1,+1)."""
    return EPSILON_1 if param.side is _PLUS else EPSILON_2


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------


def format_param(param: DiscreteSeriesParam) -> str:
    """Canonical form ``U(p,q)[+|-]a=<rational>``, with a prime marking the
    subgroup level: ``U(3,3)'+a=2``."""
    prime = "'" if param.level is GroupLevel.GPRIME else ""
    return f"U({param.sig.p},{param.sig.q}){prime}{param.side.value}a={format_twice(param.twice)}"
