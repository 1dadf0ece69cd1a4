"""Discrete-series parameter bookkeeping for the two unitary families.

A parameter is a signature (p, q), a side (+/-), a level (the group itself
or its rank-one-smaller subgroup), and an exact half-integer a.  Validity
means two things, checked in this order:

  parity      2a is odd iff p+q is even (level G); 2a is even iff p+q is
              even (subgroup level);
  good range  a - (p+q-1)/2 in N at level G, a - (p+q-2)/2 in N at the
              subgroup level.

Given parity, the good-range offset is automatically an integer, so range
reduces to a lower bound; the two checks are still reported separately so
errors name the violated clause.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .frozen import Frozen
from .halfint import HalfInt


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


class EpsilonCharacter(Frozen):
    """A character of Z2 x Z2 recorded by its signs on the two generators."""

    __slots__ = ("on_E1", "on_E2")

    def __init__(self, on_E1: int, on_E2: int):
        if on_E1 not in (1, -1) or on_E2 not in (1, -1):
            raise ValueError("character values must be +1 or -1")
        super().__init__(on_E1, on_E2)

    def __str__(self) -> str:
        return f"({self.on_E1:+d},{self.on_E2:+d})"


EPSILON_1 = EpsilonCharacter(1, -1)
EPSILON_2 = EpsilonCharacter(-1, 1)


class HighestWeight(Frozen):
    """A weakly decreasing weight vector with exact entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[HalfInt, ...]):
        super().__init__(entries)
        for a, b in zip(entries, entries[1:]):
            if a < b:
                raise ValueError(f"weight entries must be weakly decreasing: {self}")

    @classmethod
    def of(cls, *values) -> "HighestWeight":
        return cls(tuple(HalfInt.coerce(v) for v in values))

    def entry_sum(self) -> HalfInt:
        total = HalfInt(0)
        for e in self.entries:
            total = total + e
        return total

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


class DiscreteSeriesParam(NamedTuple):
    sig: Signature
    side: Side
    level: GroupLevel
    a: HalfInt

    @property
    def good_range_bound(self) -> HalfInt:
        shift = 1 if self.level is GroupLevel.G else 2
        return HalfInt(self.sig.n - shift)

    def __str__(self) -> str:
        return format_param(self)


def make_param(sig: Signature, side: Side, level: GroupLevel, a) -> DiscreteSeriesParam:
    """Validate and build a parameter; errors name the violated clause."""
    a = HalfInt.coerce(a)
    param = DiscreteSeriesParam(sig, side, level, a)
    # 2a must have the parity of p+q-1 at level G, of p+q at the subgroup level
    want_odd = (sig.n - (1 if level is GroupLevel.G else 2)) % 2 == 1
    if (a.twice % 2 == 1) != want_odd:
        raise ParityError(
            f"parity: 2a must be {'odd' if want_odd else 'even'} for {sig} at level "
            f"{level.value}, got a = {a}"
        )
    if a < param.good_range_bound:
        raise GoodRangeError(
            f"good range: need a >= {param.good_range_bound} for {sig} at level "
            f"{level.value}, got a = {a}"
        )
    return param


def a_zero(param: DiscreteSeriesParam) -> HalfInt:
    """The good-range offset a - (p+q-1)/2, a natural number at level G."""
    if param.level is not GroupLevel.G:
        raise ParamError("a_zero is defined for level-G parameters")
    return param.a - param.good_range_bound


def minimal_k_type(param: DiscreteSeriesParam) -> tuple[HighestWeight, HighestWeight]:
    """Highest weights of the minimal K-type, as (U(p)-factor, U(q)-factor).

    The plus side is trivial on the U(q) factor with U(p)-weight
    (a0+q, 0, ..., 0, -a0-q); the minus side mirrors it with p and q swapped.
    """
    if param.level is not GroupLevel.G:
        raise ParamError("minimal_k_type is defined for level-G parameters")
    p, q = param.sig.p, param.sig.q
    a0 = a_zero(param)
    zero = HalfInt(0)

    def spiked(length: int, top: HalfInt) -> HighestWeight:
        if length < 2:
            raise ParamError(f"nontrivial factor needs rank >= 2, got {length}")
        return HighestWeight((top,) + (zero,) * (length - 2) + (-top,))

    def trivial(length: int) -> HighestWeight:
        return HighestWeight((zero,) * length)

    if param.side is Side.PLUS:
        return spiked(p, a0 + q), trivial(q)
    return trivial(p), spiked(q, a0 + p)


def infinitesimal_character(param: DiscreteSeriesParam) -> tuple[HalfInt, ...]:
    """(a, middle string, -a) with the middle the unit-step string of length
    p+q-2 centered at zero, endpoints +-(p+q-3)/2.  Entries are pairwise
    distinct for every valid parameter."""
    if param.level is not GroupLevel.G:
        raise ParamError("infinitesimal_character is defined for level-G parameters")
    n = param.sig.n
    top = HalfInt(n - 3)  # (p+q-3)/2
    middle = [top - j for j in range(n - 2)]
    entries = (param.a, *middle, -param.a)
    if len(set(e.twice for e in entries)) != len(entries):
        raise ParamError(f"singular infinitesimal character for a = {param.a}")
    return entries


def epsilon_of(param: DiscreteSeriesParam) -> EpsilonCharacter:
    """The packet character attached to the side: plus -> (+1,-1),
    minus -> (-1,+1)."""
    return EPSILON_1 if param.side is Side.PLUS else EPSILON_2


def center_acts_trivially(weight_p: HighestWeight, weight_q: HighestWeight) -> bool:
    """The center acts by the total weight sum; trivial action means the
    entries of both factors sum to zero, which is what lets the
    special-unitary picture extend to the full unitary group."""
    return (weight_p.entry_sum() + weight_q.entry_sum()) == HalfInt(0)


def center_lift_check(param: DiscreteSeriesParam) -> bool:
    """True iff the minimal K-type is trivial on the center."""
    wp, wq = minimal_k_type(param)
    return center_acts_trivially(wp, wq)


# ---------------------------------------------------------------------------
# Canonical text form
# ---------------------------------------------------------------------------


def format_param(param: DiscreteSeriesParam) -> str:
    """Canonical form ``U(p,q)[+|-]a=<rational>``, with a prime marking the
    subgroup level: ``U(3,3)'+a=2``."""
    prime = "'" if param.level is GroupLevel.GPRIME else ""
    return f"U({param.sig.p},{param.sig.q}){prime}{param.side.value}a={param.a}"
