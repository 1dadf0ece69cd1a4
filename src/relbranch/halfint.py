"""Half-integer literals, read and written as twice their value.

Every representation parameter in this package (a, b, the entries of a
packet's interlacing pattern) lives in (1/2)Z, and every module holds one as
the int that is twice its value, so parity checks and comparisons are int
operations.  This module only turns a literal into that int and back:
floats never enter, and neither does fractions, since a literal is read with
int arithmetic alone.
"""

from __future__ import annotations

import re

# The literals parse_twice reads; \d is Unicode's, as it is for int.
_LITERAL = re.compile(r"([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:[eE]([-+]?\d+))?)")

# The largest |exponent| of a literal: Python's default int digit limit, so
# no literal names a value that a plain digit literal could not.  A larger one
# is refused before any power of ten is built.
MAX_EXPONENT = 4300


def parse_twice(text: str) -> int:
    """Twice the value of an exact literal in Fraction's grammar of Python
    3.10, with no ``_`` or space inside it: an optional sign, then digits
    with an optional ``/denominator`` (``"7/2"``, ``"-3"``) or a decimal with
    an optional exponent (``"3.5"``, ``"35e-1"``) of at most MAX_EXPONENT in
    size.  Whitespace around the literal is stripped.  A refusal names the
    literal, never its exact value, in Fraction's words where Fraction
    refuses it too."""
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
    return -twice if sign == "-" else twice


def format_twice(twice: int) -> str:
    """The text of the half-integer twice/2: ``"3"`` for 6, ``"7/2"`` for 7."""
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"
