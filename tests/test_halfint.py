import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbranch import halfint
from relbranch.halfint import MAX_EXPONENT, format_twice, parse_twice


def test_construction_and_views():
    # a half-integer is read as the int twice its value and written back
    assert parse_twice("7/2") == 7
    assert format_twice(7) == "7/2"
    assert format_twice(6) == "3"
    assert format_twice(-1) == "-1/2"
    assert format_twice(0) == "0"
    assert Fraction(format_twice(-7)) == Fraction(-7, 2)


def test_parse_forms():
    assert parse_twice("7/2") == 7
    assert parse_twice("-3") == -6
    assert parse_twice("0") == 0
    assert parse_twice(" 3.5 ") == parse_twice("35e-1") == 7
    with pytest.raises(ValueError):
        parse_twice("1/3")
    with pytest.raises(ValueError):
        parse_twice("x")
    # Python 3.11's Fraction takes "_" between digits, and 3.12's spaces
    # around "/": every interpreter refuses both, as 3.10 does
    for text in ("1_1/2", "11/2_0", "1.5_0", "1e1_0", "7 / 2", "7/ 2", "7 /2"):
        with pytest.raises(ValueError) as info:
            parse_twice(text)
        message = f"cannot parse half-integer from {text!r}: Invalid literal for Fraction: {text!r}"
        assert str(info.value) == message
    # a zero denominator names its cause, not Fraction's internal repr
    for text in ("1/0", "-0/0"):
        with pytest.raises(ValueError) as info:
            parse_twice(text)
        assert str(info.value) == f"cannot parse half-integer from {text!r}: zero denominator"


def _parsed(text: str):
    """parse_twice(text), or the text of its refusal after the prefix."""
    try:
        return parse_twice(text)
    except ValueError as exc:
        prefix = f"cannot parse half-integer from {text!r}: "
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):]


@given(st.text(alphabet="0123456789./eE+-_ d\u0663", max_size=12))
def test_parse_reads_fractions_3_10_grammar_on_every_python(text):
    # the pattern takes what Fraction takes on 3.10; a literal it takes is
    # read as Fraction reads it (the exponent capped first), and any other is
    # refused in Fraction's 3.10 words on every Python, "3.d" included, which
    # 3.11 and 3.12's Fraction refuse with an int() message
    literal = text.strip()
    got = _parsed(text)
    if halfint._LITERAL.fullmatch(literal) is None:
        assert got == f"Invalid literal for Fraction: {literal!r}"
        if "_" not in literal and not any(map(str.isspace, literal)):
            with pytest.raises(ValueError):
                Fraction(literal)
        return
    exponent = re.search(r"[eE]([-+]?\d+)$", literal)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        assert got == f"exponent {int(exponent[1])} is beyond the cap MAX_EXPONENT = 4300"
        return
    try:
        value = Fraction(literal)
    except ZeroDivisionError:
        assert got == "zero denominator"
        return
    if value.denominator > 2:
        assert got == f"{literal} is not a half-integer"
    else:
        assert got == int(2 * value)


def test_parse_refuses_an_exponent_past_the_cap_before_building_it():
    # MAX_EXPONENT itself is read, one past it is refused for either sign of
    # the exponent, and of the literal, zero included; 10^(10^8) is never built
    assert MAX_EXPONENT == 4300
    for sign in ("", "-", "+"):
        negate = -1 if sign == "-" else 1
        assert parse_twice(f"{sign}1e4300") == negate * 2 * 10**4300
        assert parse_twice(f"{sign}5e-1") == negate
        assert _parsed(f"{sign}1e-4300") == f"{sign}1e-4300 is not a half-integer"
        for mantissa in ("1", "0", "2.5"):
            for exponent in ("4301", "+4301", "-4301", "100000000"):
                text = f"{sign}{mantissa}e{exponent}"
                want = f"exponent {int(exponent)} is beyond the cap MAX_EXPONENT = 4300"
                assert _parsed(text) == want, text


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_str_parse_roundtrip(twice):
    text = format_twice(twice)
    assert parse_twice(text) == twice
    assert Fraction(text) == Fraction(twice, 2)
