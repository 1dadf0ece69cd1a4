import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbranch import halfint
from relbranch.halfint import MAX_EXPONENT, HalfInt

ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def exact(x: HalfInt) -> Fraction:
    return Fraction(x.twice, 2)


def test_construction_and_views():
    x = HalfInt(7)
    assert float(x) == 3.5
    assert exact(x) == Fraction(7, 2)
    assert not x.is_integer
    assert HalfInt(6).is_integer
    assert int(HalfInt(6)) == 3
    with pytest.raises(ValueError):
        int(HalfInt(7))
    with pytest.raises(TypeError):
        HalfInt(1.5)


def test_parse_forms():
    assert HalfInt.parse("7/2") == HalfInt(7)
    assert HalfInt.parse("-3") == HalfInt(-6)
    assert HalfInt.parse("0") == HalfInt(0)
    with pytest.raises(ValueError):
        HalfInt.parse("1/3")
    with pytest.raises(ValueError):
        HalfInt.parse("x")
    # Python 3.11's Fraction takes "_" between digits, and 3.12's spaces
    # around "/": every interpreter refuses both, as 3.10 does
    for text in ("1_1/2", "11/2_0", "1.5_0", "1e1_0", "7 / 2", "7/ 2", "7 /2"):
        with pytest.raises(ValueError) as info:
            HalfInt.parse(text)
        message = f"cannot parse half-integer from {text!r}: Invalid literal for Fraction: {text!r}"
        assert str(info.value) == message
    # a zero denominator names its cause, not Fraction's internal repr
    for text in ("1/0", "-0/0"):
        with pytest.raises(ValueError) as info:
            HalfInt.parse(text)
        assert str(info.value) == f"cannot parse half-integer from {text!r}: zero denominator"


def test_arithmetic_and_ordering():
    a = HalfInt.parse("7/2")
    b = HalfInt.parse("2")
    assert a + b == HalfInt.parse("11/2")
    assert a - b == HalfInt.parse("3/2")
    assert a + 1 == HalfInt.parse("9/2")
    assert 1 + a == HalfInt.parse("9/2")
    assert -a == HalfInt(-7)
    assert abs(HalfInt(-7)) == HalfInt(7)
    assert a * 2 == HalfInt.parse("7")
    assert a > b and b < a and a >= a
    assert a > 3 and b == 2
    assert HalfInt(4) == 2


def test_coerce():
    assert HalfInt.coerce(3) == HalfInt(6)
    assert exact(HalfInt.coerce("5/2")) == Fraction(5, 2)
    assert HalfInt.coerce("5/2") == HalfInt(5)
    x = HalfInt(1)
    assert HalfInt.coerce(x) is x
    with pytest.raises(TypeError):
        HalfInt.coerce(2.5)
    # a Fraction is not coerced, as a float is not: a literal or an int is
    for value in (Fraction(5, 2), Fraction(1, 4)):
        with pytest.raises(TypeError):
            HalfInt.coerce(value)
    with pytest.raises(ValueError):
        HalfInt.coerce("1/4")


def test_immutability_and_hash():
    x = HalfInt(3)
    with pytest.raises(AttributeError):
        x.twice = 4
    assert hash(HalfInt(4)) == hash(HalfInt(4))
    assert len({HalfInt(1), HalfInt(1), HalfInt(2)}) == 2


def test_integral_hash_is_the_int_hash():
    # HalfInt(2n) == n, so the two hash alike, and an int key is found by it
    for n in (0, 1, -1, -2, 7, 2**61 - 1, 2**61, -(2**64), 10**30):
        assert hash(HalfInt(2 * n)) == hash(n), n
    keys = {n: str(n) for n in range(-5, 6)}
    assert [keys[HalfInt(2 * n)] for n in range(-5, 6)] == [str(n) for n in range(-5, 6)]
    assert HalfInt(3) not in keys and len({HalfInt(3), HalfInt(-3), 1, HalfInt(2)}) == 3


def _parsed(text: str):
    """HalfInt.parse(text), or the text of its refusal after the prefix."""
    try:
        return HalfInt.parse(text)
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
        assert got == HalfInt(int(2 * value))


def test_parse_refuses_an_exponent_past_the_cap_before_building_it():
    # MAX_EXPONENT itself is read, one past it is refused for either sign of
    # the exponent, and of the literal, zero included; 10^(10^8) is never built
    assert MAX_EXPONENT == 4300
    for sign in ("", "-", "+"):
        negate = -1 if sign == "-" else 1
        assert HalfInt.parse(f"{sign}1e4300") == HalfInt(negate * 2 * 10**4300)
        assert HalfInt.parse(f"{sign}5e-1") == HalfInt(negate)
        assert _parsed(f"{sign}1e-4300") == f"{sign}1e-4300 is not a half-integer"
        for mantissa in ("1", "0", "2.5"):
            for exponent in ("4301", "+4301", "-4301", "100000000"):
                text = f"{sign}{mantissa}e{exponent}"
                want = f"exponent {int(exponent)} is beyond the cap MAX_EXPONENT = 4300"
                assert _parsed(text) == want, text


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_str_parse_roundtrip(twice):
    x = HalfInt(twice)
    assert HalfInt.parse(str(x)) == x


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
)
def test_arithmetic_matches_fractions(t1, t2):
    a, b = HalfInt(t1), HalfInt(t2)
    assert exact(a + b) == exact(a) + exact(b)
    assert exact(a - b) == exact(a) - exact(b)
    assert (a < b) == (exact(a) < exact(b))


def test_order_operators_match_fractions():
    # HalfInt against HalfInt and against int, on either side of the operator
    def value(v):
        return exact(v) if isinstance(v, HalfInt) else Fraction(v)

    operands = [HalfInt(t) for t in range(-7, 8)] + list(range(-4, 5))
    for op in ORDER:
        for x in operands:
            for y in operands:
                if isinstance(x, HalfInt) or isinstance(y, HalfInt):
                    assert op(x, y) is op(value(x), value(y)), (op.__name__, x, y)
    assert 2 < HalfInt(5) and 3 >= HalfInt(5) and not 2 >= HalfInt(5)


def test_order_operators_reject_floats_and_strings():
    for op in ORDER:
        for other in (2.5, 2.0, "5/2"):
            with pytest.raises(TypeError):
                op(HalfInt(5), other)
            with pytest.raises(TypeError):
                op(other, HalfInt(5))
