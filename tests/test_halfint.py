import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbranch.halfint import HalfInt

ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def test_construction_and_views():
    x = HalfInt(7)
    assert float(x) == 3.5
    assert x.as_fraction() == Fraction(7, 2)
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
    assert HalfInt.coerce(Fraction(5, 2)) == HalfInt(5)
    assert HalfInt.coerce("5/2") == HalfInt(5)
    x = HalfInt(1)
    assert HalfInt.coerce(x) is x
    with pytest.raises(TypeError):
        HalfInt.coerce(2.5)
    with pytest.raises(ValueError):
        HalfInt.coerce(Fraction(1, 4))


def test_immutability_and_hash():
    x = HalfInt(3)
    with pytest.raises(AttributeError):
        x.twice = 4
    assert hash(HalfInt(4)) == hash(HalfInt(4))
    assert len({HalfInt(1), HalfInt(1), HalfInt(2)}) == 2


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
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a < b) == (a.as_fraction() < b.as_fraction())


def test_order_operators_match_fractions():
    # HalfInt against HalfInt and against int, on either side of the operator
    def exact(v):
        return v.as_fraction() if isinstance(v, HalfInt) else Fraction(v)

    operands = [HalfInt(t) for t in range(-7, 8)] + list(range(-4, 5))
    for op in ORDER:
        for x in operands:
            for y in operands:
                if isinstance(x, HalfInt) or isinstance(y, HalfInt):
                    assert op(x, y) is op(exact(x), exact(y)), (op.__name__, x, y)
    assert 2 < HalfInt(5) and 3 >= HalfInt(5) and not 2 >= HalfInt(5)


def test_order_operators_reject_floats_and_strings():
    for op in ORDER:
        for other in (2.5, 2.0, "5/2"):
            with pytest.raises(TypeError):
                op(HalfInt(5), other)
            with pytest.raises(TypeError):
                op(other, HalfInt(5))
