import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbranch.halfint import format_twice, parse_twice
from relbranch.oracle import HighestWeight
from relbranch.reps import (
    CHARACTER_TEXTS,
    EPSILON_1,
    EPSILON_2,
    DiscreteSeriesParam,
    GoodRangeError,
    GroupLevel,
    ParamError,
    ParityError,
    Side,
    Signature,
    bound_twice,
    epsilon_of,
    format_param,
    make_param,
)


_PARAM_RE = re.compile(
    r"^U\((?P<p>\d+),(?P<q>\d+)\)(?P<prime>')?(?P<side>[+-])a=(?P<a>-?\d+(?:/2)?)$"
)


def parse_param(text):
    """Inverse of format_param; validates the result."""
    m = _PARAM_RE.match(text.strip())
    if not m:
        raise ParamError(f"cannot parse parameter from {text!r}")
    sig = Signature(int(m.group("p")), int(m.group("q")))
    level = GroupLevel.GPRIME if m.group("prime") else GroupLevel.G
    side = Side.PLUS if m.group("side") == "+" else Side.MINUS
    return make_param(sig, side, level, m.group("a"))


# The minimal K-type, infinitesimal character and center-lift check of a
# level-G parameter: background that no command reads, kept here as the
# reference the assertions below pin.


def a_zero(param: DiscreteSeriesParam) -> int:
    """The good-range offset a - (p+q-1)/2, a natural number at level G."""
    if param.level is not GroupLevel.G:
        raise ParamError("a_zero is defined for level-G parameters")
    return (param.twice - bound_twice(param.sig, param.level)) // 2


def minimal_k_type(param: DiscreteSeriesParam) -> tuple[HighestWeight, HighestWeight]:
    """Highest weights of the minimal K-type, as (U(p)-factor, U(q)-factor).

    The plus side is trivial on the U(q) factor with U(p)-weight
    (a0+q, 0, ..., 0, -a0-q); the minus side mirrors it with p and q swapped.
    """
    if param.level is not GroupLevel.G:
        raise ParamError("minimal_k_type is defined for level-G parameters")
    p, q = param.sig.p, param.sig.q
    a0 = a_zero(param)

    def spiked(length: int, top: int) -> HighestWeight:
        if length < 2:
            raise ParamError(f"nontrivial factor needs rank >= 2, got {length}")
        return HighestWeight.of(top, *[0] * (length - 2), -top)

    def trivial(length: int) -> HighestWeight:
        return HighestWeight.of(*[0] * length)

    if param.side is Side.PLUS:
        return spiked(p, a0 + q), trivial(q)
    return trivial(p), spiked(q, a0 + p)


def infinitesimal_character(param: DiscreteSeriesParam) -> tuple[int, ...]:
    """(a, middle string, -a), each entry as twice its value, with the middle
    the unit-step string of length p+q-2 centered at zero, endpoints
    +-(p+q-3)/2.  Entries are pairwise distinct for every valid parameter."""
    if param.level is not GroupLevel.G:
        raise ParamError("infinitesimal_character is defined for level-G parameters")
    n = param.sig.n
    top = n - 3  # twice (p+q-3)/2
    middle = [top - 2 * j for j in range(n - 2)]
    entries = (param.twice, *middle, -param.twice)
    if len(set(entries)) != len(entries):
        raise ParamError(f"singular infinitesimal character for a = {format_twice(param.twice)}")
    return entries


def center_acts_trivially(weight_p: HighestWeight, weight_q: HighestWeight) -> bool:
    """The center acts by the total weight sum; trivial action means the
    entries of both factors sum to zero, which is what lets the
    special-unitary picture extend to the full unitary group."""
    return (weight_p.entry_sum() + weight_q.entry_sum()) == 0


def center_lift_check(param: DiscreteSeriesParam) -> bool:
    """True iff the minimal K-type is trivial on the center."""
    wp, wq = minimal_k_type(param)
    return center_acts_trivially(wp, wq)


def valid_level_G_params(sig, count=4):
    bound = sig.n - 1  # twice the good-range bound
    out = []
    for m in range(count):
        for side in (Side.PLUS, Side.MINUS):
            out.append(make_param(sig, side, GroupLevel.G, bound + 2 * m))
    return out


def test_signature_assumption():
    Signature(3, 3)
    Signature(2, 5)
    Signature(1, 2)
    with pytest.raises(ParamError):
        Signature(0, 3)


def test_make_param_examples():
    sig = Signature(3, 3)
    p = make_param(sig, Side.PLUS, GroupLevel.G, "5/2")
    assert p.twice == 5
    assert make_param(sig, Side.PLUS, GroupLevel.G, 5) == p  # the int twice a
    with pytest.raises(ParityError):
        make_param(sig, Side.PLUS, GroupLevel.G, "2")
    with pytest.raises(GoodRangeError):
        make_param(sig, Side.PLUS, GroupLevel.G, "3/2")


def test_make_param_error_messages_name_the_clause():
    sig = Signature(3, 3)
    with pytest.raises(ParityError, match="parity"):
        make_param(sig, Side.PLUS, GroupLevel.G, "2")
    with pytest.raises(GoodRangeError, match="good range"):
        make_param(sig, Side.PLUS, GroupLevel.G, "3/2")


def test_subgroup_level_parity_is_opposite():
    sig = Signature(3, 3)
    make_param(sig, Side.PLUS, GroupLevel.GPRIME, "2")  # 2b even for p+q even
    with pytest.raises(ParityError):
        make_param(sig, Side.PLUS, GroupLevel.GPRIME, "5/2")
    sig45 = Signature(4, 5)
    make_param(sig45, Side.PLUS, GroupLevel.G, "4")
    make_param(sig45, Side.PLUS, GroupLevel.GPRIME, "7/2")
    with pytest.raises(ParityError):
        make_param(sig45, Side.PLUS, GroupLevel.GPRIME, "4")


def test_rb_cross_parity_never_ties():
    for sig in (Signature(3, 3), Signature(4, 5), Signature(4, 6)):
        a_bound, b_bound = sig.n - 1, sig.n - 2  # twice the bounds
        for i in range(6):
            for j in range(6):
                a, b = a_bound + 2 * i, b_bound + 2 * j
                assert (a + b) % 2 == 1  # opposite parities
                assert a != b


def test_a_zero():
    sig = Signature(3, 3)
    assert a_zero(make_param(sig, Side.PLUS, GroupLevel.G, "5/2")) == 0
    assert a_zero(make_param(sig, Side.PLUS, GroupLevel.G, "7/2")) == 1
    sig34 = Signature(3, 4)
    assert a_zero(make_param(sig34, Side.PLUS, GroupLevel.G, "3")) == 0
    with pytest.raises(ParamError):
        a_zero(make_param(sig, Side.PLUS, GroupLevel.GPRIME, "2"))


def test_minimal_k_type_examples():
    sig = Signature(3, 3)
    wp, wq = minimal_k_type(make_param(sig, Side.PLUS, GroupLevel.G, "5/2"))
    assert wp == HighestWeight.of(3, 0, -3)
    assert wq == HighestWeight.of(0, 0, 0)
    wp, wq = minimal_k_type(make_param(sig, Side.MINUS, GroupLevel.G, "5/2"))
    assert wp == HighestWeight.of(0, 0, 0)
    assert wq == HighestWeight.of(3, 0, -3)


def test_minimal_k_type_shifts_by_opposite_rank():
    # plus side spikes the U(p) factor by a0 + q; minus side by a0 + p
    sig = Signature(3, 4)
    wp, _ = minimal_k_type(make_param(sig, Side.PLUS, GroupLevel.G, "3"))
    assert wp.entries[0] == 4
    _, wq = minimal_k_type(make_param(sig, Side.MINUS, GroupLevel.G, "3"))
    assert wq.entries[0] == 3


def test_minimal_k_type_entries_sum_to_zero():
    for sig in (Signature(3, 3), Signature(3, 4), Signature(4, 6)):
        for param in valid_level_G_params(sig):
            wp, wq = minimal_k_type(param)
            assert wp.entry_sum() + wq.entry_sum() == 0
            assert len(wp) == sig.p and len(wq) == sig.q


def test_infinitesimal_character_example():
    sig = Signature(3, 3)
    for side in (Side.PLUS, Side.MINUS):
        got = infinitesimal_character(make_param(sig, side, GroupLevel.G, "7/2"))
        assert got == (7, 3, 1, -1, -3, -7)  # 7/2, 3/2, 1/2, -1/2, -3/2, -7/2


def test_infinitesimal_character_regular_and_side_independent():
    for sig in (Signature(3, 3), Signature(3, 4), Signature(5, 4)):
        bound = sig.n - 1
        for m in range(5):
            twice = bound + 2 * m
            plus = infinitesimal_character(make_param(sig, Side.PLUS, GroupLevel.G, twice))
            minus = infinitesimal_character(make_param(sig, Side.MINUS, GroupLevel.G, twice))
            assert plus == minus
            assert len(plus) == sig.n
            assert len(set(plus)) == sig.n


def test_epsilon_of():
    sig = Signature(3, 3)
    plus = make_param(sig, Side.PLUS, GroupLevel.G, "5/2")
    minus = make_param(sig, Side.MINUS, GroupLevel.G, "5/2")
    assert epsilon_of(plus) == EPSILON_1 == (1, -1)
    assert epsilon_of(minus) == EPSILON_2 == (-1, 1)
    assert epsilon_of(plus) != epsilon_of(minus)


def test_epsilon_character_validation():
    # the four sign pairs have a text each, and nothing else has one
    texts = [CHARACTER_TEXTS[e1, e2] for e1 in (1, -1) for e2 in (1, -1)]
    assert texts == ["(+1,+1)", "(+1,-1)", "(-1,+1)", "(-1,-1)"]
    assert len(CHARACTER_TEXTS) == 4
    with pytest.raises(KeyError):
        CHARACTER_TEXTS[0, 1]


def test_center_lift_check():
    for sig in (Signature(3, 3), Signature(3, 4)):
        for param in valid_level_G_params(sig):
            assert center_lift_check(param)
    # a perturbed weight breaks the zero-sum condition
    ok_p, _ = minimal_k_type(make_param(Signature(3, 4), Side.MINUS, GroupLevel.G, "3"))
    perturbed = HighestWeight.of(3, 0, 0, -2)
    assert not center_acts_trivially(ok_p, perturbed)


def test_highest_weight_must_decrease():
    with pytest.raises(ValueError):
        HighestWeight.of(1, 2)
    HighestWeight.of(2, 2, 0, -2)


def test_format_and_parse_roundtrip():
    cases = [
        (Signature(3, 3), Side.PLUS, GroupLevel.G, "7/2", "U(3,3)+a=7/2"),
        (Signature(3, 3), Side.MINUS, GroupLevel.G, 5, "U(3,3)-a=5/2"),
        (Signature(3, 3), Side.PLUS, GroupLevel.GPRIME, "2", "U(3,3)'+a=2"),
        (Signature(4, 5), Side.MINUS, GroupLevel.GPRIME, 9, "U(4,5)'-a=9/2"),
    ]
    for sig, side, level, a, text in cases:
        param = make_param(sig, side, level, a)
        assert format_param(param) == text
        again = parse_param(text)
        assert again == param
        assert format_param(again) == text


def test_parse_param_rejects_garbage():
    with pytest.raises(ParamError):
        parse_param("U(3;3)+a=7/2")
    with pytest.raises(ParamError):
        parse_param("U(3,3)+a=7/3")
    with pytest.raises(ParityError):
        parse_param("U(3,3)+a=3")


def test_remaining_packet_characters_have_no_parameter():
    # the other two characters of the four-group exist as values but are
    # never attached to a side
    others = {(1, 1), (-1, -1)}
    assert EPSILON_1 not in others and EPSILON_2 not in others
    sig = Signature(3, 3)
    attached = {
        epsilon_of(make_param(sig, side, GroupLevel.G, "5/2"))
        for side in (Side.PLUS, Side.MINUS)
    }
    assert attached == {EPSILON_1, EPSILON_2}
    assert not (attached & others)



@given(
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=3, max_value=9),
    st.sampled_from([Side.PLUS, Side.MINUS]),
    st.sampled_from([GroupLevel.G, GroupLevel.GPRIME]),
    st.integers(min_value=0, max_value=40),
)
def test_canonical_form_roundtrip_random(p, q, side, level, offset):
    sig = Signature(p, q)
    bound = sig.n - (1 if level is GroupLevel.G else 2)
    param = make_param(sig, side, level, bound + 2 * offset)
    assert parse_param(format_param(param)) == param


# A literal of a half-integer in each form a command line may write it, or
# any short text in the literal alphabet
_LITERALS = st.one_of(
    st.integers(-60, 60).map(format_twice),  # "7/2", "-3"
    st.integers(-60, 60).map(lambda twice: repr(twice / 2)),  # "3.5", "-3.0"
    st.integers(-60, 60).map(lambda twice: f"{5 * twice}e-1"),  # "35e-1"
    st.text(alphabet="0123456789./eE+- ", max_size=8),
)


def _clause(sig, side, level, a):
    """make_param's parameter, or its refusal's type and text up to the echo
    of a, with the echo on its own."""
    try:
        return make_param(sig, side, level, a)
    except ParamError as exc:
        clause, _, echo = str(exc).partition(", got a = ")
        return type(exc), clause, echo


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([Side.PLUS, Side.MINUS]),
    st.sampled_from([GroupLevel.G, GroupLevel.GPRIME]),
    _LITERALS,
)
def test_a_literal_and_its_twice_int_make_one_parameter(p, q, side, level, text):
    # an int argument is twice a: the text and parse_twice of it give the
    # same parameter, or the same refusal, which echoes each as written
    sig = Signature(p, q)
    try:
        twice = parse_twice(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            make_param(sig, side, level, text)
        assert str(info.value) == str(exc)
        return
    from_text = _clause(sig, side, level, text)
    from_twice = _clause(sig, side, level, twice)
    if isinstance(from_text, DiscreteSeriesParam):
        assert from_text == from_twice and from_text.twice == twice
        return
    assert from_text[:2] == from_twice[:2]
    assert (from_text[2], from_twice[2]) in {(text, format_twice(twice)), ("", "")}


class _Text(str):
    pass


def test_make_param_refuses_every_other_type():
    # only a str or an int is taken: a float, bool, Fraction or str subclass
    # is a TypeError, not a value read some other way
    sig = Signature(3, 3)
    for value in (3.5, True, False, Fraction(7, 2), _Text("7/2")):
        with pytest.raises(TypeError) as info:
            make_param(sig, Side.PLUS, GroupLevel.G, value)
        assert str(info.value) == f"a must be a str or the int 2a, got {type(value).__name__}"
    # the refusal of a twice int echoes its text
    with pytest.raises(ParityError, match=r"got a = 2$"):
        make_param(sig, Side.PLUS, GroupLevel.G, 4)
    with pytest.raises(GoodRangeError, match=r"need a >= 5/2 .* got a = 3/2$"):
        make_param(sig, Side.PLUS, GroupLevel.G, 3)


def test_highest_weight_refuses_an_entry_that_is_not_a_half_integer():
    for value in ("1/3", Fraction(1, 4), "0.3"):
        with pytest.raises(ValueError, match="is not a half-integer"):
            HighestWeight.of(value)
    assert HighestWeight.of("5/2", 0, "-5/2").entries == (Fraction(5, 2), 0, Fraction(-5, 2))
