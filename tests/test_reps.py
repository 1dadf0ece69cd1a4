import re

import pytest

from relbranch.halfint import HalfInt
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


def h(text):
    return HalfInt.parse(text)


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
    return make_param(sig, side, level, HalfInt.parse(m.group("a")))


# The minimal K-type, infinitesimal character and center-lift check of a
# level-G parameter: background that no command reads, kept here as the
# reference the assertions below pin.


def a_zero(param: DiscreteSeriesParam) -> HalfInt:
    """The good-range offset a - (p+q-1)/2, a natural number at level G."""
    if param.level is not GroupLevel.G:
        raise ParamError("a_zero is defined for level-G parameters")
    return param.a - HalfInt(bound_twice(param.sig, param.level))


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


def center_acts_trivially(weight_p: HighestWeight, weight_q: HighestWeight) -> bool:
    """The center acts by the total weight sum; trivial action means the
    entries of both factors sum to zero, which is what lets the
    special-unitary picture extend to the full unitary group."""
    return (weight_p.entry_sum() + weight_q.entry_sum()) == HalfInt(0)


def center_lift_check(param: DiscreteSeriesParam) -> bool:
    """True iff the minimal K-type is trivial on the center."""
    wp, wq = minimal_k_type(param)
    return center_acts_trivially(wp, wq)


def valid_level_G_params(sig, count=4):
    bound = HalfInt(sig.n - 1)
    out = []
    for m in range(count):
        for side in (Side.PLUS, Side.MINUS):
            out.append(make_param(sig, side, GroupLevel.G, bound + m))
    return out


def test_signature_assumption():
    Signature(3, 3)
    Signature(2, 5)
    Signature(1, 2)
    with pytest.raises(ParamError):
        Signature(0, 3)


def test_make_param_examples():
    sig = Signature(3, 3)
    p = make_param(sig, Side.PLUS, GroupLevel.G, h("5/2"))
    assert p.a == h("5/2")
    with pytest.raises(ParityError):
        make_param(sig, Side.PLUS, GroupLevel.G, 2)
    with pytest.raises(GoodRangeError):
        make_param(sig, Side.PLUS, GroupLevel.G, h("3/2"))


def test_make_param_error_messages_name_the_clause():
    sig = Signature(3, 3)
    with pytest.raises(ParityError, match="parity"):
        make_param(sig, Side.PLUS, GroupLevel.G, 2)
    with pytest.raises(GoodRangeError, match="good range"):
        make_param(sig, Side.PLUS, GroupLevel.G, h("3/2"))


def test_subgroup_level_parity_is_opposite():
    sig = Signature(3, 3)
    make_param(sig, Side.PLUS, GroupLevel.GPRIME, 2)  # 2b even for p+q even
    with pytest.raises(ParityError):
        make_param(sig, Side.PLUS, GroupLevel.GPRIME, h("5/2"))
    sig45 = Signature(4, 5)
    make_param(sig45, Side.PLUS, GroupLevel.G, 4)
    make_param(sig45, Side.PLUS, GroupLevel.GPRIME, h("7/2"))
    with pytest.raises(ParityError):
        make_param(sig45, Side.PLUS, GroupLevel.GPRIME, 4)


def test_rb_cross_parity_never_ties():
    for sig in (Signature(3, 3), Signature(4, 5), Signature(4, 6)):
        a_bound, b_bound = HalfInt(sig.n - 1), HalfInt(sig.n - 2)
        for i in range(6):
            for j in range(6):
                a, b = a_bound + i, b_bound + j
                assert (a.twice + b.twice) % 2 == 1  # opposite parities
                assert a != b


def test_a_zero():
    sig = Signature(3, 3)
    assert a_zero(make_param(sig, Side.PLUS, GroupLevel.G, h("5/2"))) == 0
    assert a_zero(make_param(sig, Side.PLUS, GroupLevel.G, h("7/2"))) == 1
    sig34 = Signature(3, 4)
    assert a_zero(make_param(sig34, Side.PLUS, GroupLevel.G, 3)) == 0
    with pytest.raises(ParamError):
        a_zero(make_param(sig, Side.PLUS, GroupLevel.GPRIME, 2))


def test_minimal_k_type_examples():
    sig = Signature(3, 3)
    wp, wq = minimal_k_type(make_param(sig, Side.PLUS, GroupLevel.G, h("5/2")))
    assert wp == HighestWeight.of(3, 0, -3)
    assert wq == HighestWeight.of(0, 0, 0)
    wp, wq = minimal_k_type(make_param(sig, Side.MINUS, GroupLevel.G, h("5/2")))
    assert wp == HighestWeight.of(0, 0, 0)
    assert wq == HighestWeight.of(3, 0, -3)


def test_minimal_k_type_shifts_by_opposite_rank():
    # plus side spikes the U(p) factor by a0 + q; minus side by a0 + p
    sig = Signature(3, 4)
    wp, _ = minimal_k_type(make_param(sig, Side.PLUS, GroupLevel.G, 3))
    assert wp.entries[0] == 4
    _, wq = minimal_k_type(make_param(sig, Side.MINUS, GroupLevel.G, 3))
    assert wq.entries[0] == 3


def test_minimal_k_type_entries_sum_to_zero():
    for sig in (Signature(3, 3), Signature(3, 4), Signature(4, 6)):
        for param in valid_level_G_params(sig):
            wp, wq = minimal_k_type(param)
            assert wp.entry_sum() + wq.entry_sum() == HalfInt(0)
            assert len(wp) == sig.p and len(wq) == sig.q


def test_infinitesimal_character_example():
    sig = Signature(3, 3)
    for side in (Side.PLUS, Side.MINUS):
        got = infinitesimal_character(make_param(sig, side, GroupLevel.G, h("7/2")))
        assert got == (h("7/2"), h("3/2"), h("1/2"), h("-1/2"), h("-3/2"), h("-7/2"))


def test_infinitesimal_character_regular_and_side_independent():
    for sig in (Signature(3, 3), Signature(3, 4), Signature(5, 4)):
        bound = HalfInt(sig.n - 1)
        for m in range(5):
            plus = infinitesimal_character(make_param(sig, Side.PLUS, GroupLevel.G, bound + m))
            minus = infinitesimal_character(make_param(sig, Side.MINUS, GroupLevel.G, bound + m))
            assert plus == minus
            assert len(plus) == sig.n
            assert len({e.twice for e in plus}) == sig.n


def test_epsilon_of():
    sig = Signature(3, 3)
    plus = make_param(sig, Side.PLUS, GroupLevel.G, h("5/2"))
    minus = make_param(sig, Side.MINUS, GroupLevel.G, h("5/2"))
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
    ok_p, _ = minimal_k_type(make_param(Signature(3, 4), Side.MINUS, GroupLevel.G, 3))
    perturbed = HighestWeight.of(3, 0, 0, -2)
    assert not center_acts_trivially(ok_p, perturbed)


def test_highest_weight_must_decrease():
    with pytest.raises(ValueError):
        HighestWeight.of(1, 2)
    HighestWeight.of(2, 2, 0, -2)


def test_format_and_parse_roundtrip():
    cases = [
        (Signature(3, 3), Side.PLUS, GroupLevel.G, h("7/2"), "U(3,3)+a=7/2"),
        (Signature(3, 3), Side.MINUS, GroupLevel.G, h("5/2"), "U(3,3)-a=5/2"),
        (Signature(3, 3), Side.PLUS, GroupLevel.GPRIME, h("2"), "U(3,3)'+a=2"),
        (Signature(4, 5), Side.MINUS, GroupLevel.GPRIME, h("9/2"), "U(4,5)'-a=9/2"),
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
        epsilon_of(make_param(sig, side, GroupLevel.G, HalfInt.parse("5/2")))
        for side in (Side.PLUS, Side.MINUS)
    }
    assert attached == {EPSILON_1, EPSILON_2}
    assert not (attached & others)


from hypothesis import given
from hypothesis import strategies as st


@given(
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=3, max_value=9),
    st.sampled_from([Side.PLUS, Side.MINUS]),
    st.sampled_from([GroupLevel.G, GroupLevel.GPRIME]),
    st.integers(min_value=0, max_value=40),
)
def test_canonical_form_roundtrip_random(p, q, side, level, offset):
    sig = Signature(p, q)
    bound = HalfInt(sig.n - (1 if level is GroupLevel.G else 2))
    param = make_param(sig, side, level, bound + offset)
    assert parse_param(format_param(param)) == param
