import re

import pytest

from relbranch.halfint import HalfInt
from relbranch.reps import (
    EPSILON_1,
    EPSILON_2,
    EpsilonCharacter,
    GoodRangeError,
    GroupLevel,
    HighestWeight,
    ParamError,
    ParityError,
    Side,
    Signature,
    a_zero,
    center_acts_trivially,
    center_lift_check,
    epsilon_of,
    format_param,
    infinitesimal_character,
    make_param,
    minimal_k_type,
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
    assert epsilon_of(plus) == EPSILON_1 == EpsilonCharacter(1, -1)
    assert epsilon_of(minus) == EPSILON_2 == EpsilonCharacter(-1, 1)
    assert epsilon_of(plus) != epsilon_of(minus)


def test_epsilon_character_validation():
    texts = [str(EpsilonCharacter(e1, e2)) for e1 in (1, -1) for e2 in (1, -1)]
    assert texts == ["(+1,+1)", "(+1,-1)", "(-1,+1)", "(-1,-1)"]
    with pytest.raises(ValueError):
        EpsilonCharacter(0, 1)


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
    others = {EpsilonCharacter(1, 1), EpsilonCharacter(-1, -1)}
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
