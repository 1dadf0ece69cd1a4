import re
from dataclasses import dataclass
from fractions import Fraction

import pytest

from relbranch.branching import (
    P1,
    P2,
    SignatureMismatchError,
    TieError,
    classify_interlacing,
    coupling_check,
    coupling_summary,
    exhaustion_check,
    fj_label_to_a,
    fj_label_to_b,
    hom_dim,
    merged_texts,
    param_pair,
    pattern_characters,
    pi_minus_summands,
)
from relbranch.halfint import HALF, HalfInt
from relbranch.periods import period_integral_exact
from relbranch.reps import (
    EPSILON_1,
    EPSILON_2,
    GroupLevel,
    ParamError,
    Side,
    Signature,
    epsilon_of,
    make_param,
)


def h(text):
    return HalfInt.parse(text)


def rb_pairs(sig, a_count=5, b_count=5):
    a_bound, b_bound = HalfInt(sig.n - 1), HalfInt(sig.n - 2)
    return [(a_bound + i, b_bound + j) for i in range(a_count) for j in range(b_count)]


# ---------------------------------------------------------------------------
# interlacing patterns
# ---------------------------------------------------------------------------


def test_classify_examples():
    assert classify_interlacing(h("7/2"), 2) == P1
    assert classify_interlacing(h("5/2"), 3) == P2
    with pytest.raises(TieError):
        classify_interlacing(3, 3)
    with pytest.raises(ValueError):
        classify_interlacing(-1, 2)


def test_pattern_merged_texts():
    kind = classify_interlacing(h("7/2"), 2)
    assert merged_texts(kind, "7/2", "2") == ["7/2", "2", "-2", "-7/2"]
    kind = classify_interlacing(h("5/2"), 3)
    assert merged_texts(kind, "5/2", "3") == ["3", "5/2", "-5/2", "-3"]


def test_pattern_characters_dictionary():
    for a, b in [(h("7/2"), h("2")), (h("9/2"), h("4")), (h("5"), h("9/2"))]:
        epsilon = EPSILON_1 if classify_interlacing(a, b) == P1 else EPSILON_2
        assert pattern_characters(a, b) == (epsilon, epsilon)


def test_classify_error_text():
    message = "interlacing is defined for positive parameters, got (0, 3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify_interlacing(0, 3)
    message = "interlacing is defined for positive parameters, got (7/2, -1/2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify_interlacing(h("7/2"), h("-1/2"))
    message = "a = b = 7/2: no interlacing pattern (parity rules this out)"
    with pytest.raises(TieError, match=f"^{re.escape(message)}$"):
        classify_interlacing(h("7/2"), h("7/2"))


def _reference_characters(a: Fraction, b: Fraction):
    """The character pair of pattern_characters, counted over Fraction
    entries: E_i goes to (-1)^(i+1+#{b-entries > a_i}) on the first
    character and E_j to (-1)^(j+#{a-entries > b_j}) on the second."""
    a_entries, b_entries = (a, -a), (b, -b)
    first = [
        (-1) ** (i + 1 + sum(1 for y in b_entries if y > x))
        for i, x in enumerate(a_entries, start=1)
    ]
    second = [
        (-1) ** (j + sum(1 for x in a_entries if x > y))
        for j, y in enumerate(b_entries, start=1)
    ]
    return tuple(first), tuple(second)


def test_pattern_characters_match_fraction_reference():
    # every pair of distinct positive half-integers with 2a, 2b <= 200
    for ta in range(1, 201):
        for tb in range(1, 201):
            if ta == tb:
                continue
            got = pattern_characters(HalfInt(ta), HalfInt(tb))
            assert got == _reference_characters(Fraction(ta, 2), Fraction(tb, 2)), (ta, tb)


def test_pattern_characters_counts_explicitly():
    # (a, b) = (7/2, 2): counts are 0 and 2 above the a-entries, 1 and 1
    # above the b-entries, giving signs ((+,-), (+,-))
    chars = pattern_characters(h("7/2"), h("2"))
    assert chars == (EPSILON_1, EPSILON_1) == ((1, -1), (1, -1))


# ---------------------------------------------------------------------------
# hom dimensions
# ---------------------------------------------------------------------------


def test_hom_dim_examples():
    sig = Signature(3, 3)
    Pi_plus = make_param(sig, Side.PLUS, GroupLevel.G, h("7/2"))
    Pi_minus = make_param(sig, Side.MINUS, GroupLevel.G, h("7/2"))
    pi_plus_2 = make_param(sig, Side.PLUS, GroupLevel.GPRIME, 2)
    pi_minus_2 = make_param(sig, Side.MINUS, GroupLevel.GPRIME, 2)
    pi_minus_5 = make_param(sig, Side.MINUS, GroupLevel.GPRIME, 5)
    assert hom_dim(Pi_plus, pi_plus_2) == 1
    assert hom_dim(Pi_plus, pi_minus_2) == 0
    assert hom_dim(Pi_minus, pi_minus_5) == 1
    assert hom_dim(Pi_minus, pi_minus_2) == 0  # b < a on the minus side
    assert hom_dim(Pi_minus, pi_plus_2) == 0


def test_hom_dim_signature_and_level_checks():
    Pi = make_param(Signature(3, 3), Side.PLUS, GroupLevel.G, h("7/2"))
    other = make_param(Signature(3, 4), Side.PLUS, GroupLevel.GPRIME, h("5/2"))
    with pytest.raises(SignatureMismatchError):
        hom_dim(Pi, other)
    with pytest.raises(SignatureMismatchError):
        hom_dim(Pi, Pi)


def packet_sum(a, b, sig):
    """The coupling_summary record of a (level G) and b (subgroup level)."""
    return coupling_summary(
        param_pair(sig, GroupLevel.G, a), param_pair(sig, GroupLevel.GPRIME, b)
    )


def test_gp_sum_examples():
    res = packet_sum(h("11/2"), 4, Signature(4, 6))
    assert res["total"] == 1 and res["witness"] == "(+,+)"
    assert res["hypothesis_warning"] is None
    res = packet_sum(h("9/2"), 5, Signature(4, 6))
    assert res["witness"] == "(-,-)"
    res = packet_sum(h("9/2"), 3, Signature(3, 3))
    assert res["total"] == 1 and res["hypothesis_warning"] is not None
    res = packet_sum(4, h("9/2"), Signature(4, 5))
    assert res["witness"] == "(-,-)"
    assert res["hypothesis_warning"] is None  # (4,5) satisfies p, q > 3 and p != q
    res = packet_sum(h("9/2"), 4, Signature(4, 4))
    assert res["hypothesis_warning"] is not None  # p = q is outside the hypothesis


def test_four_pair_sum_is_one():
    for sig in (Signature(4, 5), Signature(5, 4), Signature(4, 6)):
        for a, b in rb_pairs(sig):
            total = 0
            for sG in (Side.PLUS, Side.MINUS):
                Pi = make_param(sig, sG, GroupLevel.G, a)
                for sGp in (Side.PLUS, Side.MINUS):
                    pi = make_param(sig, sGp, GroupLevel.GPRIME, b)
                    total += hom_dim(Pi, pi)
            assert total == 1, (sig, str(a), str(b))


def test_character_coherence():
    # the pattern characters equal the side characters of the unique
    # coupling pair
    for sig in (Signature(4, 5), Signature(4, 6)):
        for a, b in rb_pairs(sig):
            pat_chars = pattern_characters(a, b)
            side_G, side_Gp = packet_sum(a, b, sig)["witness"][1:-1].split(",")
            Pi = make_param(sig, Side(side_G), GroupLevel.G, a)
            pi = make_param(sig, Side(side_Gp), GroupLevel.GPRIME, b)
            assert pat_chars == (epsilon_of(Pi), epsilon_of(pi))


def test_coupling_summary_record():
    sig = Signature(3, 3)
    summary = coupling_summary(
        param_pair(sig, GroupLevel.G, h("9/2")), param_pair(sig, GroupLevel.GPRIME, 3)
    )
    assert summary["total"] == 1
    assert summary["witness"] == "(+,+)"
    assert summary["dims"]["(+,+)"] == 1
    assert summary["pattern"] == P1


def _leaf_types(value) -> set:
    """The types of value's leaves, where only a tuple (not a subclass)
    counts as nesting."""
    if type(value) is tuple:
        return set().union(*map(_leaf_types, value))
    return {type(value)}


def test_coupling_check_returns_plain_data():
    # the benchmark grid, (4,5) with a in 4..60 and b in 7/2..121/2: every
    # leaf of each result is an int or a str, nested only in tuples, so a
    # `table branch` grid keys its texts on the result with no Python-level
    # __hash__
    sig = Signature(4, 5)
    a_pairs = [param_pair(sig, GroupLevel.G, HalfInt(twice)) for twice in range(8, 121, 2)]
    b_pairs = [param_pair(sig, GroupLevel.GPRIME, HalfInt(twice)) for twice in range(7, 122, 2)]
    assert (len(a_pairs), len(b_pairs)) == (57, 58)
    for Pa in a_pairs:
        for Pb in b_pairs:
            values = coupling_check(Pa, Pb)
            assert _leaf_types(values) <= {int, str}, (str(Pa[0].a), str(Pb[0].a))


def _reference_summary(a, b, sig):
    """coupling_summary along the route that builds four fresh parameters
    per (a, b) and keys the hom dimensions by side pair."""
    kind = classify_interlacing(a, b)
    sides = (Side.PLUS, Side.MINUS)
    params_G = {side: make_param(sig, side, GroupLevel.G, a) for side in sides}
    params_Gp = {side: make_param(sig, side, GroupLevel.GPRIME, b) for side in sides}
    dims = {(sG, sGp): hom_dim(params_G[sG], params_Gp[sGp]) for sG in sides for sGp in sides}
    (witness,) = [pair for pair, dim in dims.items() if dim == 1]
    warning = None
    if not (sig.p > 3 and sig.q > 3 and sig.p != sig.q):
        warning = (
            f"signature {sig} is outside the hypothesis p, q > 3 and p != q; "
            "result computed anyway"
        )
    merged = (a, b, -b, -a) if kind == P1 else (b, a, -a, -b)
    characters = [*pattern_characters(a, b), epsilon_of(params_G[witness[0]])]
    texts = [f"({e1:+d},{e2:+d})" for e1, e2 in characters]
    return {
        "pattern": kind,
        "merged": [str(v) for v in merged],
        "characters": texts[:2],
        "witness": f"({witness[0].value},{witness[1].value})",
        "witness_character": texts[2],
        "dims": {f"({sG.value},{sGp.value})": dim for (sG, sGp), dim in dims.items()},
        "total": sum(dims.values()),
        "hypothesis_warning": warning,
    }


def test_coupling_summary_on_prebuilt_pairs_matches_fresh_parameters():
    # the same record, key order included, whether the four parameters are
    # built per row or once per grid value
    for sig in (Signature(4, 5), Signature(4, 6), Signature(3, 3)):
        a_pairs = {a: param_pair(sig, GroupLevel.G, a) for a, _ in rb_pairs(sig, 12, 1)}
        b_pairs = {b: param_pair(sig, GroupLevel.GPRIME, b) for _, b in rb_pairs(sig, 1, 12)}
        for a, Pa in a_pairs.items():
            for b, Pb in b_pairs.items():
                got = coupling_summary(Pa, Pb)
                want = _reference_summary(a, b, sig)
                assert list(got.items()) == list(want.items()), (sig, str(a), str(b))
                assert list(got["dims"]) == list(want["dims"])


def test_param_pair_and_its_contract():
    sig = Signature(4, 5)
    plus, minus = param_pair(sig, GroupLevel.G, 4)
    assert (plus.side, minus.side, plus.a, minus.a) == (Side.PLUS, Side.MINUS, 4, 4)
    assert plus.level is minus.level is GroupLevel.G
    with pytest.raises(ParamError, match="parity"):
        param_pair(sig, GroupLevel.GPRIME, 4)
    # pairs that param_pair cannot build are refused, not mislabelled
    Pb = param_pair(sig, GroupLevel.GPRIME, h("9/2"))
    for bad in [(minus, plus), (plus, param_pair(sig, GroupLevel.G, 5)[1])]:
        with pytest.raises(ParamError, match="plus, minus"):
            coupling_summary(bad, Pb)
        with pytest.raises(ParamError, match="plus, minus"):
            coupling_summary(Pb, bad)


# ---------------------------------------------------------------------------
# minus-side summands
# ---------------------------------------------------------------------------


def test_pi_minus_summands_examples():
    sig = Signature(3, 3)
    Pi = make_param(sig, Side.MINUS, GroupLevel.G, h("5/2"))
    summands = pi_minus_summands(Pi, 2)
    assert [s.a for s in summands] == [h("3"), h("4"), h("5")]
    assert len(summands) == 3
    for s in summands:
        assert s.side is Side.MINUS and s.level is GroupLevel.GPRIME
        assert hom_dim(Pi, s) == 1


def test_pi_minus_summands_exactness():
    # output = every coupling subgroup minus-parameter up to the cutoff
    sig = Signature(3, 4)
    Pi = make_param(sig, Side.MINUS, GroupLevel.G, 4)
    max_k = 6
    got = {s.a for s in pi_minus_summands(Pi, max_k)}
    b_bound = HalfInt(sig.n - 2)
    want = set()
    m = 0
    while True:
        b = b_bound + m
        m += 1
        if b > Pi.a + HALF + max_k:
            break
        pi = make_param(sig, Side.MINUS, GroupLevel.GPRIME, b)
        if hom_dim(Pi, pi) == 1:
            want.add(b)
    assert got == want


def test_pi_minus_summands_validation():
    sig = Signature(3, 3)
    plus = make_param(sig, Side.PLUS, GroupLevel.G, h("5/2"))
    with pytest.raises(ParamError):
        pi_minus_summands(plus, 3)
    minus = make_param(sig, Side.MINUS, GroupLevel.G, h("5/2"))
    with pytest.raises(ValueError):
        pi_minus_summands(minus, -1)


# ---------------------------------------------------------------------------
# label dictionary
# ---------------------------------------------------------------------------


def a_to_fj_label(sig, a):
    """Inverse of fj_label_to_a."""
    n = HalfInt.coerce(a).twice - (sig.n - 1)
    if n < 0 or n % 2:
        raise ValueError(f"a = {a} is not in the image of the label dictionary for {sig}")
    return n


def b_to_fj_label(sig, b):
    """Inverse of fj_label_to_b."""
    k = HalfInt.coerce(b).twice - (sig.n - 2)
    if k < 0 or k % 2:
        raise ValueError(f"b = {b} is not in the image of the label dictionary for {sig}")
    return k


def test_fj_label_examples():
    sig = Signature(3, 3)
    assert fj_label_to_a(sig, 0) == h("5/2")  # good-range boundary
    assert fj_label_to_a(sig, 2) == h("7/2")
    assert fj_label_to_b(sig, 0) == 2
    assert a_to_fj_label(sig, h("7/2")) == 2
    assert b_to_fj_label(sig, 4) == 4


def test_fj_label_roundtrip_and_order():
    for sig in (Signature(3, 3), Signature(3, 4), Signature(2, 3)):
        for n in range(0, 21, 2):
            assert a_to_fj_label(sig, fj_label_to_a(sig, n)) == n
            for k in range(0, 21, 2):
                assert b_to_fj_label(sig, fj_label_to_b(sig, k)) == k
                a, b = fj_label_to_a(sig, n), fj_label_to_b(sig, k)
                assert (a > b) == (k <= n)


def test_fj_label_validation():
    sig = Signature(3, 3)
    with pytest.raises(ValueError):
        fj_label_to_a(sig, 3)
    with pytest.raises(ValueError):
        a_to_fj_label(sig, 3)  # wrong parity for this signature


def test_period_branching_agreement():
    # radial labels and parameters name the same coupling set
    for p, q in [(1, 2), (2, 3), (3, 4)]:
        sig = Signature(p, q + 1)
        for n in range(0, 13, 2):
            a = fj_label_to_a(sig, n)
            Pi = make_param(sig, Side.PLUS, GroupLevel.G, a)
            for k in range(0, 13, 2):
                b = fj_label_to_b(sig, k)
                pi = make_param(sig, Side.PLUS, GroupLevel.GPRIME, b)
                assert hom_dim(Pi, pi) == (1 if period_integral_exact(p, q, n, k) != 0 else 0)


# ---------------------------------------------------------------------------
# stage enumerations and exhaustion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageParams:
    """One term of the first-stage restriction: an orthogonal-group label ell
    split as ell - lambda' - lambda'' - 1 in 2N, checked on construction."""

    ell: int
    lambda_prime: int
    lambda_dprime: HalfInt

    def __post_init__(self):
        if self.lambda_prime < 0:
            raise ValueError("lambda' must be nonnegative")
        dprime_twice = self.lambda_dprime.twice
        if dprime_twice <= 0:
            raise ValueError("lambda'' must be positive")
        gap_twice = 2 * (self.ell - self.lambda_prime - 1) - dprime_twice
        if gap_twice < 0 or gap_twice % 4 != 0:
            raise ValueError(
                f"ell - lambda' - lambda'' - 1 = {HalfInt(gap_twice)} "
                "is not a nonnegative even integer"
            )


def stage1_enumerate(sig, ell):
    """All (lambda', lambda'') with lambda' in Z>=0, lambda'' in Z>0 and
    ell - lambda' - lambda'' - 1 in 2N.  The list is finite; ordering is
    lambda' ascending, then lambda'' ascending.  exhaustion_check builds
    only its lambda' = 0 slice; this full list is the reference it is
    compared against."""
    if ell <= sig.n - 1:
        raise ValueError(f"need ell > {sig.n - 1} for {sig}, got {ell}")
    out = []
    for lam_p in range(0, ell):
        # lambda'' ranges over ell - lam' - 1, ell - lam' - 3, ... down to >= 1
        top = ell - lam_p - 1
        for lam_pp in range(2 - (top % 2), top + 1, 2):
            out.append(StageParams(ell, lam_p, HalfInt.from_int(lam_pp)))
    return out


def test_stage1_membership_and_finiteness():
    sig = Signature(3, 3)
    items = stage1_enumerate(sig, 10)
    assert items
    assert all(isinstance(it, StageParams) for it in items)
    for it in items:
        lam2 = it.lambda_dprime
        assert it.lambda_prime >= 0
        assert lam2 > HalfInt(0) and lam2.is_integer
        gap = 10 - it.lambda_prime - int(lam2) - 1
        assert gap >= 0 and gap % 2 == 0
    # exhaustive cross-check of the membership predicate
    want = {
        (lp, lpp)
        for lp in range(0, 10)
        for lpp in range(1, 10)
        if (10 - lp - lpp - 1) >= 0 and (10 - lp - lpp - 1) % 2 == 0
    }
    assert {(it.lambda_prime, int(it.lambda_dprime)) for it in items} == want


def test_stage1_list_grows_with_ell():
    sig = Signature(3, 3)
    sizes = [len(stage1_enumerate(sig, ell)) for ell in range(6, 15)]
    assert all(a < b for a, b in zip(sizes, sizes[2:]))  # same-parity growth


def test_stage1_range_error():
    with pytest.raises(ValueError):
        stage1_enumerate(Signature(3, 3), 5)


@dataclass(frozen=True)
class StagePair:
    """One term of the second-stage restriction: characters (x, y) with
    x + y = ell; the relative flag marks the x = y = ell/2 member."""

    x: int
    y: int
    relative: bool


def stage2_enumerate(sig, ell):
    """Integer pairs x + y = ell with x = 0..ell; the relative flag is true
    exactly for x = y = ell/2, which requires ell even.  exhaustion_check
    reads its relative member off the parity of ell; this full list is the
    reference it is compared against."""
    assert ell > sig.n - 1, (sig, ell)
    return [StagePair(x, ell - x, 2 * x == ell) for x in range(ell + 1)]


def test_stage2_relative_members():
    sig = Signature(3, 3)
    pairs = stage2_enumerate(sig, 10)
    assert all(isinstance(p, StagePair) for p in pairs)
    assert [(p.x, p.y) for p in pairs] == [(x, 10 - x) for x in range(11)]
    assert all(p.x + p.y == 10 for p in pairs)
    relative = [p for p in pairs if p.relative]
    assert relative == [StagePair(5, 5, True)]
    assert not [p for p in stage2_enumerate(sig, 11) if p.relative]


# the fields of a `table exhaustion` result, in the order a record writes them
EXHAUSTION_KEYS = [
    "p",
    "q",
    "ell",
    "a",
    "first_sequence",
    "second_sequence",
    "period_prediction",
    "agreement",
    "mismatches",
]


def test_exhaustion_agreement_even_ell():
    sig = Signature(3, 3)
    for ell in range(8, 17, 2):
        report = exhaustion_check(sig, ell)
        assert list(report) == EXHAUSTION_KEYS
        assert report["agreement"], report["mismatches"]
        assert report["a"] == str(HalfInt(ell))
        assert report["first_sequence"] == report["second_sequence"] == report["period_prediction"]
        want = [str(HalfInt.from_int(b)) for b in range(2, ell // 2)]
        assert report["first_sequence"] == want


def test_exhaustion_odd_ell_all_empty():
    sig = Signature(3, 3)
    for ell in range(9, 16, 2):
        report = exhaustion_check(sig, ell)
        assert report["agreement"]
        assert report["a"] is None
        assert report["first_sequence"] == []
        assert report["second_sequence"] == []
        assert report["period_prediction"] == []


def test_exhaustion_other_signatures():
    for sig, ells in [(Signature(3, 4), range(8, 17)), (Signature(4, 4), range(9, 16))]:
        for ell in ells:
            report = exhaustion_check(sig, ell)
            assert report["agreement"], (sig, ell, report["mismatches"])


def test_exhaustion_report_serializes():
    data = exhaustion_check(Signature(3, 3), 12)
    assert data["agreement"] is True
    assert data["first_sequence"] == ["2", "3", "4", "5"]
    assert data["a"] == "6"


def stage1_slice(ell):
    """The lambda' = 0 terms of the first stage, found by trying every
    lambda'' in 1..ell-1 against the StageParams split: O(ell), and
    independent of the parity step exhaustion_check takes."""
    terms = []
    for lam in range(1, ell):
        try:
            terms.append(StageParams(ell, 0, HalfInt.from_int(lam)))
        except ValueError:
            continue
    return terms


def test_exhaustion_first_sequence_equals_filtered_stage1():
    # reference: the full O(ell^2) stage1 enumeration up to ell = 40, and the
    # O(ell) slice over the benchmark's range, each filtered to lambda' = 0
    cases = [
        (sig, ell, stage1_enumerate)
        for sig in (Signature(3, 3), Signature(3, 4), Signature(4, 6))
        for ell in range(sig.n, 41)
    ]
    cases += [(Signature(3, 3), ell, lambda sig, ell: stage1_slice(ell)) for ell in range(8, 141)]
    for sig, ell, terms in cases:
        want = []
        for sp in terms(sig, ell):
            lam = int(sp.lambda_dprime)
            if sp.lambda_prime != 0 or lam % 2 == 0:
                continue
            b = HalfInt(lam if (lam - sig.n) % 2 == 0 else lam - 1)
            offset = b.twice - (sig.n - 2)
            if offset >= 0 and offset % 2 == 0:
                want.append(b)
        got = exhaustion_check(sig, ell)["first_sequence"]
        assert got == [str(b) for b in sorted(want)], (sig, ell)


def test_exhaustion_relative_member_equals_filtered_stage2():
    # reference: the full stage2 enumeration, filtered to its relative member
    for sig in (Signature(3, 3), Signature(3, 4), Signature(4, 6)):
        for ell in range(sig.n, 41):
            relative = [pair for pair in stage2_enumerate(sig, ell) if pair.relative]
            report = exhaustion_check(sig, ell)
            if relative:
                (pair,) = relative
                assert report["a"] == str(HalfInt.from_int(pair.x)), (sig, ell)
                assert report["second_sequence"], (sig, ell)
            else:
                assert report["a"] is None, (sig, ell)
                assert report["second_sequence"] == report["period_prediction"] == [], (sig, ell)


def test_stage_params_invariant_enforced():
    StageParams(10, 0, HalfInt.from_int(9))
    gap = "ell - lambda' - lambda'' - 1 = {} is not a nonnegative even integer"
    with pytest.raises(ValueError, match=f"^{re.escape(gap.format(1))}$"):
        StageParams(10, 0, HalfInt.from_int(8))  # gap is odd
    with pytest.raises(ValueError, match=f"^{re.escape(gap.format(-2))}$"):
        StageParams(10, 0, HalfInt.from_int(11))  # gap is negative
    with pytest.raises(ValueError, match=f"^{re.escape(gap.format('3/2'))}$"):
        StageParams(10, 0, h("15/2"))  # gap is not an integer
    with pytest.raises(ValueError, match="^lambda' must be nonnegative$"):
        StageParams(10, -1, HalfInt.from_int(9))
    with pytest.raises(ValueError, match="^lambda'' must be positive$"):
        StageParams(10, 0, HalfInt.from_int(0))
    with pytest.raises(ValueError, match="^lambda'' must be positive$"):
        StageParams(10, 0, h("-1/2"))
