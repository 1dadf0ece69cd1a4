from dataclasses import dataclass

import pytest

from relbranch.branching import (
    ExhaustionReport,
    P1,
    P2,
    SignatureMismatchError,
    StageParams,
    TieError,
    classify_interlacing,
    coupling_summary,
    exhaustion_check,
    fj_label_to_a,
    fj_label_to_b,
    gp_sum_dim,
    hom_dim,
    param_pair,
    pattern_characters,
    pi_minus_summands,
)
from relbranch.halfint import HALF, HalfInt
from relbranch.periods import period_nonvanishing
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
    assert classify_interlacing(h("7/2"), 2).kind == P1
    assert classify_interlacing(h("5/2"), 3).kind == P2
    with pytest.raises(TieError):
        classify_interlacing(3, 3)
    with pytest.raises(ValueError):
        classify_interlacing(-1, 2)


def test_pattern_merged_tuples():
    pat = classify_interlacing(h("7/2"), 2)
    assert pat.merged == (h("7/2"), h("2"), h("-2"), h("-7/2"))
    pat = classify_interlacing(h("5/2"), 3)
    assert pat.merged == (h("3"), h("5/2"), h("-5/2"), h("-3"))


def test_pattern_characters_dictionary():
    for a, b in [(h("7/2"), h("2")), (h("9/2"), h("4")), (h("5"), h("9/2"))]:
        pat = classify_interlacing(a, b)
        chars = pattern_characters(pat)
        expected = (EPSILON_1, EPSILON_1) if pat.kind == P1 else (EPSILON_2, EPSILON_2)
        assert chars == expected


def test_pattern_characters_counts_explicitly():
    # (a, b) = (7/2, 2): counts are 0 and 2 above the a-entries, 1 and 1
    # above the b-entries, giving signs ((+,-), (+,-))
    chars = pattern_characters(classify_interlacing(h("7/2"), 2))
    assert chars == (EPSILON_1, EPSILON_1)
    assert (chars[0].on_E1, chars[0].on_E2) == (1, -1)


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


def test_gp_sum_examples():
    res = gp_sum_dim(h("11/2"), 4, Signature(4, 6))
    assert res.dim == 1 and res.witness == (Side.PLUS, Side.PLUS)
    assert res.hypothesis_warning is None
    res = gp_sum_dim(h("9/2"), 5, Signature(4, 6))
    assert res.witness == (Side.MINUS, Side.MINUS)
    res = gp_sum_dim(h("9/2"), 3, Signature(3, 3))
    assert res.dim == 1 and res.hypothesis_warning is not None
    res = gp_sum_dim(4, h("9/2"), Signature(4, 5))
    assert res.witness == (Side.MINUS, Side.MINUS)
    assert res.hypothesis_warning is None  # (4,5) satisfies p, q > 3 and p != q
    res = gp_sum_dim(h("9/2"), 4, Signature(4, 4))
    assert res.hypothesis_warning is not None  # p = q is outside the hypothesis


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
            pat_chars = pattern_characters(classify_interlacing(a, b))
            res = gp_sum_dim(a, b, sig)
            Pi = make_param(sig, res.witness[0], GroupLevel.G, a)
            pi = make_param(sig, res.witness[1], GroupLevel.GPRIME, b)
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


def _reference_summary(a, b, sig):
    """coupling_summary along the route that builds four fresh parameters
    per (a, b) and keys the hom dimensions by side pair."""
    pattern = classify_interlacing(a, b)
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
    return {
        "pattern": pattern.kind,
        "merged": [str(v) for v in pattern.merged],
        "characters": [str(c) for c in pattern_characters(pattern)],
        "witness": f"({witness[0].value},{witness[1].value})",
        "witness_character": str(epsilon_of(params_G[witness[0]])),
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
                assert hom_dim(Pi, pi) == (1 if period_nonvanishing(p, q, n, k) else 0)


# ---------------------------------------------------------------------------
# stage enumerations and exhaustion
# ---------------------------------------------------------------------------


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


def test_exhaustion_agreement_even_ell():
    sig = Signature(3, 3)
    for ell in range(8, 17, 2):
        report = exhaustion_check(sig, ell)
        assert isinstance(report, ExhaustionReport)
        assert report.agreement, report.mismatches
        assert report.a == HalfInt(ell)
        assert report.first_sequence == report.second_sequence == report.period_prediction
        want = tuple(HalfInt.from_int(b) for b in range(2, ell // 2))
        assert report.first_sequence == want


def test_exhaustion_odd_ell_all_empty():
    sig = Signature(3, 3)
    for ell in range(9, 16, 2):
        report = exhaustion_check(sig, ell)
        assert report.agreement
        assert report.a is None
        assert report.first_sequence == ()
        assert report.second_sequence == ()
        assert report.period_prediction == ()


def test_exhaustion_other_signatures():
    for sig, ells in [(Signature(3, 4), range(8, 17)), (Signature(4, 4), range(9, 16))]:
        for ell in ells:
            report = exhaustion_check(sig, ell)
            assert report.agreement, (sig, ell, report.mismatches)


def test_exhaustion_report_serializes():
    report = exhaustion_check(Signature(3, 3), 12)
    data = report.to_dict()
    assert data["agreement"] is True
    assert data["first_sequence"] == ["2", "3", "4", "5"]
    assert data["a"] == "6"


def test_exhaustion_first_sequence_equals_filtered_stage1():
    # reference: the full O(ell^2) stage1 enumeration, filtered to lambda' = 0
    for sig in (Signature(3, 3), Signature(3, 4), Signature(4, 6)):
        for ell in range(sig.n, 41):
            want = []
            for sp in stage1_enumerate(sig, ell):
                lam = int(sp.lambda_dprime)
                if sp.lambda_prime != 0 or lam % 2 == 0:
                    continue
                b = HalfInt(lam if (lam - sig.n) % 2 == 0 else lam - 1)
                offset = b.twice - (sig.n - 2)
                if offset >= 0 and offset % 2 == 0:
                    want.append(b)
            assert exhaustion_check(sig, ell).first_sequence == tuple(sorted(want)), (sig, ell)


def test_exhaustion_relative_member_equals_filtered_stage2():
    # reference: the full stage2 enumeration, filtered to its relative member
    for sig in (Signature(3, 3), Signature(3, 4), Signature(4, 6)):
        for ell in range(sig.n, 41):
            relative = [pair for pair in stage2_enumerate(sig, ell) if pair.relative]
            report = exhaustion_check(sig, ell)
            if relative:
                (pair,) = relative
                assert report.a == HalfInt.from_int(pair.x), (sig, ell)
                assert report.second_sequence, (sig, ell)
            else:
                assert report.a is None, (sig, ell)
                assert report.second_sequence == report.period_prediction == (), (sig, ell)


def test_stage_params_invariant_enforced():
    StageParams(10, 0, HalfInt.from_int(9))
    with pytest.raises(ValueError):
        StageParams(10, 0, HalfInt.from_int(8))  # gap is odd
    with pytest.raises(ValueError):
        StageParams(10, 0, HalfInt.from_int(11))  # gap is negative
    with pytest.raises(ValueError):
        StageParams(10, -1, HalfInt.from_int(9))
    with pytest.raises(ValueError):
        StageParams(10, 0, HalfInt.from_int(0))
