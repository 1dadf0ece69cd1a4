import hashlib
import itertools
import math
import re
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbranch.hepattern import (
    ALLOWED_PAIRS,
    CIRCLED,
    MAX_POSITIONS,
    MAX_U2N,
    PLAIN,
    enumerate_alignments,
    u1n_end_candidates,
    u2n_case_report,
    u2n_plus_sequence,
)


def _erase(merged, keep):
    return "".join(s for s in merged if s in keep)


def _reference_alignments(big, small):
    """Independent list of the alignments in the intended order: choose the
    positions of big's symbols among all positions; lexicographic order of
    those position tuples is the depth-first order that tries big first."""
    length = len(big) + len(small)
    found = []
    for positions in itertools.combinations(range(length), len(big)):
        chosen = set(positions)
        big_symbols, small_symbols = iter(big), iter(small)
        merged = "".join(
            next(big_symbols) if k in chosen else next(small_symbols) for k in range(length)
        )
        if all(pair in ALLOWED_PAIRS for pair in zip(merged, merged[1:])):
            found.append(merged)
    return found


def _count_alignments(big, small):
    """Independent count of the alignments, by dynamic programming over
    (symbols of big used, symbols of small used, last symbol).  Adjacent
    symbols are allowed iff exactly one of their kind (plain or circled)
    and their sign (+ and P plus, - and M minus) differs."""

    def fits(last, sym):
        if last is None:
            return True
        kind_differs = (last in "+-") != (sym in "+-")
        sign_differs = (last in "+P") != (sym in "+P")
        return kind_differs != sign_differs

    lasts = (None, "+", "-", "P", "M")
    ways = {(0, 0, None): 1}
    for i in range(len(big) + 1):
        for j in range(len(small) + 1):
            for last in lasts:
                count = ways.get((i, j, last), 0)
                if not count:
                    continue
                for sym, key in ((big[i : i + 1], (i + 1, j)), (small[j : j + 1], (i, j + 1))):
                    if sym and fits(last, sym):
                        ways[(*key, sym)] = ways.get((*key, sym), 0) + count
    return sum(ways.get((len(big), len(small), last), 0) for last in lasts)


def test_allowed_adjacent_examples():
    assert ("+", "P") in ALLOWED_PAIRS
    assert ("M", "P") in ALLOWED_PAIRS
    assert ("+", "+") not in ALLOWED_PAIRS
    assert ("-", "-") not in ALLOWED_PAIRS
    assert ("P", "-") not in ALLOWED_PAIRS
    assert ("+", "M") not in ALLOWED_PAIRS
    assert len(ALLOWED_PAIRS) == 8


def test_sign_seq_parsing():
    assert list(enumerate_alignments("+--+", "PMM")) == ["+PM-M-+"]
    assert list(enumerate_alignments("+-+", "")) == ["+-+"]
    assert list(enumerate_alignments("", "PMP")) == ["PMP"]
    with pytest.raises(ValueError, match="plain signs"):
        enumerate_alignments("PMM", "")
    with pytest.raises(ValueError, match="unknown symbols"):
        enumerate_alignments("+-x", "")


def test_enumerate_requires_disjoint_alphabets():
    with pytest.raises(ValueError):
        enumerate_alignments("+P", "M")
    with pytest.raises(ValueError):
        enumerate_alignments("+-", "-")


def test_single_symbol_incompatible():
    found = enumerate_alignments("+", "M")
    assert (len(found), list(found)) == (0, [])


def test_count_oracle_matches_enumeration():
    for k in range(8):
        big, small = "+-" * k, "PM" * k
        assert len(enumerate_alignments(big, small)) == _count_alignments(big, small), k


def test_order_matches_reference_exhaustively():
    def words(alphabet):
        for length in range(6):
            for letters in itertools.product(alphabet, repeat=length):
                yield "".join(letters)

    smalls = list(words("PM"))
    for big in words("+-"):
        for small in smalls:
            expected = _reference_alignments(big, small)
            assert list(enumerate_alignments(big, small)) == expected, (big, small)


def test_alternating_count_is_central_binomial():
    for k in range(10):
        found = list(enumerate_alignments("+-" * k, "PM" * k))
        assert len(found) == math.comb(2 * k, k), k
    assert len(found) == 48620
    assert found[0] == "+-+-+-+-+-+-+-+-+PMPMPMPMPMPMPMPMPM-"
    assert found[-1] == "PMPMPMPMPMPMPMPMP+-+-+-+-+-+-+-+-+-M"
    digest = hashlib.sha256("\n".join(found).encode()).hexdigest()
    assert digest == "e3449cd3e3ad4c0f20e018ee3063d10b633de9221d26fd39a78f3e298f59e866"


def _traced_peak(call):
    """call()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_over_cap_input_refused_in_bounded_memory():
    # the paths are counted one level at a time, and no move is stored: an
    # input whose alignments exceed any cap is counted in bounded memory, and
    # its count, past sys.maxsize, which len() cannot return, is exact
    found, peak = _traced_peak(lambda: enumerate_alignments("+-" * 100, "PM" * 100))
    assert peak < 2**20
    assert found.count == math.comb(200, 100) > sys.maxsize
    with pytest.raises(OverflowError):
        len(found)


def test_position_pairs_are_capped_before_counting():
    # (len(big) + 1) * (len(small) + 1) up to MAX_POSITIONS is counted, one
    # more is refused before any level is visited
    cap = MAX_POSITIONS
    assert enumerate_alignments("+" * (cap - 1), "").count == 0
    assert enumerate_alignments("+-" * 5000, "").count == 1
    message = re.escape(f"({cap} + 1) * (0 + 1) position pairs exceed the per-record cap")
    with pytest.raises(ValueError, match=f"^{message} MAX_POSITIONS = {cap}$"):
        enumerate_alignments("+" * cap, "")
    # every `table he --n` row up to MAX_U2N is admitted
    assert (MAX_U2N + 3) * (MAX_U2N + 2) <= cap


def test_alignment_memory_stays_near_output_size():
    # prefixes and suffixes meet at the middle level, so listing the
    # alignments holds little besides the list itself
    found, peak = _traced_peak(lambda: list(enumerate_alignments("+-" * 9, "PM" * 9)))
    size = sys.getsizeof(found) + sum(sys.getsizeof(s) for s in found)
    assert len(found) == 48620
    assert peak <= 1.3 * size, (peak, size)


def test_printed_patterns_reproduced():
    for n in range(4, 11):
        big = u2n_plus_sequence(n)
        first, second = u1n_end_candidates(n)
        got_first = list(enumerate_alignments(big, first))
        got_second = list(enumerate_alignments(big, second))
        assert got_first == ["+P" + "M-" * n + "+"]
        assert got_second == ["+-" + "M-" * (n - 1) + "MP+"]


def test_u2n_report():
    report = u2n_case_report(4)
    assert list(report) == [
        "n",
        "big",
        "candidates",
        "alignments",
        "total_alignments",
        "character_screen_applied",
        "note",
    ]
    assert report["total_alignments"] == 2
    assert report["big"] == "+----+"
    assert report["candidates"] == ["PMMMM", "MMMMP"]
    assert report["character_screen_applied"] is False
    assert report["alignments"][0] == ["+PM-M-M-M-+"]
    report5 = u2n_case_report(5)
    assert report5["total_alignments"] == 2
    with pytest.raises(ValueError):
        u2n_case_report(3)


def test_exactly_one_alignment_per_candidate():
    for n in range(4, 11):
        report = u2n_case_report(n)
        assert [len(group) for group in report["alignments"]] == [1, 1]


def test_outputs_satisfy_adjacency_and_order():
    big = u2n_plus_sequence(6)
    for candidate in u1n_end_candidates(6):
        for merged in enumerate_alignments(big, candidate):
            for s1, s2 in zip(merged, merged[1:]):
                assert (s1, s2) in ALLOWED_PAIRS
            assert _erase(merged, PLAIN) == big
            assert _erase(merged, CIRCLED) == candidate


@st.composite
def _plain_and_circled(draw):
    big = draw(st.text(alphabet="+-", min_size=0, max_size=6))
    small = draw(st.text(alphabet="PM", min_size=0, max_size=6))
    return big, small


@given(_plain_and_circled())
def test_alignment_properties_random(seqs):
    big, small = seqs
    found = enumerate_alignments(big, small)
    merged_list = list(found)
    assert list(found) == merged_list  # each iteration builds the same list
    seen = set()
    for merged in merged_list:
        assert len(merged) == len(big) + len(small)
        for s1, s2 in zip(merged, merged[1:]):
            assert (s1, s2) in ALLOWED_PAIRS
        assert _erase(merged, PLAIN) == big
        assert _erase(merged, CIRCLED) == small
        seen.add(merged)
    assert len(seen) == len(merged_list)  # no duplicates
    assert len(found) == len(merged_list) == _count_alignments(big, small)
    assert merged_list == _reference_alignments(big, small)


def test_enumeration_is_deterministic():
    big = u2n_plus_sequence(5)
    small, _ = u1n_end_candidates(5)
    assert list(enumerate_alignments(big, small)) == list(enumerate_alignments(big, small))
