"""Sign-sequence alignment under the adjacency rule.

Sign sequences are strings over the alphabet + - P M: a big-group sequence
uses plain signs + and -, a subgroup sequence uses circled signs (written P
for circled plus, M for circled minus).  An alignment is an order-preserving
interleaving of the two in which every adjacent pair of symbols belongs to
the allowed set.  Alignments meet in the middle: each is one shared prefix
plus one shared suffix, and the output order is that of a depth-first
search trying the big sequence's symbol before the small one's.  They are
counted when asked for and built one at a time as they are read, so a
caller that writes them out never holds them all.  u2n_case_report returns
the `table he --n` result of the U(2,n) configuration, in lists and texts.
"""

from __future__ import annotations

from typing import Iterator

PLUS = "+"
MINUS = "-"
CIRCLED_PLUS = "P"
CIRCLED_MINUS = "M"

PLAIN = frozenset({PLUS, MINUS})
CIRCLED = frozenset({CIRCLED_PLUS, CIRCLED_MINUS})
ALPHABET = PLAIN | CIRCLED

ALLOWED_PAIRS = frozenset(
    {
        (CIRCLED_PLUS, PLUS),
        (PLUS, CIRCLED_PLUS),
        (MINUS, CIRCLED_MINUS),
        (CIRCLED_MINUS, MINUS),
        (PLUS, MINUS),
        (MINUS, PLUS),
        (CIRCLED_PLUS, CIRCLED_MINUS),
        (CIRCLED_MINUS, CIRCLED_PLUS),
    }
)


def _levels(big: str, small: str):
    """Per number of symbols placed: the reachable states' path counts, and
    their moves (symbol, next state), none from the last level."""
    ways = {(0, 0, ""): 1}
    for _ in range(len(big) + len(small)):
        level, next_ways = {}, {}
        for state, count in ways.items():
            i, j, last = state
            moves = level[state] = []
            for sym, (ni, nj) in ((big[i : i + 1], (i + 1, j)), (small[j : j + 1], (i, j + 1))):
                if sym and (not last or (last, sym) in ALLOWED_PAIRS):
                    after = (ni, nj, sym)
                    moves.append((sym, after))
                    next_ways[after] = next_ways.get(after, 0) + count
        yield ways, level
        ways = next_ways
    yield ways, dict.fromkeys(ways, ())


class Alignments:
    """The alignments of big against small in depth-first, big-first order,
    read lazily: count is their number (len() too, up to sys.maxsize), and
    each iteration builds the meet-in-the-middle tables again and yields
    one prefix + suffix at a time."""

    __slots__ = ("big", "small", "count")

    def __init__(self, big: str, small: str, count: int) -> None:
        self.big, self.small, self.count = big, small, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[str]:
        levels = [level for _, level in _levels(self.big, self.small)]
        middle = len(levels) // 2
        tails = dict.fromkeys(levels[-1], [""])
        for level in reversed(levels[middle:-1]):
            tails = {
                state: [sym + tail for sym, after in moves for tail in tails[after]]
                for state, moves in level.items()
            }
        heads = {state: [("", state)] if tail else [] for state, tail in tails.items()}
        for level in reversed(levels[:middle]):
            heads = {
                state: [(sym + head, mid) for sym, after in moves for head, mid in heads[after]]
                for state, moves in level.items()
            }
        del levels  # only the two tables are held while alignments are yielded
        for head, mid in heads[(0, 0, "")]:
            for tail in tails[mid]:
                yield head + tail


def enumerate_alignments(big: str, small: str) -> Alignments:
    """All order-preserving interleavings of big and small in which every
    adjacent pair is allowed, in depth-first order trying big's next symbol
    before small's, as a counted lazy Alignments.

    A state is (symbols of big used, symbols of small used, last symbol).
    The alphabets and MAX_POSITIONS are checked and the paths counted here,
    one level of states at a time, so a bad input raises ValueError before
    any move is stored or any alignment built.  Iterating the result then
    builds, for each state from the end back to the middle level, its
    suffixes, and for each state from there back to the start its (prefix,
    middle state) pairs; those two tables are what is held, and each
    alignment is one prefix + suffix, yielded as it is built.
    """
    for seq in (big, small):
        bad = [s for s in seq if s not in ALPHABET]
        if bad:
            raise ValueError(f"unknown symbols {bad}; alphabet is +, -, P, M")
    if not PLAIN.issuperset(big):
        raise ValueError("big sequence must use plain signs + and - only")
    if not CIRCLED.issuperset(small):
        raise ValueError("small sequence must use circled signs P and M only")
    if (len(big) + 1) * (len(small) + 1) > MAX_POSITIONS:
        pairs = f"({len(big)} + 1) * ({len(small)} + 1) position pairs"
        raise ValueError(f"{pairs} exceed the per-record cap MAX_POSITIONS = {MAX_POSITIONS}")
    for ways, _ in _levels(big, small):
        pass
    return Alignments(big, small, sum(ways.values()))


# ---------------------------------------------------------------------------
# The U(2,n) configuration
# ---------------------------------------------------------------------------


def u2n_plus_sequence(n: int) -> str:
    """The big sequence (+, -, ..., -, +) of 2+n signs."""
    return PLUS + MINUS * n + PLUS


def u1n_end_candidates(n: int) -> tuple[str, str]:
    """The two subgroup candidates with the circled plus at an end: one
    circled plus followed by n circled minuses, and the reverse order.
    Candidates with an interior circled plus are excluded a priori (they
    correspond to neither the holomorphic nor the antiholomorphic family)."""
    return CIRCLED_PLUS + CIRCLED_MINUS * n, CIRCLED_MINUS * n + CIRCLED_PLUS


# The largest n that u2n_case_report takes.  A row's work and its record
# grow linearly in n (sequences of 2+n and 1+n signs, two alignments of
# 2n+3 symbols), so the cap bounds one row of `table he --n` as
# branching.MAX_ELL bounds an exhaustion row: a row at the cap takes about
# 10 ms and writes about 2 kB, and a whole table (at most MAX_U2N rows)
# about a second and 0.34 MB.
MAX_U2N = 256

# The most position pairs (symbols of big used, of small used) that
# enumerate_alignments takes, bounding its count: (+-)^180 against (PM)^180
# has 130,321, counted in 0.6 s (CPython 3.11, shared 2-CPU host); a MAX_U2N row 66,822.
MAX_POSITIONS = 2**17


def check_u2n(n: int) -> None:
    if n > MAX_U2N:
        raise ValueError(f"n = {n} exceeds the per-row cap MAX_U2N = {MAX_U2N}")


def u2n_case_report(n: int) -> dict:
    """Enumerate alignments of the U(2,n) big sequence against the two
    end-circled-plus subgroup candidates, as the `table he --n` result.

    The report is alignment-level only: the subsequent screen on the
    infinitesimal-character interlacing (which rejects both candidates) has
    no precise stated criterion and is left as a documented manual step.
    """
    if n < 4:
        raise ValueError("the configuration is set up for n >= 4")
    check_u2n(n)
    big = u2n_plus_sequence(n)
    candidates = list(u1n_end_candidates(n))
    alignments = [list(enumerate_alignments(big, c)) for c in candidates]
    return {
        "n": n,
        "big": big,
        "candidates": candidates,
        "alignments": alignments,
        "total_alignments": sum(map(len, alignments)),
        "character_screen_applied": False,
        "note": (
            "alignment-level result only; the infinitesimal-character "
            "interlacing screen is a separate manual step and is not applied"
        ),
    }
