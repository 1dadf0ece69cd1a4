"""Sign-sequence alignment under the adjacency rule.

Sign sequences are strings over the alphabet + - P M: a big-group sequence
uses plain signs + and -, a subgroup sequence uses circled signs (written P
for circled plus, M for circled minus).  An alignment is an order-preserving
interleaving of the two in which every adjacent pair of symbols belongs to
the allowed set.  Alignments meet in the middle: each is one shared prefix
plus one shared suffix, and the output order is that of a depth-first
search trying the big sequence's symbol before the small one's.  They are
counted when asked for and built one at a time as they are read, so a
caller that writes them out never holds them all.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

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
    read lazily: len() is their count, and each iteration builds the
    meet-in-the-middle tables again and yields one prefix + suffix at a
    time."""

    __slots__ = ("big", "small", "_count")

    def __init__(self, big: str, small: str, count: int) -> None:
        self.big, self.small, self._count = big, small, count

    def __len__(self) -> int:
        return self._count

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


def enumerate_alignments(big: str, small: str, cap: int | None = None) -> Alignments:
    """All order-preserving interleavings of big and small in which every
    adjacent pair is allowed, in depth-first order trying big's next symbol
    before small's, as a sized lazy Alignments.

    A state is (symbols of big used, symbols of small used, last symbol).
    The alphabets are checked and the paths counted here, one level of
    states at a time, so a bad or over-cap input raises ValueError before
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
    for ways, _ in _levels(big, small):
        pass
    total = sum(ways.values())
    if cap is not None and total > cap:  # a count of hundreds of digits is not printed
        size = total if total <= 10**18 else "more than 10^18"
        raise ValueError(f"{size} alignments exceed the cap {cap}")
    return Alignments(big, small, total)


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


class U2nReport(NamedTuple):
    n: int
    big: str
    candidates: tuple[str, str]
    alignments: tuple[tuple[str, ...], tuple[str, ...]]
    character_screen_applied: bool
    note: str

    @property
    def total_alignments(self) -> int:
        return sum(len(group) for group in self.alignments)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "big": self.big,
            "candidates": list(self.candidates),
            "alignments": [list(group) for group in self.alignments],
            "total_alignments": self.total_alignments,
            "character_screen_applied": self.character_screen_applied,
            "note": self.note,
        }


def u2n_case_report(n: int) -> U2nReport:
    """Enumerate alignments of the U(2,n) big sequence against the two
    end-circled-plus subgroup candidates.

    The report is alignment-level only: the subsequent screen on the
    infinitesimal-character interlacing (which rejects both candidates) has
    no precise stated criterion and is left as a documented manual step.
    """
    if n < 4:
        raise ValueError("the configuration is set up for n >= 4")
    big = u2n_plus_sequence(n)
    candidates = u1n_end_candidates(n)
    alignments = tuple(tuple(enumerate_alignments(big, c)) for c in candidates)
    return U2nReport(
        n=n,
        big=big,
        candidates=candidates,
        alignments=alignments,
        character_screen_applied=False,
        note=(
            "alignment-level result only; the infinitesimal-character "
            "interlacing screen is a separate manual step and is not applied"
        ),
    )
