"""Branching predicates: interlacing patterns, Hom dimensions, label
dictionaries, and the two-stage enumeration cross-check.

The core rule is an order comparison: a same-side pair (+,+) couples exactly
when a > b, a same-side pair (-,-) exactly when b > a, and mixed sides never
couple.  Everything else in this module is bookkeeping that re-derives the
same answer along independent routes (pattern characters, radial labels,
stage enumerations) so the routes can be checked against each other.  A
character is its sign pair (on_E1, on_E2), written by reps.CHARACTER_TEXTS.
Each check returns plain data, which its caller reads as it is:
classify_interlacing the pattern's kind, pattern_characters a sign pair per
character, and exhaustion_check the `table exhaustion` result itself.  One
function, coupling_check, runs every check of a packet sum over the four
side pairs and returns strs and ints in tuples; one renderer,
coupling_record, turns it into the packet-sum record, with a and b as given
texts, and coupling_summary is the two in a row.  Every a and b here is the
int twice its value, as reps holds it, and halfint.format_twice writes it.
The good-range bound is read from reps.bound_twice.  The validated
first-stage term (StageParams), the whole-stage enumerations that
exhaustion_check's slice is checked against and the label dictionary's
inverses live in tests/test_branching.py.
"""

from __future__ import annotations

from .halfint import format_twice
from .reps import (
    CHARACTER_TEXTS,
    DiscreteSeriesParam,
    GroupLevel,
    ParamError,
    Side,
    Signature,
    bound_twice,
    epsilon_of,
    make_param,
)


# The enum members that per-row checks read, bound once: before Python 3.12
# EnumType defines __getattr__, so each read of Side.PLUS takes about 0.1 us.
_G, _GPRIME = GroupLevel.G, GroupLevel.GPRIME
_PLUS, _MINUS = Side.PLUS, Side.MINUS


class TieError(ValueError):
    """a = b cannot be classified (and cannot occur for valid pairs)."""


class SignatureMismatchError(ValueError):
    """The two parameters do not live over the same signature."""


# ---------------------------------------------------------------------------
# Interlacing patterns and their characters
# ---------------------------------------------------------------------------

P1 = "P1"
P2 = "P2"


def merged_texts(kind: str, a_text: str, b_text: str) -> list[str]:
    """The merged order of a pattern of this kind, P1 = (a, b, -b, -a) or
    P2 = (b, a, -a, -b), written from the texts of a and b: both are
    positive, so -a reads "-" + a."""
    if kind == P1:
        return [a_text, b_text, "-" + b_text, "-" + a_text]
    return [b_text, a_text, "-" + a_text, "-" + b_text]


def classify_interlacing(ta: int, tb: int) -> str:
    """The kind of the decreasing arrangement of (a, -a, b, -b) for positive
    a != b, given as twice their values: P1 = (a, b, -b, -a) when a > b,
    P2 = (b, a, -a, -b) when b > a."""
    if ta <= 0 or tb <= 0:
        a, b = format_twice(ta), format_twice(tb)
        raise ValueError(f"interlacing is defined for positive parameters, got ({a}, {b})")
    if ta == tb:
        a = format_twice(ta)
        raise TieError(f"a = b = {a}: no interlacing pattern (parity rules this out)")
    return P1 if ta > tb else P2


# The sign pairs of the four characters of Z2 x Z2, keyed by the parities of
# the exponents of -1 on (E1, E2).
_CHARACTERS = {(e1, e2): (1 - 2 * e1, 1 - 2 * e2) for e1 in (0, 1) for e2 in (0, 1)}


def pattern_characters(ta: int, tb: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The character pair read off the pattern of a and b, given as twice
    their values (a pair that classify_interlacing accepts), by counting
    majorizations, each as its sign pair (on_E1, on_E2).

    With a-entries (a, -a) indexed by i and b-entries (b, -b) indexed by j,
    the first character takes E_i to (-1)^(i+1+#{b-entries > a_i}) and the
    second takes E_j to (-1)^(j+#{a-entries > b_j}).  P1 yields the pair
    (eps1, eps1), P2 the pair (eps2, eps2).  Entries are compared as twice
    their values.
    """
    a1, b1 = ta, tb  # twice the entries a_1 = a and b_1 = b
    a2, b2 = -a1, -b1  # a_2 = -a and b_2 = -b
    first = ((1 + 1 + (b1 > a1) + (b2 > a1)) % 2, (2 + 1 + (b1 > a2) + (b2 > a2)) % 2)
    second = ((1 + (a1 > b1) + (a2 > b1)) % 2, (2 + (a1 > b2) + (a2 > b2)) % 2)
    return _CHARACTERS[first], _CHARACTERS[second]


# ---------------------------------------------------------------------------
# Hom dimensions
# ---------------------------------------------------------------------------


def hom_dim(Pi: DiscreteSeriesParam, pi: DiscreteSeriesParam) -> int:
    """Multiplicity of pi (subgroup level) in the restriction of Pi (level G).

    Same-side (+,+) couples iff a > b; same-side (-,-) couples iff b > a;
    mixed sides never couple.  Multiplicities are 0 or 1.
    """
    if Pi.level is not _G or pi.level is not _GPRIME:
        raise SignatureMismatchError("hom_dim expects a level-G and a subgroup-level parameter")
    # a grid's parameters share one Signature, so identity settles most calls
    if Pi.sig is not pi.sig and (Pi.sig.p, Pi.sig.q) != (pi.sig.p, pi.sig.q):
        raise SignatureMismatchError(
            f"parameters live over different signatures: {Pi.sig} vs {pi.sig}"
        )
    if Pi.side is not pi.side:
        return 0
    if Pi.side is _PLUS:
        return 1 if Pi.twice > pi.twice else 0
    return 1 if pi.twice > Pi.twice else 0


# The four side pairs (level G, subgroup level) in (+,+), (+,-), (-,+), (-,-)
# order, as record labels.
_SIDES = (Side.PLUS, Side.MINUS)
PAIR_LABELS = tuple(f"({sG.value},{sGp.value})" for sG in _SIDES for sGp in _SIDES)

ParamPair = tuple[DiscreteSeriesParam, DiscreteSeriesParam]


def param_pair(sig: Signature, level: GroupLevel, a) -> ParamPair:
    """The validated (plus, minus) parameters of a at one level; a grid
    builds one pair per value and reuses it for every row."""
    return make_param(sig, Side.PLUS, level, a), make_param(sig, Side.MINUS, level, a)


def hypothesis_warning(sig: Signature) -> str | None:
    """The warning a packet-sum record carries outside the hypothesis
    p, q > 3 and p != q, else None."""
    if sig.p > 3 and sig.q > 3 and sig.p != sig.q:
        return None
    return (
        f"signature {sig} is outside the hypothesis p, q > 3 and p != q; "
        "result computed anyway"
    )


def coupling_check(params_G: ParamPair, params_Gp: ParamPair) -> tuple:
    """Every check of the packet sum of a (level G) and b (subgroup level),
    from the (plus, minus) pairs that param_pair builds: the interlacing
    pattern, the pairs' contract, the hom dimension of each side pair and
    the one same-side pair that contributes for a valid (a, b).  Returns
    (the pattern's kind, its character pair, the four dims in PAIR_LABELS
    order, the witness's index there, the witness's level-G character), each
    character as its sign pair: plain strs and ints in tuples, which a grid
    keys its texts on as they are."""
    a, b = params_G[0].twice, params_Gp[0].twice
    kind = classify_interlacing(a, b)
    for plus, minus in (params_G, params_Gp):
        if (
            plus.side is not _PLUS
            or minus.side is not _MINUS
            or plus.twice != minus.twice
        ):
            raise ParamError("expected the (plus, minus) pair of one value, as param_pair builds")
    G_plus, G_minus = params_G
    Gp_plus, Gp_minus = params_Gp
    dims = (
        hom_dim(G_plus, Gp_plus),
        hom_dim(G_plus, Gp_minus),
        hom_dim(G_minus, Gp_plus),
        hom_dim(G_minus, Gp_minus),
    )
    if dims.count(1) != 1:
        winners = [label for label, dim in zip(PAIR_LABELS, dims) if dim == 1]
        raise ValueError(f"expected exactly one contributing pair, got {winners}")
    witness = dims.index(1)
    return (
        kind,
        pattern_characters(a, b),
        dims,
        witness,
        epsilon_of(params_G[witness // 2]),  # its level-G side
    )


def coupling_record(values: tuple, a_text: str, b_text: str, warning: str | None) -> dict:
    """The packet-sum record of coupling_check's values, with a and b
    written as a_text and b_text: the interlacing pattern, its characters,
    the hom dimension of each side pair, their total, the witness and the
    hypothesis warning.  The one place that fixes the record's fields and
    their order."""
    kind, characters, dims, witness, witness_character = values
    return {
        "pattern": kind,
        "merged": merged_texts(kind, a_text, b_text),
        "characters": [CHARACTER_TEXTS[signs] for signs in characters],
        "witness": PAIR_LABELS[witness],
        "witness_character": CHARACTER_TEXTS[witness_character],
        "dims": dict(zip(PAIR_LABELS, dims)),
        "total": sum(dims),
        "hypothesis_warning": warning,
    }


def coupling_summary(params_G: ParamPair, params_Gp: ParamPair) -> dict:
    """The packet-sum record of a (level G) and b (subgroup level).  Outside
    the hypothesis p, q > 3 and p != q it is computed but flagged."""
    return coupling_record(
        coupling_check(params_G, params_Gp),
        format_twice(params_G[0].twice),
        format_twice(params_Gp[0].twice),
        hypothesis_warning(params_G[0].sig),
    )


def pair_record(Pi: DiscreteSeriesParam, pi: DiscreteSeriesParam) -> dict:
    """The record of one pair, Pi (level G) and pi (subgroup level): the hom
    dimension, the side pair, both parameters' texts, the interlacing
    pattern and its merged order."""
    dim = hom_dim(Pi, pi)
    kind = classify_interlacing(Pi.twice, pi.twice)
    return {
        "dim": dim,
        "pair": f"({Pi.side.value},{pi.side.value})",
        "Pi": str(Pi),
        "pi": str(pi),
        "pattern": kind,
        "merged": merged_texts(kind, format_twice(Pi.twice), format_twice(pi.twice)),
    }


def pi_minus_summands(Pi: DiscreteSeriesParam, max_k: int) -> list[DiscreteSeriesParam]:
    """The subgroup-level minus parameters b = a + 1/2 + k, k = 0..max_k.

    Every entry is a valid subgroup parameter over the same signature and has
    hom_dim 1 against Pi.
    """
    if Pi.level is not GroupLevel.G or Pi.side is not Side.MINUS:
        raise ParamError("pi_minus_summands expects a level-G minus parameter")
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    return [
        make_param(Pi.sig, Side.MINUS, GroupLevel.GPRIME, Pi.twice + 1 + 2 * k)
        for k in range(max_k + 1)
    ]


def pi_minus_record(Pi: DiscreteSeriesParam, max_k: int) -> dict:
    """The record of the summands of a level-G minus parameter Pi up to
    max_k (pi_minus_summands): their texts, their count and whether every
    one has hom_dim 1 against Pi."""
    summands = pi_minus_summands(Pi, max_k)
    return {
        "summands": [format_twice(s.twice) for s in summands],
        "count": len(summands),
        "all_hom_dim_one": all(hom_dim(Pi, s) == 1 for s in summands),
    }


# ---------------------------------------------------------------------------
# Label dictionary between radial profiles and parameters
# ---------------------------------------------------------------------------


def fj_label_to_a(sig: Signature, n: int) -> int:
    """Twice the level-G parameter a = n/2 + (p+q-1)/2 for an even radial
    label n."""
    if n < 0 or n % 2:
        raise ValueError(f"label must be even and nonnegative, got {n}")
    return n + bound_twice(sig, GroupLevel.G)


def fj_label_to_b(sig: Signature, k: int) -> int:
    """Twice the subgroup-level parameter b = k/2 + (p+q-2)/2 for an even
    label k."""
    if k < 0 or k % 2:
        raise ValueError(f"label must be even and nonnegative, got {k}")
    return k + bound_twice(sig, _GPRIME)


# ---------------------------------------------------------------------------
# Stage enumerations and the exhaustion cross-check
# ---------------------------------------------------------------------------

# The largest ell that exhaustion_check takes.  A row's work and its record
# grow linearly in ell (a slice of ell/2 first-stage terms, sequences of about
# ell/2 values), so the cap bounds one row of `table exhaustion` as
# jacobi.MAX_DEGREE bounds a period record: a row at the cap takes a few
# milliseconds and writes about 10 kB, and a whole table (at most MAX_ELL
# rows) under a second and 3 MB.
MAX_ELL = 1024


def check_ell(ell: int) -> None:
    if ell > MAX_ELL:
        raise ValueError(f"ell = {ell} exceeds the per-row cap MAX_ELL = {MAX_ELL}")


def exhaustion_check(sig: Signature, ell: int) -> dict:
    """Cross-check the relative spectrum along the two restriction sequences
    against the radial-label prediction.

    First sequence: the lambda' = 0 slice of the first stage, the lambda''
    of ell's opposite parity in 1..ell-1, feeds the next stage.  An even
    label lambda'' has no relative member there; an odd label carries the
    subgroup parameter b equal to whichever of (lambda''-1)/2 and lambda''/2
    has the subgroup parity (the label conventions at adjacent levels differ
    by such shifts, and this is the unique assignment compatible with
    a = ell/2 below).
    Invalid candidates are discarded.
    Second sequence: of the second stage's splittings ell = x + y into
    integers, only the relative member x = y = ell/2 (ell even) feeds on;
    it carries a = ell/2, and the subgroup parameters are all valid b with
    b < a.  The tests enumerate both whole stages as the reference.
    The prediction lists b over even labels k up to the dictionary image of
    a.  All three sets must coincide.

    Returns the `table exhaustion` result: p, q, ell, a, the three
    sequences as texts, agreement and the mismatches found.
    """
    top, sub = bound_twice(sig, _G), bound_twice(sig, _GPRIME)
    if ell <= top:
        raise ValueError(f"need ell > {top} for {sig}, got {ell}")
    check_ell(ell)
    # the three sequences are compared as twice their values, and each is
    # written as texts once, or not at all when it equals the one before
    first_twice = []  # ascending: lam or lam - 1 for ascending odd lam
    for lam in range(2 - (ell - 1) % 2, ell, 2):
        if lam % 2 == 0:
            continue
        twice = lam if (lam - sub) % 2 == 0 else lam - 1  # 2b has the subgroup parity
        if twice >= sub:
            first_twice.append(twice)
    if ell % 2 == 0:  # the second stage's relative member x = y = ell/2
        a = format_twice(ell)  # ell/2
        second_twice = list(range(sub, ell, 2))
        # ascending, since fj_label_to_b is increasing in k
        period_twice = [fj_label_to_b(sig, k) for k in range(0, max(ell - top, -1) + 1, 2)]
    else:
        a = None
        second_twice = []
        period_twice = []
    first = [format_twice(twice) for twice in first_twice]
    mismatches = []
    if first_twice == second_twice:
        second = first
    else:
        second = [format_twice(twice) for twice in second_twice]
        mismatches.append(f"first vs second: {first} != {second}")
    if second_twice == period_twice:
        period = second
    else:
        period = [format_twice(twice) for twice in period_twice]
        mismatches.append(f"second vs period: {second} != {period}")
    return {
        "p": sig.p,
        "q": sig.q,
        "ell": ell,
        "a": a,
        "first_sequence": first,
        "second_sequence": second,
        "period_prediction": period,
        "agreement": not mismatches,
        "mismatches": mismatches,
    }
