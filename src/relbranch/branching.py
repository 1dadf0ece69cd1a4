"""Branching predicates: interlacing patterns, Hom dimensions, label
dictionaries, and the two-stage enumeration cross-check.

The core rule is an order comparison: a same-side pair (+,+) couples exactly
when a > b, a same-side pair (-,-) exactly when b > a, and mixed sides never
couple.  Everything else in this module is bookkeeping that re-derives the
same answer along independent routes (pattern characters, radial labels,
stage enumerations) so the routes can be checked against each other.
"""

from __future__ import annotations

from typing import NamedTuple

from .frozen import Frozen
from .halfint import HALF, HalfInt
from .reps import (
    DiscreteSeriesParam,
    EpsilonCharacter,
    GroupLevel,
    ParamError,
    Side,
    Signature,
    epsilon_of,
    make_param,
)


class TieError(ValueError):
    """a = b cannot be classified (and cannot occur for valid pairs)."""


class SignatureMismatchError(ValueError):
    """The two parameters do not live over the same signature."""


# ---------------------------------------------------------------------------
# Interlacing patterns and their characters
# ---------------------------------------------------------------------------

P1 = "P1"
P2 = "P2"


class InterlacingPattern(NamedTuple):
    """The decreasing arrangement of (a, -a, b, -b): P1 = (a, b, -b, -a)
    when a > b, P2 = (b, a, -a, -b) when b > a."""

    kind: str
    merged: tuple[HalfInt, HalfInt, HalfInt, HalfInt]

    @property
    def a(self) -> HalfInt:
        return self.merged[0] if self.kind == P1 else self.merged[1]

    @property
    def b(self) -> HalfInt:
        return self.merged[1] if self.kind == P1 else self.merged[0]


def classify_interlacing(a, b) -> InterlacingPattern:
    a = HalfInt.coerce(a)
    b = HalfInt.coerce(b)
    if a <= HalfInt(0) or b <= HalfInt(0):
        raise ValueError(f"interlacing is defined for positive parameters, got ({a}, {b})")
    if a == b:
        raise TieError(f"a = b = {a}: no interlacing pattern (parity rules this out)")
    if a > b:
        return InterlacingPattern(P1, (a, b, -b, -a))
    return InterlacingPattern(P2, (b, a, -a, -b))


def pattern_characters(pat: InterlacingPattern) -> tuple[EpsilonCharacter, EpsilonCharacter]:
    """The character pair read off a pattern by counting majorizations.

    With a-entries (a, -a) indexed by i and b-entries (b, -b) indexed by j,
    the first character takes E_i to (-1)^(i+1+#{b-entries > a_i}) and the
    second takes E_j to (-1)^(j+#{a-entries > b_j}).  P1 yields the pair
    (eps1, eps1), P2 the pair (eps2, eps2).
    """
    a_entries = (pat.a, -pat.a)
    b_entries = (pat.b, -pat.b)

    def sign(exponent: int) -> int:
        return -1 if exponent % 2 else 1

    first = tuple(
        sign(i + 1 + sum(1 for y in b_entries if y > x))
        for i, x in enumerate(a_entries, start=1)
    )
    second = tuple(
        sign(j + sum(1 for x in a_entries if x > y))
        for j, y in enumerate(b_entries, start=1)
    )
    return (
        EpsilonCharacter(first[0], first[1]),
        EpsilonCharacter(second[0], second[1]),
    )


# ---------------------------------------------------------------------------
# Hom dimensions
# ---------------------------------------------------------------------------


def hom_dim(Pi: DiscreteSeriesParam, pi: DiscreteSeriesParam) -> int:
    """Multiplicity of pi (subgroup level) in the restriction of Pi (level G).

    Same-side (+,+) couples iff a > b; same-side (-,-) couples iff b > a;
    mixed sides never couple.  Multiplicities are 0 or 1.
    """
    if Pi.level is not GroupLevel.G or pi.level is not GroupLevel.GPRIME:
        raise SignatureMismatchError("hom_dim expects a level-G and a subgroup-level parameter")
    if (Pi.sig.p, Pi.sig.q) != (pi.sig.p, pi.sig.q):
        raise SignatureMismatchError(
            f"parameters live over different signatures: {Pi.sig} vs {pi.sig}"
        )
    if Pi.side is not pi.side:
        return 0
    if Pi.side is Side.PLUS:
        return 1 if Pi.a > pi.a else 0
    return 1 if pi.a > Pi.a else 0


class GPSumResult(NamedTuple):
    dim: int
    witness: tuple[Side, Side]
    hypothesis_warning: str | None


# The four side pairs (level G, subgroup level) in (+,+), (+,-), (-,+), (-,-)
# order, and their record labels.
_SIDES = (Side.PLUS, Side.MINUS)
_SIDE_PAIRS = tuple((sG, sGp) for sG in _SIDES for sGp in _SIDES)
_PAIR_LABELS = tuple(f"({sG.value},{sGp.value})" for sG, sGp in _SIDE_PAIRS)

ParamPair = tuple[DiscreteSeriesParam, DiscreteSeriesParam]


def param_pair(sig: Signature, level: GroupLevel, a) -> ParamPair:
    """The validated (plus, minus) parameters of a at one level; a grid
    builds one pair per value and reuses it for every row."""
    return make_param(sig, Side.PLUS, level, a), make_param(sig, Side.MINUS, level, a)


def _gp_sum(params_G: ParamPair, params_Gp: ParamPair) -> tuple[GPSumResult, int, tuple]:
    """gp_sum_dim's result from the (plus, minus) pairs of a (level G) and b
    (subgroup level), with the index of its witness in _SIDE_PAIRS and the
    hom_dim of each side pair in that order."""
    for plus, minus in (params_G, params_Gp):
        if plus.side is not Side.PLUS or minus.side is not Side.MINUS or plus.a != minus.a:
            raise ParamError("expected the (plus, minus) pair of one value, as param_pair builds")
    sig = params_G[0].sig
    warning = None
    if not (sig.p > 3 and sig.q > 3 and sig.p != sig.q):
        warning = (
            f"signature {sig} is outside the hypothesis p, q > 3 and p != q; "
            "result computed anyway"
        )
    dims = tuple(hom_dim(Pi, pi) for Pi in params_G for pi in params_Gp)
    winners = [i for i, dim in enumerate(dims) if dim == 1]
    if len(winners) != 1:
        raise AssertionError(
            f"expected exactly one contributing pair, got {[_SIDE_PAIRS[i] for i in winners]}"
        )
    return GPSumResult(1, _SIDE_PAIRS[winners[0]], warning), winners[0], dims


def gp_sum_dim(a, b, sig: Signature) -> GPSumResult:
    """Total multiplicity over the four side pairs, with its unique witness.

    For a valid (a, b) pair exactly one same-side combination contributes,
    picked by the order of a and b.  Outside the hypothesis p, q > 3 and
    p != q the computation proceeds but is flagged.
    """
    return _gp_sum(param_pair(sig, GroupLevel.G, a), param_pair(sig, GroupLevel.GPRIME, b))[0]


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
        make_param(Pi.sig, Side.MINUS, GroupLevel.GPRIME, Pi.a + HALF + k)
        for k in range(max_k + 1)
    ]


# ---------------------------------------------------------------------------
# Label dictionary between radial profiles and parameters
# ---------------------------------------------------------------------------


def fj_label_to_a(sig: Signature, n: int) -> HalfInt:
    """Level-G parameter a = n/2 + (p+q-1)/2 for an even radial label n."""
    if n < 0 or n % 2:
        raise ValueError(f"label must be even and nonnegative, got {n}")
    return HalfInt(n + sig.n - 1)


def fj_label_to_b(sig: Signature, k: int) -> HalfInt:
    """Subgroup-level parameter b = k/2 + (p+q-2)/2 for an even label k."""
    if k < 0 or k % 2:
        raise ValueError(f"label must be even and nonnegative, got {k}")
    return HalfInt(k + sig.n - 2)


# ---------------------------------------------------------------------------
# Stage enumerations and the exhaustion cross-check
# ---------------------------------------------------------------------------


class StageParams(Frozen):
    """One term of the first-stage restriction: an orthogonal-group label ell
    split as ell - lambda' - lambda'' - 1 in 2N.  Every construction checks
    the split through ``self.__post_init__``, so a class-level hook on it
    sees each term built."""

    __slots__ = ("ell", "lambda_prime", "lambda_dprime")

    def __init__(self, ell: int, lambda_prime: int, lambda_dprime: HalfInt):
        super().__init__(ell, lambda_prime, lambda_dprime)
        self.__post_init__()

    def __post_init__(self):
        if self.lambda_prime < 0:
            raise ValueError("lambda' must be nonnegative")
        if not self.lambda_dprime > HalfInt(0):
            raise ValueError("lambda'' must be positive")
        gap = HalfInt.from_int(self.ell - self.lambda_prime - 1) - self.lambda_dprime
        if gap < HalfInt(0) or gap.twice % 4 != 0:
            raise ValueError(
                f"ell - lambda' - lambda'' - 1 = {gap} is not a nonnegative even integer"
            )


def _valid_subgroup_b(sig: Signature, b: HalfInt) -> bool:
    offset = b.twice - (sig.n - 2)
    return offset >= 0 and offset % 2 == 0


class ExhaustionReport(NamedTuple):
    sig: Signature
    ell: int
    a: HalfInt | None
    first_sequence: tuple[HalfInt, ...]
    second_sequence: tuple[HalfInt, ...]
    period_prediction: tuple[HalfInt, ...]
    agreement: bool
    mismatches: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "p": self.sig.p,
            "q": self.sig.q,
            "ell": self.ell,
            "a": str(self.a) if self.a is not None else None,
            "first_sequence": [str(b) for b in self.first_sequence],
            "second_sequence": [str(b) for b in self.second_sequence],
            "period_prediction": [str(b) for b in self.period_prediction],
            "agreement": self.agreement,
            "mismatches": list(self.mismatches),
        }


def exhaustion_check(sig: Signature, ell: int) -> ExhaustionReport:
    """Cross-check the relative spectrum along the two restriction sequences
    against the radial-label prediction.

    First sequence: the lambda' = 0 slice of the first stage (each term
    validated as a StageParams) feeds the next stage.  An even label
    lambda'' has no relative member there; an odd label carries the
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
    """
    if ell <= sig.n - 1:
        raise ValueError(f"need ell > {sig.n - 1} for {sig}, got {ell}")
    first = []
    for lam in range(2 - (ell - 1) % 2, ell, 2):
        StageParams(ell, 0, HalfInt.from_int(lam))  # validated like every first-stage term
        if lam % 2 == 0:
            continue
        b = HalfInt(lam if (lam - sig.n) % 2 == 0 else lam - 1)
        if _valid_subgroup_b(sig, b):
            first.append(b)
    first = sorted(first)
    if ell % 2 == 0:  # the second stage's relative member x = y = ell/2
        a = HalfInt(ell)  # ell/2
        second = []
        b = HalfInt(sig.n - 2)
        while b < a:
            second.append(b)
            b = b + 1
        label_cap = a.twice - (sig.n - 1)
        period = sorted(fj_label_to_b(sig, k) for k in range(0, max(label_cap, -1) + 1, 2))
    else:
        a = None
        second = []
        period = []
    mismatches = []
    if first != second:
        mismatches.append(f"first vs second: {list(map(str, first))} != {list(map(str, second))}")
    if second != period:
        mismatches.append(
            f"second vs period: {list(map(str, second))} != {list(map(str, period))}"
        )
    return ExhaustionReport(
        sig,
        ell,
        a,
        tuple(first),
        tuple(second),
        tuple(period),
        not mismatches,
        tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# Coherence helper tying patterns, characters and hom dimensions together
# ---------------------------------------------------------------------------


def coupling_summary(params_G: ParamPair, params_Gp: ParamPair) -> dict:
    """One record combining the pattern, its characters, the witnessing side
    pair, and the four hom dimensions, from the validated (plus, minus)
    pairs of a (level G) and b (subgroup level) that param_pair builds."""
    pattern = classify_interlacing(params_G[0].a, params_Gp[0].a)
    chars = pattern_characters(pattern)
    gp, witness, dims = _gp_sum(params_G, params_Gp)
    return {
        "pattern": pattern.kind,
        "merged": [str(v) for v in pattern.merged],
        "characters": [str(c) for c in chars],
        "witness": _PAIR_LABELS[witness],
        "witness_character": str(epsilon_of(params_G[witness // 2])),  # its level-G side
        "dims": dict(zip(_PAIR_LABELS, dims)),
        "total": sum(dims),
        "hypothesis_warning": gp.hypothesis_warning,
    }
