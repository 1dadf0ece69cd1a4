"""Value semantics of the records the CLI path builds: equal values compare
and hash equal, no field can be set or deleted, and each record that
validates its fields raises the same error as before."""

import copy
import pickle

import pytest

from relbranch import branching
from relbranch.branching import (
    StageParams,
    classify_interlacing,
    exhaustion_check,
)
from relbranch.halfint import HalfInt
from relbranch.hepattern import u2n_case_report
from relbranch.oracle import HighestWeight
from relbranch.reps import (
    EpsilonCharacter,
    GroupLevel,
    ParamError,
    Side,
    Signature,
    make_param,
)
from relbranch.specfun import QuadratureResult

SIG = Signature(3, 3)

# (build, a different value of the same class, a field name): build() makes
# a fresh record each call, so equal values are distinct objects
RECORDS = {
    "HalfInt": (lambda: HalfInt(7), HalfInt(5), "twice"),
    "Signature": (lambda: Signature(3, 3), Signature(3, 4), "p"),
    "EpsilonCharacter": (lambda: EpsilonCharacter(1, -1), EpsilonCharacter(-1, 1), "on_E1"),
    "HighestWeight": (lambda: HighestWeight.of(2, 0, -2), HighestWeight.of(1, 0, -1), "entries"),
    "DiscreteSeriesParam": (
        lambda: make_param(Signature(3, 3), Side.PLUS, GroupLevel.G, HalfInt(7)),
        make_param(SIG, Side.MINUS, GroupLevel.G, HalfInt(7)),
        "a",
    ),
    "InterlacingPattern": (
        lambda: classify_interlacing("9/2", 3), classify_interlacing(3, "9/2"), "kind"
    ),
    "StageParams": (lambda: StageParams(8, 0, HalfInt(6)), StageParams(8, 0, HalfInt(10)), "ell"),
    "ExhaustionReport": (
        lambda: exhaustion_check(Signature(3, 3), 8), exhaustion_check(SIG, 10), "agreement"
    ),
    "U2nReport": (lambda: u2n_case_report(4), u2n_case_report(5), "n"),
    "QuadratureResult": (
        lambda: QuadratureResult(0.5, 1e-16, 3), QuadratureResult(0.5, 1e-16, 4), "value"
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_and_hash_equal(name):
    build, other, _ = RECORDS[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second, other}) == 2
    assert first != other and type(other) is type(first)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_set_or_deleted(name):
    build, _, field = RECORDS[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_round_trip(name):
    record = RECORDS[name][0]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_repr_names_the_fields():
    assert repr(Signature(3, 4)) == "Signature(p=3, q=4)"
    assert repr(QuadratureResult(0.5, 0.0, 3)) == (
        "QuadratureResult(value=0.5, abs_error_estimate=0.0, evaluations=3)"
    )
    assert repr(StageParams(8, 0, HalfInt(6))) == (
        "StageParams(ell=8, lambda_prime=0, lambda_dprime=HalfInt(6))"
    )


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Signature(0, 3), ParamError, "signature entries must be positive, got (0, 3)"),
        (lambda: Signature(3, -1), ParamError, "signature entries must be positive, got (3, -1)"),
        (lambda: EpsilonCharacter(1, 0), ValueError, "character values must be +1 or -1"),
        (lambda: EpsilonCharacter(2, 1), ValueError, "character values must be +1 or -1"),
        (
            lambda: HighestWeight.of(0, 1),
            ValueError,
            "weight entries must be weakly decreasing: (0,1)",
        ),
        (lambda: StageParams(8, -1, HalfInt(2)), ValueError, "lambda' must be nonnegative"),
        (lambda: StageParams(8, 0, HalfInt(0)), ValueError, "lambda'' must be positive"),
        (
            lambda: StageParams(8, 0, HalfInt.from_int(2)),
            ValueError,
            "ell - lambda' - lambda'' - 1 = 5 is not a nonnegative even integer",
        ),
    ],
)
def test_construction_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_stage_params_hook_sees_every_term_exhaustion_check_builds(monkeypatch):
    # the benchmark tracer counts terms by patching __post_init__ on the class
    seen = []
    check = StageParams.__post_init__

    def counted(term):
        check(term)
        seen.append((term.ell, term.lambda_prime, term.lambda_dprime))

    monkeypatch.setattr(branching.StageParams, "__post_init__", counted)
    for ell in range(8, 21):
        seen.clear()
        exhaustion_check(SIG, ell)
        lambdas = range(2 - (ell - 1) % 2, ell, 2)
        assert seen == [(ell, 0, HalfInt.from_int(lam)) for lam in lambdas], ell
