"""Value semantics of the records the CLI path builds: equal values compare
and hash equal, no field can be set or deleted, and each record that
validates its fields raises the same error as before.  The table results
that a layer returns for the CLI to write are plain data."""

import copy
import pickle

import pytest

from relbranch.branching import exhaustion_check
from relbranch.hepattern import u2n_case_report
from relbranch.oracle import HighestWeight
from relbranch.reps import (
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
    "Signature": (lambda: Signature(3, 3), Signature(3, 4), "p"),
    "HighestWeight": (lambda: HighestWeight.of(2, 0, -2), HighestWeight.of(1, 0, -1), "entries"),
    "DiscreteSeriesParam": (
        lambda: make_param(Signature(3, 3), Side.PLUS, GroupLevel.G, 7),
        make_param(SIG, Side.MINUS, GroupLevel.G, 7),
        "twice",
    ),
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


def _leaf_types(value) -> set:
    """The types of value's leaves, where only a dict (its values) or a
    list (not a subclass) counts as nesting."""
    if type(value) is dict:
        value = list(value.values())
    if type(value) is list:
        return set().union(*map(_leaf_types, value))
    return {type(value)}


def test_table_results_are_plain_data():
    # what `table exhaustion` over the benchmark's ell and `table he --n`
    # write is what the layer returns: JSON's own types, with no record
    # class and no tuple to turn into a list
    plain = {dict, list, str, int, bool, type(None)}
    for ell in range(8, 141):
        assert _leaf_types(exhaustion_check(SIG, ell)) <= plain, ell
    for n in range(4, 31):
        assert _leaf_types(u2n_case_report(n)) <= plain, n


def test_repr_names_the_fields():
    assert repr(Signature(3, 4)) == "Signature(p=3, q=4)"
    assert repr(QuadratureResult(0.5, 0.0, 3)) == (
        "QuadratureResult(value=0.5, abs_error_estimate=0.0, evaluations=3)"
    )


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Signature(0, 3), ParamError, "signature entries must be positive, got (0, 3)"),
        (lambda: Signature(3, -1), ParamError, "signature entries must be positive, got (3, -1)"),
        (
            lambda: HighestWeight.of(0, 1),
            ValueError,
            "weight entries must be weakly decreasing: (0,1)",
        ),
    ],
)
def test_construction_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message

