import re
from fractions import Fraction
from functools import lru_cache
from math import inf, isfinite, nan, nextafter, sqrt, ulp

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbranch import periods
from relbranch.jacobi import MAX_DEGREE, jacobi_pairing, jacobi_shifted_norm_sq
from relbranch.oracle import jacobi_coeffs, radial_integral_monomial, weighted_pairing
from relbranch.periods import (
    COMPLEX,
    QUATERNIONIC,
    PeriodGrid,
    PreconditionError,
    _angular_scale,
    period_integral_quadrature,
)
from relbranch.specfun import ConvergenceError, QuadratureResult, radial_integral_exact

import factorial_forms as forms

# The exponents of each family, written out apart from periods: the radial
# sinh power and cosh decay, and the angular (alpha, beta, shift).
_FAMILY_LITERALS = {
    COMPLEX: (
        lambda p, q, n, k: (2 * p - 1, 2 * q + n + k - 1),
        lambda q: (q - 2, 0, 1),
    ),
    QUATERNIONIC: (
        lambda p, q, n, k: (4 * p - 1, 4 * q + n + k - 3),
        lambda q: (2 * q - 3, 1, 2),
    ),
}


def _angular_exact(q, n, k, kind=COMPLEX):
    """The exact angular factor of a period, as a Fraction: the Jacobi
    pairing at the family's literal angular exponents.  Nonzero exactly when
    k <= n."""
    return Fraction(*jacobi_pairing(n, k, *_FAMILY_LITERALS[kind][1](q)))


def _closed(exact):
    """An exact period (numerator, denominator) rounded once, as a record's
    closed value is."""
    num, den = exact
    return num / den


def test_period_preconditions():
    with pytest.raises(PreconditionError):
        PeriodGrid(2, 2).exact(0, 0)
    with pytest.raises(PreconditionError):
        PeriodGrid(2, 1).exact(0, 0)
    with pytest.raises(PreconditionError):
        PeriodGrid(1, 2).exact(1, 0)
    with pytest.raises(PreconditionError):
        PeriodGrid(1, 2).exact(0, -2)


def test_period_closed_base_case():
    # A(1,3) * int 1 d(mu) = (1/2) * 2 = 1 in the module normalization
    assert _closed(PeriodGrid(1, 2).exact(0, 0)) == pytest.approx(1.0, rel=1e-13)


def test_period_closed_vanishing_case():
    assert _closed(PeriodGrid(1, 2).exact(0, 2)) == 0.0
    assert jacobi_pairing(0, 2, *_FAMILY_LITERALS[COMPLEX][1](2)) == (0, 1)


def test_period_nonvanishing_examples():
    # the numerator of the exact period decides
    assert PeriodGrid(1, 2).exact(4, 2)[0] != 0
    assert PeriodGrid(1, 2).exact(2, 4)[0] == 0
    assert PeriodGrid(1, 2).exact(0, 0)[0] != 0


def test_period_quadrature_examples():
    r = period_integral_quadrature(1, 2, 0, 0, 1e-10)
    assert abs(r.value - 1.0) <= 1e-10
    r = period_integral_quadrature(1, 2, 2, 4, 1e-10)
    assert abs(r.value) <= 1e-10
    closed = _closed(PeriodGrid(2, 3).exact(2, 2))
    r = period_integral_quadrature(2, 3, 2, 2, 1e-10)
    assert r.value == pytest.approx(closed, rel=1e-10)


def test_period_closed_vs_quadrature_spot():
    closed = _closed(PeriodGrid(2, 3).exact(4, 2))
    quad = period_integral_quadrature(2, 3, 4, 2, 1e-10)
    assert closed != 0
    assert abs(closed - quad.value) <= 1e-8 * abs(closed)


def test_period_dichotomy_small_grid():
    for p, q in [(1, 2), (2, 3)]:
        for n in range(0, 7, 2):
            for k in range(0, 7, 2):
                closed = _closed(PeriodGrid(p, q).exact(n, k))
                assert (closed != 0) == (k <= n)
                assert (PeriodGrid(p, q).exact(n, k)[0] != 0) == (k <= n)


def test_period_quadrature_determinism():
    a = period_integral_quadrature(2, 4, 4, 2, 1e-10)
    b = period_integral_quadrature(2, 4, 4, 2, 1e-10)
    assert a == b


def test_quaternionic_base_cases():
    r = period_integral_quadrature(1, 2, 0, 0, 1e-10, kind=QUATERNIONIC)
    assert r.value > 0
    r = period_integral_quadrature(1, 2, 2, 0, 1e-10, kind=QUATERNIONIC)
    assert abs(r.value) > r.abs_error_estimate


def test_quaternionic_vanishing_above_diagonal():
    r = period_integral_quadrature(1, 2, 0, 2, 1e-10, kind=QUATERNIONIC)
    assert abs(r.value) <= r.abs_error_estimate


def test_quaternionic_dichotomy_small_grid():
    # the quadrature is judged by its own roundoff bound, not a threshold
    for n in range(0, 5, 2):
        for k in range(0, 5, 2):
            r = period_integral_quadrature(1, 2, n, k, 1e-10, kind=QUATERNIONIC)
            assert (abs(r.value) > r.abs_error_estimate) == (k <= n), (n, k)


def test_period_quadrature_matches_closed_to_degree_cap():
    for p, q, n, k in [(1, 2, 26, 0), (1, 2, MAX_DEGREE, MAX_DEGREE), (3, 20, 14, 14)]:
        closed = _closed(PeriodGrid(p, q).exact(n, k))
        quad = period_integral_quadrature(p, q, n, k, 1e-10)
        assert quad.value == pytest.approx(closed, rel=1e-10), (p, q, n, k)


def test_quaternionic_quadrature_converges_to_degree_cap():
    for n, k in [(30, 30), (MAX_DEGREE, 0)]:
        r = period_integral_quadrature(2, 5, n, k, 1e-10, kind=QUATERNIONIC)
        error = abs(r.value - _closed(PeriodGrid(2, 5, QUATERNIONIC).exact(n, k)))
        assert error <= r.abs_error_estimate, (n, k)


def test_quaternionic_quadrature_matches_closed_grid():
    for n in range(0, 21, 2):
        for k in range(0, n + 1, 2):
            closed = _closed(PeriodGrid(2, 5, QUATERNIONIC).exact(n, k))
            quad = period_integral_quadrature(2, 5, n, k, 1e-10, kind=QUATERNIONIC)
            assert quad.value == pytest.approx(closed, rel=1e-9), (n, k)


# exact oracle polynomials, each built once
_coeffs = lru_cache(maxsize=None)(jacobi_coeffs)


def _complex_expansion(n, k, alpha):
    return weighted_pairing(_coeffs(n, alpha + 1), _coeffs(k, alpha), alpha)


def _quaternionic_expansion(q, n, k):
    big = _coeffs(n, 2 * q - 1, 1)
    small = _coeffs(k, 2 * q - 3, 1)
    return weighted_pairing(big, small, 2 * q - 3, 1)


def test_angular_exact_matches_expansion_small_grid():
    for q in (2, 3, 5):
        for n in range(0, 9, 2):
            for k in range(0, 9, 2):
                assert _angular_exact(q, n, k) == _complex_expansion(n, k, q - 2)
                quaternionic = _angular_exact(q, n, k, kind=QUATERNIONIC)
                assert quaternionic == _quaternionic_expansion(q, n, k)


even_label = st.integers(min_value=0, max_value=15).map(lambda half: 2 * half)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10), even_label, even_label)
def test_complex_angular_exact_matches_expansion(alpha, n, k):
    assert _angular_exact(alpha + 2, n, k) == _complex_expansion(n, k, alpha)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), even_label, even_label)
def test_quaternionic_angular_exact_matches_expansion(q, n, k):
    # Jacobi alpha = 2q - 3 stays within 1..9
    assert _angular_exact(q, n, k, kind=QUATERNIONIC) == _quaternionic_expansion(q, n, k)


def test_angular_exact_matches_expansion_at_degree_cap():
    top = MAX_DEGREE
    # (64, 2) at alpha = 18 is about 8e-17 of its Cauchy-Schwarz scale, yet nonzero
    for n, k, alpha in [(top, 0, 30), (top, 2, 18), (top, top - 2, 0), (top - 2, top, 7)]:
        assert _angular_exact(alpha + 2, n, k) == _complex_expansion(n, k, alpha)
    for n, k, q in [(top, top, 2), (top, 0, 16), (top - 2, top, 5)]:
        assert _angular_exact(q, n, k, kind=QUATERNIONIC) == _quaternionic_expansion(q, n, k)


def test_angular_exact_dichotomy_to_degree_24():
    for n in range(0, 25, 2):
        for k in range(0, 25, 2):
            for q in (2, 3, 5, 8):
                for kind in (COMPLEX, QUATERNIONIC):
                    assert (_angular_exact(q, n, k, kind) != 0) == (k <= n), (kind, q, n, k)


def test_period_route_matches_family_literals():
    labels = range(0, 17, 2)
    for kind, (radial_args, angular_args) in _FAMILY_LITERALS.items():
        for q in range(2, 9):
            for n in labels:
                for k in labels:
                    for p in range(1, q):
                        args = (radial_args(p, q, n, k), angular_args(q))
                        assert PeriodGrid(p, q, kind).args(n, k) == args, (kind, p, q, n, k)
                        got = _closed(PeriodGrid(p, q, kind).exact(n, k))
                        assert got == float(_exact_period(p, q, n, k, kind)), (kind, p, q, n, k)


def _exact_period(p, q, n, k, kind):
    """The exact period as a Fraction: the radial factor in its factorial
    form (DLMF 5.12.1) times the pairing."""
    radial_args, angular_args = _FAMILY_LITERALS[kind]
    angular = Fraction(*jacobi_pairing(n, k, *angular_args(q)))
    return forms.radial(*radial_args(p, q, n, k)) * angular


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([COMPLEX, QUATERNIONIC]),
    st.integers(min_value=2, max_value=20).flatmap(
        lambda q: st.tuples(st.integers(min_value=1, max_value=q - 1), st.just(q))
    ),
    st.integers(min_value=0, max_value=16).map(lambda half: 2 * half),
    st.integers(min_value=0, max_value=16).map(lambda half: 2 * half),
)
def test_period_exact_matches_the_oracle_product(kind, pq, n, k):
    # both factors from the oracle alone: the radial integral term by term,
    # the angular pairing from explicit-sum Jacobi coefficients by monomial
    # integration; no production formula enters
    p, q = pq
    radial_args, angular_args = _FAMILY_LITERALS[kind]
    alpha, beta, shift = angular_args(q)
    angular = weighted_pairing(
        jacobi_coeffs(n, alpha + shift, beta), jacobi_coeffs(k, alpha, beta), alpha, beta
    )
    want = radial_integral_monomial(*radial_args(p, q, n, k)) * angular
    assert Fraction(*PeriodGrid(p, q, kind).exact(n, k)) == want


def test_period_exact_and_closed_match_literals_to_degree_cap():
    # the closed value is the exact period rounded once, on both families
    labels = range(0, MAX_DEGREE + 1, 2)
    for p, q, kind in [(1, 2, COMPLEX), (3, 20, COMPLEX), (2, 5, QUATERNIONIC)]:
        for n in labels:
            for k in labels:
                exact = PeriodGrid(p, q, kind).exact(n, k)
                assert Fraction(*exact) == _exact_period(p, q, n, k, kind), (p, q, kind, n, k)
                assert _closed(exact) == float(Fraction(*exact))


# the six 64x64 grids whose quadrature resolution ROADMAP item 2 counts
_SIX_GRIDS = [
    (1, 2, COMPLEX), (2, 5, QUATERNIONIC), (3, 20, COMPLEX),
    (3, 20, QUATERNIONIC), (1, 262, QUATERNIONIC), (1, 522, COMPLEX),
]


def test_record_reads_the_exact_ratio_on_the_six_grids():
    # a record's closed value is the exact ratio rounded once, as a Fraction
    # would round it, and its vanishing flag is whether the numerator is
    # nonzero, which is k <= n; the quadrature is left out, as it reads
    # neither: it is stubbed as the closed value with a zero bound, which
    # resolves every period
    labels = range(0, MAX_DEGREE + 1, 2)
    for p, q, kind in _SIX_GRIDS:
        grid = PeriodGrid(p, q, kind)
        grid.quadrature = lambda n, k, grid=grid: QuadratureResult(
            _closed(grid.exact(n, k)), 0.0, 0
        )
        for n in labels:
            for k in labels:
                num, den = grid.exact(n, k)
                record = grid.record(n, k)
                assert record["closed"] == float(Fraction(num, den)), (p, q, kind, n, k)
                assert record["nonvanishing"] is (num != 0) is (k <= n), (p, q, kind, n, k)


def test_record_refuses_a_period_its_quadrature_does_not_resolve():
    # a nonzero period needs its quadrature's bound below the quadrature's
    # magnitude and the closed value within the bound plus one ulp of it:
    # each clause refuses a quadrature that the other passes.  A zero period
    # is not gated here, as the exact verdict only picks the gate
    grid = PeriodGrid(1, 2)
    closed = _closed(grid.exact(4, 2))
    up2 = nextafter(nextafter(closed, inf), inf)  # closed + 2 ulp
    up3 = nextafter(up2, inf)
    cases = [
        (closed, 0.0, True),
        (up2, ulp(closed), True),  # off by the bound plus one ulp, exactly
        (up3, ulp(closed), False),  # off by one ulp more
        (closed, closed, False),  # a bound as large as the value
        (-closed, 2 * closed, False),  # both
        (2 * closed, closed / 2, False),  # a small bound, off by the value
    ]
    for value, bound, resolved in cases:
        grid.quadrature = lambda n, k, value=value, bound=bound: QuadratureResult(value, bound, 0)
        if resolved:
            record = grid.record(4, 2)
            assert (record["quadrature"], record["quadrature_error"]) == (value, bound)
            continue
        with pytest.raises(ConvergenceError, match="^quadrature .* does not resolve the closed"):
            grid.record(4, 2)
    grid.quadrature = lambda n, k: QuadratureResult(1.0, 2.0, 0)
    assert grid.record(2, 4)["nonvanishing"] is False


def test_angular_scale_is_the_cauchy_schwarz_bound():
    # sqrt(||P_n^(alpha+shift,beta)||^2 ||P_k^(alpha,beta)||^2) under the
    # unshifted weight, each squared norm from the oracle's coefficients and
    # rounded once: the big polynomial's norm is the shifted one
    for alpha, beta, shift in [(0, 0, 1), (3, 0, 1), (1, 1, 2), (7, 1, 2)]:
        for n, k in [(0, 0), (4, 2), (2, 4), (6, 0), (0, 6)]:
            big = _coeffs(n, alpha + shift, beta)
            small = _coeffs(k, alpha, beta)
            big_sq = weighted_pairing(big, big, alpha, beta)
            small_sq = weighted_pairing(small, small, alpha, beta)
            want = sqrt(float(big_sq) * float(small_sq))
            assert _angular_scale(n, k, alpha, beta, shift) == want, (n, k, alpha, beta, shift)


def test_angular_factor_is_gated_before_the_radial_rule_is_built(monkeypatch):
    # at the quaternionic cap the angular scale at n = k = 64 is not finite,
    # and at tol 1e-300 both factors fail their gates: either way the record
    # is refused by its angular factor, before the radial factor is built
    built = []
    monkeypatch.setattr(periods, "_radial_quadrature", lambda *args: built.append(args))
    with pytest.raises(ConvergenceError, match="^angular Cauchy-Schwarz scale inf is not finite$"):
        PeriodGrid(1, periods.MAX_Q_QUATERNIONIC, QUATERNIONIC).quadrature(64, 64)
    with pytest.raises(ConvergenceError, match="^angular quadrature bound"):
        PeriodGrid(1, 2, tol=1e-300).quadrature(4, 2)
    assert built == []


def test_period_quadrature_error_bounds_exact_error_to_degree_cap():
    # every record of the full 64 grids, which hold both benchmark grids
    # ((1,2) complex to 24, (2,5) quaternionic to 20); at (1,2) the records
    # with k = n + 2 put the nodes on the zeros of P_k, so that every node
    # value is roundoff and only the scale floor bounds the error; each
    # signature is one PeriodGrid, whose sweeps and radial factors its
    # records share, as `table period` does
    labels = range(0, MAX_DEGREE + 1, 2)
    for p, q, kind in [(1, 2, COMPLEX), (3, 20, COMPLEX), (2, 5, QUATERNIONIC)]:
        grid = PeriodGrid(p, q, kind)
        for n in labels:
            for k in labels:
                quad = grid.quadrature(n, k)
                error = abs(Fraction(quad.value) - _exact_period(p, q, n, k, kind))
                assert error <= Fraction(quad.abs_error_estimate), (p, q, kind, n, k)


def test_oracle_radial_quadrature_matches_closed_form():
    # the oracle's term-by-term radial integral against the factorial form
    # of the period route, exactly, at the quaternionic radial exponents of
    # the periods that criterion 12 and the degree-cap tests above integrate
    labels = range(0, 7, 2)
    cases = [(p, q, n, k) for p, q in ((1, 2), (1, 3)) for n in labels for k in labels]
    cases += [(2, 5, 30, 30), (2, 5, MAX_DEGREE, 0)]
    radial_args = _FAMILY_LITERALS[QUATERNIONIC][0]
    for p, q, n, k in cases:
        alpha, beta = radial_args(p, q, n, k)
        exact = Fraction(*radial_integral_exact(alpha, beta))
        assert radial_integral_monomial(alpha, beta) == exact, (p, q, n, k)


def test_period_functions_reject_octonionic():
    kind = "octonionic"
    calls = [
        lambda: PeriodGrid(1, 2, kind).exact(0, 0),
        lambda: period_integral_quadrature(1, 2, 0, 0, kind=kind),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="octonionic"):
            call()


def test_period_records_do_not_depend_on_the_grid():
    # every record of the two benchmark grids, once on one grid that shares
    # its sweeps and radial factors across records and once on a grid of its
    # own: a sweep or factor shared between records it does not serve would
    # move a record's floats
    fields = ("closed", "quadrature", "quadrature_error")
    for p, q, kind, top in [(1, 2, COMPLEX, 24), (2, 5, QUATERNIONIC, 20)]:
        grid = PeriodGrid(p, q, kind)
        labels = range(0, top + 1, 2)
        for n in labels:
            for k in labels:
                shared, alone = grid.record(n, k), PeriodGrid(p, q, kind).record(n, k)
                assert [shared[f] for f in fields] == [alone[f] for f in fields], (kind, n, k)


def test_period_grid_refuses_at_construction():
    # each fault is refused when the grid is built, before any label is
    # read, with the type and text the period functions give it
    cases = [
        (dict(tol=0.0), ValueError, "tol must be positive and finite"),
        (dict(tol=nan), ValueError, "tol must be positive and finite"),
        (dict(p=2), PreconditionError, "need integer signature with q > p > 0, got (2, 2)"),
        (dict(p=0), PreconditionError, "need integer signature with q > p > 0, got (0, 2)"),
        (dict(kind="octonionic"), ValueError, "unknown family 'octonionic'"),
        (dict(q=523), PreconditionError, "q = 523 exceeds the signature cap MAX_Q_COMPLEX = 522"),
        (
            dict(q=266, kind=QUATERNIONIC),
            PreconditionError,
            "q = 266 exceeds the signature cap MAX_Q_QUATERNIONIC = 265",
        ),
    ]
    for fault, error, text in cases:
        args = {"p": 1, "q": 2, "kind": COMPLEX, "tol": 1e-10, **fault}
        with pytest.raises(error) as info:
            PeriodGrid(**args)
        assert type(info.value) is error and str(info.value) == text, fault
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            period_integral_quadrature(args["p"], args["q"], 0, 0, args["tol"], args["kind"])
    # with several faults, the first of tol, signature, family, cap is refused
    with pytest.raises(ValueError, match="^tol must"):
        PeriodGrid(600, 600, "octonionic", 0.0)
    with pytest.raises(PreconditionError, match="^need integer signature"):
        PeriodGrid(600, 600, "octonionic")
    with pytest.raises(ValueError, match="^unknown family"):
        PeriodGrid(1, 600, "octonionic")
    # and the labels only when a period is asked for
    grid = PeriodGrid(1, 2)
    with pytest.raises(PreconditionError, match="^labels must be even"):
        grid.args(1, 0)
    with pytest.raises(ValueError, match="^degree 66 exceeds"):
        grid.exact(0, 66)


def _exact_scale_sq(q, n, k, kind):
    """The angular scale's square at q, n, k as a Fraction: the product of
    the two exact squared norms it rounds."""
    alpha, beta, shift = _FAMILY_LITERALS[kind][1](q)
    big = Fraction(*jacobi_shifted_norm_sq(n, alpha, beta, shift))
    return big * Fraction(*jacobi_shifted_norm_sq(k, alpha, beta, 0))


def test_each_cap_is_the_float_scale_boundary():
    # the scale does not depend on p: at the cap it is finite at labels
    # (0, 0), and one above the cap it is not finite, or its int / int
    # raises, even at the labels where it is smallest, so at any labels
    caps = {COMPLEX: periods.MAX_Q_COMPLEX, QUATERNIONIC: periods.MAX_Q_QUATERNIONIC}
    smallest = {COMPLEX: (0, MAX_DEGREE), QUATERNIONIC: (0, 0)}
    labels = [(n, k) for n in range(0, MAX_DEGREE + 1, 2) for k in range(0, MAX_DEGREE + 1, 2)]
    for kind, cap in caps.items():
        angular_args = _FAMILY_LITERALS[kind][1]
        assert _angular_scale(0, 0, *angular_args(cap)) < inf, kind
        lowest = min(labels, key=lambda nk: _exact_scale_sq(cap + 1, *nk, kind))
        assert lowest == smallest[kind], kind
        try:
            scale = _angular_scale(*lowest, *angular_args(cap + 1))
        except OverflowError:
            scale = inf
        assert not scale < inf, kind


def test_records_at_the_cap_meet_only_the_two_known_refusals():
    # at each cap, for p = 1, q // 2 and q - 1 and label pairs from (0, 0) to
    # (64, 64), a record is finite (valid JSON) or refused by one of two
    # gates: the record's own resolution gate, or the angular scale check,
    # which the quaternionic band q = 263 to 265 reaches; no overflow or
    # allocation failure is left below the cap
    gates = [
        r"quadrature \S+ \(bound \S+\) does not resolve the closed value \S+",
        r"angular Cauchy-Schwarz scale inf is not finite",
    ]
    labels = [(0, 0), (2, 0), (8, 2), (24, 24), (64, 0), (0, 64), (64, 64), (32, 16)]
    seen = set()
    for kind, q in [(COMPLEX, periods.MAX_Q_COMPLEX), (QUATERNIONIC, periods.MAX_Q_QUATERNIONIC)]:
        for p in (1, q // 2, q - 1):
            grid = PeriodGrid(p, q, kind)
            for n, k in labels:
                try:
                    record = grid.record(n, k)
                except ConvergenceError as exc:
                    matched = [gate for gate in gates if re.fullmatch(gate, str(exc))]
                    assert matched, (kind, p, n, k, str(exc))
                    seen.update(matched)
                    continue
                values = [record[f] for f in ("closed", "quadrature", "quadrature_error")]
                assert all(map(isfinite, values)), (kind, p, n, k, record)
    assert seen == set(gates)
