from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbranch.jacobi import MAX_DEGREE, jacobi_pairing
from relbranch.oracle import jacobi_coeffs, weighted_pairing
from relbranch.periods import (
    COMPLEX,
    QUATERNIONIC,
    PreconditionError,
    _period_args,
    closed_value,
    period_integral_exact,
    period_integral_quadrature,
)
from relbranch.oracle import radial_integral_closed, radial_integral_quadrature

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
    """The exact angular factor of a period: the Jacobi pairing at the
    family's literal angular exponents.  Nonzero exactly when k <= n."""
    return jacobi_pairing(n, k, *_FAMILY_LITERALS[kind][1](q))


def test_period_preconditions():
    with pytest.raises(PreconditionError):
        closed_value(period_integral_exact(2, 2, 0, 0))
    with pytest.raises(PreconditionError):
        closed_value(period_integral_exact(2, 1, 0, 0))
    with pytest.raises(PreconditionError):
        closed_value(period_integral_exact(1, 2, 1, 0))
    with pytest.raises(PreconditionError):
        period_integral_exact(1, 2, 0, -2)


def test_period_closed_base_case():
    # A(1,3) * int 1 d(mu) = (1/2) * 2 = 1 in the module normalization
    assert closed_value(period_integral_exact(1, 2, 0, 0)) == pytest.approx(1.0, rel=1e-13)


def test_period_closed_vanishing_case():
    assert closed_value(period_integral_exact(1, 2, 0, 2)) == 0.0
    assert _angular_exact(2, 0, 2) == Fraction(0)


def test_period_nonvanishing_examples():
    assert period_integral_exact(1, 2, 4, 2) != 0
    assert not period_integral_exact(1, 2, 2, 4) != 0
    assert period_integral_exact(1, 2, 0, 0) != 0


def test_period_quadrature_examples():
    r = period_integral_quadrature(1, 2, 0, 0, 1e-10)
    assert abs(r.value - 1.0) <= 1e-10
    r = period_integral_quadrature(1, 2, 2, 4, 1e-10)
    assert abs(r.value) <= 1e-10
    closed = closed_value(period_integral_exact(2, 3, 2, 2))
    r = period_integral_quadrature(2, 3, 2, 2, 1e-10)
    assert r.value == pytest.approx(closed, rel=1e-10)


def test_period_closed_vs_quadrature_spot():
    closed = closed_value(period_integral_exact(2, 3, 4, 2))
    quad = period_integral_quadrature(2, 3, 4, 2, 1e-10)
    assert closed != 0
    assert abs(closed - quad.value) <= 1e-8 * abs(closed)


def test_period_dichotomy_small_grid():
    for p, q in [(1, 2), (2, 3)]:
        for n in range(0, 7, 2):
            for k in range(0, 7, 2):
                closed = closed_value(period_integral_exact(p, q, n, k))
                assert (closed != 0) == (k <= n)
                assert (period_integral_exact(p, q, n, k) != 0) == (k <= n)


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
        closed = closed_value(period_integral_exact(p, q, n, k))
        quad = period_integral_quadrature(p, q, n, k, 1e-10)
        assert quad.value == pytest.approx(closed, rel=1e-10), (p, q, n, k)


def test_quaternionic_quadrature_converges_to_degree_cap():
    for n, k in [(30, 30), (MAX_DEGREE, 0)]:
        r = period_integral_quadrature(2, 5, n, k, 1e-10, kind=QUATERNIONIC)
        error = abs(r.value - closed_value(period_integral_exact(2, 5, n, k, kind=QUATERNIONIC)))
        assert error <= r.abs_error_estimate, (n, k)


def test_quaternionic_quadrature_matches_closed_grid():
    for n in range(0, 21, 2):
        for k in range(0, n + 1, 2):
            closed = closed_value(period_integral_exact(2, 5, n, k, kind=QUATERNIONIC))
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
                        assert _period_args(p, q, n, k, kind) == args, (kind, p, q, n, k)
                        got = closed_value(period_integral_exact(p, q, n, k, kind=kind))
                        assert got == float(_exact_period(p, q, n, k, kind)), (kind, p, q, n, k)


def _exact_period(p, q, n, k, kind):
    """The exact period: the radial factor A = (a-1)! (b-1)! / (2 (a+b-1)!)
    with a = (alpha+1)/2, b = (beta-alpha)/2 (DLMF 5.12.1), times the pairing."""
    radial_args, angular_args = _FAMILY_LITERALS[kind]
    alpha, beta = radial_args(p, q, n, k)
    a, b = (alpha + 1) // 2, (beta - alpha) // 2
    radial = Fraction(factorial(a - 1) * factorial(b - 1), 2 * factorial(a + b - 1))
    return radial * jacobi_pairing(n, k, *angular_args(q))


def test_period_exact_and_closed_match_literals_to_degree_cap():
    # the closed value is the exact period rounded once, on both families
    labels = range(0, MAX_DEGREE + 1, 2)
    for p, q, kind in [(1, 2, COMPLEX), (3, 20, COMPLEX), (2, 5, QUATERNIONIC)]:
        for n in labels:
            for k in labels:
                exact = period_integral_exact(p, q, n, k, kind=kind)
                assert exact == _exact_period(p, q, n, k, kind), (p, q, kind, n, k)
                assert closed_value(exact) == float(exact)


def test_period_quadrature_error_bounds_exact_error_to_degree_cap():
    # every record of the full 64 grids, which hold both benchmark grids
    # ((1,2) complex to 24, (2,5) quaternionic to 20); at (1,2) the records
    # with k = n + 2 put the nodes on the zeros of P_k, so that every node
    # value is roundoff and only the scale floor bounds the error
    labels = range(0, MAX_DEGREE + 1, 2)
    for p, q, kind in [(1, 2, COMPLEX), (3, 20, COMPLEX), (2, 5, QUATERNIONIC)]:
        for n in labels:
            for k in labels:
                quad = period_integral_quadrature(p, q, n, k, kind=kind)
                error = abs(Fraction(quad.value) - _exact_period(p, q, n, k, kind))
                assert error <= Fraction(quad.abs_error_estimate), (p, q, kind, n, k)


def test_oracle_radial_quadrature_matches_closed_form():
    # the oracle's adaptive radial quadrature against its float Beta form, at
    # the quaternionic radial exponents of the periods that criterion 12 and
    # the degree-cap tests above integrate
    labels = range(0, 7, 2)
    cases = [(p, q, n, k) for p, q in ((1, 2), (1, 3)) for n in labels for k in labels]
    cases += [(2, 5, 30, 30), (2, 5, MAX_DEGREE, 0)]
    radial_args = _FAMILY_LITERALS[QUATERNIONIC][0]
    for p, q, n, k in cases:
        alpha, beta = radial_args(p, q, n, k)
        quad = radial_integral_quadrature(alpha, beta, 1e-10).value
        assert quad == pytest.approx(radial_integral_closed(alpha, beta), rel=1e-10), (p, q, n, k)


def test_period_functions_reject_octonionic():
    kind = "octonionic"
    calls = [
        lambda: period_integral_exact(1, 2, 0, 0, kind=kind),
        lambda: period_integral_quadrature(1, 2, 0, 0, kind=kind),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="octonionic"):
            call()
