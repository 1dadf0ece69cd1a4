import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbranch.jacobi import (
    MAX_DEGREE,
    integrate_with_weight,
    jacobi_eval,
    jacobi_poly,
    normalization_at_one,
    poly_mul,
    weighted_inner_product,
)
from relbranch.periods import (
    COMPLEX,
    QUATERNIONIC,
    FJFunction,
    PreconditionError,
    UnsupportedFamilyError,
    complex_family,
    fj_eval,
    octonionic_family,
    period_angular_exact,
    period_integral_closed,
    period_integral_quadrature,
    period_nonvanishing,
    quaternionic_angular_exact,
    quaternionic_family,
    quaternionic_period_quadrature,
    quaternionic_period_scale,
    radial_cosh_power,
)


def test_complex_family_data():
    fam = complex_family(1, 2)
    assert fam.jacobi_alpha == 1 and fam.jacobi_beta == 0
    assert fam.rho == 3 and fam.rho_t == 2
    assert fam.density_cosh_power == 3 and fam.density_sinh_power == 1
    assert fam.spectral_exponent(0) == 4
    assert fam.spectral_exponent(2) == 6


def test_quaternionic_family_data():
    fam = quaternionic_family(1, 2)
    assert fam.jacobi_alpha == 3 and fam.jacobi_beta == 1
    assert fam.rho == 7 and fam.rho_t == 3
    assert fam.density_cosh_power == 11 and fam.density_sinh_power == 3
    assert fam.spectral_exponent(0) == 10
    assert fam.spectral_exponent(4) == 14


def test_octonionic_family_compact_only():
    fam = octonionic_family()
    assert fam.jacobi_alpha == 7 and fam.jacobi_beta == 3
    with pytest.raises(UnsupportedFamilyError):
        fam.rho
    with pytest.raises(UnsupportedFamilyError):
        fam.spectral_exponent(0)
    with pytest.raises(UnsupportedFamilyError):
        fj_eval(FJFunction(fam, 0), 1.0, 0.5)
    # the compact spherical polynomials themselves are available
    assert jacobi_poly(4, 7, 3).value_at_one() == normalization_at_one(4, 7)


def test_family_validation():
    with pytest.raises(ValueError):
        complex_family(0, 2)
    with pytest.raises(ValueError):
        quaternionic_family(1, 0)


def test_fj_label_must_be_even():
    with pytest.raises(ValueError):
        FJFunction(complex_family(1, 2), 3)
    with pytest.raises(ValueError):
        FJFunction(complex_family(1, 2), -2)


def test_fj_eval_trivial_cases():
    fam = complex_family(1, 2)
    assert fj_eval(FJFunction(fam, 0), 0.0, 1.0) == 1.0
    assert fj_eval(FJFunction(fam, 0), 0.0, -0.3) == 1.0


def test_fj_eval_label_is_degree():
    # label n = 2 evaluates the degree-2 polynomial of the family
    fam = complex_family(1, 2)
    value = fj_eval(FJFunction(fam, 2), 1.0, 0.0)
    expected = math.cosh(1.0) ** (-6) * jacobi_eval(jacobi_poly(2, 1, 0), 0.0)
    assert value == pytest.approx(expected, rel=1e-14)
    assert jacobi_eval(jacobi_poly(2, 1, 0), 0.0) == -0.5


def test_fj_eval_decay_slope():
    # log f(s) ~ -(2q+n) s for large s; slope between s=5 and s=10 within 1%
    for p, q, n in [(1, 2, 0), (1, 2, 4), (2, 3, 2), (3, 4, 6)]:
        f = FJFunction(complex_family(p, q), n)
        lo, hi = 5.0, 10.0
        slope = (math.log(fj_eval(f, hi, 1.0)) - math.log(fj_eval(f, lo, 1.0))) / (hi - lo)
        assert abs(slope / (2 * q + n) + 1.0) <= 0.01


def test_radial_exponent_bookkeeping():
    for p, q in [(1, 2), (2, 3), (3, 4), (1, 4)]:
        for n in range(0, 9, 2):
            for k in range(0, 9, 2):
                assert radial_cosh_power(p, q, n, k) == -(2 * q + n + k - 1)
                assert radial_cosh_power(p, q, n, k, kind=QUATERNIONIC) == -(
                    4 * q + n + k - 3
                )


def test_period_preconditions():
    with pytest.raises(PreconditionError):
        period_integral_closed(2, 2, 0, 0)
    with pytest.raises(PreconditionError):
        period_integral_closed(2, 1, 0, 0)
    with pytest.raises(PreconditionError):
        period_integral_closed(1, 2, 1, 0)
    with pytest.raises(PreconditionError):
        period_nonvanishing(1, 2, 0, -2)


def test_period_closed_base_case():
    # A(1,3) * int 1 d(mu) = (1/2) * 2 = 1 in the module normalization
    assert period_integral_closed(1, 2, 0, 0) == pytest.approx(1.0, rel=1e-13)


def test_period_closed_vanishing_case():
    assert period_integral_closed(1, 2, 0, 2) == 0.0
    assert period_angular_exact(2, 0, 2) == Fraction(0)


def test_period_nonvanishing_examples():
    assert period_nonvanishing(1, 2, 4, 2)
    assert not period_nonvanishing(1, 2, 2, 4)
    assert period_nonvanishing(1, 2, 0, 0)


def test_period_quadrature_examples():
    r = period_integral_quadrature(1, 2, 0, 0, 1e-10)
    assert abs(r.value - 1.0) <= 1e-10
    r = period_integral_quadrature(1, 2, 2, 4, 1e-10)
    assert abs(r.value) <= 1e-10
    closed = period_integral_closed(2, 3, 2, 2)
    r = period_integral_quadrature(2, 3, 2, 2, 1e-10)
    assert r.value == pytest.approx(closed, rel=1e-10)


def test_period_closed_vs_quadrature_spot():
    closed = period_integral_closed(2, 3, 4, 2)
    quad = period_integral_quadrature(2, 3, 4, 2, 1e-10)
    assert closed != 0
    assert abs(closed - quad.value) <= 1e-8 * abs(closed)


def test_period_dichotomy_small_grid():
    for p, q in [(1, 2), (2, 3)]:
        for n in range(0, 7, 2):
            for k in range(0, 7, 2):
                closed = period_integral_closed(p, q, n, k)
                assert (closed != 0) == (k <= n)
                assert period_nonvanishing(p, q, n, k) == (k <= n)


def test_period_quadrature_determinism():
    a = period_integral_quadrature(2, 4, 4, 2, 1e-10)
    b = period_integral_quadrature(2, 4, 4, 2, 1e-10)
    assert a == b


def test_quaternionic_base_cases():
    r = quaternionic_period_quadrature(1, 2, 0, 0, 1e-10)
    assert r.value > 0
    r = quaternionic_period_quadrature(1, 2, 2, 0, 1e-10)
    assert abs(r.value) > 1e-9 * quaternionic_period_scale(1, 2, 2, 0)


def test_quaternionic_vanishing_above_diagonal():
    scale = quaternionic_period_scale(1, 2, 0, 2)
    r = quaternionic_period_quadrature(1, 2, 0, 2, 1e-10)
    assert abs(r.value) <= 1e-9 * scale


def test_quaternionic_dichotomy_small_grid():
    for n in range(0, 5, 2):
        for k in range(0, 5, 2):
            value = quaternionic_period_quadrature(1, 2, n, k, 1e-10).value
            scale = quaternionic_period_scale(1, 2, n, k)
            assert (abs(value) > 1e-9 * scale) == (k <= n), (n, k)


def test_radial_cosh_power_rejects_octonionic():
    with pytest.raises(UnsupportedFamilyError):
        radial_cosh_power(1, 2, 0, 0, kind="octonionic")
    assert COMPLEX == "complex"


def test_radial_cosh_power_identities_full_label_range():
    labels = range(0, MAX_DEGREE + 1, 2)
    for q in range(2, 7):
        for p in range(1, q):
            for n in labels:
                for k in labels:
                    assert radial_cosh_power(p, q, n, k) == -(2 * q + n + k - 1)
                    assert radial_cosh_power(p, q, n, k, kind=QUATERNIONIC) == -(
                        4 * q + n + k - 3
                    )


def _quaternionic_expansion(q, n, k):
    big = jacobi_poly(n, 2 * q - 1, 1).coeffs
    small = jacobi_poly(k, 2 * q - 3, 1).coeffs
    return integrate_with_weight(poly_mul(big, small), 2 * q - 3, 1)


def test_angular_exact_matches_expansion_small_grid():
    for q in (2, 3, 5):
        for n in range(0, 9, 2):
            for k in range(0, 9, 2):
                assert period_angular_exact(q, n, k) == weighted_inner_product(n, k, q - 2)
                assert quaternionic_angular_exact(q, n, k) == _quaternionic_expansion(q, n, k)


even_label = st.integers(min_value=0, max_value=15).map(lambda half: 2 * half)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10), even_label, even_label)
def test_complex_angular_exact_matches_expansion(alpha, n, k):
    assert period_angular_exact(alpha + 2, n, k) == weighted_inner_product(n, k, alpha)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), even_label, even_label)
def test_quaternionic_angular_exact_matches_expansion(q, n, k):
    # Jacobi alpha = 2q - 3 stays within 1..9
    assert quaternionic_angular_exact(q, n, k) == _quaternionic_expansion(q, n, k)


def test_angular_exact_matches_expansion_at_degree_cap():
    top = MAX_DEGREE
    # (64, 2) at alpha = 18 is about 8e-17 of its Cauchy-Schwarz scale, yet nonzero
    for n, k, alpha in [(top, 0, 30), (top, 2, 18), (top, top - 2, 0), (top - 2, top, 7)]:
        assert period_angular_exact(alpha + 2, n, k) == weighted_inner_product(n, k, alpha)
    for n, k, q in [(top, top, 2), (top, 0, 16), (top - 2, top, 5)]:
        assert quaternionic_angular_exact(q, n, k) == _quaternionic_expansion(q, n, k)


def test_angular_exact_dichotomy_to_degree_24():
    for n in range(0, 25, 2):
        for k in range(0, 25, 2):
            for q in (2, 3, 5, 8):
                assert (period_angular_exact(q, n, k) != 0) == (k <= n), (q, n, k)
                assert (quaternionic_angular_exact(q, n, k) != 0) == (k <= n), (q, n, k)
