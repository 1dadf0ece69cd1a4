from fractions import Fraction

import pytest

from relbranch.jacobi import (
    MAX_DEGREE,
    connection_coeffs,
    integrate_with_weight,
    jacobi_eval,
    jacobi_eval_exact,
    jacobi_norm_sq,
    jacobi_pairing,
    jacobi_poly,
    jacobi_recurrence_eval,
    normalization_at_one,
    poly_mul,
    weighted_inner_product,
)


def test_degree_zero_is_constant_one():
    for alpha, beta in [(0, 0), (3, 1), (Fraction(5, 2), Fraction(1, 2)), (7, 3)]:
        p = jacobi_poly(0, alpha, beta)
        assert p.coeffs == (Fraction(1),)


def test_legendre_degree_two():
    p = jacobi_poly(2, 0, 0)
    assert p.coeffs == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))


def test_value_at_one_normalization():
    for n in range(0, 11):
        for alpha in range(0, 9):
            for beta in (0, 1, 3):
                p = jacobi_poly(n, alpha, beta)
                assert p.value_at_one() == normalization_at_one(n, alpha), (n, alpha, beta)


def test_leading_coefficient_nonzero():
    for n in range(1, 13):
        for alpha, beta in [(0, 0), (2, 0), (3, 1), (7, 3)]:
            assert jacobi_poly(n, alpha, beta).coeffs[-1] != 0


def test_eval_examples():
    assert jacobi_eval(jacobi_poly(0, 4, 1), 0.37) == 1.0
    assert jacobi_eval(jacobi_poly(2, 0, 0), 0.0) == -0.5
    assert jacobi_eval(jacobi_poly(1, 1, 0), 1.0) == 2.0  # Gamma(3)/(Gamma(2)Gamma(2))


def test_eval_matches_direct_recurrence():
    xs = [(-1.0 + 2.0 * i / 99.0) for i in range(100)]
    for n, alpha, beta in [(5, 0, 0), (8, 3, 0), (6, 2, 1), (4, 7, 3)]:
        for x in xs:
            via_coeffs = jacobi_eval(jacobi_poly(n, alpha, beta), x)
            via_recurrence = jacobi_recurrence_eval(n, alpha, beta, x)
            assert abs(via_coeffs - via_recurrence) <= 1e-12 * max(1.0, abs(via_recurrence))


def test_eval_exact():
    assert jacobi_eval_exact(jacobi_poly(2, 1, 0), 0) == Fraction(-1, 2)
    assert jacobi_eval_exact(jacobi_poly(1, 1, 0), Fraction(1, 3)) == Fraction(1, 2) + Fraction(3, 2) / 3


def test_degree_cap():
    with pytest.raises(ValueError):
        jacobi_poly(MAX_DEGREE + 1, 0, 0)
    with pytest.raises(ValueError):
        jacobi_poly(-1, 0, 0)


def test_connection_base_cases():
    assert connection_coeffs(0, 0) == (Fraction(1),)
    assert connection_coeffs(0, 5) == (Fraction(1),)
    assert connection_coeffs(1, 0) == (Fraction(1, 2), Fraction(3, 2))


def test_connection_identity_exact():
    for n in range(0, 13):
        for alpha in range(0, 9):
            cs = connection_coeffs(n, alpha)
            target = jacobi_poly(n, alpha + 1, 0).coeffs
            acc = [Fraction(0)] * (n + 1)
            for k, c in enumerate(cs):
                for i, ci in enumerate(jacobi_poly(k, alpha, 0).coeffs):
                    acc[i] += c * ci
            assert tuple(acc) == target, (n, alpha)


def test_connection_positivity():
    for n in range(0, 13):
        for alpha in range(0, 9):
            assert all(c > 0 for c in connection_coeffs(n, alpha))


def test_weighted_inner_product_examples():
    assert weighted_inner_product(0, 0, 0) == Fraction(2)
    assert weighted_inner_product(2, 4, 1) == 0
    assert weighted_inner_product(3, 5, 0) == 0


def test_weighted_inner_product_dichotomy_and_value():
    for alpha in range(0, 7):
        for m in range(0, 11):
            cs = connection_coeffs(m, alpha)
            for k in range(0, 11):
                got = weighted_inner_product(m, k, alpha)
                if k > m:
                    assert got == 0, (m, k, alpha)
                else:
                    assert got == cs[k] * jacobi_norm_sq(k, alpha), (m, k, alpha)
                    assert got != 0


def test_same_family_orthogonality():
    for alpha in (0, 1, 3):
        for m in range(0, 11):
            pm = jacobi_poly(m, alpha, 0)
            for k in range(0, 11):
                pk = jacobi_poly(k, alpha, 0)
                val = integrate_with_weight(poly_mul(pm.coeffs, pk.coeffs), alpha)
                if m != k:
                    assert val == 0, (m, k, alpha)
                else:
                    assert val == jacobi_norm_sq(m, alpha)


def test_integrate_with_weight_validation():
    with pytest.raises(ValueError):
        integrate_with_weight([Fraction(1)], -1)
    with pytest.raises(ValueError):
        weighted_inner_product(1, 1, -1)


def _expanded_pairing(n, k, alpha, beta, shift):
    big = jacobi_poly(n, alpha + shift, beta).coeffs
    small = jacobi_poly(k, alpha, beta).coeffs
    return integrate_with_weight(poly_mul(big, small), alpha, beta)


def test_norm_sq_general_beta_matches_expansion():
    for alpha in range(0, 4):
        for beta in (0, 1, 3):
            for k in range(0, 7):
                assert jacobi_norm_sq(k, alpha, beta) == _expanded_pairing(k, k, alpha, beta, 0)


def test_jacobi_pairing_matches_expansion_small_grid():
    for alpha in (0, 3):
        for beta in (0, 1, 2):
            for shift in (1, 2):
                for n in range(0, 7):
                    for k in range(0, 7):
                        got = jacobi_pairing(n, k, alpha, beta, shift)
                        assert got == _expanded_pairing(n, k, alpha, beta, shift), (
                            n, k, alpha, beta, shift,
                        )
                        assert (got != 0) == (k <= n)


def test_jacobi_pairing_shift_one_beta_zero_is_connection_times_norm():
    for alpha in range(0, 7):
        for n in range(0, 11):
            cs = connection_coeffs(n, alpha)
            for k in range(0, n + 1):
                assert jacobi_pairing(n, k, alpha, 0, 1) == cs[k] * jacobi_norm_sq(k, alpha)


def test_jacobi_pairing_validation():
    with pytest.raises(ValueError, match="cap"):
        jacobi_pairing(MAX_DEGREE + 2, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="cap"):
        jacobi_pairing(0, MAX_DEGREE + 2, 0, 0, 1)
    with pytest.raises(ValueError):
        jacobi_pairing(2, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        jacobi_pairing(2, 0, 0, -1, 1)
    with pytest.raises(ValueError):
        jacobi_pairing(2, 0, 0, 0, 3)
    assert jacobi_pairing(MAX_DEGREE, MAX_DEGREE, 0, 0, 2) > 0
