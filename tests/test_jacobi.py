from array import array
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from relbranch.jacobi import (
    MAX_DEGREE,
    _recurrence_ratios,
    connection_coeff,
    jacobi_norm_sq,
    jacobi_pairing,
    jacobi_shifted_norm_sq,
    jacobi_values,
)
from relbranch.oracle import jacobi_coeffs, normalization_at_one, weighted_pairing

# exact oracle polynomials, each built once
_coeffs = lru_cache(maxsize=None)(jacobi_coeffs)


def _expansion(n, alpha, beta, shift):
    """d_0..d_n with P_n^(alpha+shift,beta) = sum_j d_j P_j^(alpha,beta)."""
    return tuple(connection_coeff(n, j, alpha, beta, shift) for j in range(n + 1))


def _eval_exact(coeffs, x):
    """Exact Horner evaluation of ascending coefficients at a rational x."""
    xf = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * xf + c
    return acc


def _inner_product(m, k, alpha):
    """Exact integral of P_m^(alpha+1,0) P_k^(alpha,0) (1-x)^alpha over [-1, 1]."""
    return weighted_pairing(_coeffs(m, alpha + 1), _coeffs(k, alpha), alpha)


def test_degree_zero_is_constant_one():
    for alpha, beta in [(0, 0), (3, 1), (Fraction(5, 2), Fraction(1, 2)), (7, 3)]:
        assert jacobi_coeffs(0, alpha, beta) == (Fraction(1),)


def test_legendre_degree_two():
    assert jacobi_coeffs(2, 0, 0) == (Fraction(-1, 2), Fraction(0), Fraction(3, 2))


def test_value_at_one_normalization():
    for n in range(0, 11):
        for alpha in range(0, 9):
            for beta in (0, 1, 3):
                assert sum(jacobi_coeffs(n, alpha, beta)) == normalization_at_one(n, alpha), (
                    n, alpha, beta,
                )


def test_values_at_one_match_normalization():
    # the production recurrence at x = 1, against the exact normalization
    for n in range(0, MAX_DEGREE + 1):
        for alpha in [*range(0, 9), 30, 125]:
            want = float(normalization_at_one(n, alpha))
            for beta in (0, 1, 3):
                [got] = jacobi_values(n, alpha, beta, [1.0])
                assert abs(got - want) <= 1e-13 * want, (n, alpha, beta)


def test_leading_coefficient_nonzero():
    for n in range(1, 13):
        for alpha, beta in [(0, 0), (2, 0), (3, 1), (7, 3)]:
            assert jacobi_coeffs(n, alpha, beta)[-1] != 0


def test_eval_examples():
    assert jacobi_values(0, 4, 1, [0.37]) == [1.0]
    assert jacobi_values(2, 0, 0, [0.0]) == [-0.5]
    assert jacobi_values(2, 1, 0, [0.0]) == [-0.5]
    assert jacobi_values(1, 1, 0, [1.0]) == [2.0]  # Gamma(3)/(Gamma(2)Gamma(2))


def test_values_array_shape_and_degree_cap():
    # any sequence of floats gives the list of values at each, node by node
    xs = [-1.0 + i / 3.0 for i in range(7)]
    assert jacobi_values(0, 3, 1, xs) == [1.0] * 7
    pointwise = [value for x in xs for value in jacobi_values(3, 2, 1, [x])]
    assert all(type(value) is float for value in pointwise)
    assert jacobi_values(3, 2, 1, xs) == pointwise
    assert jacobi_values(3, 2, 1, tuple(xs)) == pointwise
    assert jacobi_values(3, 2, 1, array("d", xs)) == pointwise
    assert jacobi_values(3, 2, 1, []) == []
    with pytest.raises(ValueError, match="cap"):
        jacobi_values(MAX_DEGREE + 1, 0, 0, [0.0])
    with pytest.raises(ValueError):
        jacobi_values(-1, 0, 0, [0.0])


def _exact_values(n, alpha, beta, xs):
    coeffs = jacobi_coeffs(n, alpha, beta)
    return [float(_eval_exact(coeffs, Fraction(x))) for x in xs]


def test_values_match_exact_horner():
    xs = [(-1.0 + 2.0 * i / 99.0) for i in range(100)]
    for n, alpha, beta in [(5, 0, 0), (8, 3, 0), (6, 2, 1), (4, 7, 3)]:
        reference = _exact_values(n, alpha, beta, xs)
        got = jacobi_values(n, alpha, beta, xs)
        assert all(
            abs(g - r) <= 1e-12 * max(1.0, abs(r)) for g, r in zip(got, reference, strict=True)
        )


def test_values_match_exact_horner_at_degree_cap():
    # float Horner on the monomial coefficients is off by up to 8.8e5 max|P| here
    xs = [-1.0 + i / 50 for i in range(101)]
    for alpha, beta in [(0, 0), (30, 0), (1, 1), (125, 1)]:
        reference = _exact_values(MAX_DEGREE, alpha, beta, xs)
        got = jacobi_values(MAX_DEGREE, alpha, beta, xs)
        bound = 1e-13 * max(map(abs, reference))
        assert max(abs(g - r) for g, r in zip(got, reference, strict=True)) <= bound, (alpha, beta)


def test_eval_exact():
    assert _eval_exact(jacobi_coeffs(2, 1, 0), 0) == Fraction(-1, 2)
    assert _eval_exact(jacobi_coeffs(1, 1, 0), Fraction(1, 3)) == Fraction(1, 2) + Fraction(3, 2) / 3


def test_degree_cap():
    with pytest.raises(ValueError):
        _expansion(MAX_DEGREE + 1, 0, 0, 0)
    with pytest.raises(ValueError):
        connection_coeff(-1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        jacobi_coeffs(-1, 0, 0)


def test_connection_base_cases():
    assert _expansion(0, 0, 0, 1) == (Fraction(1),)
    assert _expansion(0, 5, 0, 1) == (Fraction(1),)
    assert _expansion(1, 0, 0, 1) == (Fraction(1, 2), Fraction(3, 2))


def test_connection_identity_exact():
    for n in range(0, 13):
        for alpha in range(0, 9):
            cs = _expansion(n, alpha, 0, 1)
            target = _coeffs(n, alpha + 1, 0)
            acc = [Fraction(0)] * (n + 1)
            for k, c in enumerate(cs):
                for i, ci in enumerate(_coeffs(k, alpha, 0)):
                    acc[i] += c * ci
            assert tuple(acc) == target, (n, alpha)


def test_connection_positivity():
    for n in range(0, 13):
        for alpha in range(0, 9):
            assert all(c > 0 for c in _expansion(n, alpha, 0, 1))


def test_weighted_inner_product_examples():
    assert _inner_product(0, 0, 0) == Fraction(2)
    assert _inner_product(2, 4, 1) == 0
    assert _inner_product(3, 5, 0) == 0


def test_weighted_inner_product_dichotomy_and_value():
    for alpha in range(0, 7):
        for m in range(0, 11):
            cs = _expansion(m, alpha, 0, 1)
            for k in range(0, 11):
                got = _inner_product(m, k, alpha)
                if k > m:
                    assert got == 0, (m, k, alpha)
                else:
                    assert got == cs[k] * jacobi_norm_sq(k, alpha), (m, k, alpha)
                    assert got != 0


def test_same_family_orthogonality():
    for alpha in (0, 1, 3):
        for m in range(0, 11):
            pm = _coeffs(m, alpha, 0)
            for k in range(0, 11):
                pk = _coeffs(k, alpha, 0)
                val = weighted_pairing(pm, pk, alpha)
                if m != k:
                    assert val == 0, (m, k, alpha)
                else:
                    assert val == jacobi_norm_sq(m, alpha)


def test_integrate_with_weight_validation():
    with pytest.raises(ValueError):
        weighted_pairing([Fraction(1)], [Fraction(1)], -1)
    with pytest.raises(ValueError):
        weighted_pairing(jacobi_coeffs(1, 0), jacobi_coeffs(1, -1), -1)


def _expanded_pairing(n, k, alpha, beta, shift):
    return weighted_pairing(_coeffs(n, alpha + shift, beta), _coeffs(k, alpha, beta), alpha, beta)


def test_norm_sq_general_beta_matches_expansion():
    for alpha in range(0, 4):
        for beta in (0, 1, 3):
            for k in range(0, 7):
                assert jacobi_norm_sq(k, alpha, beta) == _expanded_pairing(k, k, alpha, beta, 0)


def test_shifted_norm_sq_closed_form_to_degree_cap():
    # against sum_j d_j^2 h_j over the connection expansion, for every degree
    # up to the cap and the alphas of both families' angular pairings
    for shift in (1, 2):
        for beta in (0, 1):
            for alpha in (0, 3, 18, 125):
                for n in range(0, MAX_DEGREE + 1):
                    expanded = sum(
                        d * d * jacobi_norm_sq(j, alpha, beta)
                        for j, d in enumerate(_expansion(n, alpha, beta, shift))
                    )
                    assert jacobi_shifted_norm_sq(n, alpha, beta, shift) == expanded, (
                        n, alpha, beta, shift,
                    )


def test_shifted_norm_sq_matches_oracle_and_validates():
    for shift in (1, 2):
        for alpha, beta in [(0, 0), (2, 1), (3, 0), (1, 3)]:
            for n in range(0, 7):
                big = _coeffs(n, alpha + shift, beta)
                want = weighted_pairing(big, big, alpha, beta)
                assert jacobi_shifted_norm_sq(n, alpha, beta, shift) == want, (n, alpha, shift)
    with pytest.raises(ValueError, match="cap"):
        jacobi_shifted_norm_sq(MAX_DEGREE + 1, 0, 0, 1)
    with pytest.raises(ValueError, match="shift"):
        jacobi_shifted_norm_sq(2, 0, 0, 3)
    with pytest.raises(ValueError):
        jacobi_shifted_norm_sq(2, -1, 0, 1)


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
            cs = _expansion(n, alpha, 0, 1)
            for k in range(0, n + 1):
                assert jacobi_pairing(n, k, alpha, 0, 1) == cs[k] * jacobi_norm_sq(k, alpha)


def test_connection_expansion_identity_exact():
    for alpha, beta in [(0, 0), (2, 1), (3, 2)]:
        for shift in (0, 1, 2, 3):
            for n in range(0, 7):
                ds = _expansion(n, alpha, beta, shift)
                acc = [Fraction(0)] * (n + 1)
                for j, d in enumerate(ds):
                    for i, c in enumerate(_coeffs(j, alpha, beta)):
                        acc[i] += d * c
                assert tuple(acc) == _coeffs(n, alpha + shift, beta)
                if shift:
                    assert all(d > 0 for d in ds)


def test_connection_coeff_endpoint_identities_to_degree_cap():
    # P_j^(alpha,beta)(1) = C(j+alpha, j) and P_j^(alpha,beta)(-1) = (-1)^j C(j+beta, j),
    # so the expansion must reproduce P_n^(alpha+shift,beta) at both endpoints
    for n in [*range(0, 13), 24, 40, MAX_DEGREE]:
        for alpha in (0, 1, 3, 7, 18, 125):
            for beta in (0, 1, 3):
                for shift in (1, 2, 3):
                    case = (n, alpha, beta, shift)
                    ds = _expansion(n, alpha, beta, shift)
                    assert all(d > 0 for d in ds), case
                    at_one = sum(d * comb(j + alpha, j) for j, d in enumerate(ds))
                    assert at_one == comb(n + alpha + shift, n), case
                    at_minus_one = sum(d * (-1) ** j * comb(j + beta, j) for j, d in enumerate(ds))
                    assert at_minus_one == (-1) ** n * comb(n + beta, n), case


def test_connection_expansion_validation():
    with pytest.raises(ValueError, match="cap"):
        _expansion(MAX_DEGREE + 1, 0, 0, 1)
    with pytest.raises(ValueError):
        _expansion(2, -1, 0, 1)
    with pytest.raises(ValueError):
        _expansion(2, 0, 0, -1)


def test_connection_coeff_rejects_negative_degree():
    # with beta >= 1 every factorial of the formula is defined at k = -1
    with pytest.raises(ValueError, match="nonnegative"):
        connection_coeff(2, -1, 1, 1, 1)


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


def _fraction_ratios(alpha, beta):
    """The rows of _recurrence_ratios, each ratio an exact Fraction rounded
    once by float()."""
    rows = [(Fraction(alpha - beta, 2), Fraction(alpha + beta + 2, 2), Fraction(0))]
    for m in range(2, MAX_DEGREE + 1):
        s = 2 * m + alpha + beta
        c1 = 2 * m * (m + alpha + beta) * (s - 2)
        c2 = (s - 1) * (alpha * alpha - beta * beta)
        c3 = (s - 1) * s * (s - 2)
        c4 = 2 * (m + alpha - 1) * (m + beta - 1) * s
        rows.append(tuple(Fraction(c) / c1 for c in (c2, c3, c4)))
    return tuple(tuple(float(r) for r in row) for row in rows)


def test_recurrence_ratios_are_the_exact_ratios_rounded_once():
    # integer alpha and beta are divided as ints, and each entry is the
    # float nearest the exact ratio
    pairs = [(alpha, beta) for alpha in range(0, 1100, 7) for beta in range(4)]
    for alpha, beta in pairs:
        rows = _recurrence_ratios(alpha, beta)
        assert len(rows) == MAX_DEGREE
        assert all(type(r) is float for row in rows for r in row), (alpha, beta)
        assert rows == _fraction_ratios(alpha, beta), (alpha, beta)
