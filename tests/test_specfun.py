import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relbranch.oracle import (
    DivergenceError,
    DomainError,
    adaptive_quadrature,
    beta,
    beta_argument_evidence,
    log_gamma,
    radial_integral_closed,
    radial_integral_quadrature,
)
from relbranch.specfun import (
    EPS,
    ConvergenceError,
    gauss_legendre,
    gauss_legendre_quadrature,
    radial_integral_exact,
)

# ln(sqrt(pi)) to 16 significant digits, from Gamma(1/2) = sqrt(pi)
LN_SQRT_PI = 0.5723649429247001


def test_log_gamma_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_gamma(0.5) == pytest.approx(LN_SQRT_PI, rel=1e-14)


def test_log_gamma_against_exact_factorials():
    # Gamma(n) = (n-1)! exactly; covers the full x <= 200 accuracy window
    for n in range(2, 171):
        assert log_gamma(float(n)) == pytest.approx(math.log(factorial(n - 1)), rel=1e-13)
    # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
    for n in range(0, 100):
        exact = math.log(factorial(2 * n)) + LN_SQRT_PI - n * math.log(4.0) - math.log(
            factorial(n)
        )
        assert log_gamma(n + 0.5) == pytest.approx(exact, rel=1e-13)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.5)


def test_beta_values():
    assert beta(1, 1) == pytest.approx(1.0, rel=1e-14)
    assert beta(1, 2) == pytest.approx(0.5, rel=1e-14)
    assert beta(2, 2) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_beta_domain():
    with pytest.raises(DomainError):
        beta(0, 1)
    with pytest.raises(DomainError):
        beta(1, -2)


@given(
    st.floats(min_value=0.1, max_value=50, allow_nan=False),
    st.floats(min_value=0.1, max_value=50, allow_nan=False),
)
def test_beta_symmetry(x, y):
    assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-12)


def test_beta_right_unit():
    for x in [0.25, 0.5, 1.0, 3.0, 7.5, 40.0, 123.0]:
        assert abs(beta(x, 1.0) - 1.0 / x) <= 1e-13 / x


def test_gauss_legendre_rule_symmetry_and_moments():
    # sum w x^(2j) = 2/(2j+1) for j < m: the rule is exact to degree 2m - 1
    for m in [*range(1, 101), 128, 200, 263, 300]:
        nodes, weights = gauss_legendre(m)
        assert len(nodes) == len(weights) == m
        assert list(nodes) == sorted(nodes) and all(-1.0 < x < 1.0 for x in nodes)
        assert nodes == tuple(-x for x in reversed(nodes)) and weights == weights[::-1]
        assert abs(math.fsum(weights) - 2.0) <= 100 * EPS, m
        moments = [
            math.fsum(w * x ** (2 * j) for x, w in zip(nodes, weights)) for j in range(m)
        ]
        assert max(abs(moments[j] - 2.0 / (2 * j + 1)) for j in range(m)) <= 300 * EPS, m


def test_gauss_legendre_matches_numpy_leggauss():
    # leggauss takes the nodes as eigenvalues (Golub-Welsch): the one reference
    # that shares no step with the Newton iteration, and the one test using numpy
    import numpy as np

    for m in [*range(1, 65), 83, 128, 263, 300]:
        nodes, weights = gauss_legendre(m)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(m)
        assert np.max(np.abs(np.array(nodes) - ref_nodes)) <= 1e-15, m
        assert np.max(np.abs(np.array(weights) / ref_weights - 1.0)) <= 1e-9, m


def test_gauss_legendre_quadrature_bound_and_failures():
    # int_{-1}^{1} (1 + x)^d dx = 2^(d+1) / (d+1), with the rule of d // 2 + 1 nodes
    for degree in range(0, 130):
        result = gauss_legendre_quadrature(lambda xs: [(1.0 + x) ** degree for x in xs], degree)
        assert result.evaluations == degree // 2 + 1
        assert abs(result.value - 2.0 ** (degree + 1) / (degree + 1)) <= result.abs_error_estimate
    # every node value is zero: the floor is the whole bound
    zero = gauss_legendre_quadrature(lambda xs: [0.0] * len(xs), 4, floor=2.0)
    assert (zero.value, zero.abs_error_estimate) == (0.0, 16 * (3 + 4) * EPS * 2.0)
    for values in ([math.inf, 0.0], [math.nan, 0.0], [1e308, 1e308]):  # 2 nodes at degree 2
        with pytest.raises(ConvergenceError, match="not finite"):
            gauss_legendre_quadrature(lambda xs, values=values: values, 2)


def test_radial_closed_antiderivative_cases():
    # d/dt [-cosh^-2 t / 2] = sinh cosh^-3  =>  A(1,3) = 1/2
    assert radial_integral_closed(1, 3) == pytest.approx(0.5, rel=1e-13)
    # w = cosh t: A(3,7) = int_1^inf (w^-5 - w^-7) dw = 1/4 - 1/6 = 1/12
    assert radial_integral_closed(3, 7) == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_radial_exact_values_domain_and_float_form():
    assert radial_integral_exact(1, 3) == Fraction(1, 2)
    assert radial_integral_exact(3, 7) == Fraction(1, 12)
    # Beta arguments that are not positive integers
    for alpha, beta_exp in [(2, 6), (1, 4), (1, 1), (-1, 3), (1.0, 3)]:
        with pytest.raises(ValueError):
            radial_integral_exact(alpha, beta_exp)
    for alpha in range(1, 20, 2):
        for gap in range(2, 21, 2):
            exact = float(radial_integral_exact(alpha, alpha + gap))
            closed = radial_integral_closed(alpha, alpha + gap)
            assert abs(closed - exact) <= 1e-13 * exact, (alpha, gap)


def test_radial_closed_divergence():
    with pytest.raises(DivergenceError):
        radial_integral_closed(-1.0, 3.0)
    with pytest.raises(DivergenceError):
        radial_integral_closed(2.0, 2.0)


def test_radial_quadrature_known_values():
    r = radial_integral_quadrature(1, 3, 1e-12)
    assert abs(r.value - 0.5) <= 1e-12
    assert r.evaluations >= 1
    r = radial_integral_quadrature(3, 7, 1e-12)
    assert abs(r.value - 1.0 / 12.0) <= 1e-12


def test_radial_quadrature_divergence():
    with pytest.raises(DivergenceError):
        radial_integral_quadrature(0.5, 0.4, 1e-8)
    with pytest.raises(ValueError):
        radial_integral_quadrature(1, 3, 0.0)


def test_radial_quadrature_first_example_pair():
    # the (2p-1, 2q+n+k-1) pair at (p,q,n,k) = (1,2,0,0) is (1,3)
    closed = radial_integral_closed(1, 3)
    quad = radial_integral_quadrature(1, 3, 1e-12)
    assert abs(closed - quad.value) <= 1e-10 * abs(closed)


def test_closed_vs_quadrature_grid():
    for alpha in range(1, 10):
        for gap in range(2, 11, 2):
            beta_exp = alpha + gap
            closed = radial_integral_closed(alpha, beta_exp)
            quad = radial_integral_quadrature(alpha, beta_exp, 1e-12)
            assert abs(closed - quad.value) <= 1e-9 * abs(closed), (alpha, beta_exp)


def test_quadrature_determinism():
    a = radial_integral_quadrature(2.5, 7.25, 1e-12)
    b = radial_integral_quadrature(2.5, 7.25, 1e-12)
    assert a == b


def test_quadrature_handles_mild_endpoint_singularity():
    # (beta - alpha)/2 = 1/2 gives a (1-u^2)^(-1/2) endpoint in the
    # substituted integrand; A(0, 1) = int sech t dt = pi/2
    r = radial_integral_quadrature(0, 1, 1e-9)
    assert r.value == pytest.approx(math.pi / 2, rel=1e-8)


def test_quadrature_rejects_nonfinite_tolerance():
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            radial_integral_quadrature(1, 3, tol)
        with pytest.raises(ValueError, match="positive and finite"):
            adaptive_quadrature(math.cos, 0.0, 1.0, tol)


def test_adaptive_quadrature_budget_exhaustion():
    def nasty(x):
        return abs(x - 1 / math.pi) ** (-0.9)

    with pytest.raises(ConvergenceError):
        adaptive_quadrature(nasty, 0.0, 1.0, 1e-14)


def test_beta_argument_evidence_table():
    rows = beta_argument_evidence()
    assert {(r["alpha"], r["beta"]) for r in rows} >= {(1, 3), (3, 7)}
    for row in rows:
        assert row["relative_difference"] <= 1e-10
