import math
import sys
from fractions import Fraction

import pytest

from relbranch.oracle import beta_argument_evidence, radial_integral_monomial
from relbranch.periods import (
    COMPLEX,
    PeriodGrid,
    PreconditionError,
    _radial_quadrature,
    period_integral_quadrature,
)
from relbranch.specfun import (
    EPS,
    ConvergenceError,
    gauss_legendre,
    gauss_legendre_quadrature,
    radial_integral_exact,
    rising,
)

import factorial_forms as forms


def _radial(alpha, beta_exp):
    """radial_integral_exact as a Fraction."""
    return Fraction(*radial_integral_exact(alpha, beta_exp))


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


# The radial integral by three routes: the factorial form of the Beta
# identity (specfun), the oracle's term-by-term integral of
# u^alpha (1 - u^2)^(s-1) after u = tanh t, s = (beta - alpha)/2, and the
# period route's float quadrature of the same polynomial after v = tanh^2 t.


def _within_bound(result, exact: Fraction) -> bool:
    return abs(Fraction(result.value) - exact) <= Fraction(result.abs_error_estimate)


def test_radial_closed_antiderivative_cases():
    # d/dt [-cosh^-2 t / 2] = sinh cosh^-3  =>  A(1,3) = 1/2
    # w = cosh t: A(3,7) = int_1^inf (w^-5 - w^-7) dw = 1/4 - 1/6 = 1/12
    for route in (_radial, radial_integral_monomial):
        assert route(1, 3) == Fraction(1, 2)
        assert route(3, 7) == Fraction(1, 12)


def test_radial_exact_values_domain_and_float_form():
    # Beta arguments that are not positive integers
    for alpha, beta_exp in [(2, 6), (1, 4), (1, 1), (-1, 3), (1.0, 3)]:
        with pytest.raises(ValueError):
            radial_integral_exact(alpha, beta_exp)
    # the oracle also takes even alpha, where the first Beta argument is a half-integer
    assert radial_integral_monomial(2, 6) == Fraction(2, 15)
    assert radial_integral_monomial(0, 2) == 1  # int sech^2 t dt
    # the float form: the quadrature value is within its bound of the exact one
    for alpha in range(1, 20, 2):
        for gap in range(2, 21, 2):
            exact = _radial(alpha, alpha + gap)
            assert _within_bound(_radial_quadrature(alpha, alpha + gap), exact), (alpha, gap)


def test_radial_closed_divergence():
    # divergent at 0 (alpha <= -1) or at infinity (beta <= alpha), or outside
    # the oracle's integer domain: a real exponent or an odd gap
    for alpha, beta_exp in [(-1, 3), (2, 2), (3, 1), (2.5, 7.25), (0, 1), (1, 3.0)]:
        with pytest.raises(ValueError):
            radial_integral_monomial(alpha, beta_exp)


def test_radial_quadrature_known_values():
    r = _radial_quadrature(1, 3)
    assert abs(r.value - 0.5) <= 1e-12 and _within_bound(r, Fraction(1, 2))
    assert r.evaluations >= 1
    r = _radial_quadrature(3, 7)
    assert abs(r.value - 1.0 / 12.0) <= 1e-12 and _within_bound(r, Fraction(1, 12))


def test_radial_quadrature_divergence():
    # the quadrature is reached only through a period, whose signature check
    # q > p keeps the radial pair convergent; a nonpositive tolerance is refused
    with pytest.raises(PreconditionError):
        period_integral_quadrature(2, 2, 0, 0)
    with pytest.raises(PreconditionError):
        period_integral_quadrature(0, 2, 0, 0)
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            period_integral_quadrature(1, 3, 0, 0, tol)


def test_radial_quadrature_first_example_pair():
    # the (2p-1, 2q+n+k-1) pair at (p,q,n,k) = (1,2,0,0) is (1,3)
    radial_args, _ = PeriodGrid(1, 2, COMPLEX).args(0, 0)
    assert radial_args == (1, 3)
    closed = _radial(*radial_args)
    assert radial_integral_monomial(*radial_args) == closed
    quad = _radial_quadrature(*radial_args)
    assert abs(Fraction(quad.value) - closed) <= Fraction(1, 10**10) * closed
    assert _within_bound(quad, closed)


def test_closed_vs_quadrature_grid():
    # the oracle equals the factorial form exactly on odd alpha < 80, even gap < 80
    for alpha in range(1, 80, 2):
        for gap in range(2, 80, 2):
            exact = _radial(alpha, alpha + gap)
            assert radial_integral_monomial(alpha, alpha + gap) == exact, (alpha, gap)
    # and the float quadrature is within its bound and 1e-9 relative of it
    for alpha in range(1, 10, 2):
        for gap in range(2, 11, 2):
            exact = _radial(alpha, alpha + gap)
            quad = _radial_quadrature(alpha, alpha + gap)
            assert _within_bound(quad, exact), (alpha, gap)
            assert abs(quad.value - float(exact)) <= 1e-9 * float(exact), (alpha, gap)


def test_rising_product_on_both_branches():
    # one plain product, the same integer on both sides of m = x
    for x in (1, 2, 5, 31, 32, 33, 100, 10**6, 10**30):
        for m in (0, 1, 2, 4, 5, 6, 31, 32, 33, 64, 101, 500):
            want = 1
            for term in range(x, x + m):
                want *= term
            assert rising(x, m) == want, (x, m)


# the radial (sinh power, cosh decay) of both families, complex
# (2p - 1, 2q + n + k - 1) and quaternionic (4p - 1, 4q + n + k - 3), at the
# signatures whose angular alphas the pairing tests cover, up to quaternionic
# q = 530, and at p = 40 and 20, where a > b, so the shorter form is
# (b-1)! / (2 (a)_b)
_RADIAL_GRIDS = [
    *[(lambda p, q, s: (2 * p - 1, 2 * q + s - 1), p, q) for p, q in
      ((1, 2), (1, 3), (3, 20), (1, 522), (40, 41))],
    *[(lambda p, q, s: (4 * p - 1, 4 * q + s - 3), p, q) for p, q in
      ((1, 2), (2, 5), (3, 20), (1, 262), (1, 530), (20, 21))],
]


def test_radial_factor_is_the_factorial_form_over_the_period_grids():
    # (a-1)! / (2 (b)_a) against (a-1)! (b-1)! / (2 (a+b-1)!) at every
    # n + k up to twice the label cap
    for radial_args, p, q in _RADIAL_GRIDS:
        for labels in range(0, 2 * 64 + 1, 2):
            alpha, beta_exp = radial_args(p, q, labels)
            assert _radial(alpha, beta_exp) == forms.radial(alpha, beta_exp), (p, q, labels)


def test_radial_factor_takes_the_shorter_beta_form():
    # B(a, b) = B(b, a): at a = 10^6, b = 1 the factorial is 0!, not
    # (10^6 - 1)!, and the rising product has one term, not 10^6
    assert radial_integral_exact(2 * 10**6 - 1, 2 * 10**6 + 1) == (1, 2 * 10**6)
    assert radial_integral_exact(1, 2 * 10**6 + 1) == (1, 2 * 10**6)
    for alpha, beta_exp in ((9, 13), (3, 21), (41, 43)):
        a, b = (alpha + 1) // 2, (beta_exp - alpha) // 2
        num, den = radial_integral_exact(alpha, beta_exp)
        assert num == math.factorial(min(a, b) - 1), (alpha, beta_exp)
        assert Fraction(num, den) == forms.radial(alpha, beta_exp), (alpha, beta_exp)


def test_radial_factor_refuses_a_factorial_argument_past_maxsize():
    # a + b - 1 = (beta - 1) / 2, the largest argument of the factorial form,
    # may reach sys.maxsize but not pass it: the factor's own guard on its
    # inputs (the period commands refuse such a q earlier, at the signature
    # cap)
    top = 2 * sys.maxsize + 1  # alpha = 1: a = 1 and b = (top - 1) / 2 = sys.maxsize
    assert radial_integral_exact(1, top) == (1, 2 * sys.maxsize)
    with pytest.raises(OverflowError):
        radial_integral_exact(1, top + 2)


def test_beta_argument_evidence_table():
    rows = beta_argument_evidence()
    assert {(r["alpha"], r["beta"]) for r in rows} >= {(1, 3), (3, 7)}
    for row in rows:
        assert row["variant_plus"] == row["oracle"]
        assert row["variant_minus"] != row["oracle"]
    by_pair = {(r["alpha"], r["beta"]): r for r in rows}
    assert (by_pair[2, 6]["oracle"], by_pair[2, 6]["variant_minus"]) == ("2/15", "2/3")
    assert by_pair[1, 3]["variant_minus"] == "divergent (nonpositive argument)"
