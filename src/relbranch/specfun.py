"""The radial hyperbolic integral in exact closed form, and degree-exact
Gauss-Legendre quadrature.

The radial integral is

    A(alpha, beta) = integral_0^inf (sinh t)^alpha (cosh t)^(-beta) dt,

convergent for alpha > -1 and beta > alpha.  It equals
(1/2) B((alpha+1)/2, (beta-alpha)/2); this argument choice was calibrated
against an independent exact oracle, the term-by-term integral of the
binomial expansion after u = tanh t, on integer pairs (see
docs/radial_integral_calibration.md, built by relbranch.oracle).  On the
period route both Beta arguments are positive integers, so A is rational:
an unreduced ratio of two ints, built from the factorial of the smaller
argument and a rising product (rising), with no Fraction and no gcd.  No
module evaluates a float Beta function or lgamma.

The quadrature here integrates polynomials only: the m-point Gauss-Legendre
rule is exact to degree 2m - 1 (DLMF 3.5(v)), so a polynomial of known
degree needs one rule and leaves only roundoff, which the returned bound
covers.  A QuadratureResult is a plain record of the value, that bound and
the number of integrand evaluations; its constructors build the last two
from sums of absolute values and node counts, so it checks none.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

EPS = sys.float_info.epsilon


class ConvergenceError(RuntimeError):
    """A quadrature result is not finite, or its error bound exceeds the
    tolerance."""


class QuadratureResult(NamedTuple):
    value: float
    abs_error_estimate: float
    evaluations: int


def rising(x: int, m: int) -> int:
    """The rising product (x)_m = x (x+1) ... (x+m-1) of integers x >= 1 and
    m >= 0 (DLMF 5.2.5), as a plain product.  Every caller has m <= x or a
    few dozen terms at most, where the product costs no more than the
    factorial quotient (x+m-1)! / (x-1)! would."""
    return math.prod(range(x, x + m))


def radial_integral_exact(alpha: int, beta_exp: int) -> tuple[int, int]:
    """A(alpha, beta) = (1/2) B(a, b) exactly, as the unreduced ratio
    (numerator, denominator), with a = (alpha+1)/2 and b = (beta-alpha)/2:
    since B(a, b) = B(b, a), the shorter of (a-1)! / (2 (b)_a) and
    (b-1)! / (2 (a)_b), the one whose factorial has the smaller argument
    (DLMF 5.12.1; (b-1)! / (a+b-1)! is 1 / (b)_a).  Raises ValueError
    unless a and b are positive integers, and OverflowError when a + b - 1,
    the largest argument of the factorial form (a-1)! (b-1)! / (2 (a+b-1)!),
    passes sys.maxsize, as math.factorial would."""
    ints = isinstance(alpha, int) and isinstance(beta_exp, int)
    if not (ints and alpha > 0 and alpha % 2 and beta_exp > alpha and (beta_exp - alpha) % 2 == 0):
        raise ValueError(f"A({alpha}, {beta_exp}): Beta arguments must be positive integers")
    a, b = sorted(((alpha + 1) // 2, (beta_exp - alpha) // 2))
    if a + b - 1 > sys.maxsize:
        raise OverflowError(f"A({alpha}, {beta_exp}): factorial argument exceeds sys.maxsize")
    return math.factorial(a - 1), 2 * rising(b, a)


# ---------------------------------------------------------------------------
# Degree-exact Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


def _legendre_and_derivative(m: int, x: float) -> tuple[float, float]:
    """P_m(x) and P_m'(x) for |x| < 1, by the three-term recurrence."""
    prev, cur = 1.0, x
    for j in range(2, m + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return cur, m * (x * cur - prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of the m-point Gauss-Legendre rule on
    [-1, 1], exact for polynomials of degree up to 2m - 1.

    Each positive node is found by Newton's method on P_m from Tricomi's
    estimate (1 - 1/(8m^2) + 1/(8m^3)) cos(pi (i + 3/4) / (m + 1/2)),
    stopping once the step is below 1e-15; its weight is
    2 / ((1 - x^2) P_m'(x)^2), and the negative half mirrors the positive
    one, so the rule is exactly symmetric.  The cost is O(m^2) per rule.
    """
    nodes, weights = [0.0] * m, [0.0] * m
    shrink = 1.0 - (1.0 - 1.0 / m) / (8.0 * m * m)
    for i in range(m // 2):
        x = shrink * math.cos(math.pi * (i + 0.75) / (m + 0.5))
        step = 1.0
        while abs(step) > 1e-15:
            value, slope = _legendre_and_derivative(m, x)
            step = value / slope
            x -= step
        slope = _legendre_and_derivative(m, x)[1]
        nodes[i], nodes[m - 1 - i] = -x, x
        weights[i] = weights[m - 1 - i] = 2.0 / ((1.0 - x * x) * slope * slope)
    if m % 2:
        slope = _legendre_and_derivative(m, 0.0)[1]
        weights[m // 2] = 2.0 / (slope * slope)
    return tuple(nodes), tuple(weights)


def gauss_legendre_quadrature(
    f: Callable[[Sequence[float]], Sequence[float]], degree: int, floor: float = 0.0
) -> QuadratureResult:
    """Integral over [-1, 1] of f, a polynomial of degree at most `degree`,
    by the m-point rule with m = degree // 2 + 1; f maps the sequence of
    nodes to the sequence of its values there.

    The value is the correctly rounded sum (math.fsum) of the node terms
    w f(x).  The error bound is 16 (m + degree) eps max(sum |w f(x)|, floor):
    the roundoff of terms of that size.  `floor` is the caller's scale of
    the integrand, for integrals whose node values are all roundoff, as when
    the nodes are the zeros of a factor of f.  A term, sum or bound that is
    not finite raises ConvergenceError.

    sum |w f(x)| is added left to right, not by the builtin sum, which
    compensates float sums from Python 3.12 on, so the bound's bytes are the
    same on every supported Python.
    """
    m = degree // 2 + 1
    nodes, weights = gauss_legendre(m)
    terms = [w * y for w, y in zip(weights, f(nodes))]
    size = 0
    for term in terms:
        size += abs(term)
    bound = 16 * (m + degree) * EPS * max(size, floor)
    if not bound < math.inf:  # also false for nan
        raise ConvergenceError(f"quadrature of degree {degree}: terms are not finite")
    return QuadratureResult(math.fsum(terms), bound, m)
