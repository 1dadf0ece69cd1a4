"""Cross-space period integrals on the complex and quaternionic rank-one families.

On these families a spherical function with even label n is (cosh s)^(-E)
times a Jacobi polynomial in the compact variable, where the decay exponent E
is fixed by the family and n.  Pairing one on the big space against one on the
embedded smaller space and integrating against the radial density factorizes
into a radial hyperbolic integral times an angular Jacobi pairing.

Values are reported in the module normalization: the angular measure is the
bare weight (1-x)^alpha (1+x)^beta dx on [-1, 1] with no constant.  The
normalization scales values but cannot change which of them vanish, and the
vanishing dichotomy is the contract used downstream.

The two families share one route; the kind= keyword picks the family, and
one table (_EXPONENTS) holds the five integers each family feeds it (any
other kind raises ValueError).  The radial factor takes the density's sinh
power and the total cosh decay; the angular factor pairs the big family's
polynomial against the embedded family's (over (p, q-1)) under the embedded
weight, shifted by the difference of the two alphas.  The exact pairing is
one closed-form connection coefficient times a squared norm
(jacobi.jacobi_pairing) and decides vanishing; the radial factor is rational
too (specfun.radial_integral_exact), so the period is one exact Fraction
(period_integral_exact), zero exactly when the period vanishes and rounded
once for the closed value (closed_value); check_labels refuses a label
above MAX_DEGREE before either factor is built.  The quadrature oracle is
independent of both exact factors.  On the period route both factors are
polynomials: the radial one after v = tanh^2 t, the angular one as the
product of the float three-term recurrence values at the rule's nodes
(rows n and k of jacobi.jacobi_rows) and the weight.  So one Gauss-Legendre
rule per factor, with degree // 2 + 1 nodes, is exact up to roundoff
(specfun.gauss_legendre_quadrature), and it reaches the full label range up
to MAX_DEGREE.  The result carries its own roundoff bound, which is what a
quadrature value is judged against; vanishing is read from the exact route
only.  Only the angular scale, a Cauchy-Schwarz bound that gates the
tolerance and floors the roundoff bound, reads the two squared norms, each
one exact closed form (jacobi.jacobi_norm_sq, jacobi.jacobi_shifted_norm_sq)
rounded once.

Records of one grid share inputs, and a SharedFactors table, passed as
shared=, builds each once: every record with the same n + k has the same
rule and the same two radial factors, so each (rule, alpha, beta) is one
recurrence sweep, extended only as far as a record asks, and one row of node
weights, and each n + k one exact and one quadrature radial factor.  A
record's floats are the same with or without the table, and each record
still builds its own exact pairing and gates its own factors.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, sqrt
from typing import Sequence

from .jacobi import check_degree, jacobi_norm_sq, jacobi_pairing, jacobi_rows
from .jacobi import jacobi_shifted_norm_sq
from .specfun import ConvergenceError, QuadratureResult, gauss_legendre_quadrature
from .specfun import radial_integral_exact

COMPLEX = "complex"
QUATERNIONIC = "quaternionic"
FIELD_KINDS = (COMPLEX, QUATERNIONIC)

# Per family: the radial factor's (sinh power, cosh decay) over (p, q) with
# labels n, k, and the angular pairing's (alpha, beta, shift) over q.  The
# sinh power is the density's; the decay is E(n) + E'(k) minus the density's
# cosh power c, with E the big family's spectral exponent and E' the embedded
# family's (over q - 1): complex E = 2q + n (i*lambda = q - p + n), c = 2q - 1;
# quaternionic E = 4q + n + 2 (i*lambda = 2q - 2p + 1 + n), c = 4q + 3.  The
# angular (alpha, beta) is the embedded family's Jacobi pair, (q - 2, 0) and
# (2q - 3, 1), and the shift steps alpha up to the big family's, q - 1 and 2q - 1.
_EXPONENTS = {
    COMPLEX: (lambda p, q, n, k: (2 * p - 1, 2 * q + n + k - 1), lambda q: (q - 2, 0, 1)),
    QUATERNIONIC: (lambda p, q, n, k: (4 * p - 1, 4 * q + n + k - 3), lambda q: (2 * q - 3, 1, 2)),
}


class PreconditionError(ValueError):
    """Period-integral arguments outside the supported range."""


class SharedFactors:
    """The inputs that the records of one period grid share, each built
    once: the Jacobi sweep of each (rule, alpha, beta), extended only as far
    as a record asks, the angular weight at that rule's nodes, and each
    radial factor, exact and by quadrature, which depends on n + k only.  One
    `table period` run owns one, and a period computed alone gets its own, so
    nothing outlives the grid it serves."""

    def __init__(self) -> None:
        self._sweeps: dict = {}
        self._factors: dict = {}

    def jacobi_row(self, n: int, alpha: int, beta_param: int, nodes) -> Sequence[float]:
        """P_n^(alpha,beta) at the nodes of one Gauss-Legendre rule, which
        their count names: row n of that rule's sweep."""
        rows = self._sweeps.setdefault((len(nodes), alpha, beta_param), [])
        return jacobi_rows(n, alpha, beta_param, nodes, rows)[n]

    def factor(self, build, *args):
        """build(*args), built the first time build is asked for args."""
        key = (build, args)
        if key not in self._factors:
            self._factors[key] = build(*args)
        return self._factors[key]


def _period_args(p: int, q: int, n: int, k: int, kind: str):
    """The radial (sinh power, cosh decay) and angular (alpha, beta, shift)
    of one period, once its arguments are checked; labels above MAX_DEGREE
    are refused here, since the radial factor has no cap of its own."""
    if not (isinstance(p, int) and isinstance(q, int) and q > p > 0):
        raise PreconditionError(f"need integer signature with q > p > 0, got ({p}, {q})")
    if n < 0 or k < 0 or n % 2 or k % 2:
        raise PreconditionError(f"labels must be even and nonnegative, got n={n}, k={k}")
    if kind not in _EXPONENTS:
        raise ValueError(f"unknown family {kind!r}")
    check_labels(n, k)
    radial, angular = _EXPONENTS[kind]
    return radial(p, q, n, k), angular(q)


def check_labels(n: int, k: int) -> None:
    """Refuse a label above MAX_DEGREE, k first, as jacobi_pairing does."""
    check_degree(k)
    check_degree(n)


def check_tol(tol: float) -> None:
    """Raise ValueError unless the quadrature tolerance is positive and finite."""
    if not 0 < tol < inf:
        raise ValueError("tol must be positive and finite")


def period_integral_exact(
    p: int, q: int, n: int, k: int, kind: str = COMPLEX, *, shared: SharedFactors | None = None
) -> Fraction:
    """Exact period integral: the rational radial factor A(sinh power, cosh
    decay) times the exact angular factor, int P_n^(alpha+shift,beta)
    P_k^(alpha,beta) (1-x)^alpha (1+x)^beta dx with P_n the big family's
    polynomial and (alpha, beta) the embedded family's exponents.

    Nonzero exactly when k <= n: the radial factor is a convergent integral
    of a positive function, and the angular pairing vanishes exactly when
    k > n.  shared, when given, holds the grid's radial factors.  Raises
    PreconditionError when q is so large that a factorial argument passes
    sys.maxsize."""
    radial, angular = _period_args(p, q, n, k, kind)
    shared = SharedFactors() if shared is None else shared
    # convergence: the cosh decay exceeds the sinh power automatically for q > p
    try:
        return shared.factor(radial_integral_exact, *radial) * jacobi_pairing(n, k, *angular)
    except OverflowError as exc:
        message = f"signature ({p}, {q}) is too large for exact factorials"
        raise PreconditionError(message) from exc


def closed_value(exact: Fraction) -> float:
    """An exact period correctly rounded to a float.  Raises ConvergenceError
    when it is too large for a float."""
    try:
        return float(exact)
    except OverflowError as exc:
        raise ConvergenceError(f"closed form overflowed: {exc}") from exc


def _angular_scale(n: int, k: int, alpha: int, beta_param: int, shift: int) -> float:
    """Cauchy-Schwarz bound sqrt(||P_n||^2 ||P_k||^2) on jacobi_pairing(n, k, ...),
    each squared norm exact and rounded once."""
    big = float(jacobi_shifted_norm_sq(n, alpha, beta_param, shift))
    return sqrt(big * float(jacobi_norm_sq(k, alpha, beta_param)))


def _gated(result: QuadratureResult, scale: float, tol: float, factor: str) -> QuadratureResult:
    """result, once its bound is within tol times the scale (at least 1)."""
    if not result.abs_error_estimate <= tol * max(scale, 1.0):
        raise ConvergenceError(
            f"{factor} quadrature bound {result.abs_error_estimate:.3g} exceeds "
            f"tol {tol:.3g} times max(1, scale {scale:.3g})"
        )
    return result


def _radial_quadrature(alpha: int, beta_exp: int) -> QuadratureResult:
    """A(alpha, beta) for odd alpha and even beta - alpha, not yet gated.
    After v = tanh^2 t it is the integral over [0, 1] of the polynomial
    (1/2) v^h (1-v)^(s-1), with h = (alpha-1)/2 and s = (beta-alpha)/2, of
    degree h + s - 1."""
    h, s = (alpha - 1) // 2, (beta_exp - alpha) // 2

    def integrand(xs):  # v = (1+x)/2 maps [-1, 1] onto [0, 1], dv = dx/2
        return [0.25 * ((1.0 + x) / 2) ** h * ((1.0 - x) / 2) ** (s - 1) for x in xs]

    return gauss_legendre_quadrature(integrand, h + s - 1)


def _node_weights(nodes: Sequence[float], alpha: int, beta_param: int) -> list:
    """The pair ((1 - x)^alpha, (1 + x)^beta) at each node."""
    return [((1.0 - x) ** alpha, (1.0 + x) ** beta_param) for x in nodes]


def _angular_quadrature(
    n: int, k: int, alpha: int, beta_param: int, shift: int, tol: float, shared: SharedFactors
) -> QuadratureResult:
    """jacobi_pairing(n, k, alpha, beta, shift) by quadrature of the float
    recurrence values, to tol times the Cauchy-Schwarz scale (at least 1); the
    integrand has degree n + k + alpha + beta, and the scale also floors the
    roundoff bound, since all node values are roundoff when the nodes are the
    zeros of P_k (alpha = beta = 0, k = n + 2)."""
    scale = _angular_scale(n, k, alpha, beta_param, shift)
    if not scale < inf:
        raise ConvergenceError(f"angular Cauchy-Schwarz scale {scale} is not finite")

    def integrand(xs):
        big = shared.jacobi_row(n, alpha + shift, beta_param, xs)
        small = shared.jacobi_row(k, alpha, beta_param, xs)
        weights = shared.factor(_node_weights, xs, alpha, beta_param)
        # the order of u * v * (1 - x)^alpha * (1 + x)^beta, so each term keeps its bits
        return [u * v * wa * wb for u, v, (wa, wb) in zip(big, small, weights)]

    result = gauss_legendre_quadrature(integrand, n + k + alpha + beta_param, scale)
    return _gated(result, scale, tol, "angular")


def period_integral_quadrature(
    p: int,
    q: int,
    n: int,
    k: int,
    tol: float = 1e-10,
    kind: str = COMPLEX,
    *,
    shared: SharedFactors | None = None,
) -> QuadratureResult:
    """Independent two-factor quadrature oracle for the closed form: the
    radial and the angular factor each by one degree-exact Gauss-Legendre
    rule, with the first-order error of their product.

    Raises ConvergenceError when a factor's roundoff bound exceeds tol times
    its scale, or when a value, bound or scale is not finite (overflow
    included).  shared, when given, holds the grid's sweeps and radial
    factors; each record gates its own."""
    radial_args, angular_args = _period_args(p, q, n, k, kind)
    check_tol(tol)
    shared = SharedFactors() if shared is None else shared
    try:
        radial = shared.factor(_radial_quadrature, *radial_args)
        radial = _gated(radial, abs(radial.value), tol, "radial")
        angular = _angular_quadrature(n, k, *angular_args, tol, shared)
    except OverflowError as exc:
        raise ConvergenceError(f"quadrature overflowed: {exc}") from exc
    value = radial.value * angular.value
    err = (
        radial.abs_error_estimate * abs(angular.value)
        + angular.abs_error_estimate * abs(radial.value)
    )
    if not (abs(value) < inf and err < inf):
        raise ConvergenceError(f"period quadrature {value} (bound {err}) is not finite")
    return QuadratureResult(value, err, radial.evaluations + angular.evaluations)
