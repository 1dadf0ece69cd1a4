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
one closed form (jacobi.jacobi_pairing) and decides vanishing; the radial
factor is rational too (specfun.radial_integral_exact).  Each is an exact
integer ratio (numerator, denominator), never reduced, so the period is one
such ratio (PeriodGrid.exact): its numerator is zero exactly when the period
vanishes, and numerator / denominator, which Python rounds correctly, is the
closed value.  check_labels refuses a label above MAX_DEGREE before either
factor is built.  The quadrature oracle is independent of both exact
factors.  On the period route both factors are polynomials: the radial one
after v = tanh^2 t, the angular one as the product of the float
three-term recurrence values at the rule's nodes (rows n and k of
jacobi.jacobi_rows) and the weight.  So one Gauss-Legendre rule per factor,
with degree // 2 + 1 nodes, is exact up to roundoff
(specfun.gauss_legendre_quadrature), and it reaches the full label range up
to MAX_DEGREE.  The result carries its own roundoff bound, which is what a
quadrature value is judged against; vanishing is read from the exact route
only, and a record of a nonzero period is refused unless its quadrature
resolves the value (PeriodGrid.record).  Only the angular scale, a
Cauchy-Schwarz bound that gates the tolerance and floors the roundoff
bound, reads the two squared norms, each one exact closed form
(jacobi.jacobi_shifted_norm_sq, shifted and not) rounded once.

A period grid is one PeriodGrid(p, q, kind, tol), which checks the
tolerance, the signature, the family and the family's cap on q once, when
it is built, and whose record(n, k) is the result a period command prints.
The cap (MAX_Q_COMPLEX, MAX_Q_QUATERNIONIC) is the largest q at which the
float angular scale at labels (0, 0) is finite; the scale does not depend on
p, and one q above the cap it is not finite at any labels.  So a signature is
admitted or refused once, before any factor is built, and below the cap
every exact integer, closed value and squared norm of the route fits its
type (see PeriodGrid.exact and PeriodGrid.quadrature).  Its records share
inputs, each built once: every record with the same n + k has the same rule
and the same two radial factors, so each (rule, alpha, beta) is one
recurrence sweep, extended only as far as a record asks, and one row of node
weights, and each n + k one exact and one quadrature radial factor.
period_integral_quadrature computes one period by quadrature on a grid of
its own.  A record's floats do not depend on the grid that computes it, and
each record still builds its own exact pairing and gates its own factors.
"""

from __future__ import annotations

from math import inf, sqrt, ulp
from typing import Sequence

from .jacobi import check_degree, jacobi_pairing, jacobi_rows, jacobi_shifted_norm_sq
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

# The largest q per family: the largest q at which _angular_scale(0, 0, ...)
# is finite.  One q above, the product of its two squared norms passes the
# float range at every label pair, where it is smallest too ((0, 64) complex,
# (0, 0) quaternionic).  An integer scale (ROADMAP item 2(b)) would raise both.
MAX_Q_COMPLEX = 522
MAX_Q_QUATERNIONIC = 265
_MAX_Q = {COMPLEX: MAX_Q_COMPLEX, QUATERNIONIC: MAX_Q_QUATERNIONIC}


class PreconditionError(ValueError):
    """Period-integral arguments outside the supported range."""


def check_labels(n: int, k: int) -> None:
    """Refuse a label above MAX_DEGREE, k first, as jacobi_pairing does."""
    check_degree(k)
    check_degree(n)


def _angular_scale(n: int, k: int, alpha: int, beta_param: int, shift: int) -> float:
    """Cauchy-Schwarz bound sqrt(||P_n||^2 ||P_k||^2) on jacobi_pairing(n, k, ...),
    each squared norm exact and rounded once."""
    big_num, big_den = jacobi_shifted_norm_sq(n, alpha, beta_param, shift)
    small_num, small_den = jacobi_shifted_norm_sq(k, alpha, beta_param, 0)
    return sqrt(big_num / big_den * (small_num / small_den))


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


class PeriodGrid:
    """The periods of one signature (p, q) and family at one quadrature
    tolerance, checked once, with the inputs its records share (see the
    module docstring); a grid lives as long as the command that owns it."""

    def __init__(self, p: int, q: int, kind: str = COMPLEX, tol: float = 1e-10) -> None:
        if not 0 < tol < inf:
            raise ValueError("tol must be positive and finite")
        if not (isinstance(p, int) and isinstance(q, int) and q > p > 0):
            raise PreconditionError(f"need integer signature with q > p > 0, got ({p}, {q})")
        if kind not in _EXPONENTS:
            raise ValueError(f"unknown family {kind!r}")
        if q > _MAX_Q[kind]:
            cap = f"MAX_Q_{kind.upper()} = {_MAX_Q[kind]}"
            raise PreconditionError(f"q = {q} exceeds the signature cap {cap}")
        self.p, self.q, self.kind, self.tol = p, q, kind, tol
        self._sweeps: dict = {}
        self._factors: dict = {}

    def args(self, n: int, k: int):
        """The radial (sinh power, cosh decay) and angular (alpha, beta,
        shift) of the period at n, k, once the labels are checked; a label
        above MAX_DEGREE is refused here, since the radial factor has no cap
        of its own."""
        if n < 0 or k < 0 or n % 2 or k % 2:
            raise PreconditionError(f"labels must be even and nonnegative, got n={n}, k={k}")
        check_labels(n, k)
        radial, angular = _EXPONENTS[self.kind]
        return radial(self.p, self.q, n, k), angular(self.q)

    def _factor(self, build, *args):
        """build(*args), built the first time build is asked for args."""
        key = (build, args)
        if key not in self._factors:
            self._factors[key] = build(*args)
        return self._factors[key]

    def _jacobi_row(self, n: int, alpha: int, beta_param: int, nodes) -> Sequence[float]:
        """P_n^(alpha,beta) at the nodes of one Gauss-Legendre rule, which
        their count names: row n of that rule's sweep, extended only as far
        as a record asks."""
        rows = self._sweeps.setdefault((len(nodes), alpha, beta_param), [])
        return jacobi_rows(n, alpha, beta_param, nodes, rows)[n]

    def exact(self, n: int, k: int) -> tuple[int, int]:
        """Exact period integral, as an unreduced integer ratio: the radial
        factor A(sinh power, cosh decay) times the exact angular factor,
        int P_n^(alpha+shift,beta) P_k^(alpha,beta) (1-x)^alpha (1+x)^beta dx
        with P_n the big family's polynomial and (alpha, beta) the embedded
        family's exponents.

        Its numerator is nonzero exactly when k <= n: the radial factor is a
        convergent integral of a positive function, and the angular pairing
        vanishes exactly when k > n.  Its value is at most (n - k + 1)
        2^(alpha+beta), below 2^(2q+5), so under the cap on q numerator /
        denominator is a finite float: the radial factor (1/2) B(a, b) is at
        most 1/2, and the pairing's rising products leave at most n - k + 1
        times its power of two, 2^(alpha+beta+1) (jacobi.jacobi_pairing)."""
        radial, angular = self.args(n, k)
        # convergence: the cosh decay exceeds the sinh power automatically for q > p
        radial_num, radial_den = self._factor(radial_integral_exact, *radial)
        angular_num, angular_den = jacobi_pairing(n, k, *angular)
        return radial_num * angular_num, radial_den * angular_den

    def _angular_quadrature(
        self, n: int, k: int, alpha: int, beta_param: int, shift: int
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
            big = self._jacobi_row(n, alpha + shift, beta_param, xs)
            small = self._jacobi_row(k, alpha, beta_param, xs)
            weights = self._factor(_node_weights, xs, alpha, beta_param)
            # the order of u * v * (1 - x)^alpha * (1 + x)^beta, so each term keeps its bits
            return [u * v * wa * wb for u, v, (wa, wb) in zip(big, small, weights)]

        result = gauss_legendre_quadrature(integrand, n + k + alpha + beta_param, scale)
        return _gated(result, scale, self.tol, "angular")

    def quadrature(self, n: int, k: int) -> QuadratureResult:
        """Independent two-factor quadrature oracle for the closed form: the
        radial and the angular factor each by one degree-exact Gauss-Legendre
        rule, with the first-order error of their product.

        Raises ConvergenceError when a factor's roundoff bound exceeds tol
        times its scale, or when a factor's terms or the angular scale are
        not finite; each record gates its own factors.  The angular factor
        comes first, since its Cauchy-Schwarz scale is what is not finite at
        the top of the quaternionic range (q = 263 to 265), so such a record
        builds no radial rule, and a record whose two factors both fail names
        the angular one.

        Under the cap on q nothing here overflows: each squared norm of the
        scale is at most 2^(alpha+beta+shift+8), below 2^540, so its int /
        int is finite (the product of the two may not be, which the scale
        check refuses); the weight (1 - x)^alpha is below 2^alpha; and the
        radial value is at most 1/2 with a bound below 1e-11, so the
        period's value and bound are finite when the angular ones are."""
        radial_args, angular_args = self.args(n, k)
        angular = self._angular_quadrature(n, k, *angular_args)
        radial = self._factor(_radial_quadrature, *radial_args)
        radial = _gated(radial, abs(radial.value), self.tol, "radial")
        value = radial.value * angular.value
        err = (
            radial.abs_error_estimate * abs(angular.value)
            + angular.abs_error_estimate * abs(radial.value)
        )
        return QuadratureResult(value, err, radial.evaluations + angular.evaluations)

    def record(self, n: int, k: int) -> dict:
        """The result of the period at n, k as a command prints it: the
        closed form (the exact period rounded once), the quadrature, their
        difference and the vanishing flag (exact, since the radial factor is
        positive).

        A nonzero period's quadrature must resolve it: its bound below its
        magnitude, and the closed value within the bound (and one ulp of
        the closed value), or ConvergenceError is raised.  The exact verdict
        only picks this gate; the quadrature never reads the exact route."""
        exact = self.exact(n, k)
        closed = exact[0] / exact[1]
        quad = self.quadrature(n, k)
        value, err = quad.value, quad.abs_error_estimate
        difference = abs(closed - value)
        if exact[0] and not (err < abs(value) and difference <= err + ulp(closed)):
            raise ConvergenceError(
                f"quadrature {value:.3g} (bound {err:.3g}) does not resolve "
                f"the closed value {closed:.3g}"
            )
        return {
            "family": self.kind,
            "closed": closed,
            "quadrature": value,
            "quadrature_error": err,
            "abs_difference": difference,
            "nonvanishing": exact[0] != 0,
        }


def period_integral_quadrature(
    p: int, q: int, n: int, k: int, tol: float = 1e-10, kind: str = COMPLEX
) -> QuadratureResult:
    """PeriodGrid(p, q, kind, tol).quadrature(n, k): one period by quadrature
    on a grid of its own."""
    return PeriodGrid(p, q, kind, tol).quadrature(n, k)
