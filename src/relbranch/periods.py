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

The two families share one route; the kind= keyword picks the family (any
other kind raises UnsupportedFamilyError), and SpaceFamily alone fixes its
exponents.  The radial factor takes the density's sinh power and the total
cosh decay; the angular factor pairs the big family's polynomial against the
embedded family's (over (p, q-1)) under the embedded weight, shifted by the
difference of the two alphas.  The exact pairing is one closed-form
connection coefficient times a squared norm (jacobi.jacobi_pairing) and
decides vanishing; the radial factor is rational too
(specfun.radial_integral_exact), so the period is one exact Fraction, rounded
once for the closed value.  The quadrature oracle is independent of both
exact factors.  On the period route both factors are polynomials: the radial
one after v = tanh^2 t, the angular one as the product of the float
three-term recurrence values (jacobi.jacobi_values) and the weight.  So one
Gauss-Legendre rule per factor, with degree // 2 + 1 nodes, is exact up to
roundoff (specfun.gauss_legendre_quadrature), and it reaches the full label
range up to MAX_DEGREE.  Only the angular scale, a Cauchy-Schwarz bound that
gates the tolerance and floors the roundoff bound, reads the squared norm of
the shifted polynomial from the same coefficients (jacobi.connection_coeff).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, sqrt

from .jacobi import connection_coeff, jacobi_norm_sq, jacobi_pairing, jacobi_values
from .specfun import ConvergenceError, QuadratureResult, gauss_legendre_quadrature
from .specfun import radial_integral_exact

COMPLEX = "complex"
QUATERNIONIC = "quaternionic"
FIELD_KINDS = (COMPLEX, QUATERNIONIC)


class UnsupportedFamilyError(ValueError):
    """Operation not available for this family (no radial data)."""


class PreconditionError(ValueError):
    """Period-integral arguments outside the supported range."""


@dataclass(frozen=True)
class SpaceFamily:
    """A rank-one family over the signature (p, q): its Jacobi exponents,
    radial density powers and spectral decay exponent.

    The period functions below read every exponent from here.
    """

    field_kind: str
    p: int
    q: int

    def __post_init__(self):
        if self.field_kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.field_kind!r}")
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise ValueError("p and q must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive")

    @property
    def jacobi_alpha(self) -> int:
        return self.q - 1 if self.field_kind == COMPLEX else 2 * self.q - 1

    @property
    def jacobi_beta(self) -> int:
        return 0 if self.field_kind == COMPLEX else 1

    @property
    def density_cosh_power(self) -> int:
        return 2 * self.q - 1 if self.field_kind == COMPLEX else 4 * self.q + 3

    @property
    def density_sinh_power(self) -> int:
        return 2 * self.p - 1 if self.field_kind == COMPLEX else 4 * self.p - 1

    def spectral_exponent(self, n: int) -> int:
        """The decay exponent E in (cosh s)^(-E) for even label n."""
        if self.field_kind == COMPLEX:
            return 2 * self.q + n  # i*lambda + rho with i*lambda = q - p + n
        return 4 * self.q + n + 2  # i*lambda = 2q - 2p + 1 + n


# ---------------------------------------------------------------------------
# Period integrals, one route for both families
# ---------------------------------------------------------------------------


def _check_period_args(p: int, q: int, n: int, k: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int) and q > p > 0):
        raise PreconditionError(f"need integer signature with q > p > 0, got ({p}, {q})")
    if n < 0 or k < 0 or n % 2 or k % 2:
        raise PreconditionError(f"labels must be even and nonnegative, got n={n}, k={k}")


def _families(p: int, q: int, kind: str) -> tuple[SpaceFamily, SpaceFamily]:
    """The family over (p, q) and the embedded one over (p, q - 1)."""
    if kind not in FIELD_KINDS:
        raise UnsupportedFamilyError(f"no radial pairing for {kind!r}")
    return SpaceFamily(kind, p, q), SpaceFamily(kind, p, q - 1)


def _angular_args(q: int, kind: str) -> tuple[int, int, int]:
    """(alpha, beta, shift) of the angular pairing: the embedded family's
    exponents, and the step in alpha up to the big family's."""
    fam, sub = _families(1, q, kind)  # the Jacobi exponents do not depend on p
    return sub.jacobi_alpha, sub.jacobi_beta, fam.jacobi_alpha - sub.jacobi_alpha


def _radial_args(p: int, q: int, n: int, k: int, kind: str) -> tuple[int, int]:
    """(alpha, beta) of the radial factor A(alpha, beta): the density's sinh
    power and the total cosh decay."""
    return _families(p, q, kind)[0].density_sinh_power, -radial_cosh_power(p, q, n, k, kind)


def radial_cosh_power(p: int, q: int, n: int, k: int, kind: str = COMPLEX) -> int:
    """Total cosh exponent of the paired radial integrand, assembled from the
    two spectral exponents and the density."""
    fam, sub = _families(p, q, kind)
    return -fam.spectral_exponent(n) - sub.spectral_exponent(k) + fam.density_cosh_power


def period_angular_exact(q: int, n: int, k: int, kind: str = COMPLEX) -> Fraction:
    """Exact angular factor: int P_n^(alpha+shift,beta) P_k^(alpha,beta)
    (1-x)^alpha (1+x)^beta dx, with P_n the big family's polynomial and
    (alpha, beta) the embedded family's exponents.  Nonzero exactly when
    k <= n."""
    return jacobi_pairing(n, k, *_angular_args(q, kind))


def period_nonvanishing(p: int, q: int, n: int, k: int, kind: str = COMPLEX) -> bool:
    """True exactly when the period integral is nonzero, i.e. 0 <= k <= n.

    Decided by the exact rational angular factor; the radial factor is a
    convergent integral of a positive function and never vanishes.
    """
    _check_period_args(p, q, n, k)
    return period_angular_exact(q, n, k, kind) != 0


def period_integral_exact(p: int, q: int, n: int, k: int, kind: str = COMPLEX) -> Fraction:
    """Exact period integral: the rational radial factor A(sinh power, cosh
    decay) times the exact angular factor.  Nonzero exactly when k <= n."""
    _check_period_args(p, q, n, k)
    # convergence: the cosh decay exceeds the sinh power automatically for q > p
    radial = radial_integral_exact(*_radial_args(p, q, n, k, kind))
    return radial * period_angular_exact(q, n, k, kind)


def period_integral_closed(p: int, q: int, n: int, k: int, kind: str = COMPLEX) -> float:
    """The exact period integral, correctly rounded to a float.  Raises
    ConvergenceError when it is too large for a float."""
    try:
        return float(period_integral_exact(p, q, n, k, kind))
    except OverflowError as exc:
        raise ConvergenceError(f"closed form overflowed: {exc}") from exc


@lru_cache(maxsize=None)
def _norm_sq(n: int, alpha: int, beta_param: int, shift: int) -> float:
    """Squared norm of P_n^(alpha+shift,beta) under the (alpha, beta) weight:
    sum_j d_j^2 h_j over its connection coefficients d_j, rounded once."""
    return float(
        sum(
            connection_coeff(n, j, alpha, beta_param, shift) ** 2
            * jacobi_norm_sq(j, alpha, beta_param)
            for j in range(n + 1)
        )
    )


def _angular_scale(n: int, k: int, alpha: int, beta_param: int, shift: int) -> float:
    """Cauchy-Schwarz bound sqrt(||P_n||^2 ||P_k||^2) on jacobi_pairing(n, k, ...)."""
    small = float(jacobi_norm_sq(k, alpha, beta_param))
    return sqrt(_norm_sq(n, alpha, beta_param, shift) * small)


def _gated(result: QuadratureResult, scale: float, tol: float, factor: str) -> QuadratureResult:
    """result, once its bound is within tol times the scale (at least 1)."""
    if not result.abs_error_estimate <= tol * max(scale, 1.0):
        raise ConvergenceError(
            f"{factor} quadrature bound {result.abs_error_estimate:.3g} exceeds "
            f"tol {tol:.3g} times max(1, scale {scale:.3g})"
        )
    return result


def _radial_quadrature(alpha: int, beta_exp: int, tol: float) -> QuadratureResult:
    """A(alpha, beta) for odd alpha and even beta - alpha, to tol times its
    size (at least 1).  After v = tanh^2 t it is the integral over [0, 1] of
    the polynomial (1/2) v^h (1-v)^(s-1), with h = (alpha-1)/2 and
    s = (beta-alpha)/2, of degree h + s - 1."""
    h, s = (alpha - 1) // 2, (beta_exp - alpha) // 2

    def integrand(xs):  # v = (1+x)/2 maps [-1, 1] onto [0, 1], dv = dx/2
        return [0.25 * ((1.0 + x) / 2) ** h * ((1.0 - x) / 2) ** (s - 1) for x in xs]

    result = gauss_legendre_quadrature(integrand, h + s - 1)
    return _gated(result, abs(result.value), tol, "radial")


def _angular_quadrature(
    n: int, k: int, alpha: int, beta_param: int, shift: int, tol: float
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
        big = jacobi_values(n, alpha + shift, beta_param, xs)
        small = jacobi_values(k, alpha, beta_param, xs)
        return [
            u * v * (1.0 - x) ** alpha * (1.0 + x) ** beta_param
            for u, v, x in zip(big, small, xs)
        ]

    result = gauss_legendre_quadrature(integrand, n + k + alpha + beta_param, scale)
    return _gated(result, scale, tol, "angular")


def period_integral_quadrature(
    p: int, q: int, n: int, k: int, tol: float = 1e-10, kind: str = COMPLEX
) -> QuadratureResult:
    """Independent two-factor quadrature oracle for the closed form: the
    radial and the angular factor each by one degree-exact Gauss-Legendre
    rule, with the first-order error of their product.

    Raises ConvergenceError when a factor's roundoff bound exceeds tol times
    its scale, or when a value, bound or scale is not finite (overflow
    included)."""
    _check_period_args(p, q, n, k)
    if not 0 < tol < inf:
        raise ValueError("tol must be positive and finite")
    try:
        radial = _radial_quadrature(*_radial_args(p, q, n, k, kind), tol)
        angular = _angular_quadrature(n, k, *_angular_args(q, kind), tol)
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


def period_scale(p: int, q: int, n: int, k: int, kind: str = COMPLEX) -> float:
    """Magnitude scale of the period integral (exact radial factor times the
    angular Cauchy-Schwarz bound), for judging a quadrature value against."""
    _check_period_args(p, q, n, k)
    radial = float(radial_integral_exact(*_radial_args(p, q, n, k, kind)))
    return radial * _angular_scale(n, k, *_angular_args(q, kind))
