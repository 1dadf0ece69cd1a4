"""Rank-one spherical profiles and the cross-space period integrals.

A radial profile on a rank-one family is (cosh s)^(-E) times a Jacobi
polynomial in the compact variable, where the decay exponent E is fixed by
the family and the even label n.  Pairing a profile on the big space against
one on the embedded smaller space and integrating against the radial density
factorizes into a radial hyperbolic integral times an angular Jacobi pairing.

Values are reported in the module normalization: the angular measure is the
bare weight (1-x)^alpha (1+x)^beta dx on [-1, 1] with no constant.  The
normalization scales values but cannot change which of them vanish, and the
vanishing dichotomy is the contract used downstream.

Both families have an exact angular pairing from the Jacobi connection
formula (jacobi.jacobi_pairing), which decides vanishing.  The quadrature
oracle is independent of it: it integrates float Horner evaluations of the
exact polynomial coefficients, memoised once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import cosh, sqrt

import numpy as np

from .jacobi import (
    integrate_with_weight,
    jacobi_eval,
    jacobi_pairing,
    jacobi_poly,
    poly_mul,
)
from .specfun import (
    QuadratureResult,
    adaptive_quadrature,
    radial_integral_closed,
    radial_integral_quadrature,
)

COMPLEX = "complex"
QUATERNIONIC = "quaternionic"
OCTONIONIC = "octonionic"
FIELD_KINDS = (COMPLEX, QUATERNIONIC, OCTONIONIC)


class UnsupportedFamilyError(ValueError):
    """Operation not available for this family (no radial data)."""


class PreconditionError(ValueError):
    """Period-integral arguments outside the supported range."""


@dataclass(frozen=True)
class SpaceFamily:
    """A rank-one family with its Jacobi exponents and radial density powers.

    The octonionic family carries compact-picture spherical polynomials only;
    it has no signature and no radial data.
    """

    field_kind: str
    p: int | None = None
    q: int | None = None

    def __post_init__(self):
        if self.field_kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.field_kind!r}")
        if self.field_kind == OCTONIONIC:
            if self.p is not None or self.q is not None:
                raise ValueError("the octonionic family carries no signature")
        else:
            if not (isinstance(self.p, int) and isinstance(self.q, int)):
                raise ValueError("p and q must be integers")
            if self.p < 1 or self.q < 1:
                raise ValueError("p and q must be positive")

    def _radial(self) -> None:
        if self.field_kind == OCTONIONIC:
            raise UnsupportedFamilyError(
                "octonionic family exposes compact spherical polynomials only"
            )

    @property
    def jacobi_alpha(self) -> Fraction:
        if self.field_kind == COMPLEX:
            return Fraction(self.q - 1)
        if self.field_kind == QUATERNIONIC:
            return Fraction(2 * self.q - 1)
        return Fraction(7)

    @property
    def jacobi_beta(self) -> Fraction:
        if self.field_kind == COMPLEX:
            return Fraction(0)
        if self.field_kind == QUATERNIONIC:
            return Fraction(1)
        return Fraction(3)

    @property
    def rho(self) -> Fraction:
        self._radial()
        if self.field_kind == COMPLEX:
            return Fraction(self.p + self.q)
        return Fraction(2 * self.p + 2 * self.q + 1)

    @property
    def rho_t(self) -> Fraction:
        self._radial()
        if self.field_kind == COMPLEX:
            return Fraction(self.q)
        return Fraction(self.q + 1)

    @property
    def density_cosh_power(self) -> int:
        self._radial()
        if self.field_kind == COMPLEX:
            return 2 * self.q - 1
        return 4 * self.q + 3

    @property
    def density_sinh_power(self) -> int:
        self._radial()
        if self.field_kind == COMPLEX:
            return 2 * self.p - 1
        return 4 * self.p - 1

    def spectral_exponent(self, n: int) -> int:
        """The decay exponent E in (cosh s)^(-E) for even label n."""
        self._radial()
        if self.field_kind == COMPLEX:
            return 2 * self.q + n  # i*lambda + rho with i*lambda = q - p + n
        return 4 * self.q + n + 2  # i*lambda = 2q - 2p + 1 + n


def complex_family(p: int, q: int) -> SpaceFamily:
    return SpaceFamily(COMPLEX, p, q)


def quaternionic_family(p: int, q: int) -> SpaceFamily:
    return SpaceFamily(QUATERNIONIC, p, q)


def octonionic_family() -> SpaceFamily:
    return SpaceFamily(OCTONIONIC)


@dataclass(frozen=True)
class FJFunction:
    """A labelled radial profile (cosh s)^(-E) P_n^(alpha,beta)(x)."""

    family: SpaceFamily
    n: int

    def __post_init__(self):
        if self.n < 0 or self.n % 2 != 0:
            raise ValueError(f"label must be an even nonnegative integer, got {self.n}")

    @property
    def spectral_exponent(self) -> int:
        return self.family.spectral_exponent(self.n)


def fj_eval(f: FJFunction, s: float, x: float) -> float:
    """Evaluate the profile at radial coordinate s >= 0 and compact variable x.

    The label is used directly as the polynomial degree, matching the period
    integrand contract below.
    """
    if s < 0:
        raise ValueError("radial coordinate must be nonnegative")
    poly = jacobi_poly(f.n, f.family.jacobi_alpha, f.family.jacobi_beta)
    return cosh(s) ** (-f.spectral_exponent) * jacobi_eval(poly, x)


# ---------------------------------------------------------------------------
# Period integrals, complex family
# ---------------------------------------------------------------------------


def _check_period_args(p: int, q: int, n: int, k: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int) and q > p > 0):
        raise PreconditionError(f"need integer signature with q > p > 0, got ({p}, {q})")
    if n < 0 or k < 0 or n % 2 or k % 2:
        raise PreconditionError(f"labels must be even and nonnegative, got n={n}, k={k}")


def radial_cosh_power(p: int, q: int, n: int, k: int, kind: str = COMPLEX) -> int:
    """Total cosh exponent of the paired radial integrand, assembled from the
    two spectral exponents and the density."""
    if kind == COMPLEX:
        fam, sub = complex_family(p, q), complex_family(p, q - 1)
    elif kind == QUATERNIONIC:
        fam, sub = quaternionic_family(p, q), quaternionic_family(p, q - 1)
    else:
        raise UnsupportedFamilyError(f"no radial pairing for {kind!r}")
    return -fam.spectral_exponent(n) - sub.spectral_exponent(k) + fam.density_cosh_power


def period_angular_exact(q: int, n: int, k: int) -> Fraction:
    """Exact angular factor: int P_n^(q-1,0) P_k^(q-2,0) (1-x)^(q-2) dx."""
    return jacobi_pairing(n, k, q - 2, 0, 1)


def period_nonvanishing(p: int, q: int, n: int, k: int) -> bool:
    """True exactly when the period integral is nonzero, i.e. 0 <= k <= n.

    Decided by the exact rational angular factor; the radial factor is a
    convergent integral of a positive function and never vanishes.
    """
    _check_period_args(p, q, n, k)
    return period_angular_exact(q, n, k) != 0


def period_integral_closed(p: int, q: int, n: int, k: int) -> float:
    """Closed-form period integral: A(2p-1, 2q+n+k-1) times the exact angular
    factor.  Nonzero exactly when k <= n."""
    _check_period_args(p, q, n, k)
    # convergence: 2p - 2q - n - k < 0 is automatic for q > p
    radial = radial_integral_closed(2 * p - 1, -radial_cosh_power(p, q, n, k))
    return radial * float(period_angular_exact(q, n, k))


@lru_cache(maxsize=None)
def _quadrature_profile(
    n: int, alpha: int, beta_param: int, weight_alpha: int, weight_beta: int
) -> tuple[tuple[float, ...], float]:
    """Float Horner coefficients (highest degree first) of P_n^(alpha,beta),
    and its exact squared norm under the (weight_alpha, weight_beta) weight
    as a float."""
    coeffs = jacobi_poly(n, alpha, beta_param).coeffs
    norm = integrate_with_weight(poly_mul(coeffs, coeffs), weight_alpha, weight_beta)
    return tuple(float(c) for c in reversed(coeffs)), float(norm)


def _angular_profiles(
    big: tuple[int, int, int], small: tuple[int, int, int]
) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Horner coefficients of big = (n, alpha', beta) and small = (k, alpha,
    beta), and the Cauchy-Schwarz scale sqrt(||P_n||^2 ||P_k||^2) of their
    pairing under the small polynomial's own weight."""
    big_horner, norm_big = _quadrature_profile(*big, *small[1:])
    small_horner, norm_small = _quadrature_profile(*small, *small[1:])
    return big_horner, small_horner, sqrt(norm_big * norm_small)


def _angular_quadrature(
    big: tuple[int, int, int], small: tuple[int, int, int], tol: float
) -> QuadratureResult:
    """Quadrature of the angular pairing of big against small under the
    (alpha, beta) weight, to tol times the Cauchy-Schwarz scale (at least 1)."""
    one_minus_exp, one_plus_exp = small[1:]
    big_horner, small_horner, scale = _angular_profiles(big, small)

    def integrand(x: np.ndarray) -> np.ndarray:
        return (
            np.polyval(big_horner, x)
            * np.polyval(small_horner, x)
            * (1.0 - x) ** one_minus_exp
            * (1.0 + x) ** one_plus_exp
        )

    return adaptive_quadrature(integrand, -1.0, 1.0, tol * max(scale, 1.0))


def _product_quadrature(radial: QuadratureResult, angular: QuadratureResult) -> QuadratureResult:
    value = radial.value * angular.value
    err = (
        radial.abs_error_estimate * abs(angular.value)
        + angular.abs_error_estimate * abs(radial.value)
    )
    return QuadratureResult(value, err, radial.evaluations + angular.evaluations)


def period_integral_quadrature(
    p: int, q: int, n: int, k: int, tol: float = 1e-10
) -> QuadratureResult:
    """Independent two-factor quadrature oracle for the closed form."""
    _check_period_args(p, q, n, k)
    radial = radial_integral_quadrature(2 * p - 1, -radial_cosh_power(p, q, n, k), tol)
    angular = _angular_quadrature((n, q - 1, 0), (k, q - 2, 0), tol)
    return _product_quadrature(radial, angular)


# ---------------------------------------------------------------------------
# Quaternionic family
# ---------------------------------------------------------------------------


def quaternionic_angular_exact(q: int, n: int, k: int) -> Fraction:
    """Exact angular factor: int P_n^(2q-1,1) P_k^(2q-3,1) (1-x)^(2q-3) (1+x) dx.

    Nonzero exactly when k <= n; this decides vanishing of the quaternionic
    period integral, whose radial factor is positive.
    """
    return jacobi_pairing(n, k, 2 * q - 3, 1, 2)


def quaternionic_period_quadrature(
    p: int, q: int, n: int, k: int, tol: float = 1e-10
) -> QuadratureResult:
    """Quaternionic period integral by quadrature.

    Radial density cosh^(4q+3) sinh^(4p-1); angular pairing of P_n^(2q-1,1)
    against P_k^(2q-3,1) under the (2q-3, 1) weight.  Nonzero exactly when
    k <= n (quaternionic_angular_exact).
    """
    _check_period_args(p, q, n, k)
    radial = radial_integral_quadrature(
        4 * p - 1, -radial_cosh_power(p, q, n, k, kind=QUATERNIONIC), tol
    )
    angular = _angular_quadrature((n, 2 * q - 1, 1), (k, 2 * q - 3, 1), tol)
    return _product_quadrature(radial, angular)


def quaternionic_period_scale(p: int, q: int, n: int, k: int, tol: float = 1e-10) -> float:
    """Magnitude scale (radial factor times angular norm product) of the
    quaternionic period integral, for judging a quadrature value against."""
    _check_period_args(p, q, n, k)
    radial = radial_integral_quadrature(4 * p - 1, 4 * q + n + k - 3, tol)
    return radial.value * _angular_profiles((n, 2 * q - 1, 1), (k, 2 * q - 3, 1))[2]
