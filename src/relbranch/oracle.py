"""Independent ground-truth engines.

Cheap classical computations that the main predicates are tested against:
the interlacing rule for restricting a unitary-group highest weight one rank
down, detection of spherical highest weights, the explicit rank-one
matrix-coefficient model whose normalized values are Legendre polynomials,
exact Jacobi polynomials from their explicit sum (DLMF 18.5.7) with weighted
pairings by monomial integration, and the float Beta form of the radial
integral for real exponents (via log_gamma) with an adaptive quadrature on
specfun's Gauss-Legendre rule, which build the Beta-argument calibration
table of docs/radial_integral_calibration.md.  None of these share code with
the modules they check: the highest weights the interlacing rule takes are
defined here, on the value bases ``Frozen`` and ``HalfInt``, and nothing is
imported from ``reps`` or ``jacobi``.  No CLI path imports this module, the
only one that uses ``lgamma``.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, NamedTuple, Sequence

from .frozen import Frozen
from .halfint import HalfInt
from .specfun import ConvergenceError, QuadratureResult, gauss_legendre


class HighestWeight(Frozen):
    """A weakly decreasing weight vector with exact entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[HalfInt, ...]):
        super().__init__(entries)
        for a, b in zip(entries, entries[1:]):
            if a < b:
                raise ValueError(f"weight entries must be weakly decreasing: {self}")

    @classmethod
    def of(cls, *values) -> "HighestWeight":
        return cls(tuple(HalfInt.coerce(v) for v in values))

    def entry_sum(self) -> HalfInt:
        total = HalfInt(0)
        for e in self.entries:
            total = total + e
        return total

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


class GTBranchResult(NamedTuple):
    """Restriction multiplicity together with the inequalities that decided it."""

    multiplicity: int
    witness: tuple[tuple[str, bool], ...]


def un_branch_mult(lam: HighestWeight, mu: HighestWeight) -> GTBranchResult:
    """Multiplicity of mu in the restriction of lam one rank down.

    The classical rule: multiplicity 1 iff the entries interlace,
    lam_i >= mu_i >= lam_(i+1) for every i; otherwise 0.  Restriction one
    rank down is multiplicity free, so the result is always 0 or 1.
    """
    if len(mu) != len(lam) - 1:
        raise ValueError(f"rank mismatch: |mu| = {len(mu)} must be |lam| - 1 = {len(lam) - 1}")
    for e in lam.entries + mu.entries:
        if not e.is_integer:
            raise ValueError("weights must be integral")
    checks = []
    ok = True
    for i, m in enumerate(mu.entries):
        hi, lo = lam.entries[i], lam.entries[i + 1]
        sat = hi >= m >= lo
        checks.append((f"{hi} >= {m} >= {lo}", sat))
        ok = ok and sat
    return GTBranchResult(1 if ok else 0, tuple(checks))


def is_spherical(lam: HighestWeight) -> bool:
    """True iff the weight has the form (a, 0, ..., 0, -a) with a >= 0."""
    entries = lam.entries
    if len(entries) == 1:
        return entries[0].twice == 0
    first, last = entries[0], entries[-1]
    if first.twice < 0 or first != -last:
        return False
    return all(e.twice == 0 for e in entries[1:-1])


def compact_relative_mult(a: int, b: int, n: int) -> int:
    """Multiplicity of the spherical weight (b, 0, ..., -b) in the restriction
    of (a, 0, ..., -a) one rank down: 1 iff a >= b >= 0."""
    if n < 3:
        raise ValueError("need rank n >= 3")
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0")
    return 1 if a >= b >= 0 else 0


def spherical_weight(a: int, n: int) -> HighestWeight:
    """The weight (a, 0, ..., 0, -a) of length n."""
    return HighestWeight.of(a, *([0] * (n - 2)), -a)


def su2_spherical_coefficient(n: int, theta_grid: Sequence[float]) -> list[float]:
    """Matrix coefficient of the middle monomial under rotations.

    On degree-2n homogeneous polynomials in (z, w), the rotation by theta
    sends zw to cos(t)sin(t) z^2 + (cos^2(t) - sin^2(t)) zw - cos(t)sin(t) w^2;
    raising that to the n-th power and pairing with z^n w^n under the
    invariant inner product (monomial squared norms j!(m-j)!/m!) gives the
    coefficient.  Normalized to 1 at theta = 0 it equals the Legendre
    polynomial of degree n in cos(2 theta).  One value per theta, as a list.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    norm_sq = factorial(n) ** 2 / factorial(2 * n)
    out = []
    for theta in theta_grid:
        c, s = math.cos(theta), math.sin(theta)
        action = ((0, c * s), (1, c * c - s * s), (2, -c * s))  # w-degree shift, coeff
        # expand the n-th power, tracking coefficients by w-degree
        poly = {0: 1.0}
        for _ in range(n):
            nxt: dict[int, float] = {}
            for deg, coeff in poly.items():
                for shift, factor in action:
                    nxt[deg + shift] = nxt.get(deg + shift, 0.0) + coeff * factor
            poly = nxt
        out.append(poly.get(n, 0.0) * norm_sq)
    return out


def _rising(a: Fraction, m: int) -> Fraction:
    """The Pochhammer symbol (a)_m = a (a+1) ... (a+m-1)."""
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out


def jacobi_coeffs(
    n: int, alpha: int | Fraction, beta_param: int | Fraction = 0
) -> tuple[Fraction, ...]:
    """Exact ascending monomial coefficients of P_n^(alpha,beta), from

        sum_l (n+alpha+beta+1)_l (alpha+l+1)_(n-l) / (l! (n-l)!) ((x-1)/2)^l.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    al, be = Fraction(alpha), Fraction(beta_param)
    coeffs = [Fraction(0)] * (n + 1)
    for l in range(n + 1):
        term = _rising(n + al + be + 1, l) * _rising(al + l + 1, n - l)
        term /= factorial(l) * factorial(n - l) * 2**l
        for i in range(l + 1):  # ((x-1)/2)^l = 2^-l sum_i C(l,i) (-1)^(l-i) x^i
            coeffs[i] += term * (comb(l, i) * (-1) ** (l - i))
    return tuple(coeffs)


def _poly_mul(f: Sequence, g: Sequence) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def weighted_pairing(
    f: Sequence[Fraction], g: Sequence[Fraction], alpha: int, beta_param: int = 0
) -> Fraction:
    """Exact integral of f(x) g(x) (1-x)^alpha (1+x)^beta over [-1, 1], for
    ascending coefficient vectors f, g and integer alpha, beta >= 0."""
    if alpha < 0 or beta_param < 0:
        raise ValueError("weight exponents must be nonnegative integers")
    weight = _poly_mul(
        [comb(alpha, j) * (-1) ** j for j in range(alpha + 1)],
        [comb(beta_param, j) for j in range(beta_param + 1)],
    )
    full = _poly_mul(_poly_mul(f, g), weight)
    # odd monomials vanish by symmetry; int x^j over [-1,1] = 2/(j+1) for even j
    return sum((c * Fraction(2, j + 1) for j, c in enumerate(full) if j % 2 == 0), Fraction(0))


def normalization_at_one(n: int, alpha: int) -> Fraction:
    """P_n^(alpha,beta)(1) = Gamma(n+alpha+1) / (n! Gamma(alpha+1)) for
    integer alpha >= 0."""
    if alpha < 0:
        raise ValueError("integer normalization requires alpha >= 0")
    return Fraction(factorial(n + alpha), factorial(n) * factorial(alpha))


# ---------------------------------------------------------------------------
# The Beta-argument calibration: the float closed form and adaptive quadrature
# ---------------------------------------------------------------------------


class DomainError(ValueError):
    """Argument outside the function's domain."""


class DivergenceError(ValueError):
    """The requested integral does not converge."""


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), via log_gamma."""
    if not (x > 0 and y > 0):
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))


def _check_radial_convergence(alpha: float, beta_exp: float) -> None:
    if not alpha > -1:
        raise DivergenceError(f"radial integral diverges at 0: need alpha > -1, got {alpha}")
    if not beta_exp - alpha > 0:
        raise DivergenceError(
            f"radial integral diverges at infinity: need beta - alpha > 0, "
            f"got beta - alpha = {beta_exp - alpha}"
        )


def radial_integral_closed(alpha: float, beta_exp: float) -> float:
    """A(alpha, beta) in closed form: (1/2) B((alpha+1)/2, (beta-alpha)/2)."""
    _check_radial_convergence(alpha, beta_exp)
    return 0.5 * beta((alpha + 1.0) / 2.0, (beta_exp - alpha) / 2.0)


GAUSS_ORDER = 16
MAX_PANELS = 4096


@lru_cache(maxsize=None)
def _gauss_rule() -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of the GAUSS_ORDER-point Gauss-Legendre rule on [-1, 1]."""
    return tuple(zip(*gauss_legendre(GAUSS_ORDER)))


def _gauss_panel(f: Callable[[float], float], lo: float, hi: float) -> float:
    """One Gauss-Legendre panel: the integral of f over [lo, hi], its node
    terms summed with math.fsum."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * math.fsum(w * f(mid + half * x) for x, w in _gauss_rule())


def adaptive_quadrature(
    f: Callable[[float], float], a: float, b: float, abs_tol: float
) -> QuadratureResult:
    """Integrate a float integrand over [a, b] to an absolute tolerance.

    Fixed-order Gauss-Legendre panels, bisected greedily: the interval with
    the largest error estimate (whole-panel value against the sum of its two
    halves) is refined until the total estimate meets the tolerance.  Ties
    break on the left endpoint and the final sum runs left to right, so
    results are bit-stable across runs.
    """
    if not 0 < abs_tol < math.inf:
        raise ValueError("abs_tol must be positive and finite")
    evaluations = 0

    def panel(lo: float, hi: float) -> float:
        nonlocal evaluations
        evaluations += GAUSS_ORDER
        return _gauss_panel(f, lo, hi)

    def node(lo: float, hi: float, coarse: float) -> tuple:
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        return (-abs(left + right - coarse), lo, hi, left, right)

    width_floor = 1e-14 * (b - a)
    live = [node(a, b, panel(a, b))]
    done: list[tuple] = []
    err_total = -live[0][0]
    panels = 1
    while err_total > abs_tol:
        if not live:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] stalled at error {err_total:.3g} > {abs_tol:.3g}"
            )
        if panels >= MAX_PANELS:
            raise ConvergenceError(
                f"quadrature on [{a}, {b}] did not converge within {MAX_PANELS} panels"
            )
        worst = heapq.heappop(live)
        neg_err, lo, hi, left, right = worst
        if (hi - lo) <= width_floor:
            done.append(worst)  # cannot usefully refine further
            continue
        mid = 0.5 * (lo + hi)
        child_l = node(lo, mid, left)
        child_r = node(mid, hi, right)
        heapq.heappush(live, child_l)
        heapq.heappush(live, child_r)
        err_total += neg_err - child_l[0] - child_r[0]
        panels += 2
    pieces = sorted(live + done, key=lambda item: item[1])
    total = 0.0
    err = 0.0
    for neg_err, _, _, left, right in pieces:
        total += left + right
        err += -neg_err
    return QuadratureResult(total, err, evaluations)


def radial_integral_quadrature(alpha: float, beta_exp: float, tol: float) -> QuadratureResult:
    """A(alpha, beta) by adaptive quadrature, independent of the closed form.

    Substituting u = tanh t maps [0, inf) to [0, 1) and turns the integrand
    into u^alpha (1 - u^2)^((beta-alpha)/2 - 1), which has at worst algebraic
    endpoint behaviour under the convergence preconditions.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    _check_radial_convergence(alpha, beta_exp)
    s = (beta_exp - alpha) / 2.0

    def integrand(u: float) -> float:
        return u**alpha * (1.0 - u * u) ** (s - 1.0)

    # one coarse panel fixes the absolute-tolerance scale
    coarse = _gauss_panel(integrand, 0.0, 1.0)
    abs_tol = tol * max(1.0, abs(coarse))
    result = adaptive_quadrature(integrand, 0.0, 1.0, abs_tol)
    return QuadratureResult(
        result.value, result.abs_error_estimate, result.evaluations + GAUSS_ORDER
    )


DEFAULT_CALIBRATION_PAIRS = ((1, 3), (3, 7), (1, 5), (2, 6), (5, 9), (3, 9), (7, 13))


def beta_argument_evidence(
    pairs: Sequence[tuple[int, int]] = DEFAULT_CALIBRATION_PAIRS, tol: float = 1e-12
) -> list[dict]:
    """Evidence table for the Beta-argument calibration of the closed form.

    For each (alpha, beta) pair the quadrature value is compared against both
    candidate first Beta arguments, (alpha+1)/2 and (alpha-1)/2.  The shipped
    closed form is the (alpha+1)/2 variant; this table is regenerated by the
    test suite and committed under docs/.
    """
    rows = []
    for alpha, beta_exp in pairs:
        quad = radial_integral_quadrature(alpha, beta_exp, tol)
        chosen = radial_integral_closed(alpha, beta_exp)
        if alpha - 1.0 > 0:
            rejected = 0.5 * beta((alpha - 1.0) / 2.0, (beta_exp - alpha) / 2.0)
            rejected_note = f"{rejected:.12g}"
        else:
            rejected_note = "divergent (nonpositive argument)"
        rows.append(
            {
                "alpha": alpha,
                "beta": beta_exp,
                "quadrature": quad.value,
                "quadrature_error": quad.abs_error_estimate,
                "variant_plus": chosen,
                "variant_minus": rejected_note,
                "relative_difference": abs(chosen - quad.value) / abs(quad.value),
            }
        )
    return rows
