"""Log-gamma, Beta, and the radial hyperbolic integral with a quadrature oracle.

The radial integral is

    A(alpha, beta) = integral_0^inf (sinh t)^alpha (cosh t)^(-beta) dt,

convergent for alpha > -1 and beta > alpha.  Two independent routes are
provided: a closed Beta-function form and an adaptive Gauss-Legendre
quadrature.  The closed form uses the Beta arguments ((alpha+1)/2,
(beta-alpha)/2); this argument choice was calibrated against the quadrature
oracle on integer pairs (the alternative first argument (alpha-1)/2 is
divergent at alpha=1 and disagrees everywhere else; see
docs/radial_integral_calibration.md for the evidence table).

numpy is imported on first use, not with this module: _gauss_rule builds the
Gauss-Legendre rule the first time a panel is integrated, so a caller that
never integrates (the exact branching commands of the CLI) never loads it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np


class DomainError(ValueError):
    """Argument outside the function's domain."""


class DivergenceError(ValueError):
    """The requested integral does not converge."""


class ConvergenceError(RuntimeError):
    """Adaptive refinement budget exhausted before reaching tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


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


# ---------------------------------------------------------------------------
# Adaptive quadrature engine
# ---------------------------------------------------------------------------

GAUSS_ORDER = 16
MAX_PANELS = 4096


@lru_cache(maxsize=None)
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GAUSS_ORDER-point Gauss-Legendre rule on [-1, 1]."""
    import numpy as np

    return np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _gauss_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """One Gauss-Legendre panel: the integral of f over [lo, hi]."""
    nodes, weights = _gauss_rule()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # ndarray.dot is numpy.dot, reached without importing numpy on each panel
    return half * float(weights.dot(f(mid + half * nodes)))


def adaptive_quadrature(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, abs_tol: float
) -> QuadratureResult:
    """Integrate a vectorized integrand over [a, b] to an absolute tolerance.

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


# ---------------------------------------------------------------------------
# Radial hyperbolic integral
# ---------------------------------------------------------------------------


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

    def integrand(u: np.ndarray) -> np.ndarray:
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
        chosen = 0.5 * beta((alpha + 1.0) / 2.0, (beta_exp - alpha) / 2.0)
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
