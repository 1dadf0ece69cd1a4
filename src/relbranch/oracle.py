"""Independent ground-truth engines.

Cheap classical computations that the main predicates are tested against:
the interlacing rule for restricting a unitary-group highest weight one rank
down, detection of spherical highest weights, the explicit rank-one
matrix-coefficient model whose normalized values are Legendre polynomials,
and exact Jacobi polynomials from their explicit sum (DLMF 18.5.7) with
weighted pairings by monomial integration.  None of these share code with the
modules they check, and no CLI path imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

import numpy as np

from .reps import HighestWeight


@dataclass(frozen=True)
class GTBranchResult:
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


def su2_spherical_coefficient(n: int, theta_grid: Sequence[float]) -> np.ndarray:
    """Matrix coefficient of the middle monomial under rotations.

    On degree-2n homogeneous polynomials in (z, w), the rotation by theta
    sends zw to cos(t)sin(t) z^2 + (cos^2(t) - sin^2(t)) zw - cos(t)sin(t) w^2;
    raising that to the n-th power and pairing with z^n w^n under the
    invariant inner product (monomial squared norms j!(m-j)!/m!) gives the
    coefficient.  Normalized to 1 at theta = 0 it equals the Legendre
    polynomial of degree n in cos(2 theta).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    thetas = np.asarray(theta_grid, dtype=float)
    norm_sq = factorial(n) ** 2 / factorial(2 * n)
    out = np.empty_like(thetas)
    for idx, theta in enumerate(thetas.ravel()):
        c, s = np.cos(theta), np.sin(theta)
        action = ((0, c * s), (1, c * c - s * s), (2, -c * s))  # w-degree shift, coeff
        # expand the n-th power, tracking coefficients by w-degree
        poly = {0: 1.0}
        for _ in range(n):
            nxt: dict[int, float] = {}
            for deg, coeff in poly.items():
                for shift, factor in action:
                    nxt[deg + shift] = nxt.get(deg + shift, 0.0) + coeff * factor
            poly = nxt
        out.ravel()[idx] = poly.get(n, 0.0) * norm_sq
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
