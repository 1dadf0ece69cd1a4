"""Independent ground-truth engines.

Cheap classical computations that the main predicates are tested against:
the interlacing rule for restricting a unitary-group highest weight one rank
down, detection of spherical highest weights, the explicit rank-one
matrix-coefficient model whose normalized values are Legendre polynomials,
exact Jacobi polynomials from their explicit sum (DLMF 18.5.7) with weighted
pairings by monomial integration, and the radial integral as an exact sum
of monomial integrals, which builds the Beta-argument calibration table of
docs/radial_integral_calibration.md.  None of these share code with the
modules they check: the highest weights the interlacing rule takes are
defined here, on the value base ``Frozen`` with ``Fraction`` entries, and
nothing is imported from ``halfint``, ``reps``, ``jacobi`` or ``specfun``.
No CLI path imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Sequence

from .frozen import Frozen


class HighestWeight(Frozen):
    """A weakly decreasing weight vector with exact half-integer entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[Fraction, ...]):
        super().__init__(entries)
        for e in entries:
            if (2 * e).denominator != 1:
                raise ValueError(f"weight entry {e} is not a half-integer")
        for a, b in zip(entries, entries[1:]):
            if a < b:
                raise ValueError(f"weight entries must be weakly decreasing: {self}")

    @classmethod
    def of(cls, *values) -> "HighestWeight":
        """The weight of entries given as ints, Fractions or their literals."""
        return cls(tuple(map(Fraction, values)))

    def entry_sum(self) -> Fraction:
        return sum(self.entries, Fraction(0))

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
        if e.denominator != 1:
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
        return entries[0] == 0
    first, last = entries[0], entries[-1]
    if first < 0 or first != -last:
        return False
    return all(e == 0 for e in entries[1:-1])


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
# The radial integral, exactly, and the Beta-argument calibration
# ---------------------------------------------------------------------------


def radial_integral_monomial(alpha: int, beta_exp: int) -> Fraction:
    """A(alpha, beta) = integral_0^inf (sinh t)^alpha (cosh t)^(-beta) dt,
    exactly, without the Beta identity: u = tanh t gives
    integral_0^1 u^alpha (1 - u^2)^(s-1) du with s = (beta - alpha)/2, and
    integrating the binomial expansion term by term gives
    sum_j C(s-1, j) (-1)^j / (alpha + 2j + 1).  Raises ValueError unless
    alpha is an integer >= 0 and beta - alpha an even integer > 0."""
    ints = isinstance(alpha, int) and isinstance(beta_exp, int)
    if not (ints and alpha >= 0 and beta_exp > alpha and (beta_exp - alpha) % 2 == 0):
        raise ValueError(f"A({alpha}, {beta_exp}): need integer alpha >= 0, even beta - alpha > 0")
    s = (beta_exp - alpha) // 2
    terms = (Fraction(comb(s - 1, j) * (-1) ** j, alpha + 2 * j + 1) for j in range(s))
    return sum(terms, Fraction(0))


def _half_beta(x: Fraction, s: int) -> Fraction:
    """(1/2) B(x, s) = (s-1)! / (2 (x)_s) for rational x > 0 and integer s >= 1."""
    return factorial(s - 1) / (2 * _rising(x, s))


DEFAULT_CALIBRATION_PAIRS = ((1, 3), (3, 7), (1, 5), (2, 6), (5, 9), (3, 9), (7, 13))


def beta_argument_evidence(
    pairs: Sequence[tuple[int, int]] = DEFAULT_CALIBRATION_PAIRS,
) -> list[dict]:
    """Evidence table for the first Beta argument of the radial closed form.

    For each (alpha, beta) pair: the oracle value and the half Beta values
    at the two candidate first arguments, (alpha+1)/2 (shipped) and
    (alpha-1)/2 ("divergent" where not positive), with second argument
    (beta-alpha)/2, all exact, as Fraction text.  The table is committed
    under docs/ and regenerated by the test suite.
    """
    rows = []
    for alpha, beta_exp in pairs:
        s, minus = (beta_exp - alpha) // 2, Fraction(alpha - 1, 2)
        rejected = str(_half_beta(minus, s)) if minus > 0 else "divergent (nonpositive argument)"
        rows.append(
            {
                "alpha": alpha,
                "beta": beta_exp,
                "oracle": str(radial_integral_monomial(alpha, beta_exp)),
                "variant_plus": str(_half_beta(Fraction(alpha + 1, 2), s)),
                "variant_minus": rejected,
            }
        )
    return rows
