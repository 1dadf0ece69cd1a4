"""Exact-rational Jacobi polynomials and their weighted pairings.

Polynomials are generated by the three-term recurrence in Fraction
arithmetic under the normalization

    P_n^(alpha,beta)(1) = Gamma(n+alpha+1) / (Gamma(n+1) Gamma(alpha+1)),

and stored as monomial coefficient vectors.  Exactness matters: the
zero/nonzero dichotomy of the weighted pairings below is what drives every
non-vanishing claim downstream, so those integrals are evaluated in rational
arithmetic, never floating point.

The pairings of a shifted polynomial against an unshifted one come in closed
form from the connection formula (DLMF 18.18; Szego, Orthogonal Polynomials,
ch. 4): each is a short sum of positive rationals, nonzero exactly when the
second degree is at most the first.  The monomial expansion
(weighted_inner_product) is kept as an independent oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence, Union

Rational = Union[int, Fraction]

# Coefficient growth is roughly factorial in the degree; beyond this cap the
# exact vectors become unwieldy without any downstream use.
MAX_DEGREE = 64


@dataclass(frozen=True)
class JacobiPoly:
    """P_n^(alpha,beta) as exact monomial coefficients (ascending powers)."""

    n: int
    alpha: Fraction
    beta_param: Fraction
    coeffs: tuple[Fraction, ...]

    def value_at_one(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the exact-coefficient cap {MAX_DEGREE}")


def jacobi_poly(n: int, alpha: Rational, beta_param: Rational = 0) -> JacobiPoly:
    """Exact P_n^(alpha,beta) via the three-term recurrence."""
    _check_degree(n)
    al = Fraction(alpha)
    be = Fraction(beta_param)
    prev = [Fraction(1)]
    if n == 0:
        return JacobiPoly(0, al, be, tuple(prev))
    cur = [Fraction(al - be, 2), Fraction(al + be + 2, 2)]
    for m in range(2, n + 1):
        c1 = 2 * m * (m + al + be) * (2 * m + al + be - 2)
        c2 = (2 * m + al + be - 1) * (al * al - be * be)
        c3 = (2 * m + al + be - 1) * (2 * m + al + be) * (2 * m + al + be - 2)
        c4 = 2 * (m + al - 1) * (m + be - 1) * (2 * m + al + be)
        nxt = [Fraction(0)] * (m + 1)
        f2, f3, f4 = c2 / c1, c3 / c1, c4 / c1
        for i, c in enumerate(cur):
            nxt[i] += f2 * c
            nxt[i + 1] += f3 * c
        for i, c in enumerate(prev):
            nxt[i] -= f4 * c
        prev, cur = cur, nxt
    return JacobiPoly(n, al, be, tuple(cur))


def jacobi_eval(poly: JacobiPoly, x: float) -> float:
    """Horner evaluation of the exact coefficients in floating point."""
    acc = 0.0
    for c in reversed(poly.coeffs):
        acc = acc * x + float(c)
    return acc


def jacobi_eval_exact(poly: JacobiPoly, x: Rational) -> Fraction:
    xf = Fraction(x)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * xf + c
    return acc


def jacobi_recurrence_eval(n: int, alpha: Rational, beta_param: Rational, x: float) -> float:
    """Direct floating-point recurrence evaluation (independent of the
    coefficient route; used to cross-check jacobi_eval)."""
    _check_degree(n)
    al = float(alpha)
    be = float(beta_param)
    prev = 1.0
    if n == 0:
        return prev
    cur = (al - be) / 2.0 + (al + be + 2.0) / 2.0 * x
    for m in range(2, n + 1):
        c1 = 2 * m * (m + al + be) * (2 * m + al + be - 2)
        c2 = (2 * m + al + be - 1) * (al * al - be * be)
        c3 = (2 * m + al + be - 1) * (2 * m + al + be) * (2 * m + al + be - 2)
        c4 = 2 * (m + al - 1) * (m + be - 1) * (2 * m + al + be)
        prev, cur = cur, ((c2 + c3 * x) * cur - c4 * prev) / c1
    return cur


def normalization_at_one(n: int, alpha: int) -> Fraction:
    """Gamma(n+alpha+1) / (n! Gamma(alpha+1)) for integer alpha >= 0."""
    if alpha < 0:
        raise ValueError("integer normalization requires alpha >= 0")
    return Fraction(factorial(n + alpha), factorial(n) * factorial(alpha))


# ---------------------------------------------------------------------------
# Exact polynomial algebra helpers
# ---------------------------------------------------------------------------


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def integrate_with_weight(
    coeffs: Sequence[Fraction], one_minus_exp: int, one_plus_exp: int = 0
) -> Fraction:
    """Exact integral of p(x) (1-x)^a (1+x)^b over [-1, 1], integer a, b >= 0."""
    if one_minus_exp < 0 or one_plus_exp < 0:
        raise ValueError("weight exponents must be nonnegative integers")
    weight = [Fraction(1)]
    for _ in range(one_minus_exp):
        weight = poly_mul(weight, [Fraction(1), Fraction(-1)])
    for _ in range(one_plus_exp):
        weight = poly_mul(weight, [Fraction(1), Fraction(1)])
    full = poly_mul(list(coeffs), weight)
    # odd monomials vanish by symmetry; int x^j over [-1,1] = 2/(j+1) for even j
    return sum((c * Fraction(2, j + 1) for j, c in enumerate(full) if j % 2 == 0), Fraction(0))


# ---------------------------------------------------------------------------
# Connection formula and weighted pairings (integer alpha, beta >= 0)
# ---------------------------------------------------------------------------


def _connection_coeff(n: int, k: int, alpha: int, beta_param: int) -> Fraction:
    """c_{n,k} in P_n^(alpha+1,beta) = sum_k c_{n,k} P_k^(alpha,beta):

        (n+beta)! (2k+alpha+beta+1) (k+alpha+beta)! / ((n+alpha+beta+1)! (k+beta)!)
    """
    ab = alpha + beta_param
    return Fraction(
        factorial(n + beta_param) * (2 * k + ab + 1) * factorial(k + ab),
        factorial(n + ab + 1) * factorial(k + beta_param),
    )


def connection_coeffs(n: int, alpha: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_n with P_n^(alpha+1,0) = sum_k c_k P_k^(alpha,0).

    c_k = n! (k+alpha)! (2k+alpha+1) / ((n+alpha+1)! k!); every coefficient is
    a product of positive factors.
    """
    _check_degree(n)
    if alpha < 0:
        raise ValueError("connection coefficients require integer alpha >= 0")
    return tuple(_connection_coeff(n, k, alpha, 0) for k in range(n + 1))


def jacobi_norm_sq(k: int, alpha: int, beta_param: int = 0) -> Fraction:
    """Exact norm of P_k^(alpha,beta) against the bare weight
    (1-x)^alpha (1+x)^beta:

        2^(alpha+beta+1) (k+alpha)! (k+beta)! / ((2k+alpha+beta+1) (k+alpha+beta)! k!)

    which is 2^(alpha+1) / (2k+alpha+1) when beta = 0.
    """
    if alpha < 0 or beta_param < 0:
        raise ValueError("requires integer alpha, beta >= 0")
    ab = alpha + beta_param
    return Fraction(
        2 ** (ab + 1) * factorial(k + alpha) * factorial(k + beta_param),
        (2 * k + ab + 1) * factorial(k + ab) * factorial(k),
    )


def jacobi_pairing(n: int, k: int, alpha: int, beta_param: int, shift: int) -> Fraction:
    """Exact integral of P_n^(alpha+shift,beta) P_k^(alpha,beta)
    (1-x)^alpha (1+x)^beta over [-1, 1], for shift 1 or 2.

    Expanding P_n^(alpha+shift,beta) in the orthogonal P_j^(alpha,beta) by the
    connection formula (applied twice for shift 2) leaves one term:
    c_{n,k} h_k for shift 1 and sum_{j=k..n} c^(alpha+1)_{n,j} c^(alpha)_{j,k} h_k
    for shift 2, with h_k the squared norm.  Every factor is positive, so the
    pairing is nonzero exactly when k <= n.
    """
    _check_degree(n)
    _check_degree(k)
    if alpha < 0 or beta_param < 0:
        raise ValueError("requires integer alpha, beta >= 0")
    if shift not in (1, 2):
        raise ValueError(f"shift must be 1 or 2, got {shift}")
    if k > n:
        return Fraction(0)
    if shift == 1:
        coeff = _connection_coeff(n, k, alpha, beta_param)
    else:
        coeff = sum(
            _connection_coeff(n, j, alpha + 1, beta_param)
            * _connection_coeff(j, k, alpha, beta_param)
            for j in range(k, n + 1)
        )
    return coeff * jacobi_norm_sq(k, alpha, beta_param)


def weighted_inner_product(m: int, k: int, alpha: int) -> Fraction:
    """Exact integral of P_m^(alpha+1,0) P_k^(alpha,0) (1-x)^alpha over [-1, 1].

    Computed by expanding the product and integrating monomials term by term;
    nonzero exactly when 0 <= k <= m.  This is the independent oracle for
    jacobi_pairing and is on no production path.
    """
    if alpha < 0:
        raise ValueError("requires integer alpha >= 0")
    pm = jacobi_poly(m, alpha + 1, 0)
    pk = jacobi_poly(k, alpha, 0)
    return integrate_with_weight(poly_mul(pm.coeffs, pk.coeffs), alpha)
