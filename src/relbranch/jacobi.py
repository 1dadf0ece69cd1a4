"""Jacobi polynomials: one stable float evaluator and exact weighted
pairings and squared norms.

Normalization: P_n^(alpha,beta)(1) = Gamma(n+alpha+1) / (Gamma(n+1) Gamma(alpha+1)).

Float values come from the three-term recurrence (DLMF 18.9; Szego,
Orthogonal Polynomials, ch. 4) in pure Python, for integer alpha and beta:
one sweep at each node of a sequence gives every degree at once, one
array('d') row per degree (jacobi_rows), and a caller that keeps the rows
extends the same sweep when it asks for a higher degree; monomial
coefficients reach 1e30 by degree 64 and cancel catastrophically in float.

The pairing of a shifted polynomial against an unshifted one is one closed
form (jacobi_pairing): by the connection formula (DLMF 18.18(iv)),
P_n^(alpha+shift,beta) expands in the orthogonal P_j^(alpha,beta) with
positive coefficients, so orthogonality leaves one coefficient times a
squared norm, nonzero exactly when the second degree is at most the first.
This exact dichotomy drives every non-vanishing claim downstream.  The
squared norm of a polynomial, shifted or not, under the unshifted weight is
one closed form too (jacobi_shifted_norm_sq), not a sum over the expansion.
Each closed form is a quotient of factorials with its common factors
cancelled: a power of two times rising products (specfun.rising) of at most
n + beta + shift terms, however large alpha is.  Each is returned as an
exact integer ratio (numerator, denominator), never reduced, so no gcd is
taken: the numerator is zero exactly when the value is, and numerator /
denominator is the value correctly rounded to a float.  A squared norm is a
pure function of small integers, so each is built once per argument tuple
and kept.

The exact monomial-coefficient oracle these are tested against lives in
relbranch.oracle and shares no code with this module.  The factorial forms
the closed forms cancel, the connection coefficient among them, live in
tests/factorial_forms.py, where the tests check the ratios against them.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Sequence

from .specfun import rising

# The largest degree, so the largest period label: it bounds the rows of a
# quadrature sweep (jacobi_rows) and the step table that _recurrence_ratios
# builds per (alpha, beta).  It does not bound the exact algebra, whose closed
# forms are products of at most n + beta + shift terms at any degree.
MAX_DEGREE = 64


def check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the label cap MAX_DEGREE = {MAX_DEGREE}")


@lru_cache(maxsize=None)
def _recurrence_ratios(al: int, be: int) -> tuple[tuple[float, float, float], ...]:
    """The ratios (c2/c1, c3/c1, c4/c1) of the steps to degrees 1..MAX_DEGREE,
    where P_m = ((c2 + c3 x) P_{m-1} - c4 P_{m-2}) / c1, for the integer
    exponents al = alpha and be = beta.  No step depends on the target
    degree, so degree n takes the first n steps.  With P_{-1} = 0 the first
    step gives P_1.

    Every c_i is an int, and int / int is the correctly rounded quotient, so
    each ratio is the exact rational rounded once with no Fraction built."""
    rows = [((al - be) / 2, (al + be + 2) / 2, 0.0)]
    for m in range(2, MAX_DEGREE + 1):
        c1 = 2 * m * (m + al + be) * (2 * m + al + be - 2)
        c2 = (2 * m + al + be - 1) * (al * al - be * be)
        c3 = (2 * m + al + be - 1) * (2 * m + al + be) * (2 * m + al + be - 2)
        c4 = 2 * (m + al - 1) * (m + be - 1) * (2 * m + al + be)
        rows.append((c2 / c1, c3 / c1, c4 / c1))
    return tuple(rows)


def jacobi_rows(
    n: int, alpha: int, beta_param: int, xs: Sequence[float], rows: list[array] | None = None
) -> list[array]:
    """The rows of one three-term recurrence sweep of P^(alpha,beta) at the
    nodes xs, for integer alpha and beta, in floating point: row j is an
    array('d') of P_j at each node, and rows 0..n at least are returned.

    rows, when given, is an earlier sweep of the same exponents at the same
    nodes.  It is extended in place, each new row built once from the two
    below it, and returned, so a caller that keeps it sweeps each node set
    only as far as the highest degree it asks for.  A node runs the same
    operations whether the sweep stops at n or goes on, so row n holds the
    same floats however far the sweep reached."""
    check_degree(n)
    if rows is None:
        rows = []
    if not rows:
        rows.append(array("d", [1.0]) * len(xs))
    start = len(rows)
    if start <= n:
        # each row is built as a list from the two below it, which iterate
        # faster than arrays, and kept as an array
        cur = rows[-1].tolist()
        prev = rows[-2].tolist() if start > 1 else [0.0] * len(xs)  # P_{-1} = 0
        for c2, c3, c4 in _recurrence_ratios(alpha, beta_param)[start - 1 : n]:
            prev, cur = cur, [(c2 + c3 * x) * u - c4 * v for x, u, v in zip(xs, cur, prev)]
            rows.append(array("d", cur))
    return rows


# ---------------------------------------------------------------------------
# Connection formula and weighted pairings (integer alpha, beta >= 0)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def jacobi_shifted_norm_sq(n: int, alpha: int, beta_param: int, shift: int) -> tuple[int, int]:
    """Exact squared norm of P_n^(alpha+shift,beta) against the unshifted
    weight (1-x)^alpha (1+x)^beta, for shift 0, 1 or 2, as an unreduced
    integer ratio: for shift 1 or 2 the sum of d_j^2 h_j over its connection
    coefficients d_j and the norms h_j, in closed form.  With a = alpha +
    shift, b = beta and
    N = 2^(a+b) (n+a)! (n+b)! / (n! (n+a+b)!) = 2^(a+b) (n+1)_b / (n+a+1)_b,
    it is 2N / (2n+a+b+1) for shift 0 (the norm h_n of P_n^(alpha,beta)
    itself, 2^(alpha+1) / (2n+alpha+1) when beta = 0), N / a for shift 1 and
    N (2n(n+a+b+1) + (a+b)(a+1)) / (2 (a-1) a (a+1)) for shift 2.
    """
    check_degree(n)
    if alpha < 0 or beta_param < 0 or shift not in (0, 1, 2):
        raise ValueError(f"requires integer alpha, beta >= 0 and shift 0, 1 or 2, got {shift}")
    a, ab = alpha + shift, alpha + shift + beta_param
    num, den = rising(n + 1, beta_param) << ab, rising(n + a + 1, beta_param)
    if shift == 0:
        return num << 1, den * (2 * n + ab + 1)
    if shift == 1:
        return num, den * a
    return num * (2 * n * (n + ab + 1) + ab * (a + 1)), den * 2 * (a - 1) * a * (a + 1)


def jacobi_pairing(n: int, k: int, alpha: int, beta_param: int, shift: int) -> tuple[int, int]:
    """Exact integral of P_n^(alpha+shift,beta) P_k^(alpha,beta)
    (1-x)^alpha (1+x)^beta over [-1, 1], for shift 1 or 2, as an unreduced
    integer ratio; (0, 1) when k > n.

    Orthogonality leaves one term of the connection expansion: d_k h_k,
    with d_k the connection coefficient (DLMF 18.18(iv); Askey, Orthogonal
    Polynomials and Special Functions, Lecture 7) and h_k the squared norm
    (jacobi_shifted_norm_sq with shift 0).  Their product's factorials
    cancel, leaving, with ab = alpha + beta and k <= n,

        (shift)_{n-k} / (n-k)! * 2^(ab+1) * (k+1)_{n+beta-k}
        * [n+k+ab+2 if shift = 2] / (k+alpha+1)_{n+beta-k+shift}

    where (shift)_{n-k} / (n-k)! is 1 for shift 1 and n-k+1 for shift 2.
    Every factor is positive, so the pairing is nonzero exactly when k <= n.
    """
    check_degree(k)
    if shift not in (1, 2):
        raise ValueError(f"shift must be 1 or 2, got {shift}")
    check_degree(n)
    if alpha < 0 or beta_param < 0:
        raise ValueError("requires integer alpha, beta >= 0")
    if k > n:
        return 0, 1
    ab, span = alpha + beta_param, n + beta_param - k
    num = rising(k + 1, span) << (ab + 1)
    if shift == 2:
        num *= (n - k + 1) * (n + k + ab + 2)
    return num, rising(k + alpha + 1, span + shift)
