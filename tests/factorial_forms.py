"""The factorial forms of the exact closed forms, as Fractions, for the tests
to check the production ratios against.

jacobi.jacobi_pairing, jacobi.jacobi_norm_sq, jacobi.jacobi_shifted_norm_sq
and specfun.radial_integral_exact each return one of these with its common
factors cancelled, as an unreduced integer ratio.  Here each is written as
the quotient of factorials it comes from, with no factor cancelled, and
every factorial is built once.  It imports only the standard library and
relbranch.jacobi's degree check, so the standalone acceptance report
(tests/test_acceptance.py) can use it without pytest.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial as _factorial
from math import prod

from relbranch.jacobi import check_degree

factorial = lru_cache(maxsize=None)(_factorial)


def connection_coeff(n: int, k: int, alpha: int, beta_param: int, shift: int) -> Fraction:
    """d_k in P_n^(alpha+shift,beta) = sum_k d_k P_k^(alpha,beta), zero for k > n
    (DLMF 18.18(iv); Askey, Orthogonal Polynomials and Special Functions,
    Lecture 7).  With ab = alpha + beta:

        (shift)_{n-k} / (n-k)!
        * (n+beta)! (n+k+ab+shift)! (2k+ab+1) (k+ab)!
        / ((n+ab+shift)! (k+beta)! (n+k+ab+1)!)

    Every factor is positive once shift >= 1; shift 0 gives the identity.
    jacobi_pairing is this times norm_sq.
    """
    check_degree(n)
    if alpha < 0 or beta_param < 0 or shift < 0:
        raise ValueError("requires integer alpha, beta, shift >= 0")
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if k > n:
        return Fraction(0)
    ab = alpha + beta_param
    rising = prod(range(shift, shift + n - k)) // factorial(n - k)  # (shift)_{n-k} / (n-k)!
    return Fraction(
        rising
        * factorial(n + beta_param)
        * factorial(n + k + ab + shift)
        * (2 * k + ab + 1)
        * factorial(k + ab),
        factorial(n + ab + shift) * factorial(k + beta_param) * factorial(n + k + ab + 1),
    )


def norm_sq(k: int, alpha: int, beta_param: int) -> Fraction:
    """The squared norm of P_k^(alpha,beta) against (1-x)^alpha (1+x)^beta:
    2^(ab+1) (k+alpha)! (k+beta)! / ((2k+ab+1) (k+ab)! k!), ab = alpha + beta."""
    ab = alpha + beta_param
    return Fraction(
        2 ** (ab + 1) * factorial(k + alpha) * factorial(k + beta_param),
        (2 * k + ab + 1) * factorial(k + ab) * factorial(k),
    )


def shifted_norm_sq(n: int, alpha: int, beta_param: int, shift: int) -> Fraction:
    """The squared norm of P_n^(alpha+shift,beta) against the unshifted
    weight, shift 1 or 2: with a = alpha + shift, b = beta and
    N = 2^(a+b) (n+a)! (n+b)! / (n! (n+a+b)!), it is N / a for shift 1 and
    N (2n(n+a+b+1) + (a+b)(a+1)) / (2 (a-1) a (a+1)) for shift 2."""
    a, ab = alpha + shift, alpha + shift + beta_param
    norm = Fraction(
        2**ab * factorial(n + a) * factorial(n + beta_param), factorial(n) * factorial(n + ab)
    )
    if shift == 1:
        return norm / a
    return norm * (2 * n * (n + ab + 1) + ab * (a + 1)) / (2 * (a - 1) * a * (a + 1))


def radial(alpha: int, beta_exp: int) -> Fraction:
    """A(alpha, beta) = (a-1)! (b-1)! / (2 (a+b-1)!) with a = (alpha+1)/2 and
    b = (beta-alpha)/2 (DLMF 5.12.1), for odd alpha and even beta - alpha."""
    a, b = (alpha + 1) // 2, (beta_exp - alpha) // 2
    return Fraction(factorial(a - 1) * factorial(b - 1), 2 * factorial(a + b - 1))
