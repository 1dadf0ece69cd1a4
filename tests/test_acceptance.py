"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or execute this file directly (``python tests/test_acceptance.py``)
for a standalone report.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

from relbranch.branching import (
    P1,
    P2,
    classify_interlacing,
    exhaustion_check,
    fj_label_to_a,
    fj_label_to_b,
    hom_dim,
    pattern_characters,
    pi_minus_summands,
)
from relbranch.halfint import HalfInt
from relbranch.hepattern import enumerate_alignments, u1n_end_candidates, u2n_plus_sequence
from relbranch.jacobi import connection_coeff, jacobi_rows
from relbranch.oracle import (
    beta_argument_evidence,
    compact_relative_mult,
    jacobi_coeffs,
    normalization_at_one,
    spherical_weight,
    su2_spherical_coefficient,
    un_branch_mult,
)
from relbranch.periods import (
    QUATERNIONIC,
    closed_value,
    period_integral_exact,
    period_integral_quadrature,
)
from relbranch.reps import EPSILON_1, EPSILON_2, GroupLevel, Side, Signature, make_param
from relbranch.specfun import radial_integral_exact

REPO_ROOT = Path(__file__).resolve().parents[1]


def _criterion(number, name, limit_s, fn):
    start = time.perf_counter()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number:>2}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.3f}s)  {name}")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {number} runtime {elapsed:.3f}s >= {limit_s}s"


def test_criterion_01_jacobi_normalization():
    def check():
        for n in range(0, 11):
            for alpha in range(0, 9):
                want = normalization_at_one(n, alpha)
                for beta in (0, 1, 3):
                    assert sum(jacobi_coeffs(n, alpha, beta)) == want

    _criterion(1, "Jacobi normalization at x = 1, exact", 1.0, check)


def test_criterion_02_connection_identity():
    def check():
        for n in range(0, 13):
            for alpha in range(0, 9):
                coeffs = tuple(connection_coeff(n, j, alpha, 0, 1) for j in range(n + 1))
                acc = [0] * (n + 1)
                for k, c in enumerate(coeffs):
                    for i, ci in enumerate(jacobi_coeffs(k, alpha, 0)):
                        acc[i] += c * ci
                assert tuple(acc) == jacobi_coeffs(n, alpha + 1, 0)

    _criterion(2, "connection formula, coefficient-exact", 5.0, check)


def test_criterion_03_period_dichotomy():
    def check():
        for p in range(1, 4):
            for q in range(p + 1, 5):
                for n in range(0, 9, 2):
                    for k in range(0, 9, 2):
                        closed = closed_value(period_integral_exact(p, q, n, k))
                        quad = period_integral_quadrature(p, q, n, k, 1e-10)
                        if closed == 0.0:
                            assert abs(quad.value) <= 1e-8
                        else:
                            assert abs(closed - quad.value) <= 1e-8 * abs(closed)
                        assert (closed != 0.0) == (0 <= k <= n)
                        assert (period_integral_exact(p, q, n, k) != 0) == (0 <= k <= n)

    _criterion(3, "period integral: closed form vs quadrature, vanishing iff k > n",
               120.0, check)


def test_criterion_04_beta_argument_calibration():
    def check():
        pairs = [(1, 3), (3, 7), (1, 5), (2, 6), (5, 9)]
        exact = {(1, 3): Fraction(1, 2), (3, 7): Fraction(1, 12)}
        for row in beta_argument_evidence(pairs):
            alpha, beta_exp = row["alpha"], row["beta"]
            # the (alpha+1)/2 half Beta value equals the exact oracle
            closed = Fraction(row["variant_plus"])
            assert closed == Fraction(row["oracle"])
            if alpha % 2:  # and so does the period route's factorial form
                assert radial_integral_exact(alpha, beta_exp) == closed
            if (alpha, beta_exp) in exact:
                assert closed == exact[alpha, beta_exp]
        doc = REPO_ROOT / "docs" / "radial_integral_calibration.md"
        assert doc.exists(), "calibration evidence table is not committed"
        text = doc.read_text()
        assert "(alpha+1)/2" in text
        for alpha, beta_exp in pairs:
            assert f"A({alpha},{beta_exp})" in text

    _criterion(4, "radial Beta-argument calibration with committed evidence", 10.0, check)


def _rb_pairs(sig):
    cap = HalfInt(sig.n + 9)  # (p+q+9)/2
    a_vals, b_vals = [], []
    a = HalfInt(sig.n - 1)
    while a <= cap:
        a_vals.append(a)
        a = a + 1
    b = HalfInt(sig.n - 2)
    while b <= cap:
        b_vals.append(b)
        b = b + 1
    return [(a, b) for a in a_vals for b in b_vals]


def test_criterion_05_branching_truth_table():
    def check():
        for sig in (Signature(4, 5), Signature(5, 4), Signature(4, 6)):
            for a, b in _rb_pairs(sig):
                dims = {}
                for sG in (Side.PLUS, Side.MINUS):
                    Pi = make_param(sig, sG, GroupLevel.G, a)
                    for sGp in (Side.PLUS, Side.MINUS):
                        pi = make_param(sig, sGp, GroupLevel.GPRIME, b)
                        dims[sG, sGp] = hom_dim(Pi, pi)
                assert dims[Side.PLUS, Side.PLUS] == (1 if a > b else 0)
                assert dims[Side.MINUS, Side.MINUS] == (1 if b > a else 0)
                assert dims[Side.PLUS, Side.MINUS] == 0
                assert dims[Side.MINUS, Side.PLUS] == 0
                assert sum(dims.values()) == 1
                expected = (EPSILON_1, EPSILON_1) if a > b else (EPSILON_2, EPSILON_2)
                assert classify_interlacing(a, b) == (P1 if a > b else P2)
                assert pattern_characters(a, b) == expected

    _criterion(5, "branching truth table, packet sums, pattern characters", 1.0, check)


def test_criterion_06_period_branching_agreement():
    def check():
        for p in range(1, 4):
            for q in range(p + 1, 5):
                sig = Signature(p, q + 1)
                for n in range(0, 13, 2):
                    Pi = make_param(sig, Side.PLUS, GroupLevel.G, fj_label_to_a(sig, n))
                    for k in range(0, 13, 2):
                        pi = make_param(
                            sig, Side.PLUS, GroupLevel.GPRIME, fj_label_to_b(sig, k)
                        )
                        assert hom_dim(Pi, pi) == (
                            1 if period_integral_exact(p, q, n, k) != 0 else 0
                        )

    _criterion(6, "label dictionary aligns period vanishing with coupling", 10.0, check)


def test_criterion_07_compact_oracle_equivalence():
    def check():
        for n in (4, 5, 6):
            for a in range(0, 9):
                for b in range(0, 9):
                    via_oracle = un_branch_mult(
                        spherical_weight(a, n), spherical_weight(b, n - 1)
                    ).multiplicity
                    assert compact_relative_mult(a, b, n) == via_oracle

    _criterion(7, "compact rule equals the interlacing oracle exhaustively", 1.0, check)


def test_criterion_08_su2_legendre():
    def check():
        thetas = [math.pi * i / 180 for i in range(181)]
        xs = [math.cos(2.0 * t) for t in thetas]
        for n in range(0, 7):
            phi = su2_spherical_coefficient(n, thetas)
            phi0 = su2_spherical_coefficient(n, [0.0])[0]
            reference = jacobi_rows(n, 0, 0, xs)[n]
            assert max(abs(v / phi0 - r) for v, r in zip(phi, reference, strict=True)) <= 1e-10
        # degree 2: a single constant against 3 cos^2(2 theta) - 1
        phi = su2_spherical_coefficient(2, thetas)
        shape = [3.0 * math.cos(2.0 * t) ** 2 - 1.0 for t in thetas]
        ratios = [v / s for v, s in zip(phi, shape, strict=True) if abs(s) > 1e-8]
        assert max(ratios) - min(ratios) <= 1e-12

    _criterion(8, "rank-one matrix coefficients reproduce Legendre values", 1.0, check)


def test_criterion_09_exhaustion_cross_check():
    def check():
        sig = Signature(3, 3)
        for ell in range(8, 17, 2):
            report = exhaustion_check(sig, ell)
            assert report["agreement"], report["mismatches"]
            assert (
                report["first_sequence"]
                == report["second_sequence"]
                == report["period_prediction"]
            )
            assert report["first_sequence"]  # nonempty in this range

    _criterion(9, "two-stage pipelines match the coupling prediction", 5.0, check)


def test_criterion_10_minus_side_summands():
    def check():
        for sig in (Signature(3, 3), Signature(3, 4), Signature(4, 6)):
            a0 = HalfInt(sig.n - 1)
            for m in (0, 1, 3):
                a = a0 + m
                Pi = make_param(sig, Side.MINUS, GroupLevel.G, a)
                summands = pi_minus_summands(Pi, 10)
                expected = [a + HalfInt(1) + k for k in range(11)]
                assert [s.a for s in summands] == expected
                for s in summands:
                    assert hom_dim(Pi, s) == 1

    _criterion(10, "minus-side summands are exactly the half-step ladder", 1.0, check)


def test_criterion_11_sign_alignments():
    def check():
        for n in range(4, 11):
            big = u2n_plus_sequence(n)
            first, second = u1n_end_candidates(n)
            got_first = list(enumerate_alignments(big, first))
            got_second = list(enumerate_alignments(big, second))
            assert len(got_first) == 1 and len(got_second) == 1
            assert got_first[0] == "+P" + "M-" * n + "+"
            assert got_second[0] == "+-" + "M-" * (n - 1) + "MP+"

    _criterion(11, "exactly two alignments, matching the reference patterns", 5.0, check)


def test_criterion_12_quaternionic_periods():
    def check():
        for p, q in ((1, 2), (1, 3)):
            for n in range(0, 7, 2):
                for k in range(0, 7, 2):
                    r = period_integral_quadrature(p, q, n, k, 1e-10, kind=QUATERNIONIC)
                    assert (abs(r.value) > r.abs_error_estimate) == (k <= n), (p, q, n, k)

    _criterion(12, "quaternionic periods vanish exactly above the diagonal", 60.0, check)


def main():
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"    detail: {exc}")
    if failures:
        print(f"[acceptance] {failures} criterion(s) FAILED")
        sys.exit(1)
    print("[acceptance] all criteria passed")


if __name__ == "__main__":
    main()
