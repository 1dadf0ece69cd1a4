"""The stated claims of relbranch, each checked across its advertised domain:
one row per claim, named by the acceptance criterion that states it on a
small domain, with the domain it sweeps here.

Run as a script, it checks every claim and prints one PASS or FAIL line per
claim, with the number of cases checked, the time taken and, for a FAIL,
the number of failing cases and the first of them; it exits 1 if any claim
fails:

    PYTHONPATH=src python3 tests/claims.py           # the full domains
    PYTHONPATH=src python3 tests/claims.py --quick   # small domains, under a second

It imports only the standard library and relbranch, as tests/pins.py does.
Tier-1 runs the quick domains.  A claim that fails is a defect to record
and mend, never a domain to shrink.
"""

import sys
import time

from relbranch.branching import (
    MAX_ELL,
    P1,
    P2,
    coupling_check,
    exhaustion_check,
    fj_label_to_a,
    fj_label_to_b,
    hom_dim,
    param_pair,
)
from relbranch.halfint import format_twice
from relbranch.jacobi import MAX_DEGREE
from relbranch.periods import PeriodGrid
from relbranch.reps import EPSILON_1, EPSILON_2, GroupLevel, Side, Signature, make_param

G, GPRIME, PLUS = GroupLevel.G, GroupLevel.GPRIME, Side.PLUS


def label_dictionary(q_max: int, label_max: int):
    """Criterion 6: for the complex family, p < q <= q_max and even labels
    n, k <= label_max, the (+,+) pair of a = fj_label_to_a(n) and
    b = fj_label_to_b(k) over U(p, q+1) couples exactly when the exact
    period of (p, q) at (n, k) is nonzero.  Yields each case's failure, or
    None."""
    labels = range(0, label_max + 1, 2)
    for q in range(2, q_max + 1):
        for p in range(1, q):
            sig, grid = Signature(p, q + 1), PeriodGrid(p, q)
            Pis = [make_param(sig, PLUS, G, fj_label_to_a(sig, n)) for n in labels]
            pis = [make_param(sig, PLUS, GPRIME, fj_label_to_b(sig, k)) for k in labels]
            for n, Pi in zip(labels, Pis):
                for k, pi in zip(labels, pis):
                    dim, nonzero = hom_dim(Pi, pi), grid.exact(n, k)[0] != 0
                    if dim == nonzero:
                        yield None
                    else:
                        period = "nonzero" if nonzero else "zero"
                        where = f"(p, q) = ({p}, {q}), n = {n}, k = {k}"
                        yield f"{where}: hom_dim {dim}, {period} period"


def packet_sums(pq_max: int, values: int):
    """Criterion 5: for every U(p, q) with p, q <= pq_max and a subgroup
    level (all but U(1,1)) and the first `values` valid a and b each, exactly
    one side pair couples, (+,+) when a > b and (-,-) when b > a; the
    pattern is P1 or P2 and both its characters are the witness's
    level-G character, EPSILON_1 or EPSILON_2 to match."""
    for p in range(1, pq_max + 1):
        for q in range(1, pq_max + 1):
            if p == q == 1:
                continue
            sig = Signature(p, q)
            a_twice = range(sig.n - 1, sig.n - 1 + 2 * values, 2)
            b_twice = range(sig.n - 2, sig.n - 2 + 2 * values, 2)
            b_pairs = [(tb, param_pair(sig, GPRIME, tb)) for tb in b_twice]
            for ta in a_twice:
                Pa = param_pair(sig, G, ta)
                for tb, Pb in b_pairs:
                    if ta > tb:
                        want = (P1, (EPSILON_1, EPSILON_1), (1, 0, 0, 0), 0, EPSILON_1)
                    else:
                        want = (P2, (EPSILON_2, EPSILON_2), (0, 0, 0, 1), 3, EPSILON_2)
                    try:
                        got = coupling_check(Pa, Pb)
                    except ValueError as exc:
                        got = f"refused: {exc}"
                    if got == want:
                        yield None
                    else:
                        a, b = format_twice(ta), format_twice(tb)
                        yield f"U({p},{q}) a = {a}, b = {b}: got {got}, want {want}"


def exhaustion(pq_max: int, ell_max: int):
    """Criterion 9: for every U(p, q) with p, q <= pq_max and a subgroup
    level and every valid ell <= ell_max, the two restriction sequences and
    the radial-label prediction agree, and the second stage has its
    relative member a = ell/2 exactly when ell is even."""
    for p in range(1, pq_max + 1):
        for q in range(1, pq_max + 1):
            if p == q == 1:
                continue
            sig = Signature(p, q)
            for ell in range(sig.n, ell_max + 1):
                report = exhaustion_check(sig, ell)
                want_a = None if ell % 2 else format_twice(ell)
                if report["agreement"] and report["a"] == want_a:
                    yield None
                else:
                    yield f"U({p},{q}) ell = {ell}: a = {report['a']}, {report['mismatches']}"


# (name, claim, full domain, quick domain): a domain is the claim's arguments
CLAIMS = [
    ("label dictionary", label_dictionary, (20, MAX_DEGREE), (8, 24)),
    ("packet-sum dichotomy", packet_sums, (12, 60), (6, 16)),
    ("exhaustion agreement", exhaustion, (8, MAX_ELL), (5, 80)),
]


def run(claim, domain):
    """(cases checked, failures, first failure, seconds) of one claim."""
    start = time.perf_counter()
    count = failed = 0
    first = None
    for failure in claim(*domain):
        count += 1
        if failure is not None:
            failed += 1
            first = first or failure
    return count, failed, first, time.perf_counter() - start


def main(argv):
    if argv not in ([], ["--quick"]):
        print("usage: tests/claims.py [--quick]", file=sys.stderr)
        return 2
    quick = argv == ["--quick"]
    failed_claims = 0
    for name, claim, full, small in CLAIMS:
        domain = small if quick else full
        count, failed, first, seconds = run(claim, domain)
        where = f"{name} {domain}: {count} cases in {seconds:.2f} s"
        if failed:
            failed_claims += 1
            print(f"FAIL {where}, {failed} fail; first: {first}", flush=True)
        else:
            print(f"PASS {where}", flush=True)
    print(f"{len(CLAIMS) - failed_claims} of {len(CLAIMS)} claims pass")
    return 1 if failed_claims else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
