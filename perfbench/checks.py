"""Output checks for the benchmark's CLI invocations.

Every check is written here, independently of the package under test: it
parses the JSON-lines output and tests it against the stated contract of the
command.  A check returns a list of problems; an empty list means the
output passed.

run.py calls this file as a child process (output on stdin, problems as a
JSON list on stdout), so that parsing megabytes of output never raises the
benchmark's own peak memory: a child's max-RSS from wait4 includes the
high-water mark of the parent that spawned it.

    python3 checks.py KIND SPEC_JSON < output
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

# Closed form against quadrature, complex family.  The seed's worst case is
# 3.8e-9 relative; the quadrature's own error estimate is not used as the
# bound because the seed exceeds it on 51 of 169 records.
QUAD_REL_SLACK = 1e-7
# The emitted closed value against the closed form recomputed here.
CLOSED_REL_SLACK = 1e-12

_ALLOWED_PAIRS = {
    ("P", "+"), ("+", "P"), ("-", "M"), ("M", "-"),
    ("+", "-"), ("-", "+"), ("P", "M"), ("M", "P"),
}


def _records(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode("ascii").splitlines()]


def _grid(records: list[dict], keys: tuple[str, ...]) -> list[tuple]:
    return [tuple(r["inputs"][k] for k in keys) for r in records]


def _radial(p: int, q: int, n: int, k: int) -> float:
    """A(2p-1, 2q+n+k-1) = (1/2) B(p, q-p+(n+k)/2)."""
    x, y = p, q - p + (n + k) / 2
    return 0.5 * math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _angular(q: int, n: int, k: int) -> Fraction:
    """Exact pairing <P_n^(a+1,0), P_k^(a,0)> under (1-x)^a, a = q-2, from
    the connection formula: 2^(a+1) n! (k+a)! / ((n+a+1)! k!) for k <= n."""
    a = q - 2
    if k > n:
        return Fraction(0)
    f = math.factorial
    return Fraction(2 ** (a + 1) * f(n) * f(k + a), f(n + a + 1) * f(k))


def check_period(stdout: bytes, spec: dict) -> list[str]:
    records = _records(stdout)
    p, q = spec["pq"]
    want = [(p, q, n, k) for n in range(0, spec["n_max"] + 1, 2)
            for k in range(0, spec["k_max"] + 1, 2)]
    if _grid(records, ("p", "q", "n", "k")) != want:
        return [f"period grid mismatch: {len(records)} records, expected {len(want)}"]
    problems = []
    for r in records:
        n, k, out = r["inputs"]["n"], r["inputs"]["k"], r["result"]
        where = f"(n,k)=({n},{k})"
        if out["family"] != spec["family"]:
            problems.append(f"{where}: family {out['family']!r}")
        if out["nonvanishing"] != (k <= n):
            problems.append(f"{where}: nonvanishing={out['nonvanishing']}")
        if spec["family"] != "complex":
            continue
        closed, quad = out["closed"], out["quadrature"]
        if (closed == 0) != (k > n):
            problems.append(f"{where}: closed={closed}")
        radial = _radial(p, q, n, k)
        expect = radial * float(_angular(q, n, k))
        if abs(closed - expect) > CLOSED_REL_SLACK * abs(expect):
            problems.append(f"{where}: closed {closed} != recomputed {expect}")
        # where the pairing vanishes, the radial factor is the scale
        scale = abs(closed) if k <= n else radial
        if abs(closed - quad) > QUAD_REL_SLACK * scale:
            problems.append(f"{where}: quadrature {quad} vs closed {closed}")
    return problems


def check_exhaustion(stdout: bytes, spec: dict) -> list[str]:
    records = _records(stdout)
    p, q = spec["pq"]
    want = [(p, q, ell) for ell in range(spec["ell"][0], spec["ell"][1] + 1)]
    if _grid(records, ("p", "q", "ell")) != want:
        return [f"exhaustion grid mismatch: {len(records)} records, expected {len(want)}"]
    return [f"ell={r['inputs']['ell']}: agreement false" for r in records
            if r["result"]["agreement"] is not True]


def count_alignments(big: str, small: str) -> int:
    """Interleavings of big and small whose adjacent pairs are all allowed,
    counted by dynamic programming over (i, j, last symbol)."""
    # ways[(i, j, last)] = completions from a prefix using big[:i], small[:j]
    ways: dict[tuple[int, int, str | None], int] = {}
    for i in range(len(big), -1, -1):
        for j in range(len(small), -1, -1):
            lasts = {None} if i == j == 0 else (
                ({big[i - 1]} if i else set()) | ({small[j - 1]} if j else set()))
            for last in lasts:
                if i == len(big) and j == len(small):
                    ways[i, j, last] = 1
                    continue
                total = 0
                for nxt, ni, nj in ((big[i] if i < len(big) else None, i + 1, j),
                                    (small[j] if j < len(small) else None, i, j + 1)):
                    if nxt is not None and (last is None or (last, nxt) in _ALLOWED_PAIRS):
                        total += ways[ni, nj, nxt]
                ways[i, j, last] = total
    return ways[0, 0, None]


def _is_alignment(text: str, big: str, small: str) -> bool:
    plain = "".join(c for c in text if c in "+-")
    circled = "".join(c for c in text if c in "PM")
    return (len(text) == len(big) + len(small) and plain == big and circled == small
            and all((a, b) in _ALLOWED_PAIRS for a, b in zip(text, text[1:])))


def check_he(stdout: bytes, spec: dict) -> list[str]:
    records = _records(stdout)
    big, small = spec["big"], spec["small"]
    if _grid(records, ("big", "small")) != [(big, small)]:
        return [f"he: expected one record for {big} / {small}, got {len(records)}"]
    found = records[0]["result"]["alignments"]
    count = records[0]["result"]["count"]
    expect = count_alignments(big, small)
    problems = []
    if not count == len(found) == expect:
        problems.append(f"he: count {count}, listed {len(found)}, recount {expect}")
    if len(set(found)) != len(found):
        problems.append("he: repeated alignments")
    wrong = next((text for text in found if not _is_alignment(text, big, small)), None)
    if wrong is not None:
        problems.append(f"he: {wrong} is not an allowed alignment")
    return problems


def check_branch(stdout: bytes, spec: dict) -> list[str]:
    records = _records(stdout)
    p, q = spec["pq"]
    # valid a: a - (p+q-1)/2 in N; valid b: b - (p+q-2)/2 in N
    want = [(p, q, a, b) for a in _valid(spec["a_range"], Fraction(p + q - 1, 2))
            for b in _valid(spec["b_range"], Fraction(p + q - 2, 2))]
    got = [(r["inputs"]["p"], r["inputs"]["q"], Fraction(r["inputs"]["a"]),
            Fraction(r["inputs"]["b"])) for r in records]
    if got != want:
        return [f"branch grid mismatch: {len(records)} records, expected {len(want)}"]
    problems = []
    for (_, _, a, b), r in zip(got, records):
        out = r["result"]
        if out["total"] != 1:
            problems.append(f"(a,b)=({a},{b}): total {out['total']}")
        if (out["pattern"] == "P1") != (a > b):
            problems.append(f"(a,b)=({a},{b}): pattern {out['pattern']}")
    return problems


def _valid(bounds: list[str], base: Fraction) -> list[Fraction]:
    """Half-integers v with lo <= v <= hi and v - base a natural number."""
    lo, hi = (Fraction(b) for b in bounds)
    steps = (lo + Fraction(i, 2) for i in range(int((hi - lo) * 2) + 1))
    return [v for v in steps if v >= base and (v - base).denominator == 1]


CHECKS = {
    "period": check_period,
    "exhaustion": check_exhaustion,
    "he": check_he,
    "branch": check_branch,
}


if __name__ == "__main__":
    kind, spec = sys.argv[1], json.loads(sys.argv[2])
    try:
        found = CHECKS[kind](sys.stdin.buffer.read(), spec)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        found = [f"unreadable output: {exc!r}"]
    print(json.dumps(found))
