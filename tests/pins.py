"""The pinned bytes of relbranch commands: one row per command line, with the
sha256 of what it writes to stdout.  Each command exits 0 and writes nothing
to stderr.  A second table, REFUSALS, pins commands that must be refused:
each exits 2, writes nothing to stdout and exactly its row's text to stderr.

Run as a script, it runs every row of both tables through
``relbranch.cli.main`` in the interpreter that runs it, prints one PASS or
FAIL line per row and exits 1 if any row fails; it takes no arguments:

    PYTHONPATH=src python3.10 tests/pins.py

It imports only the standard library and relbranch, so it runs on an
interpreter that has none of the test dependencies.  Tier-1 runs it under two
hash seeds, and checks that every ``relbranch`` line of the README's examples
has a row here (``tests/test_cli.py``).
"""

import contextlib
import hashlib
import io
import platform
import shlex
import sys
import traceback

from relbranch import cli

ROWS = [
    # the README's examples, in its order
    (
        "relbranch branch --pq 3,3 --plus-a 7/2 --plus-b 2",
        "29a717911e890d11b9b64597b9e4ce90e752de24f4225cc3694007702db6991a",
    ),
    (
        "relbranch branch --pq 3,3 --gp 9/2 3",
        "6b598c9eed81365fc59ea0e9221890af24532a89b086b5c83267768d0d6c5c6b",
    ),
    (
        "relbranch branch --pq 3,3 --pi-minus 5/2 --max-k 10",
        "c47904a6663d30a130d5b98df74c7a60b2ff5687b7a0e282bacf6d708ead35a9",
    ),
    (
        "relbranch period --pq 1,2 --n 4 --k 2",
        "9dbcd6904dfdccabb8994c200b4d3f5d0d2937fc1b17770c84386ef7181abd24",
    ),
    (
        "relbranch period --pq 1,2 --family quaternionic --n 0 --k 0",
        "5760ca93abd6dff225a7824c42680aae2006a76ceda6e146bfea773f34c469f3",
    ),
    (
        "relbranch table branch --pq 4,5 --a-range 4..9 --b-range 7/2..17/2",
        "c7ae20b79c39d2971865ad168e474dbbc5d7cdaf48f6d32d3272903db228131b",
    ),
    (
        "relbranch table period --pq 1,2 --n-max 8 --k-max 8",
        "be0c59f35f785ca5460ccf44d743e7431b673409755ca6e3ee4c91a3a67bbc71",
    ),
    (
        "relbranch table exhaustion --pq 3,3 --ell 8..16",
        "6dd864e118aa3bb5feb6694b2a61db0d810e734d776430c730f0e6e71c9b47aa",
    ),
    (
        "relbranch table he --n 4..10",
        "f90ea10ce37e6907bfb6a627fe6694bce32a3cbdf0e70cf70912d7f0ace47b5c",
    ),
    (
        'relbranch table he --big "+--+" --small "PMM"',
        "9a9694e1e490caa0b84ebb0b525bed6ba577384323c49f7e23133f6deb4a6b18",
    ),
    # the benchmark's invocations: the period-complex and period-quaternionic
    # workloads (the closed value is the exact period rounded once, and the
    # quadrature sums with math.fsum and calls no BLAS kernel), and the
    # enumeration workload's exhaustion, branch-grid and alignment runs
    (
        "relbranch table period --pq 1,2 --n-max 24 --k-max 24",
        "d5d194afb1ea67e6e7bd72282edbcf0f6e88df2dca6489c14acb26159262e299",
    ),
    (
        "relbranch table period --pq 2,5 --family quaternionic --n-max 20 --k-max 20",
        "696313645a7df4d83ac1dcba12e95fee29ff2719f08fc16d51540f5bd54859d3",
    ),
    (
        "relbranch table exhaustion --pq 3,3 --ell 8..140",
        "42dabbc2c305964406570c5100a7212bcaf0a6c2db9ff40ff36b51a837f941b8",
    ),
    (
        "relbranch table branch --pq 4,5 --a-range 4..60 --b-range 7/2..121/2",
        "e7a321f6ad0c31250a496168457ed2da0eaa69385f4f1c01dd88110ace7f678c",
    ),
    (
        "relbranch table he --big +-+-+-+-+-+-+-+-+- --small PMPMPMPMPMPMPMPMPM",
        "e68fb975c94b479dec26484309baaf9ea047771fe80196e62aa40676425dc6ef",
    ),
    # an odd-length input (39 symbols, 92,378 alignments) whose prefix and
    # suffix halves differ
    (
        "relbranch table he --big +-+-+-+-+-+-+-+-+-+- --small PMPMPMPMPMPMPMPMPMP",
        "5dd2230d9eb6cc8f9fe82a30a63dc4266defdbe9c7abf1cb7549226989296514",
    ),
    # four grids over every label up to MAX_DEGREE, where records share
    # rules, sweeps and radial factors most
    (
        "relbranch table period --pq 1,2 --n-max 64 --k-max 64",
        "2c0230fe90d60674f09ba8b654056f930e47cfa6f5cfff547a45b035145158b9",
    ),
    (
        "relbranch table period --pq 3,20 --n-max 64 --k-max 64",
        "a92bce62721d6b0b08186c51da94480db8402621b5aedadc2854bb9d124794e2",
    ),
    (
        "relbranch table period --pq 2,5 --family quaternionic --n-max 64 --k-max 64",
        "b1ed1e44d81455b941ce7956739b09c514f5b04e86ca6d69938d54673701ad14",
    ),
    (
        "relbranch table period --pq 3,20 --family quaternionic --n-max 64 --k-max 64",
        "4be4cbc27e94c6bd918a86eaca57e6d987b7209cc859c0a984b6bff86682b829",
    ),
    # a small period grid at another signature
    (
        "relbranch table period --pq 1,3 --n-max 4 --k-max 4",
        "c2dbe171dfce371a2c569b9fee9ed52726e9b469bff0eeec622523078c0e52fd",
    ),
    # an exhaustion grid at a second signature that starts at an odd ell
    (
        "relbranch table exhaustion --pq 3,4 --ell 7..20",
        "fd189f278b2a465086bd14797636adcb62f3406b47b66c525e0cf727df1e39c6",
    ),
    # CSV projections: the alignment, branch-grid, period-grid, exhaustion
    # and U(2,n) tables
    (
        "relbranch table he --big +-+-+-+-+-+-+-+-+- --small PMPMPMPMPMPMPMPMPM --csv",
        "db38f8cb8787cafad1d7185c2d2ceb0d9ccd21dcfba7d9d6c84b88d02bf60b2c",
    ),
    (
        "relbranch table branch --pq 4,6 --a-range 9/2..12 --b-range 4..12 --csv",
        "f0ce3ec7ee34943135045eeb53610f410944eefa9f5617ea8280aa60487edee6",
    ),
    (
        "relbranch table period --pq 1,2 --n-max 8 --k-max 8 --csv",
        "6b7d98781dea30f84f96d340ab7ca55bfa895e2a99b86626620c1dde09d9aead",
    ),
    (
        "relbranch table exhaustion --pq 3,3 --ell 8..16 --csv",
        "b15a6d0221772956641e6fce9991d1552d1551358521ecb05ada2aa78001bf41",
    ),
    (
        "relbranch table he --n 4..10 --csv",
        "925b0fdb80f5fc7d9710bdcc010f476bcc9687e7c54b1f044033c37860d1635a",
    ),
    # a branch grid outside the hypothesis p, q > 3 and p != q, whose 81
    # records all carry the warning, as JSON lines and as CSV
    (
        "relbranch table branch --pq 3,3 --a-range 5/2..21/2 --b-range 2..10",
        "1229a8972f8ab07236ff8822115505d2a0afe133ce3af1509c9d9a919cefb556",
    ),
    (
        "relbranch table branch --pq 3,3 --a-range 5/2..21/2 --b-range 2..10 --csv",
        "9b6cb63e8f17c5f262d919a199e9ff6a848d748a93a60ab8c6a1ec104b2ee234",
    ),
]

REFUSALS = [
    # half-integer literals that some Python's Fraction reads and another
    # refuses: "_" between digits (3.11 on) and spaces around "/" (3.12 on);
    # and a zero denominator, whose ZeroDivisionError text is Fraction's own
    (
        "relbranch branch --pq 3,3 --plus-a 1_1/2 --plus-b 2",
        "error: cannot parse half-integer from '1_1/2': Invalid literal for Fraction: '1_1/2'\n",
    ),
    (
        'relbranch branch --pq 3,3 --plus-a "7 / 2" --plus-b 2',
        "error: cannot parse half-integer from '7 / 2': Invalid literal for Fraction: '7 / 2'\n",
    ),
    (
        "relbranch table branch --pq 4,5 --a-range 4..1_0 --b-range 7/2..9/2",
        "error: cannot parse half-integer from '1_0': Invalid literal for Fraction: '1_0'\n",
    ),
    (
        "relbranch branch --pq 3,3 --plus-a 1/0 --plus-b 2",
        "error: cannot parse half-integer from '1/0': zero denominator\n",
    ),
    # a refusal names a value as the command line wrote it, not its exact
    # value: 1e400 is not echoed as the 401 digits of 10^400, nor a long
    # decimal as a fraction of two long integers
    (
        "relbranch branch --pq 3,3 --plus-a 1e400 --plus-b 2",
        "error: parity: 2a must be odd for U(3,3) at level G, got a = 1e400\n",
    ),
    (
        "relbranch branch --pq 3,3 --gp 1e400 3",
        "error: parity: 2a must be odd for U(3,3) at level G, got a = 1e400\n",
    ),
    (
        "relbranch branch --pq 3,3 --pi-minus 1e400",
        "error: parity: 2a must be odd for U(3,3) at level G, got a = 1e400\n",
    ),
    (
        "relbranch branch --pq 3,3 --plus-a 0.3333333333333333333333 --plus-b 2",
        "error: cannot parse half-integer from '0.3333333333333333333333': "
        "0.3333333333333333333333 is not a half-integer\n",
    ),
    # every limit: the caps on output size (TABLE_CAP on a grid and on
    # --max-k summands, ALIGNMENT_CAP), each count above 10^18 summarised,
    # and the caps on one row's or record's work (jacobi.MAX_DEGREE,
    # branching.MAX_ELL, hepattern.MAX_U2N, hepattern.MAX_POSITIONS), each
    # refused before the first row; and a q too large for exact factorials
    (
        "relbranch table branch --pq 4,5 --a-range 4..20004 --b-range 7/2..9/2",
        "error: grid of 40002 records exceeds the cap 10000\n",
    ),
    (
        "relbranch table period --pq 1,2 --n-max 99999999999999999999 --k-max 99999999999999999999",
        "error: grid of more than 10^18 records exceeds the cap 10000\n",
    ),
    (
        "relbranch branch --pq 3,3 --pi-minus 5/2 --max-k 10000",
        "error: 10001 summands exceed the cap 10000\n",
    ),
    (
        "relbranch branch --pq 3,3 --pi-minus 5/2 --max-k 1000000000000000000000000000000",
        "error: more than 10^18 summands exceed the cap 10000\n",
    ),
    (
        "relbranch table he --big +-+-+-+-+-+-+-+-+-+-+-+- --small PMPMPMPMPMPMPMPMPMPMPMPM",
        "error: 2704156 alignments exceed the cap 1000000\n",
    ),
    (
        "relbranch period --pq 1,2 --n 66 --k 0",
        "error: degree 66 exceeds the exact-coefficient cap 64\n",
    ),
    (
        "relbranch table period --pq 1,2 --n-max 70 --k-max 66",
        "error: degree 66 exceeds the exact-coefficient cap 64\n",
    ),
    (
        "relbranch table exhaustion --pq 3,3 --ell 8..1025",
        "error: ell = 1025 exceeds the per-row cap MAX_ELL = 1024\n",
    ),
    (
        "relbranch table he --n 4..257",
        "error: n = 257 exceeds the per-row cap MAX_U2N = 256\n",
    ),
    (
        "relbranch table he --big " + "+-" * 181 + " --small " + "PM" * 181,
        "error: (362 + 1) * (362 + 1) position pairs exceed the per-record cap "
        "MAX_POSITIONS = 131072\n",
    ),
    (
        "relbranch period --pq 1,100000000000000000000 --n 0 --k 0",
        "error: signature (1, 100000000000000000000) is too large for exact factorials\n",
    ),
]


class _HashSink:
    """A stdout that keeps only the sha256 and the length of the text
    written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.size = 0

    def write(self, text):
        self.digest.update(text.encode())
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def _run(line):
    """Run one command line in process: its exit code, its stdout as a
    _HashSink and its stderr."""
    sink, err = _HashSink(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            code = cli.main(shlex.split(line)[1:])
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
        except Exception:  # the command line would print a traceback and exit 1
            traceback.print_exc()
            code = 1
    return code, sink, err.getvalue()


def check(line, expected):
    """"" if the command line exits 0, writes nothing to stderr and its
    stdout hashes to expected, else what differs."""
    code, sink, err = _run(line)
    if (code, err) != (0, ""):
        return f"exit {code}, stderr {err!r}"
    got = sink.digest.hexdigest()
    return "" if got == expected else f"sha256 {got}, pinned {expected}"


def check_refusal(line, expected):
    """"" if the command line exits 2, writes nothing to stdout and exactly
    expected to stderr, else what it did."""
    code, sink, err = _run(line)
    if (code, sink.size, err) == (2, 0, expected):
        return ""
    return f"exit {code}, {sink.size} characters on stdout, stderr {err!r}"


def main(argv):
    if argv:
        print("usage: tests/pins.py (it takes no arguments)", file=sys.stderr)
        return 2
    print(f"pins on Python {platform.python_version()}", flush=True)
    rows = [(check, *row) for row in ROWS] + [(check_refusal, *row) for row in REFUSALS]
    failed = 0
    for verify, line, expected in rows:
        problem = verify(line, expected)
        failed += bool(problem)
        print(f"FAIL {line}: {problem}" if problem else f"PASS {line}", flush=True)
    print(f"{len(rows) - failed} of {len(rows)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
