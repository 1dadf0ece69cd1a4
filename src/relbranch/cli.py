"""Command-line front end.

Every computation is exposed with machine-readable output: one JSON record
(schema relbranch.record.v1) per result on stdout, or one record per line for
table sweeps, with an optional CSV projection for tables.  A half-integer
on the command line is any exact literal whose value is a half-integer
("7/2", "3.5", "-3"), parsed exactly because parity validation must be
exact; it is printed as a fraction ("7/2").

Each table kind is its own subcommand and takes only the options its sweep
reads; an option shared by several commands is defined once, in a parent
parser.  Exit codes: 0 success, 2 validation error or argparse usage error
(a missing, unknown or conflicting option, reported with the usage line of
the parser given it), 3 numerical non-convergence.  Every
table kind names a failing row on stderr; a reader that closes stdout early
(`| head`) ends the run quietly with exit code 0.

A `table branch` grid writes its first row as the record that
branching.coupling_summary gives, and takes from it the record text with a
slot for each per-row value.  Each later row runs only the row's checks,
branching.coupling_check, and fills that text with texts picked by what they
return, each encoded once per grid: the bytes a full encoding of the row's
record would give.  Its CSV projection reads each line back as a record.

A command loads only the layer modules it reaches.  Each layer is
registered in sys.modules at import, through importlib.util.LazyLoader, and
its body runs on the first attribute access: building the parser runs none,
the period commands never run branching, reps, halfint or hepattern, and
`table he --big/--small` runs only hepattern.  The layers are registered
rather than imported inside the functions that use them because a tool that
instruments them from outside (perfbench/spans.py) looks each one up in
sys.modules before any command has run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str


def _lazy(name: str):
    """The layer module relbranch.<name>, registered in sys.modules (and on
    the package) whose body runs on its first attribute access
    (importlib.util.LazyLoader); a module already imported is returned as
    it is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


branching, halfint, hepattern, jacobi, periods, reps, specfun = map(
    _lazy, ("branching", "halfint", "hepattern", "jacobi", "periods", "reps", "specfun")
)

SCHEMA = "relbranch.record.v1"
TABLE_CAP = 10000
DEFAULT_MAX_K = 10
ALIGNMENT_CAP = 1_000_000
ALIGNMENT_BATCH = 4096  # alignments joined per write of a table he record
# periods.FIELD_KINDS, the default first, spelled out so that building the
# parser loads no layer module
FAMILIES = ("complex", "quaternionic")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


class CapExceededError(ValueError):
    pass


def _record(command: str, inputs: dict, result: dict, provenance: list[str]) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "result": result,
        "provenance": provenance,
    }


# one encoder for every record: json.dumps with separators builds a new one per call
_ENCODER = json.JSONEncoder(separators=(",", ":"))


# stands for one per-row value in a record skeleton: its encoded form,
# "\u0000", occurs in no constant text of a record
_SLOT = "\0"


def _slotted(value):
    """value with every leaf (string, number, null) replaced by _SLOT."""
    if isinstance(value, dict):
        return {key: _slotted(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_slotted(item) for item in value]
    return _SLOT


def _skeleton(record: dict) -> str:
    """_ENCODER's line for a record whose per-row values are _SLOT, as a
    %-format: each slot a %s, every % of the constant text doubled."""
    text = _ENCODER.encode(record).replace("%", "%%")
    return text.replace(_ENCODER.encode(_SLOT), "%s") + "\n"


def _quoted(alignments) -> str:
    """The JSON items of nonempty alignments, joined as they are:
    enumerate_alignments admits only the alphabet + - P M, which never
    needs escaping."""
    return '"' + '","'.join(alignments) + '"'


def _emit(record, out) -> None:
    """Write one record as one line; a record a grid has already encoded
    (a str, newline included) is written as it is.  A record whose
    alignments are a lazy hepattern.Alignments is written as it is built:
    its text around an empty list, and the list between, one batch of
    alignments at a time, so neither the alignments nor the line are ever
    held whole."""
    if isinstance(record, str):
        out.write(record)
        return
    result = record["result"]
    found = result.get("alignments")
    # only a table he record has alignments, so no other command loads hepattern
    if found is None or not isinstance(found, hepattern.Alignments):
        out.write(_ENCODER.encode(record) + "\n")
        return
    # the key occurs once: the inputs are sign strings over + - P M
    text = _ENCODER.encode({**record, "result": {**result, "alignments": []}})
    before, opening, after = text.partition('"alignments":[')
    out.write(before + opening)
    items = iter(found)
    separator = ""
    while batch := list(islice(items, ALIGNMENT_BATCH)):
        out.write(separator + _quoted(batch))
        separator = ","
    out.write(after + "\n")


def _parse_pq(text: str) -> tuple[int, int]:
    try:
        p_str, q_str = text.split(",")
        return int(p_str), int(q_str)
    except ValueError:
        raise reps.ParamError(f"--pq expects 'p,q' with integers, got {text!r}") from None


def _parse_range(text: str, parse_end) -> tuple:
    try:
        lo_str, hi_str = text.split("..")
        return parse_end(lo_str), parse_end(hi_str)
    except ValueError:
        raise reps.ParamError(f"expected a range 'lo..hi', got {text!r}") from None


# ---------------------------------------------------------------------------
# branch
# ---------------------------------------------------------------------------

_BRANCH_RULES = [
    "same-side coupling only: (+,+) is nonzero iff a > b, (-,-) iff b > a",
    "interlacing pattern P1 = (a,b,-b,-a) when a > b, P2 = (b,a,-a,-b) when b > a",
]


def cmd_branch(args, out) -> int:
    # the parser admits one a-side mode and at most one b-side option
    single = args.plus_a is not None or args.minus_a is not None
    if single != (args.plus_b is not None or args.minus_b is not None):
        raise reps.ParamError("give --plus-b/--minus-b exactly with --plus-a/--minus-a")
    if args.max_k is not None and args.pi_minus is None:
        raise reps.ParamError("--max-k applies only with --pi-minus")
    p, q = _parse_pq(args.pq)
    sig = reps.Signature(p, q)
    if args.gp is not None:
        a, b = (halfint.HalfInt.parse(v) for v in args.gp)
        summary = branching.coupling_summary(
            branching.param_pair(sig, reps.GroupLevel.G, a),
            branching.param_pair(sig, reps.GroupLevel.GPRIME, b),
        )
        record = _record(
            "branch",
            {"p": p, "q": q, "mode": "packet-sum", "a": str(a), "b": str(b)},
            summary,
            _BRANCH_RULES + ["packet sum: exactly one same-side pair contributes"],
        )
        _emit(record, out)
        return EXIT_OK
    if args.pi_minus is not None:
        a = halfint.HalfInt.parse(args.pi_minus)
        Pi = reps.make_param(sig, reps.Side.MINUS, reps.GroupLevel.G, a)
        max_k = DEFAULT_MAX_K if args.max_k is None else args.max_k
        if max_k + 1 > TABLE_CAP:
            raise CapExceededError(f"{max_k + 1} summands exceed the cap {TABLE_CAP}")
        summands = branching.pi_minus_summands(Pi, max_k)
        record = _record(
            "branch",
            {"p": p, "q": q, "mode": "pi-minus-summands", "a": str(a), "max_k": max_k},
            {
                "summands": [str(s.a) for s in summands],
                "count": len(summands),
                "all_hom_dim_one": all(branching.hom_dim(Pi, s) == 1 for s in summands),
            },
            ["minus-side summands: b = a + 1/2 + k for k = 0..max_k, all coupling"],
        )
        _emit(record, out)
        return EXIT_OK
    # single hom-dim query
    side_G = reps.Side.PLUS if args.plus_a is not None else reps.Side.MINUS
    side_Gp = reps.Side.PLUS if args.plus_b is not None else reps.Side.MINUS
    a = halfint.HalfInt.parse(args.plus_a if args.plus_a is not None else args.minus_a)
    b = halfint.HalfInt.parse(args.plus_b if args.plus_b is not None else args.minus_b)
    Pi = reps.make_param(sig, side_G, reps.GroupLevel.G, a)
    pi = reps.make_param(sig, side_Gp, reps.GroupLevel.GPRIME, b)
    dim = branching.hom_dim(Pi, pi)
    pattern = branching.classify_interlacing(a, b)
    result = {
        "dim": dim,
        "pair": f"({side_G.value},{side_Gp.value})",
        "Pi": str(Pi),
        "pi": str(pi),
        "pattern": pattern.kind,
        "merged": [str(v) for v in pattern.merged],
    }
    _emit(_record("branch", {"p": p, "q": q, "a": str(a), "b": str(b)}, result, _BRANCH_RULES), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# period
# ---------------------------------------------------------------------------

_PERIOD_RULES = [
    "radial factor: half Beta identity with arguments ((alpha+1)/2, (beta-alpha)/2)",
    "angular factor: exact rational Jacobi pairing, nonzero iff 0 <= k <= n",
]


def _period_result(
    p: int, q: int, n: int, k: int, family: str, tol: float, shared: periods.SharedFactors
) -> dict:
    """One period record from one exact period: the closed form (that value
    rounded once), the quadrature, their difference and the vanishing flag
    (exact, since the radial factor is positive).  shared holds the factors
    the record's grid builds once."""
    exact = periods.period_integral_exact(p, q, n, k, kind=family, shared=shared)
    closed = periods.closed_value(exact)
    quad = periods.period_integral_quadrature(p, q, n, k, tol, kind=family, shared=shared)
    return {
        "family": family,
        "closed": closed,
        "quadrature": quad.value,
        "quadrature_error": quad.abs_error_estimate,
        "abs_difference": abs(closed - quad.value),
        "nonvanishing": exact != 0,
    }


def cmd_period(args, out) -> int:
    p, q = _parse_pq(args.pq)
    periods.check_tol(args.tol)
    shared = periods.SharedFactors()
    result = _period_result(p, q, args.n, args.k, args.family, args.tol, shared)
    record = _record(
        "period",
        {"p": p, "q": q, "n": args.n, "k": args.k, "family": args.family, "tol": args.tol},
        result,
        _PERIOD_RULES,
    )
    _emit(record, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


_EXHAUSTION_RULES = ["two-stage restriction sequences against the radial-label prediction"]
_HE_RULES = ["order-preserving interleaving under the eight-pair adjacency rule"]


def _size(values: range) -> int:
    """len(values), by arithmetic on its ends: len() refuses a length
    beyond sys.maxsize, which a huge range endpoint gives."""
    return max(0, -((values.start - values.stop) // values.step))


def _cap(count: int) -> None:
    if count > TABLE_CAP:  # a count of hundreds of digits is not printed
        size = count if count <= 10**18 else "more than 10^18"
        raise CapExceededError(f"grid of {size} records exceeds the cap {TABLE_CAP}")


def _row(kind: str, row: dict, compute, *args):
    """compute(*args) for one table row; an error names the row, e.g.
    'table period row n=26 k=0: ...', and keeps its type (so its exit code)."""
    try:
        return compute(*args)
    except (specfun.ConvergenceError, ValueError) as exc:
        where = " ".join(f"{key}={value}" for key, value in row.items())
        exc.args = (f"table {kind} row {where}: {exc}",)
        raise


def _branch_value(sig, level, twice: int) -> tuple:
    """One grid value 2a = twice: its text, that text and its negative
    encoded as JSON strings, and its (plus, minus) parameters."""
    value = halfint.HalfInt(twice)
    text = str(value)
    return text, _json_str(text), _json_str("-" + text), branching.param_pair(sig, level, value)


def _rows_branch(args):
    p, q = _parse_pq(args.pq)
    sig = reps.Signature(p, q)
    G, GPRIME, HalfInt = reps.GroupLevel.G, reps.GroupLevel.GPRIME, halfint.HalfInt
    a_lo, a_hi = _parse_range(args.a_range, HalfInt.parse)
    b_lo, b_hi = _parse_range(args.b_range, HalfInt.parse)
    a_twice = reps.valid_twice(sig, G, a_lo, a_hi)
    b_twice = reps.valid_twice(sig, GPRIME, b_lo, b_hi)
    count = _size(a_twice) * _size(b_twice)
    _cap(count)
    if not count:  # the other range may still be too long to build
        return
    # each grid value, and each text a row can hold, is built and encoded
    # once and serves every row
    a_values = [_branch_value(sig, G, twice) for twice in a_twice]
    b_values = [_branch_value(sig, GPRIME, twice) for twice in b_twice]
    P1 = branching.P1
    kinds = {kind: _json_str(kind) for kind in (P1, branching.P2)}
    pairs = [_json_str(label) for label in branching.PAIR_LABELS]
    characters = {
        (e1, e2): _json_str(str(reps.EpsilonCharacter(e1, e2))) for e1 in (1, -1) for e2 in (1, -1)
    }
    warning = branching.hypothesis_warning(sig)
    warning = "null" if warning is None else _json_str(warning)
    check = branching.coupling_check
    skeleton = None
    try:
        for a, ja, jna, Pa in a_values:
            for b, jb, jnb, Pb in b_values:
                if skeleton is None:
                    # the first row is a record, and gives the grid's
                    # skeleton: that record with a slot for each per-row value
                    summary = branching.coupling_summary(Pa, Pb)
                    inputs = {"p": p, "q": q, "a": _SLOT, "b": _SLOT}
                    skeleton = _skeleton(
                        _record("table.branch", inputs, _slotted(summary), _BRANCH_RULES)
                    )
                    inputs = {"p": p, "q": q, "a": a, "b": b}
                    yield _record("table.branch", inputs, summary, _BRANCH_RULES)
                    continue
                pattern, (first, second), dims, witness, mark = check(Pa, Pb)
                merged = (ja, jb, jnb, jna) if pattern.kind == P1 else (jb, ja, jna, jnb)
                yield skeleton % (
                    ja, jb, kinds[pattern.kind], *merged,
                    characters[first.on_E1, first.on_E2], characters[second.on_E1, second.on_E2],
                    pairs[witness], characters[mark.on_E1, mark.on_E2], *dims, sum(dims), warning,
                )
    except ValueError as exc:
        exc.args = (f"table branch row a={a} b={b}: {exc}",)
        raise


def _rows_period(args):
    p, q = _parse_pq(args.pq)
    periods.check_tol(args.tol)
    ns, ks = range(0, args.n_max + 1, 2), range(0, args.k_max + 1, 2)
    _cap(len(ns) * len(ks))
    if ns and ks:  # refuse a label above the cap before the first record, k first
        jacobi._check_degree(ks[-1])
        jacobi._check_degree(ns[-1])
    shared = periods.SharedFactors()  # the grid's sweeps and radial factors, built once
    for n in ns:
        for k in ks:
            row = {"n": n, "k": k}
            result = _row("period", row, _period_result, p, q, n, k, args.family, args.tol, shared)
            inputs = {"p": p, "q": q, "n": n, "k": k, "family": args.family}
            yield _record("table.period", inputs, result, _PERIOD_RULES)


def _rows_exhaustion(args):
    p, q = _parse_pq(args.pq)
    sig = reps.Signature(p, q)
    lo, hi = _parse_range(args.ell, int)
    _cap(max(hi - lo + 1, 0))
    if lo <= hi:  # refuse an ell above the cap before the first row
        branching.check_ell(hi)
    for ell in range(lo, hi + 1):
        report = _row("exhaustion", {"ell": ell}, branching.exhaustion_check, sig, ell)
        inputs = {"p": p, "q": q, "ell": ell}
        yield _record("table.exhaustion", inputs, report.to_dict(), _EXHAUSTION_RULES)


def _rows_he(args):
    if (args.big is None) != (args.small is None):
        raise reps.ParamError("--big and --small must be given together")
    if args.big is not None:
        big, small = args.big.strip(), args.small.strip()
        found = hepattern.enumerate_alignments(big, small, cap=ALIGNMENT_CAP)
        result = {"alignments": found, "count": len(found)}
        yield _record("table.he", {"big": big, "small": small}, result, _HE_RULES)
        return
    lo, hi = _parse_range(args.n, int)
    _cap(max(hi - lo + 1, 0))
    for n in range(lo, hi + 1):
        report = _row("he", {"n": n}, hepattern.u2n_case_report, n)
        yield _record("table.he", {"n": n}, report.to_dict(), _HE_RULES)


def _flatten(record) -> dict:
    if isinstance(record, str):  # a line a grid filled
        record = json.loads(record)
    flat: dict = {"command": record["command"]}
    for key, value in record["inputs"].items():
        flat[f"in.{key}"] = value
    for key, value in record["result"].items():
        if key == "alignments" and isinstance(value, hepattern.Alignments):  # one CSV cell
            flat[f"out.{key}"] = f"[{_quoted(value)}]" if len(value) else "[]"
        elif isinstance(value, (list, dict)):
            flat[f"out.{key}"] = _ENCODER.encode(value)
        else:
            flat[f"out.{key}"] = value
    return flat


def cmd_table(args, out) -> int:
    rows = args.rows(args)
    if args.csv:
        import csv  # only the CSV projection reads it

        # the header comes from the first record, and each row is written as
        # it arrives, as a JSON line would be
        writer = None
        for record in rows:
            flat = _flatten(record)
            if writer is None:
                writer = csv.DictWriter(out, fieldnames=list(flat))
                writer.writeheader()
            writer.writerow(flat)
        return EXIT_OK
    for record in rows:
        _emit(record, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser that reports the unknown options it was given itself, with
    its own usage line: argparse would hand a command's unknown options back
    to the parser above it, mixed with that parser's own.  add_subparsers
    builds command parsers of its parser's class, so every level is one.

    It also refuses an option value of exactly `--` (`--pq=--`), which no
    option reads: argparse before 3.13 drops that `--` and stores an empty
    list where one value is expected, and 3.13 stores the string."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        for action in self._actions:
            if action.nargs is None and getattr(namespace, action.dest, None) in ([], "--"):
                self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return namespace, unknown


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relbranch",
        description=(
            "Relative branching laws for rank-one unitary families: coupling "
            "dimensions, period integrals, and cross-check tables."
        ),
        epilog=(
            "Half-integers are written as exact fractions (7/2, -3). Sign "
            "sequences use the alphabet +, - (big group) and P, M (circled "
            "plus/minus of the subgroup)."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # options read by several commands, each defined once
    pq = argparse.ArgumentParser(add_help=False)
    pq.add_argument("--pq", required=True, help="signature p,q, e.g. 3,3 (periods need q > p > 0)")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=FAMILIES, default=FAMILIES[0])
    family.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    as_csv = argparse.ArgumentParser(add_help=False)
    as_csv.add_argument("--csv", action="store_true", help="CSV projection instead of JSON lines")

    b = sub.add_parser("branch", parents=[pq], help="coupling dimensions and packet sums")
    a_side = b.add_mutually_exclusive_group(required=True)
    a_side.add_argument("--plus-a", help="plus-side parameter a (level G)")
    a_side.add_argument("--minus-a", help="minus-side parameter a (level G)")
    a_side.add_argument("--gp", nargs=2, metavar=("A", "B"), help="packet-sum query for (a, b)")
    a_side.add_argument("--pi-minus", metavar="A", help="enumerate minus-side summands of a")
    b_side = b.add_mutually_exclusive_group()
    b_side.add_argument("--plus-b", help="plus-side parameter b (subgroup level)")
    b_side.add_argument("--minus-b", help="minus-side parameter b (subgroup level)")
    b.add_argument(
        "--max-k", type=int, help=f"summand cutoff, with --pi-minus only (default {DEFAULT_MAX_K})"
    )
    b.set_defaults(func=cmd_branch)

    p = sub.add_parser(
        "period", parents=[pq, family], help="period integral, closed form vs quadrature"
    )
    p.add_argument("--n", type=int, required=True, help="even label on the big space")
    p.add_argument("--k", type=int, required=True, help="even label on the subspace")
    p.set_defaults(func=cmd_period)

    t = sub.add_parser("table", help="grid sweeps, one record per line")
    t.set_defaults(func=cmd_table)
    kinds = t.add_subparsers(dest="kind", required=True)

    k = kinds.add_parser("branch", parents=[pq, as_csv], help="coupling grid over a and b")
    k.add_argument("--a-range", required=True, help="range lo..hi for a, e.g. 9/2..17/2")
    k.add_argument("--b-range", required=True, help="range lo..hi for b")
    k.set_defaults(rows=_rows_branch)

    k = kinds.add_parser("period", parents=[pq, family, as_csv], help="period grid over n, k")
    k.add_argument("--n-max", type=int, default=8, help="even-label cap for n (default 8)")
    k.add_argument("--k-max", type=int, default=8, help="even-label cap for k (default 8)")
    k.set_defaults(rows=_rows_period)

    k = kinds.add_parser("exhaustion", parents=[pq, as_csv], help="exhaustion cross-check")
    k.add_argument("--ell", required=True, help="range lo..hi of radial labels, e.g. 8..16")
    k.set_defaults(rows=_rows_exhaustion)

    k = kinds.add_parser("he", parents=[as_csv], help="sign-sequence alignments")
    mode = k.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", help="range lo..hi for the U(2,n) configuration, e.g. 4..10")
    mode.add_argument("--big", help="raw plain sign sequence, e.g. +--+ (with --small)")
    k.add_argument("--small", help="raw circled sign sequence, e.g. PMM")
    k.set_defaults(rows=_rows_he)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): stop quietly, and point stdout
        # at devnull so the interpreter's shutdown flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ValueError as exc:  # reps.ParamError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except specfun.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
