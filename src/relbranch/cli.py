"""Command-line front end.

Every computation is exposed with machine-readable output: one JSON record
(schema relbranch.record.v1) per result on stdout, or one record per line for
table sweeps, with an optional CSV projection for tables.  Half-integers on
the command line are exact fractions ("7/2"), never decimals, because parity
validation must be exact.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence.  A
failing table row is named on stderr; a reader that closes stdout early
(`| head`) ends the run quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import branching, hepattern, periods
from .halfint import HalfInt
from .reps import GroupLevel, ParamError, Side, Signature, make_param
from .specfun import ConvergenceError

SCHEMA = "relbranch.record.v1"
TABLE_CAP = 10000

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


def _emit(record: dict, out) -> None:
    json.dump(record, out, separators=(",", ":"))
    out.write("\n")


def _parse_pq(text: str) -> tuple[int, int]:
    try:
        p_str, q_str = text.split(",")
        return int(p_str), int(q_str)
    except ValueError:
        raise ParamError(f"--pq expects 'p,q' with integers, got {text!r}") from None


def _parse_range(text: str, parse_end=HalfInt.parse) -> tuple:
    try:
        lo_str, hi_str = text.split("..")
        return parse_end(lo_str), parse_end(hi_str)
    except ValueError:
        raise ParamError(f"expected a range 'lo..hi', got {text!r}") from None


def _signature(p: int, q: int) -> Signature:
    # the CLI permits any positive signature; validity of parameters is
    # still enforced exactly by make_param
    return Signature(p, q, relaxed=True)


def _valid_params_in(sig: Signature, level: GroupLevel, side: Side, lo: HalfInt, hi: HalfInt):
    """Valid parameters with lo <= a <= hi, ascending."""
    bound = HalfInt(sig.n - (1 if level is GroupLevel.G else 2))
    a = bound if bound >= lo else bound + ((lo.twice - bound.twice + 1) // 2)
    out = []
    while a <= hi:
        if a >= lo:
            out.append(make_param(sig, side, level, a))
        a = a + 1
    return out


# ---------------------------------------------------------------------------
# branch
# ---------------------------------------------------------------------------

_BRANCH_RULES = [
    "same-side coupling only: (+,+) is nonzero iff a > b, (-,-) iff b > a",
    "interlacing pattern P1 = (a,b,-b,-a) when a > b, P2 = (b,a,-a,-b) when b > a",
]


def cmd_branch(args, out) -> int:
    p, q = _parse_pq(args.pq)
    sig = _signature(p, q)
    if args.gp is not None:
        a, b = (HalfInt.parse(v) for v in args.gp)
        summary = branching.coupling_summary(a, b, sig)
        record = _record(
            "branch",
            {"p": p, "q": q, "mode": "packet-sum", "a": str(a), "b": str(b)},
            summary,
            _BRANCH_RULES + ["packet sum: exactly one same-side pair contributes"],
        )
        _emit(record, out)
        return EXIT_OK
    if args.pi_minus is not None:
        a = HalfInt.parse(args.pi_minus)
        Pi = make_param(sig, Side.MINUS, GroupLevel.G, a)
        summands = branching.pi_minus_summands(Pi, args.max_k)
        record = _record(
            "branch",
            {"p": p, "q": q, "mode": "pi-minus-summands", "a": str(a), "max_k": args.max_k},
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
    if args.plus_a is not None and args.minus_a is not None:
        raise ParamError("give exactly one of --plus-a / --minus-a")
    if args.plus_b is not None and args.minus_b is not None:
        raise ParamError("give exactly one of --plus-b / --minus-b")
    if args.plus_a is None and args.minus_a is None:
        raise ParamError("branch needs --plus-a/--minus-a (or --gp / --pi-minus)")
    if args.plus_b is None and args.minus_b is None:
        raise ParamError("branch needs --plus-b/--minus-b (or --gp / --pi-minus)")
    side_G = Side.PLUS if args.plus_a is not None else Side.MINUS
    side_Gp = Side.PLUS if args.plus_b is not None else Side.MINUS
    a = HalfInt.parse(args.plus_a if args.plus_a is not None else args.minus_a)
    b = HalfInt.parse(args.plus_b if args.plus_b is not None else args.minus_b)
    Pi = make_param(sig, side_G, GroupLevel.G, a)
    pi = make_param(sig, side_Gp, GroupLevel.GPRIME, b)
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


def _period_result(p: int, q: int, n: int, k: int, family: str, tol: float) -> dict:
    if family == periods.COMPLEX:
        closed = periods.period_integral_closed(p, q, n, k)
        quad = periods.period_integral_quadrature(p, q, n, k, tol)
        return {
            "family": family,
            "closed": closed,
            "quadrature": quad.value,
            "quadrature_error": quad.abs_error_estimate,
            "abs_difference": abs(closed - quad.value),
            "nonvanishing": periods.period_nonvanishing(p, q, n, k),
        }
    if family == periods.QUATERNIONIC:
        quad = periods.quaternionic_period_quadrature(p, q, n, k, tol)
        return {
            "family": family,
            "quadrature": quad.value,
            "quadrature_error": quad.abs_error_estimate,
            "nonvanishing": periods.quaternionic_angular_exact(q, n, k) != 0,
        }
    raise ParamError(f"unsupported family {family!r} (choose complex or quaternionic)")


def cmd_period(args, out) -> int:
    p, q = _parse_pq(args.pq)
    result = _period_result(p, q, args.n, args.k, args.family, args.tol)
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


def _cap(count: int) -> None:
    if count > TABLE_CAP:
        raise CapExceededError(f"grid of {count} records exceeds the cap {TABLE_CAP}")


def _row(kind: str, row: dict, compute, *args):
    """compute(*args) for one table row; an error names the row, e.g.
    'table period row n=26 k=0: ...', and keeps its type (so its exit code)."""
    try:
        return compute(*args)
    except (ConvergenceError, ValueError) as exc:
        where = " ".join(f"{key}={value}" for key, value in row.items())
        exc.args = (f"table {kind} row {where}: {exc}",)
        raise


def _rows_branch(args):
    p, q = _parse_pq(args.pq)
    sig = _signature(p, q)
    a_lo, a_hi = _parse_range(args.a_range)
    b_lo, b_hi = _parse_range(args.b_range)
    a_params = _valid_params_in(sig, GroupLevel.G, Side.PLUS, a_lo, a_hi)
    b_params = _valid_params_in(sig, GroupLevel.GPRIME, Side.PLUS, b_lo, b_hi)
    _cap(len(a_params) * len(b_params))
    for Pa in a_params:
        for Pb in b_params:
            summary = branching.coupling_summary(Pa.a, Pb.a, sig)
            inputs = {"p": p, "q": q, "a": str(Pa.a), "b": str(Pb.a)}
            yield _record("table.branch", inputs, summary, _BRANCH_RULES)


def _rows_period(args):
    p, q = _parse_pq(args.pq)
    labels = range(0, args.n_max + 1, 2)
    _cap(len(labels) * len(range(0, args.k_max + 1, 2)))
    for n in labels:
        for k in range(0, args.k_max + 1, 2):
            result = _row(
                "period", {"n": n, "k": k}, _period_result, p, q, n, k, args.family, args.tol
            )
            inputs = {"p": p, "q": q, "n": n, "k": k, "family": args.family}
            yield _record("table.period", inputs, result, _PERIOD_RULES)


def _rows_exhaustion(args):
    p, q = _parse_pq(args.pq)
    sig = _signature(p, q)
    lo, hi = _parse_range(args.ell, parse_end=int)
    _cap(max(hi - lo + 1, 0))
    for ell in range(lo, hi + 1):
        report = _row("exhaustion", {"ell": ell}, branching.exhaustion_check, sig, ell)
        inputs = {"p": p, "q": q, "ell": ell}
        yield _record(
            "table.exhaustion",
            inputs,
            report.to_dict(),
            ["two-stage restriction sequences against the radial-label prediction"],
        )


def _rows_he(args):
    if args.big or args.small:
        if not (args.big and args.small):
            raise ParamError("--big and --small must be given together")
        big = hepattern.SignSeq.from_string(args.big)
        small = hepattern.SignSeq.from_string(args.small)
        found = hepattern.enumerate_alignments(big, small)
        yield _record(
            "table.he",
            {"big": big.to_string(), "small": small.to_string()},
            {"alignments": [a.to_string() for a in found], "count": len(found)},
            ["order-preserving interleaving under the eight-pair adjacency rule"],
        )
        return
    lo, hi = _parse_range(args.n, parse_end=int)
    _cap(max(hi - lo + 1, 0))
    for n in range(lo, hi + 1):
        report = _row("he", {"n": n}, hepattern.u2n_case_report, n)
        yield _record(
            "table.he",
            {"n": n},
            report.to_dict(),
            ["order-preserving interleaving under the eight-pair adjacency rule"],
        )


def _flatten(record: dict) -> dict:
    flat: dict = {"command": record["command"]}
    for key, value in record["inputs"].items():
        flat[f"in.{key}"] = value
    for key, value in record["result"].items():
        if isinstance(value, (list, dict)):
            flat[f"out.{key}"] = json.dumps(value, separators=(",", ":"))
        else:
            flat[f"out.{key}"] = value
    return flat


def cmd_table(args, out) -> int:
    rows = {
        "branch": _rows_branch,
        "period": _rows_period,
        "exhaustion": _rows_exhaustion,
        "he": _rows_he,
    }[args.kind](args)
    if args.csv:
        records = list(rows)
        if not records:
            return EXIT_OK
        flat = [_flatten(r) for r in records]
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(flat[0].keys()))
        writer.writeheader()
        writer.writerows(flat)
        out.write(buffer.getvalue())
        return EXIT_OK
    for record in rows:
        _emit(record, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    b = sub.add_parser("branch", help="coupling dimensions and packet sums")
    b.add_argument("--pq", required=True, help="signature, e.g. 3,3")
    b.add_argument("--plus-a", help="plus-side parameter a (level G)")
    b.add_argument("--minus-a", help="minus-side parameter a (level G)")
    b.add_argument("--plus-b", help="plus-side parameter b (subgroup level)")
    b.add_argument("--minus-b", help="minus-side parameter b (subgroup level)")
    b.add_argument("--gp", nargs=2, metavar=("A", "B"), help="packet-sum query for (a, b)")
    b.add_argument("--pi-minus", metavar="A", help="enumerate minus-side summands of a")
    b.add_argument("--max-k", type=int, default=10, help="summand cutoff (default 10)")
    b.set_defaults(func=cmd_branch)

    p = sub.add_parser("period", help="period integral, closed form vs quadrature")
    p.add_argument("--pq", required=True, help="signature with q > p > 0, e.g. 1,2")
    p.add_argument("--n", type=int, required=True, help="even label on the big space")
    p.add_argument("--k", type=int, required=True, help="even label on the subspace")
    p.add_argument(
        "--family",
        choices=[periods.COMPLEX, periods.QUATERNIONIC],
        default=periods.COMPLEX,
    )
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    p.set_defaults(func=cmd_period)

    t = sub.add_parser("table", help="grid sweeps, one record per line")
    t.add_argument("kind", choices=["branch", "period", "exhaustion", "he"])
    t.add_argument("--pq", help="signature, e.g. 4,5")
    t.add_argument("--a-range", help="range lo..hi for a, e.g. 9/2..17/2")
    t.add_argument("--b-range", help="range lo..hi for b")
    t.add_argument("--n-max", type=int, default=8, help="even-label cap for period grids")
    t.add_argument("--k-max", type=int, default=8, help="even-label cap for period grids")
    t.add_argument(
        "--family",
        choices=[periods.COMPLEX, periods.QUATERNIONIC],
        default=periods.COMPLEX,
    )
    t.add_argument("--tol", type=float, default=1e-10)
    t.add_argument("--ell", help="range lo..hi for exhaustion sweeps, e.g. 8..16")
    t.add_argument("--n", help="range lo..hi for the alignment configuration, e.g. 4..10")
    t.add_argument("--big", help="raw plain sign sequence, e.g. +--+")
    t.add_argument("--small", help="raw circled sign sequence, e.g. PMM")
    t.add_argument("--csv", action="store_true", help="CSV projection instead of JSON lines")
    t.set_defaults(func=cmd_table)

    return parser


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ParamError(f"table {args.kind} requires --" + ", --".join(missing))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "table":
            needed = {
                "branch": ["pq", "a-range", "b-range"],
                "period": ["pq"],
                "exhaustion": ["pq", "ell"],
                "he": [] if (args.big or args.small) else ["n"],
            }[args.kind]
            _require(args, needed)
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
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ParamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
