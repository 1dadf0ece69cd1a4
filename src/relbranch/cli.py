"""Command-line front end.

Every computation is exposed with machine-readable output: one JSON record
(schema relbranch.record.v1) per result on stdout, or one record per line for
table sweeps, with an optional CSV projection for tables.  A half-integer
on the command line is an exact literal whose value is a half-integer: an
optional sign, then digits with an optional /denominator ("7/2", "-3") or a
decimal with an optional exponent ("3.5", "35e-1"), with no "_" and no space
inside on any Python.  It is parsed exactly because parity validation must
be exact, and printed as a fraction ("7/2").

Each table kind is its own subcommand and takes only the options its sweep
reads, and --csv, which the writer reads; an option shared by several
commands is defined once, in the option table _COMMANDS.  Exit codes: 0
success, 2 validation error or argparse usage error (a missing, unknown or
conflicting option, reported with the usage line of the parser given it),
3 numerical non-convergence (a period whose quadrature does not resolve it
included).  Every table kind names a failing row on stderr; a reader that
closes stdout early (`| head`) ends the run quietly with exit code 0.

Command lines are read from _COMMANDS by one of two readers that agree.
_parse_direct reads a line of the one form every example and script
writes: the command's name (and its kind's), then options named in full,
each at most once and followed by its values, none of which starts with
"-", with the required ones given and every value accepted.  It returns
the namespace argparse would, without importing argparse, which with the
gettext and locale modules it pulls in costs a short run about 5 ms.  Any
other line (a prefix such as `table period --n 4`, `--pq=1,2`, `-h`, a
value such as `-3`, or a usage error) goes to build_parser's argparse
parser, so every help text and usage error is argparse's own.

main(argv) is the in-process API and leaves the interpreter as it found
it.  The process entry is run(), which both `python -m relbranch.cli` and
the installed `relbranch` script call: main() on the command line, then,
outside dev mode, gc.freeze(), so the interpreter's exit skips the
collections that would walk the whole heap (most of a short run's time
after its answer).  Exit still flushes the streams, runs atexit and frees
objects by reference count; only cyclic garbage is left to the OS.  Dev
mode (-X dev) keeps the full collection, which reports, for example, a
file reachable only through a cycle as unclosed.

Every command, and each table kind, is a generator of records, set as its
parser's func; main runs it and writes what it yields through one writer,
_lines with its line function _line, the only code that tells a JSON line
from a CSV row (--csv, after a header taken from the first record), and
_write, which joins the texts into writes of up to WRITE_BATCH characters,
so an unbuffered stdout (PYTHONUNBUFFERED) takes a few dozen writes for a
table, not one per line.  A failing row's earlier rows are written before
its error.  Each row of a `table branch` grid runs every check of its
(a, b), branching.coupling_check, and looks the plain data they return up,
as it is, in a table that lives for the grid: a result not seen before is
rendered once, by branching.coupling_record, with a and b as slots, and
the row reaches the writer as (record, a, b).  The writer encodes each such
record once, splits its line at b's slot, puts each a into the parts once
per run of rows, and a row's line is its b joining them, the bytes a full
encoding of the row's record would give.  A `table he --big/--small`
record's lazy hepattern.Alignments goes through the same slot, so the
record is written as it is built: up to ALIGNMENT_BATCH alignments of one
shared prefix (hepattern.Alignments.groups) are joined in one step.  The
CLI knows the envelope of a record and the caps, and none of the result's
fields but that one lazy list.

Before its first row, each table's grid is checked in _grid: its size, by
the ends of its label ranges, against TABLE_CAP, then its last labels by
the owning layer's per-row check.  _refuse_count writes every refused count.
A period command first builds its periods.PeriodGrid, which checks the
tolerance, the signature, the family and the family's cap on q, so a
command with several faults is refused for the first of: tol, signature,
family, signature cap, grid size, labels.

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

import gc
import importlib.util
import json
import os
import sys
from types import SimpleNamespace


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


# jacobi too, which no command calls directly: a tracer looks every layer up
branching, halfint, hepattern, jacobi, periods, reps, specfun = map(
    _lazy, ("branching", "halfint", "hepattern", "jacobi", "periods", "reps", "specfun")
)

SCHEMA = "relbranch.record.v1"
TABLE_CAP = 10000
DEFAULT_MAX_K = 10
ALIGNMENT_CAP = 1_000_000
ALIGNMENT_BATCH = 4096  # alignments of one prefix joined in one step
WRITE_BATCH = 1 << 16  # characters of output joined per write
# periods.FIELD_KINDS, the default first, spelled out so that building the
# parser loads no layer module
FAMILIES = ("complex", "quaternionic")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


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


def _skeleton(text: str) -> list[str]:
    """The line of a record that holds the slots "\\1" and "\\2" (a and b
    of a `table branch` row, or "\\2" alone in place of a list's items),
    split at "\\2": a JSON line, which escapes them (\\u0001), or a CSV
    row, which holds them as they are in its plain cells and escaped in its
    JSON cells.  No constant text of a record holds either, so the line of
    one (a, b) is b joining the parts with a put in for "\\1".  (csv before
    3.11 cannot write "\\0".)"""
    return text.replace("\\u0001", "\1").replace("\\u0002", "\2").split("\2")


def _alignment_texts(found):
    """The alignments of found between the brackets and outer quotes of
    their JSON list, one group (hepattern.Alignments.groups) at a time: each
    text is up to ALIGNMENT_BATCH alignments of one prefix, joined in one
    step with no escaping, as enumerate_alignments admits only + - P M."""
    separator = ""
    for head, tails in found.groups():
        between = '","' + head
        for start in range(0, len(tails), ALIGNMENT_BATCH):
            yield separator + head + between.join(tails[start : start + ALIGNMENT_BATCH])
            separator = '","'


def _flatten(record: dict) -> dict:
    flat: dict = {"command": record["command"]}
    for key, value in record["inputs"].items():
        flat[f"in.{key}"] = value
    for key, value in record["result"].items():
        if isinstance(value, (list, dict)):
            flat[f"out.{key}"] = _ENCODER.encode(value)
        else:
            flat[f"out.{key}"] = value
    return flat


def _csv_writer():
    """A csv.writer whose writerow(cells) returns the line it writes: the
    write it calls is str, which returns its str argument."""
    import csv  # only the CSV projection reads it

    return csv.writer(SimpleNamespace(write=str))


def _line(record: dict, cells) -> str:
    """The record's line: its JSON line, or, given cells (a _csv_writer's
    writerow), its CSV row."""
    if cells is None:
        return _ENCODER.encode(record) + "\n"
    return cells(_flatten(record).values())


def _lines(records, csv: bool):
    """The texts of the records' lines, newlines included, in order: JSON
    lines, or (csv) CSV rows after a header taken from the first record.

    An item is a record, or a `table branch` row (record, a, b), whose
    record holds a and b as the slots _skeleton names and is the same dict
    for every row of one result.  That record's line is encoded once and
    split at b, a is put into the parts once per run of rows that share the
    record and a, and a row's line is its b joining them.  A record whose
    alignments are a lazy hepattern.Alignments goes through the same slot,
    as a list of one: its line is written around it, and the list's items
    between, one text of _alignment_texts at a time (each quote doubled in
    CSV, as csv writes a quoted cell), so neither the alignments nor the
    line are ever held whole."""
    cells = _csv_writer().writerow if csv else None
    header = csv  # the CSV header is still to be written
    skeletons = {}  # id(record): (record, its split line); the record kept keeps its id
    run = run_a = parts = None  # the record and a of the last row, and its filled parts
    for item in records:
        if type(item) is tuple:  # a `table branch` row
            record, a, b = item
            if record is run and a is run_a:
                yield b.join(parts)
                continue
        else:
            record, a = item, None
        if header:
            header = False
            yield cells(_flatten(record))
        if a is not None:  # the first row of a run
            kept = skeletons.get(id(record))
            if kept is None:
                kept = skeletons[id(record)] = record, _skeleton(_line(record, cells))
            run, run_a = record, a
            parts = [part.replace("\1", a) for part in kept[1]]
            yield b.join(parts)
            continue
        found = record["result"].get("alignments")
        # only a table he record has alignments, so no other command loads hepattern
        if found is None or not isinstance(found, hepattern.Alignments):
            yield _line(record, cells)
            continue
        result = {**record["result"], "alignments": ["\2"] if found.count else []}
        before, *after = _skeleton(_line({**record, "result": result}, cells))
        yield before
        for text in _alignment_texts(found):
            yield text if cells is None else text.replace('"', '""')
        yield from after


def _write(texts, out) -> None:
    """Write texts to out joined, up to WRITE_BATCH characters per write, so
    an unbuffered stdout takes few writes; a longer text is written alone,
    as it is, not copied.  The texts before one whose building raises are
    still written before the error leaves."""
    batch, size = [], 0
    try:
        for text in texts:
            if size + len(text) > WRITE_BATCH and batch:
                joined, batch, size = "".join(batch), [], 0
                out.write(joined)
            batch.append(text)
            size += len(text)
    finally:
        if batch:
            out.write("".join(batch))


def _parse_pq(text: str) -> tuple[int, int]:
    try:
        p_str, q_str = text.split(",")
        return int(p_str), int(q_str)
    except ValueError:
        raise reps.ParamError(f"--pq expects 'p,q' with integers, got {text!r}") from None


def _parse_range(text: str, parse_end) -> tuple:
    """(lo, hi) from 'lo..hi'; an endpoint that does not parse raises
    parse_end's own error, which names that endpoint."""
    ends = text.split("..")
    if len(ends) != 2:
        raise reps.ParamError(f"expected a range 'lo..hi', got {text!r}")
    return parse_end(ends[0]), parse_end(ends[1])


# ---------------------------------------------------------------------------
# branch
# ---------------------------------------------------------------------------

_BRANCH_RULES = [
    "same-side coupling only: (+,+) is nonzero iff a > b, (-,-) iff b > a",
    "interlacing pattern P1 = (a,b,-b,-a) when a > b, P2 = (b,a,-a,-b) when b > a",
]


def cmd_branch(args):
    # the parser admits one a-side mode and at most one b-side option
    single = args.plus_a is not None or args.minus_a is not None
    if single != (args.plus_b is not None or args.minus_b is not None):
        raise reps.ParamError("give --plus-b/--minus-b exactly with --plus-a/--minus-a")
    if args.max_k is not None and args.pi_minus is None:
        raise reps.ParamError("--max-k applies only with --pi-minus")
    p, q = _parse_pq(args.pq)
    sig, text = reps.Signature(p, q), halfint.format_twice
    # each value goes to make_param as written, so that a refusal echoes it
    if args.gp is not None:
        params_G = branching.param_pair(sig, reps.GroupLevel.G, args.gp[0])
        params_Gp = branching.param_pair(sig, reps.GroupLevel.GPRIME, args.gp[1])
        a, b = text(params_G[0].twice), text(params_Gp[0].twice)
        yield _record(
            "branch",
            {"p": p, "q": q, "mode": "packet-sum", "a": a, "b": b},
            branching.coupling_summary(params_G, params_Gp),
            _BRANCH_RULES + ["packet sum: exactly one same-side pair contributes"],
        )
        return
    if args.pi_minus is not None:
        Pi = reps.make_param(sig, reps.Side.MINUS, reps.GroupLevel.G, args.pi_minus)
        max_k = DEFAULT_MAX_K if args.max_k is None else args.max_k
        _refuse_count(max_k + 1, TABLE_CAP, "{} summands exceed")
        yield _record(
            "branch",
            {"p": p, "q": q, "mode": "pi-minus-summands", "a": text(Pi.twice), "max_k": max_k},
            branching.pi_minus_record(Pi, max_k),
            ["minus-side summands: b = a + 1/2 + k for k = 0..max_k, all coupling"],
        )
        return
    # single hom-dim query
    side_G = reps.Side.PLUS if args.plus_a is not None else reps.Side.MINUS
    side_Gp = reps.Side.PLUS if args.plus_b is not None else reps.Side.MINUS
    a = args.plus_a if args.plus_a is not None else args.minus_a
    b = args.plus_b if args.plus_b is not None else args.minus_b
    Pi = reps.make_param(sig, side_G, reps.GroupLevel.G, a)
    pi = reps.make_param(sig, side_Gp, reps.GroupLevel.GPRIME, b)
    inputs = {"p": p, "q": q, "a": text(Pi.twice), "b": text(pi.twice)}
    yield _record("branch", inputs, branching.pair_record(Pi, pi), _BRANCH_RULES)


# ---------------------------------------------------------------------------
# period
# ---------------------------------------------------------------------------

_PERIOD_RULES = [
    "radial factor: half Beta identity with arguments ((alpha+1)/2, (beta-alpha)/2)",
    "angular factor: exact rational Jacobi pairing, nonzero iff 0 <= k <= n",
]


def cmd_period(args):
    p, q = _parse_pq(args.pq)
    result = periods.PeriodGrid(p, q, args.family, args.tol).record(args.n, args.k)
    inputs = {"p": p, "q": q, "n": args.n, "k": args.k, "family": args.family, "tol": args.tol}
    yield _record("period", inputs, result, _PERIOD_RULES)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


_EXHAUSTION_RULES = ["two-stage restriction sequences against the radial-label prediction"]
_HE_RULES = ["order-preserving interleaving under the eight-pair adjacency rule"]


def _refuse_count(count: int, cap: int, what: str) -> None:
    """Raise ValueError when count exceeds cap, naming it as what.format(count),
    e.g. "{} summands exceed"; a count of hundreds of digits is not printed."""
    if count > cap:
        size = count if count <= 10**18 else "more than 10^18"
        raise ValueError(f"{what.format(size)} the cap {cap}")


def _size(values: range) -> int:
    """len(values) from its ends: len() refuses a length beyond sys.maxsize."""
    return max(0, -((values.start - values.stop) // values.step))


def _grid(*axes: range, check=None) -> bool:
    """Whether the grid over axes has rows, once it is within TABLE_CAP and,
    if it has rows, check (a layer's per-row cap) passes its last labels.
    Without rows, one axis may still be too long to step through."""
    count = 1
    for values in axes:
        count *= _size(values)
    _refuse_count(count, TABLE_CAP, "grid of {} records exceeds")
    if count and check is not None:
        check(*(values[-1] for values in axes))
    return count > 0


def _row(kind: str, row: dict, compute, *args):
    """compute(*args) for one table row; an error names the row, e.g.
    'table period row n=26 k=0: ...', and keeps its type (so its exit code)."""
    try:
        return compute(*args)
    except (specfun.ConvergenceError, ValueError) as exc:
        where = " ".join(f"{key}={value}" for key, value in row.items())
        exc.args = (f"table {kind} row {where}: {exc}",)
        raise


def _rows_branch(args):
    p, q = _parse_pq(args.pq)
    sig = reps.Signature(p, q)
    G, GPRIME, text = reps.GroupLevel.G, reps.GroupLevel.GPRIME, halfint.format_twice
    a_lo, a_hi = _parse_range(args.a_range, halfint.parse_twice)
    b_lo, b_hi = _parse_range(args.b_range, halfint.parse_twice)
    a_twice = reps.valid_twice(sig, G, a_lo, a_hi)
    b_twice = reps.valid_twice(sig, GPRIME, b_lo, b_hi)
    if not _grid(a_twice, b_twice):  # an empty range may leave the other too long to build
        return
    # each grid value's text and (plus, minus) parameters are built once
    # and serve every row
    a_values = [(text(a), branching.param_pair(sig, G, a)) for a in a_twice]
    b_values = [(text(b), branching.param_pair(sig, GPRIME, b)) for b in b_twice]
    warning = branching.hypothesis_warning(sig)
    check = branching.coupling_check
    records = {}  # a record per check result, with a and b the slots _skeleton names
    try:
        for a, Pa in a_values:
            for b, Pb in b_values:
                values = check(Pa, Pb)
                record = records.get(values)
                if record is None:
                    result = branching.coupling_record(values, "\1", "\2", warning)
                    inputs = {"p": p, "q": q, "a": "\1", "b": "\2"}
                    record = _record("table.branch", inputs, result, _BRANCH_RULES)
                    records[values] = record
                yield record, a, b
    except ValueError as exc:
        exc.args = (f"table branch row a={a} b={b}: {exc}",)
        raise


def _rows_period(args):
    p, q = _parse_pq(args.pq)
    # tol, signature, family and cap are refused before the grid's size and labels
    grid = periods.PeriodGrid(p, q, args.family, args.tol)
    ns, ks = range(0, args.n_max + 1, 2), range(0, args.k_max + 1, 2)
    if not _grid(ns, ks, check=periods.check_labels):
        return
    for n in ns:
        for k in ks:
            result = _row("period", {"n": n, "k": k}, grid.record, n, k)
            inputs = {"p": p, "q": q, "n": n, "k": k, "family": args.family}
            yield _record("table.period", inputs, result, _PERIOD_RULES)


def _rows_exhaustion(args):
    p, q = _parse_pq(args.pq)
    sig = reps.Signature(p, q)
    lo, hi = _parse_range(args.ell, int)
    _grid(range(lo, hi + 1), check=branching.check_ell)
    for ell in range(lo, hi + 1):
        result = _row("exhaustion", {"ell": ell}, branching.exhaustion_check, sig, ell)
        inputs = {"p": p, "q": q, "ell": ell}
        yield _record("table.exhaustion", inputs, result, _EXHAUSTION_RULES)


def _rows_he(args):
    if (args.big is None) != (args.small is None):
        raise reps.ParamError("--big and --small must be given together")
    if args.big is not None:
        big, small = args.big.strip(), args.small.strip()
        found = hepattern.enumerate_alignments(big, small)
        _refuse_count(found.count, ALIGNMENT_CAP, "{} alignments exceed")
        result = hepattern.alignment_report(found)
        yield _record("table.he", {"big": big, "small": small}, result, _HE_RULES)
        return
    lo, hi = _parse_range(args.n, int)
    _grid(range(lo, hi + 1), check=hepattern.check_u2n)
    for n in range(lo, hi + 1):
        result = _row("he", {"n": n}, hepattern.u2n_case_report, n)
        yield _record("table.he", {"n": n}, result, _HE_RULES)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# The options of each command, declared once: build_parser hands them to
# argparse and _parse_direct reads them itself.  An option is its flag and
# the keyword arguments argparse's add_argument takes; a pair of a bool and
# options is a mutually exclusive group, required if the bool is True.  The
# options are listed in the order of the command's help.
_PQ = ("--pq", {"required": True, "help": "signature p,q, e.g. 3,3 (periods need q > p > 0)"})
_FAMILY = ("--family", {"choices": FAMILIES, "default": FAMILIES[0]})
_TOL = ("--tol", {"type": float, "default": 1e-10, "help": "quadrature tolerance"})
_CSV = ("--csv", {"action": "store_true", "help": "CSV projection instead of JSON lines"})

# Each command by name: its help, the defaults its parser sets and its
# options; a command with kinds (table) has them in place of its options, by
# name, in the same form.  _COMMAND_DESTS names the namespace attribute that
# holds the command's name, then its kind's.
_COMMANDS = {
    "branch": ("coupling dimensions and packet sums", {"func": cmd_branch}, (
        _PQ,
        (True, (
            ("--plus-a", {"help": "plus-side parameter a (level G)"}),
            ("--minus-a", {"help": "minus-side parameter a (level G)"}),
            ("--gp", {"nargs": 2, "metavar": ("A", "B"), "help": "packet-sum query for (a, b)"}),
            ("--pi-minus", {"metavar": "A", "help": "enumerate minus-side summands of a"}),
        )),
        (False, (
            ("--plus-b", {"help": "plus-side parameter b (subgroup level)"}),
            ("--minus-b", {"help": "minus-side parameter b (subgroup level)"}),
        )),
        ("--max-k", {
            "type": int,
            "help": f"summand cutoff, with --pi-minus only (default {DEFAULT_MAX_K})",
        }),
    )),
    "period": ("period integral, closed form vs quadrature", {"func": cmd_period}, (
        _PQ,
        _FAMILY,
        _TOL,
        ("--n", {"type": int, "required": True, "help": "even label on the big space"}),
        ("--k", {"type": int, "required": True, "help": "even label on the subspace"}),
    )),
    "table": ("grid sweeps, one record per line", {}, {
        "branch": ("coupling grid over a and b", {"func": _rows_branch}, (
            _PQ,
            _CSV,
            ("--a-range", {"required": True, "help": "range lo..hi for a, e.g. 9/2..17/2"}),
            ("--b-range", {"required": True, "help": "range lo..hi for b"}),
        )),
        "period": ("period grid over n, k", {"func": _rows_period}, (
            _PQ,
            _FAMILY,
            _TOL,
            _CSV,
            ("--n-max", {"type": int, "default": 8, "help": "even-label cap for n (default 8)"}),
            ("--k-max", {"type": int, "default": 8, "help": "even-label cap for k (default 8)"}),
        )),
        "exhaustion": ("exhaustion cross-check", {"func": _rows_exhaustion}, (
            _PQ,
            _CSV,
            ("--ell", {"required": True, "help": "range lo..hi of radial labels, e.g. 8..16"}),
        )),
        "he": ("sign-sequence alignments", {"func": _rows_he}, (
            _CSV,
            (True, (
                ("--n", {"help": "range lo..hi for the U(2,n) configuration, e.g. 4..10"}),
                ("--big", {"help": "raw plain sign sequence, e.g. +--+ (with --small)"}),
            )),
            ("--small", {"help": "raw circled sign sequence, e.g. PMM"}),
        )),
    }),
}
_COMMAND_DESTS = ("subcommand", "kind")


def build_parser():
    """The argparse parser of _COMMANDS, which reads every command line
    main is given that _parse_direct does not, and writes every help text
    and usage error."""
    import argparse  # only here: most command lines never need it

    class _Parser(argparse.ArgumentParser):
        """A parser that reports the unknown options it was given itself,
        with its own usage line: argparse would hand a command's unknown
        options back to the parser above it, mixed with that parser's own.
        add_subparsers builds command parsers of its parser's class, so
        every level is one.

        It also refuses an option value of exactly `--` (`--pq=--`), which
        no option reads: argparse before 3.13 drops that `--` and stores an
        empty list where one value is expected, and 3.13 stores the string."""

        def parse_known_args(self, args=None, namespace=None):
            namespace, unknown = super().parse_known_args(args, namespace)
            if unknown:
                self.error(f"unrecognized arguments: {' '.join(unknown)}")
            for action in self._actions:
                if action.nargs is None and getattr(namespace, action.dest, None) in ([], "--"):
                    self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
            return namespace, unknown

    def add_commands(parser, commands, depth):
        sub = parser.add_subparsers(dest=_COMMAND_DESTS[depth], required=True)
        for name, (help_text, defaults, options) in commands.items():
            command = sub.add_parser(name, help=help_text)
            command.set_defaults(**defaults)
            if isinstance(options, dict):
                add_commands(command, options, depth + 1)
                continue
            for option in options:
                if isinstance(option[0], bool):
                    required, members = option
                    group = command.add_mutually_exclusive_group(required=required)
                    for flag, kwargs in members:
                        group.add_argument(flag, **kwargs)
                else:
                    flag, kwargs = option
                    command.add_argument(flag, **kwargs)

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
    add_commands(parser, _COMMANDS, 0)
    return parser


def _dest(flag: str) -> str:
    """The namespace attribute argparse stores an option in: --plus-a in plus_a."""
    return flag[2:].replace("-", "_")


def _parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) returns, read from
    _COMMANDS without argparse, for a command line of one exact form: the
    command's name (and its kind's), then options, each named in full at
    most once and followed by its values, none of which starts with "-",
    with every required option and exclusive group satisfied and every
    value of the option's type and among its choices.  Any other line
    (a prefix, --opt=value, -h, a usage error) gives None."""
    values, commands, index = {}, _COMMANDS, 0
    while isinstance(commands, dict):
        if index == len(argv) or argv[index] not in commands:
            return None
        values[_COMMAND_DESTS[index]] = argv[index]
        _, defaults, commands = commands[argv[index]]
        values.update(defaults)
        index += 1
    options, groups = {}, []
    for option in commands:
        if isinstance(option[0], bool):
            groups.append(option)
            options.update(option[1])
        else:
            options[option[0]] = option[1]
    for flag, kwargs in options.items():
        values[_dest(flag)] = kwargs.get("default", False if "action" in kwargs else None)
    given = set()
    while index < len(argv):
        flag = argv[index]
        kwargs = options.get(flag)
        if kwargs is None or flag in given:
            return None
        given.add(flag)
        index += 1
        value = True  # the only action is store_true
        if "action" not in kwargs:
            count = kwargs.get("nargs", 1)
            value = []
            for text in argv[index : index + count]:
                if text.startswith("-"):
                    return None
                try:
                    text = kwargs.get("type", str)(text)
                except ValueError:
                    return None
                if text not in kwargs.get("choices", (text,)):
                    return None
                value.append(text)
            if len(value) < count:
                return None
            index += count
            if "nargs" not in kwargs:
                (value,) = value
        values[_dest(flag)] = value
    for flag, kwargs in options.items():
        if kwargs.get("required") and flag not in given:
            return None
    for required, members in groups:
        count = sum(flag in given for flag, _ in members)
        if count > 1 or (required and not count):
            return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_direct(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        _write(_lines(args.func(args), getattr(args, "csv", False)), sys.stdout)
        sys.stdout.flush()
        return EXIT_OK
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


def run() -> int:
    """The `relbranch` process: main() on the command line, then, outside
    dev mode, the heap frozen (gc.freeze), so that exit does not walk it
    (see the module docstring)."""
    try:
        return main()
    finally:
        if not sys.flags.dev_mode:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
