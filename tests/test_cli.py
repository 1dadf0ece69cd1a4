import argparse
import ast
import inspect
import json
import re
import shlex
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbranch import cli
from relbranch.branching import coupling_summary, param_pair
from relbranch.halfint import format_twice, parse_twice
from relbranch.reps import GroupLevel, ParamError, Side, Signature, make_param, valid_twice
from relbranch.specfun import ConvergenceError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_usage(capsys, *argv):
    """run_cli, where an argparse usage error (SystemExit) gives the exit code."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def parse_records(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_branch_hom_dim(capsys):
    code, out, _ = run_cli(capsys, "branch", "--pq", "3,3", "--plus-a", "7/2", "--plus-b", "2")
    assert code == 0
    (record,) = parse_records(out)
    assert record["schema"] == cli.SCHEMA
    assert record["result"]["dim"] == 1
    assert record["result"]["pattern"] == "P1"
    assert record["provenance"]


def test_branch_mixed_sides_zero(capsys):
    code, out, _ = run_cli(capsys, "branch", "--pq", "3,3", "--plus-a", "7/2", "--minus-b", "2")
    assert code == 0
    (record,) = parse_records(out)
    assert record["result"]["dim"] == 0


def test_branch_gp_witness(capsys):
    code, out, _ = run_cli(capsys, "branch", "--pq", "3,3", "--gp", "9/2", "3")
    assert code == 0
    (record,) = parse_records(out)
    assert record["result"]["witness"] == "(+,+)"
    assert record["result"]["total"] == 1


def test_branch_pi_minus(capsys):
    code, out, _ = run_cli(capsys, "branch", "--pq", "3,3", "--pi-minus", "5/2", "--max-k", "2")
    assert code == 0
    (record,) = parse_records(out)
    assert record["result"]["summands"] == ["3", "4", "5"]
    assert record["result"]["all_hom_dim_one"] is True


def test_half_integer_is_any_exact_literal(capsys):
    # parsing is exact: a decimal literal whose value is a half-integer is the
    # same input as its fraction, and the record prints the fraction
    argv = ("branch", "--pq", "3,3", "--plus-b", "2", "--plus-a")
    code, out, err = run_cli(capsys, *argv, "3.5")
    assert (code, out, err) == run_cli(capsys, *argv, "7/2")
    assert (code, err) == (0, "") and '"a":"7/2"' in out
    code, out, err = run_cli(capsys, *argv, "0.3")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == "error: cannot parse half-integer from '0.3': 0.3 is not a half-integer\n"


def test_branch_validation_exit_code(capsys):
    code, out, err = run_cli(capsys, "branch", "--pq", "3,3", "--plus-a", "2", "--plus-b", "2")
    assert code == 2
    assert not out
    assert "parity" in err


def test_branch_pi_minus_cap(capsys):
    code, out, err = run_cli(
        capsys, "branch", "--pq", "3,3", "--pi-minus", "5/2", "--max-k", "10000"
    )
    assert code == 2
    assert not out
    assert err == "error: 10001 summands exceed the cap 10000\n"
    code, out, err = run_cli(capsys, "branch", "--pq", "3,3", "--pi-minus", "5/2", "--max-k", "-1")
    assert code == 2
    assert not out
    assert err == "error: max_k must be nonnegative\n"


def test_branch_max_k_only_with_pi_minus(capsys):
    # --max-k defaults to 10 under --pi-minus and is refused in every other mode
    code, out, _ = run_cli(capsys, "branch", "--pq", "3,3", "--pi-minus", "5/2")
    assert code == 0
    (record,) = parse_records(out)
    assert record["inputs"]["max_k"] == 10 and record["result"]["count"] == 11
    assert out == run_cli(
        capsys, "branch", "--pq", "3,3", "--pi-minus", "5/2", "--max-k", "10"
    )[1]
    for mode in (["--gp", "9/2", "3"], ["--plus-a", "7/2", "--plus-b", "2"],
                 ["--minus-a", "7/2", "--minus-b", "2"]):
        for value in ("4", "10"):
            code, out, err = run_cli(capsys, "branch", "--pq", "3,3", *mode, "--max-k", value)
            assert (code, out) == (cli.EXIT_VALIDATION, ""), mode
            assert err == "error: --max-k applies only with --pi-minus\n"


def test_branch_requires_a_and_b(capsys):
    code, _, err = run_cli(capsys, "branch", "--pq", "3,3", "--plus-a", "7/2")
    assert code == 2
    assert "plus-b" in err


def test_period_nonvanishing(capsys):
    code, out, _ = run_cli(capsys, "period", "--pq", "1,2", "--n", "4", "--k", "2")
    assert code == 0
    (record,) = parse_records(out)
    assert record["result"]["nonvanishing"] is True
    assert record["result"]["abs_difference"] <= 1e-10


def test_period_vanishing(capsys):
    code, out, _ = run_cli(capsys, "period", "--pq", "1,2", "--n", "2", "--k", "4")
    assert code == 0
    (record,) = parse_records(out)
    assert abs(record["result"]["closed"]) == 0.0
    assert abs(record["result"]["quadrature"]) <= 1e-10
    assert record["result"]["nonvanishing"] is False


def test_period_quaternionic(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--pq", "1,2", "--family", "quaternionic", "--n", "0", "--k", "0"
    )
    assert code == 0
    (record,) = parse_records(out)
    assert record["result"]["quadrature"] > 0
    assert record["result"]["nonvanishing"] is True


def test_period_precondition_exit(capsys):
    code, _, err = run_cli(capsys, "period", "--pq", "2,2", "--n", "0", "--k", "0")
    assert code == 2
    assert "q > p" in err


@pytest.mark.parametrize("family", cli.FAMILIES)
@pytest.mark.parametrize("command", [("period", "--n", "0", "--k", "0"), ("table", "period")])
def test_period_of_a_huge_q_exits_2(command, family):
    # q = 10^20 is far above either family's cap: the run exits 2 naming the
    # cap, with no traceback
    import subprocess
    import sys

    q = 10**20
    argv = [*command, "--pq", f"1,{q}", "--family", family]
    cmd = [sys.executable, "-m", "relbranch.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert f"q = {q} exceeds the signature cap MAX_Q_{family.upper()} = " in proc.stderr


def test_period_at_the_cap_exits_0_and_above_it_builds_nothing(capsys, monkeypatch):
    # at each family's cap the record at (0, 0) is written; one above, the
    # command is refused before any exact factor or quadrature rule is built
    periods = cli.periods
    caps = [("complex", periods.MAX_Q_COMPLEX), ("quaternionic", periods.MAX_Q_QUATERNIONIC)]
    for family, cap in caps:
        argv = ("period", "--pq", f"1,{cap}", "--family", family, "--n", "0", "--k", "0")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err, len(parse_records(out))) == (0, "", 1), argv
    built = []
    for name in ("jacobi_pairing", "radial_integral_exact", "gauss_legendre_quadrature"):
        monkeypatch.setattr(periods, name, lambda *args, name=name: built.append(name))
    for family, cap in caps:
        for command in (("period", "--n", "0", "--k", "0"), ("table", "period")):
            argv = (*command, "--pq", f"1,{cap + 1}", "--family", family)
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (cli.EXIT_VALIDATION, ""), argv
            cap_name = f"MAX_Q_{family.upper()} = {cap}"
            assert err == f"error: q = {cap + 1} exceeds the signature cap {cap_name}\n"
    assert built == []


def test_period_above_the_cap_is_refused_at_once(capsys):
    # both p and q - p large took seconds of exact products, and complex
    # q = 10^10 would have built a 1.25 GB power of two before its refusal:
    # each is now refused in well under 0.2 s, allocating under 1 MiB
    import time
    import tracemalloc

    cli.periods.PeriodGrid  # load the layer outside the measurement
    for pq in ("100000,200000", "1,10000000000"):
        tracemalloc.start()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "period", "--pq", pq, "--n", "0", "--k", "0")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (code, out) == (cli.EXIT_VALIDATION, ""), pq
        assert "exceeds the signature cap MAX_Q_COMPLEX = 522" in err, pq
        assert elapsed < 0.2 and peak < 1 << 20, (pq, elapsed, peak)


def test_period_rejects_nonfinite_tol(capsys):
    cases = [
        ("period", "--pq", "1,2", "--n", "2", "--k", "0", "--tol", "nan"),
        ("period", "--pq", "1,2", "--n", "2", "--k", "0", "--tol", "inf"),
        ("period", "--pq", "1,2", "--n", "2", "--k", "0", "--tol", "0"),
        ("table", "period", "--pq", "1,2", "--tol", "nan"),
        # the tolerance is checked first, so a q above the cap cannot turn
        # the tolerance's refusal into the cap's
        ("period", "--pq", "1,1100", "--n", "0", "--k", "0", "--tol", "nan"),
        ("table", "period", "--pq", "1,1100", "--n-max", "0", "--k-max", "0", "--tol", "nan"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_VALIDATION and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "tol must be positive and finite" in err, (argv, err)


def test_period_record_evaluates_the_exact_pairing_once(capsys, monkeypatch):
    # closed and nonvanishing both read one exact period per record
    calls = []
    real = cli.periods.jacobi_pairing

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli.periods, "jacobi_pairing", counted)
    argv = ("table", "period", "--pq", "1,2", "--n-max", "24", "--k-max", "24")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(parse_records(out)) == len(calls) == 169


# the benchmark's period grids, with their record count and distinct n + k
_BENCHMARK_PERIOD_GRIDS = [
    (("--pq", "1,2", "--n-max", "24", "--k-max", "24"), 169, 25),
    (("--pq", "2,5", "--family", "quaternionic", "--n-max", "20", "--k-max", "20"), 121, 21),
]


@pytest.mark.parametrize("argv, records, sums", _BENCHMARK_PERIOD_GRIDS)
def test_table_period_sweeps_each_rule_once(capsys, monkeypatch, argv, records, sums):
    # records with the same n + k share one rule, and a record reads two
    # exponent pairs there: each (rule, alpha, beta) is one sweep, built row
    # by row from row 0 with no row built twice, and only as far as the
    # highest degree a record reads from it
    sweeps, built, top = {}, {}, {}
    real = cli.periods.jacobi_rows

    def counted(n, alpha, beta, xs, rows):
        key = (len(xs), alpha, beta)
        assert sweeps.setdefault(key, rows) is rows, key
        before = len(rows)
        real(n, alpha, beta, xs, rows)
        built.setdefault(key, []).extend(range(before, len(rows)))
        top[key] = max(top.get(key, 0), n)
        return rows

    monkeypatch.setattr(cli.periods, "jacobi_rows", counted)
    code, out, _ = run_cli(capsys, "table", "period", *argv)
    assert (code, len(parse_records(out))) == (0, records)
    assert len(sweeps) == 2 * sums
    assert built == {key: list(range(degree + 1)) for key, degree in top.items()}


@pytest.mark.parametrize("argv, records, sums", _BENCHMARK_PERIOD_GRIDS)
def test_table_period_builds_each_radial_factor_once(capsys, monkeypatch, argv, records, sums):
    # both radial factors, exact and by quadrature, depend on n + k only
    built = []
    for name in ("radial_integral_exact", "_radial_quadrature"):

        def counted(*args, name=name, real=getattr(cli.periods, name)):
            built.append((name, args))
            return real(*args)

        monkeypatch.setattr(cli.periods, name, counted)
    code, out, _ = run_cli(capsys, "table", "period", *argv)
    assert (code, len(parse_records(out))) == (0, records)
    assert len(set(built)) == len(built) == 2 * sums
    assert sum(name == "radial_integral_exact" for name, _ in built) == sums


@pytest.mark.parametrize("argv, records, sums", _BENCHMARK_PERIOD_GRIDS)
def test_table_period_weighs_each_rule_once(capsys, monkeypatch, argv, records, sums):
    # a grid has one angular (alpha, beta), so one row of node weights per
    # rule, that is per n + k
    built = []
    real = cli.periods._node_weights

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cli.periods, "_node_weights", counted)
    code, out, _ = run_cli(capsys, "table", "period", *argv)
    assert (code, len(parse_records(out))) == (0, records)
    assert len(set(built)) == len(built) == sums


def test_table_branch_triangle(capsys):
    code, out, _ = run_cli(
        capsys,
        "table",
        "branch",
        "--pq",
        "4,5",
        "--a-range",
        "4..8",
        "--b-range",
        "7/2..15/2",
    )
    assert code == 0
    records = parse_records(out)
    assert len(records) == 5 * 5
    for record in records:
        a = eval_half(record["inputs"]["a"])
        b = eval_half(record["inputs"]["b"])
        assert record["result"]["dims"]["(+,+)"] == (1 if a > b else 0)
        assert record["result"]["dims"]["(-,-)"] == (1 if b > a else 0)
        assert record["result"]["dims"]["(+,-)"] == 0
        assert record["result"]["dims"]["(-,+)"] == 0


_TEMPLATE_GRIDS = [
    # the benchmark's signature, and two outside the hypothesis, whose rows
    # carry a hypothesis_warning; each grid has P1 and P2 rows
    ("--pq", "4,5", "--a-range", "4..8", "--b-range", "7/2..15/2"),
    ("--pq", "3,3", "--a-range", "5/2..15/2", "--b-range", "2..8"),
    ("--pq", "4,4", "--a-range", "7/2..15/2", "--b-range", "3..8"),
]


def _branch_grid_records(argv):
    """The records of the `table branch` grid that argv names, built here
    from coupling_summary of each (a, b) of the grid, a rows, b columns."""
    options = dict(zip(argv[0::2], argv[1::2]))
    p, q = map(int, options["--pq"].split(","))
    sig = Signature(p, q)
    a_lo, a_hi = map(parse_twice, options["--a-range"].split(".."))
    b_lo, b_hi = map(parse_twice, options["--b-range"].split(".."))
    records = []
    for a_twice in valid_twice(sig, GroupLevel.G, a_lo, a_hi):
        for b_twice in valid_twice(sig, GroupLevel.GPRIME, b_lo, b_hi):
            a, b = format_twice(a_twice), format_twice(b_twice)
            summary = coupling_summary(
                param_pair(sig, GroupLevel.G, a), param_pair(sig, GroupLevel.GPRIME, b)
            )
            records.append(
                {
                    "schema": "relbranch.record.v1",
                    "command": "table.branch",
                    "inputs": {"p": p, "q": q, "a": a, "b": b},
                    "result": summary,
                    "provenance": cli._BRANCH_RULES,
                }
            )
    return records


@pytest.mark.parametrize("argv", _TEMPLATE_GRIDS)
def test_table_branch_lines_match_the_generic_encoder(capsys, argv):
    # a branch grid fills one pre-encoded record text per row; every line
    # must be what the generic encoder writes for the record that
    # coupling_summary gives that row
    code, out, err = run_cli(capsys, "table", "branch", *argv)
    assert (code, err) == (0, "")
    records = _branch_grid_records(argv)
    lines = out.splitlines()
    assert len(lines) == len(records) > 0
    for line, record in zip(lines, records):
        assert line == cli._ENCODER.encode(record), record["inputs"]
    assert {r["result"]["pattern"] for r in records} == {"P1", "P2"}
    warned = {r["result"]["hypothesis_warning"] is not None for r in records}
    assert warned == ({False} if argv[1] == "4,5" else {True})


@pytest.mark.parametrize("argv", _TEMPLATE_GRIDS)
def test_table_branch_csv_is_the_projection_of_each_row(capsys, argv):
    # the CSV projection, built here row by row from coupling_summary: a
    # list or dict cell is its compact JSON, None an empty cell
    import csv
    import io

    code, out, err = run_cli(capsys, "table", "branch", *argv, "--csv")
    assert (code, err) == (0, "")
    want = io.StringIO()
    writer = None
    for record in _branch_grid_records(argv):
        flat = {"command": record["command"]}
        flat.update((f"in.{key}", value) for key, value in record["inputs"].items())
        for key, value in record["result"].items():
            if isinstance(value, (list, dict)):
                value = json.dumps(value, separators=(",", ":"))
            flat[f"out.{key}"] = value
        if writer is None:
            writer = csv.DictWriter(want, fieldnames=list(flat))
            writer.writeheader()
        writer.writerow(flat)
    assert out == want.getvalue()


def eval_half(text):
    if "/" in text:
        num, den = text.split("/")
        return int(num) / int(den)
    return float(text)


def test_table_exhaustion_all_agree(capsys):
    code, out, _ = run_cli(capsys, "table", "exhaustion", "--pq", "3,3", "--ell", "8..16")
    assert code == 0
    records = parse_records(out)
    assert len(records) == 9
    assert all(r["result"]["agreement"] for r in records)


def test_table_exhaustion_reports_a_disagreeing_prediction(capsys, monkeypatch):
    # a label dictionary one label step off: the sequences are compared as
    # twice their values, and the report writes each as its literal
    real = cli.branching.fj_label_to_b
    monkeypatch.setattr(cli.branching, "fj_label_to_b", lambda sig, k: real(sig, k + 2))
    code, out, err = run_cli(capsys, "table", "exhaustion", "--pq", "3,3", "--ell", "8..10")
    assert (code, err) == (0, "")
    got = [(r["inputs"]["ell"], r["result"]) for r in parse_records(out)]
    assert [(ell, result["agreement"], result["mismatches"]) for ell, result in got] == [
        (8, False, ["second vs period: ['2', '3'] != ['3', '4']"]),
        (9, True, []),
        (10, False, ["second vs period: ['2', '3', '4'] != ['3', '4', '5']"]),
    ]
    assert got[0][1]["period_prediction"] == ["3", "4"]
    assert got[2][1]["first_sequence"] == got[2][1]["second_sequence"] == ["2", "3", "4"]


@pytest.mark.parametrize("ell", ["1000000..1000000", "100000000000..100000000001"])
def test_table_exhaustion_refuses_ell_above_the_cap(ell):
    # each row's work grows with ell: an end above MAX_ELL exits 2 before
    # any row runs (the first took 5.1 s and 278 MB uncapped)
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "relbranch.cli", "table", "exhaustion", "--pq", "3,3"]
    proc = subprocess.run([*cmd, "--ell", ell], capture_output=True, text=True, timeout=10)
    end = ell.split("..")[1]
    message = f"error: ell = {end} exceeds the per-row cap MAX_ELL = {cli.branching.MAX_ELL}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_VALIDATION, "", message)


def test_table_exhaustion_reaches_the_cap(capsys):
    cap = cli.branching.MAX_ELL
    argv = ("table", "exhaustion", "--pq", "3,3", "--ell", f"{cap - 1}..{cap}")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert [r["result"]["agreement"] for r in parse_records(out)] == [True, True]
    code, out, err = run_cli(capsys, *argv[:-1], f"{cap - 1}..{cap + 1}")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == f"error: ell = {cap + 1} exceeds the per-row cap MAX_ELL = {cap}\n"


def test_table_he_range(capsys):
    code, out, _ = run_cli(capsys, "table", "he", "--n", "4..6")
    assert code == 0
    records = parse_records(out)
    assert [r["inputs"]["n"] for r in records] == [4, 5, 6]
    assert all(r["result"]["total_alignments"] == 2 for r in records)


@pytest.mark.parametrize("n", ["4..257", "100000000..100000000"])
def test_table_he_refuses_n_above_the_cap(n):
    # each row's work grows with n: an end above MAX_U2N exits 2 before any
    # row runs (4..4000 ran for minutes uncapped)
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "relbranch.cli", "table", "he", "--n", n]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=5)
    end = n.split("..")[1]
    message = f"error: n = {end} exceeds the per-row cap MAX_U2N = {cli.hepattern.MAX_U2N}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_VALIDATION, "", message)


def test_table_he_reaches_the_cap():
    import subprocess
    import sys

    cap = cli.hepattern.MAX_U2N
    cmd = [sys.executable, "-m", "relbranch.cli", "table", "he", "--n", f"{cap - 1}..{cap}"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [r["inputs"]["n"] for r in parse_records(proc.stdout)] == [cap - 1, cap]
    with pytest.raises(ValueError, match=f"^n = {cap + 1} exceeds the per-row cap"):
        cli.hepattern.u2n_case_report(cap + 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        # a well-formed range with a bad endpoint: the endpoint's own error
        (
            ("branch", "--pq", "3,3", "--a-range", "9/2..1/3", "--b-range", "1..2"),
            "cannot parse half-integer from '1/3': 1/3 is not a half-integer",
        ),
        (
            ("branch", "--pq", "3,3", "--a-range", "9/2..0.3", "--b-range", "1..2"),
            "cannot parse half-integer from '0.3': 0.3 is not a half-integer",
        ),
        (
            ("exhaustion", "--pq", "3,3", "--ell", "8..x"),
            "invalid literal for int() with base 10: 'x'",
        ),
        # a missing or extra '..' is a form error
        (
            ("branch", "--pq", "3,3", "--a-range", "9/2", "--b-range", "1..2"),
            "expected a range 'lo..hi', got '9/2'",
        ),
        (("he", "--n", "4..5..6"), "expected a range 'lo..hi', got '4..5..6'"),
    ],
)
def test_table_range_errors_name_what_is_wrong(capsys, argv, message):
    code, out, err = run_cli(capsys, "table", *argv)
    assert (code, out, err) == (cli.EXIT_VALIDATION, "", f"error: {message}\n")


def test_table_he_raw_sequences(capsys):
    code, out, _ = run_cli(capsys, "table", "he", "--big", "+--+", "--small", "PMM")
    assert code == 0
    (record,) = parse_records(out)
    assert record["result"]["alignments"] == ["+PM-M-+"]
    # a long big sequence against an empty small one stays under MAX_POSITIONS
    code, out, err = run_cli(capsys, "table", "he", "--big", "+-" * 5000, "--small", "")
    assert (code, err) == (0, "")
    (record,) = parse_records(out)
    assert record["result"] == {"alignments": ["+-" * 5000], "count": 1}


def test_table_he_rejects_bad_sequences(capsys):
    cases = [
        ("+x", "PM", "error: unknown symbols ['x']; alphabet is +, -, P, M\n"),
        ("+P", "PM", "error: big sequence must use plain signs + and - only\n"),
        ("+-", "P-", "error: small sequence must use circled signs P and M only\n"),
    ]
    for big, small, message in cases:
        code, out, err = run_cli(capsys, "table", "he", "--big", big, "--small", small)
        assert (code, out, err) == (cli.EXIT_VALIDATION, "", message), (big, small)


def test_table_he_alignment_cap(capsys):
    import time

    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "he", "--big", "+-" * 12, "--small", "PM" * 12)
    elapsed = time.perf_counter() - start
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == f"error: 2704156 alignments exceed the cap {cli.ALIGNMENT_CAP}\n"
    assert cli.ALIGNMENT_CAP == 1_000_000
    assert elapsed < 1.0  # counted without building a single alignment


def test_table_he_refuses_a_huge_count_without_printing_it():
    # (+-)^100 against (PM)^100 has a count of 59 digits; above 10^18 the
    # refusal says "more than 10^18", as a grid over the table cap does
    import subprocess
    import sys

    argv = ["table", "he", "--big", "+-" * 100, "--small", "PM" * 100]
    proc = subprocess.run(
        [sys.executable, "-m", "relbranch.cli", *argv], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: more than 10^18 alignments exceed the cap {cli.ALIGNMENT_CAP}\n"
    )


def test_cap_refuses_only_larger_counts(capsys, monkeypatch):
    # the CLI compares the count of the lazy alignments with ALIGNMENT_CAP:
    # (+-)^3 against (PM)^3 has 20
    argv = ("table", "he", "--big", "+-" * 3, "--small", "PM" * 3)
    monkeypatch.setattr(cli, "ALIGNMENT_CAP", 20)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert parse_records(out)[0]["result"]["count"] == 20
    monkeypatch.setattr(cli, "ALIGNMENT_CAP", 19)
    refused = (cli.EXIT_VALIDATION, "", "error: 20 alignments exceed the cap 19\n")
    assert run_cli(capsys, *argv) == refused


def test_table_he_refuses_a_long_input_before_counting():
    # (+-)^1000 against (PM)^1000 was counted in full before it was refused
    # (22 s); hepattern.MAX_POSITIONS refuses it before the count starts
    import subprocess
    import sys

    argv = ["table", "he", "--big", "+-" * 1000, "--small", "PM" * 1000]
    proc = subprocess.run(
        [sys.executable, "-m", "relbranch.cli", *argv], capture_output=True, text=True, timeout=5
    )
    cap = f"the per-record cap MAX_POSITIONS = {cli.hepattern.MAX_POSITIONS}"
    message = f"error: (2000 + 1) * (2000 + 1) position pairs exceed {cap}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_VALIDATION, "", message)


def run_to_sink(*argv):
    """Run the CLI with a stdout that keeps nothing: (exit code, characters
    written, tracemalloc peak in bytes)."""
    import contextlib
    import tracemalloc

    class Sink:
        written = 0

        def write(self, text):
            Sink.written += len(text)
            return len(text)

        def flush(self):
            pass

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Sink()):
            code = cli.main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, Sink.written, peak


def test_table_he_record_is_written_as_it_is_built():
    # the 184,756 alignments of (+-)^10 against (PM)^10 are 7.9 MB of output;
    # written to a sink that keeps nothing, the run holds the meet-in-the-middle
    # tables and one batch, not the alignments or the record's text, as a
    # JSON line and as a CSV row (whose one cell peaked at 50 MB when csv
    # wrote it whole)
    for form, size in (([], 7_944_757), (["--csv"], 8_314_133)):
        argv = ("table", "he", "--big", "+-" * 10, "--small", "PM" * 10, *form)
        code, written, peak = run_to_sink(*argv)
        assert (code, written) == (0, size), form
        assert peak < 3 * 2**20, (form, peak)


@given(
    st.text(alphabet="+-", min_size=0, max_size=6),
    st.text(alphabet="PM", min_size=0, max_size=6),
)
@example("+-" * 3, "PM" * 3)  # 20 alignments in 14 groups of one or two
@example("-+" * 3, "PM" * 3)  # groups of up to three, so one is split
@example("", "PP")  # no alignment: an empty list
def test_table_he_joined_alignments_match_the_generic_encoder(big, small):
    # the alignments are joined without escaping, one group of a shared
    # prefix at a time, in slices (of two here); the JSON line and the CSV
    # lines must be what the generic encoder and csv write for the listed
    # alignments, an empty list included.  The command runs through main
    # past the parsers, as argparse reads --big=-- as an empty list before
    # Python 3.13.
    import contextlib
    import csv
    import io
    from unittest import mock

    def run(as_csv):
        args = argparse.Namespace(big=big, small=small, n=None, csv=as_csv, func=cli._rows_he)
        out = io.StringIO()
        with (
            mock.patch.object(cli, "ALIGNMENT_BATCH", 2),
            mock.patch.object(cli, "_parse_direct", lambda argv: args),
            contextlib.redirect_stdout(out),
        ):
            assert cli.main(["table", "he"]) == 0
        return out.getvalue()

    (record,) = cli._rows_he(argparse.Namespace(big=big, small=small))
    found = list(record["result"]["alignments"])
    listed = {**record, "result": {**record["result"], "alignments": found}}
    assert run(False) == cli._ENCODER.encode(listed) + "\n"
    flat = {"command": "table.he", "in.big": big, "in.small": small,
            "out.alignments": cli._ENCODER.encode(found), "out.count": len(found)}
    want = io.StringIO()
    writer = csv.DictWriter(want, fieldnames=list(flat))
    writer.writeheader()
    writer.writerow(flat)
    assert run(True) == want.getvalue()


def test_table_period_sweeps_are_held_as_arrays(capsys, monkeypatch):
    # every row a grid keeps is an array('d'), a quarter of the memory of a
    # list of floats: the (3,20) quaternionic grid to MAX_DEGREE keeps 6,338
    # rows of up to 84 nodes, about 3.3 MiB as arrays and 12 MiB as lists
    from array import array

    kept = []
    real = cli.periods.jacobi_rows

    def keeping(n, alpha, beta, xs, rows):
        kept.append(rows)
        return real(n, alpha, beta, xs, rows)

    monkeypatch.setattr(cli.periods, "jacobi_rows", keeping)
    argv = ("--pq", "2,5", "--family", "quaternionic", "--n-max", "20", "--k-max", "20")
    code, out, _ = run_cli(capsys, "table", "period", *argv)
    assert (code, len(parse_records(out))) == (0, 121)
    rows = {id(row): row for sweep in kept for row in sweep}.values()
    assert len(rows) > 100
    assert all(type(row) is array and row.typecode == "d" for row in rows)


def test_table_empty_grid(capsys):
    code, out, _ = run_cli(
        capsys, "table", "branch", "--pq", "4,5", "--a-range", "4..4", "--b-range", "9/2..7/2"
    )
    assert code == 0
    assert out == ""


def test_table_missing_required(capsys):
    code, _, err = run_cli_usage(capsys, "table", "exhaustion", "--pq", "3,3")
    assert code == 2
    assert "--ell" in err


# The options each table kind reads, with a valid value, and a valid
# invocation of each kind.
_OPTION_VALUES = {
    "--pq": "4,5", "--a-range": "4..5", "--b-range": "7/2..9/2",
    "--n-max": "4", "--k-max": "4", "--family": "quaternionic", "--tol": "1e-8",
    "--ell": "8..9", "--n": "4..5", "--big": "+-", "--small": "PM", "--csv": None,
}
_TABLE_OPTIONS = {
    "branch": {"--pq", "--a-range", "--b-range", "--csv"},
    "period": {"--pq", "--n-max", "--k-max", "--family", "--tol", "--csv"},
    "exhaustion": {"--pq", "--ell", "--csv"},
    "he": {"--n", "--big", "--small", "--csv"},
}
_TABLE_BASE = {
    "branch": ["--pq", "4,5", "--a-range", "4..5", "--b-range", "7/2..9/2"],
    "period": ["--pq", "1,2", "--n-max", "0", "--k-max", "0"],
    "exhaustion": ["--pq", "3,3", "--ell", "8..8"],
    "he": ["--n", "4..4"],
}
# `--n` on `table period` is argparse's prefix of `--n-max`, so it is read
_FOREIGN = [
    (kind, option)
    for kind, own in _TABLE_OPTIONS.items()
    for option in sorted(set(_OPTION_VALUES) - own)
    if (kind, option) != ("period", "--n")
]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["table", kind, *_TABLE_BASE[kind], option]
            + ([] if _OPTION_VALUES[option] is None else [_OPTION_VALUES[option]]),
            "unrecognized arguments",
            id=f"table-{kind}{option}",
        )
        for kind, option in _FOREIGN
    ]
    + [
        pytest.param(
            ["branch", "--pq", "3,3", *mix], message, id=f"branch{mix[0]}{mix[-2]}"
        )
        for mix, message in [
            (["--gp", "9/2", "3", "--plus-a", "7/2"], "not allowed"),
            (["--gp", "9/2", "3", "--plus-b", "2"], "plus-b"),
            (["--pi-minus", "5/2", "--plus-b", "2"], "plus-b"),
        ]
    ],
)
def test_commands_reject_options_they_do_not_read(capsys, argv, message):
    # each was accepted and ignored, with exit code 0, while all table kinds
    # shared one parser and branch checked its modes by hand
    code, out, err = run_cli_usage(capsys, *argv)
    assert (code, out) == (cli.EXIT_VALIDATION, ""), argv
    assert message in err, (argv, err)


@pytest.mark.parametrize(
    "argv, prog, unknown",
    [
        (
            ["table", "exhaustion", "--pq", "3,3", "--ell", "8..9", "--family", "quaternionic"],
            "relbranch table exhaustion",
            "--family quaternionic",
        ),
        (["branch", "--pq", "3,3", "--gp", "9/2", "3", "--bogus"], "relbranch branch", "--bogus"),
        (["period", "--pq", "1,2", "--n", "4", "--k", "2", "--csv"], "relbranch period", "--csv"),
        (["table", "he", "--n", "4..4", "--pq", "4,5"], "relbranch table he", "--pq 4,5"),
        (["--bogus", "branch", "--pq", "3,3", "--gp", "9/2", "3"], "relbranch", "--bogus"),
        (["table", "--bogus", "exhaustion", "--pq", "3,3", "--ell", "8..9"], "relbranch table",
         "--bogus"),
    ],
)
def test_unknown_option_gets_the_command_usage_line(capsys, argv, prog, unknown):
    # the usage line of the parser given the option: a command's unknown
    # option is not the root's, and one given before the command is not the
    # command's
    code, out, err = run_cli_usage(capsys, *argv)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err.startswith(f"usage: {prog} [-h] "), err
    assert err.endswith(f"\n{prog}: error: unrecognized arguments: {unknown}\n"), err


def _leaf_parsers():
    """(name, parser, function reading its args) for each command: branch,
    period and each table kind."""

    def choices(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    top = choices(cli.build_parser())
    yield from ((name, top[name], top[name].get_default("func")) for name in ("branch", "period"))
    for kind, parser in choices(top["table"]).items():
        yield f"table {kind}", parser, parser.get_default("func")


def test_each_command_defines_exactly_the_options_it_reads():
    # an option the command's function never reads would be accepted and
    # ignored; plumbing is read by the dispatch (main hands --csv to the
    # writer), and no command's function reads it
    plumbing = {"help", "func", "kind", "subcommand", "csv"}
    leaves = list(_leaf_parsers())
    assert [name for name, _, _ in leaves] == [
        "branch", "period", "table branch", "table period", "table exhaustion", "table he"
    ]
    for name, parser, function in leaves:
        dests = {action.dest for action in parser._actions} - plumbing
        tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        assert dests == read, (name, function.__name__)


def test_table_cap(capsys):
    code, _, err = run_cli(
        capsys, "table", "branch", "--pq", "4,5", "--a-range", "4..2000", "--b-range", "7/2..2001/2"
    )
    assert code == 2
    assert "cap" in err


def _count_make_param(monkeypatch):
    """Count make_param calls from cli (through reps) and from branching,
    where the grid's parameter pairs are built."""
    calls = []

    def counted(*args):
        calls.append(args)
        return make_param(*args)

    monkeypatch.setattr(cli.reps, "make_param", counted)
    monkeypatch.setattr(cli.branching, "make_param", counted)
    return calls


def test_table_branch_counts_params_before_building_any(capsys, monkeypatch):
    # the cap sees the grid's size before a single parameter is built
    calls = _count_make_param(monkeypatch)
    argv = ("table", "branch", "--pq", "4,5", "--a-range", "4..20004", "--b-range", "7/2..9/2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, calls) == (cli.EXIT_VALIDATION, "", [])
    assert err == "error: grid of 40002 records exceeds the cap 10000\n"
    # a count is printed up to 10^18 (10^9 values of a and of b), and
    # summarised above it
    sizes = [("2000000005/2", "1000000000000000000"), ("2000000007/2", "more than 10^18")]
    for b_hi, size in sizes:
        argv = ("table", "branch", "--pq", "4,5", "--a-range", "4..1000000003", "--b-range")
        code, out, err = run_cli(capsys, *argv, f"7/2..{b_hi}")
        assert (code, out, calls) == (cli.EXIT_VALIDATION, "", [])
        assert err == f"error: grid of {size} records exceeds the cap 10000\n"
    argv = ("table", "branch", "--pq", "4,5", "--a-range", "3..6", "--b-range", "3/2..9/2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # a (plus, minus) pair per grid value, none per row
    assert len(parse_records(out)) == 3 * 2 and len(calls) == 2 * (3 + 2)


def test_table_branch_builds_each_parameter_once_per_grid(capsys, monkeypatch):
    # the `enumeration` workload's grid: 57 values of a, 58 of b, 3,306 rows
    calls = _count_make_param(monkeypatch)
    argv = ("table", "branch", "--pq", "4,5", "--a-range", "4..60", "--b-range", "7/2..121/2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(parse_records(out)) == 57 * 58
    assert len(calls) == 2 * (57 + 58)
    assert len(set(calls)) == len(calls)
    sides = [(sig, level, a) for sig, _, level, a in calls]
    assert sides[0::2] == sides[1::2]


def test_table_branch_runs_every_check_per_row(capsys, monkeypatch):
    # the benchmark grid's 3,306 rows: each row classifies, reads the
    # characters and the witness character once, and takes four hom dimensions
    counts = {}

    def counting(module, name):
        real = getattr(module, name)
        counts[name] = 0

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("classify_interlacing", "pattern_characters", "epsilon_of", "hom_dim"):
        counting(cli.branching, name)
    argv = ("table", "branch", "--pq", "4,5", "--a-range", "4..60", "--b-range", "7/2..121/2")
    code, out, _ = run_cli(capsys, *argv)
    rows = 57 * 58
    assert code == 0 and len(parse_records(out)) == rows
    assert counts == {
        "classify_interlacing": rows,
        "pattern_characters": rows,
        "epsilon_of": rows,
        "hom_dim": 4 * rows,
    }


def test_table_branch_renders_each_distinct_result_once(capsys, monkeypatch):
    # the benchmark grid's 3,306 rows run every check, but hold two distinct
    # check results, P1 and P2: each is rendered once and its line encoded
    # once, as a JSON line and as a CSV row, and every row fills in only its
    # a and b
    counts = {"coupling_check": 0, "coupling_record": 0, "_line": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(cli.branching, "coupling_check")
    counting(cli.branching, "coupling_record")
    counting(cli, "_line")
    argv = ("table", "branch", "--pq", "4,5", "--a-range", "4..60", "--b-range", "7/2..121/2")
    for form in ([], ["--csv"]):
        counts.update(dict.fromkeys(counts, 0))
        code, out, _ = run_cli(capsys, *argv, *form)
        rows = out.splitlines()[1:] if form else parse_records(out)  # after the CSV header
        assert code == 0 and len(rows) == 57 * 58, form
        assert counts == {"coupling_check": 57 * 58, "coupling_record": 2, "_line": 2}, form


def test_valid_parameter_range_matches_validation():
    # the counted range of 2a is exactly the values that make_param accepts
    for p, q in [(1, 2), (3, 3), (4, 5)]:
        sig = Signature(p, q)
        for level in GroupLevel:
            for lo in range(-4, 16):
                for hi in range(lo - 2, 20):
                    got = valid_twice(sig, level, lo, hi)
                    want = []
                    for twice in range(lo, hi + 1):
                        try:
                            make_param(sig, Side.PLUS, level, twice)
                        except ParamError:
                            continue
                        want.append(twice)
                    assert list(got) == want, (p, q, level, lo, hi)


def test_table_csv_projection(capsys):
    code, out, _ = run_cli(
        capsys, "table", "exhaustion", "--pq", "3,3", "--ell", "8..10", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("command,in.p,in.q,in.ell")
    assert len(lines) == 4


def test_table_csv_is_written_row_by_row():
    # the benchmark's 3,249-row branch grid, written to a sink that keeps
    # nothing, holds one row at a time, not the records or the CSV text
    argv = ("--pq", "4,5", "--a-range", "4..60", "--b-range", "7/2..121/2", "--csv")
    code, written, peak = run_to_sink("table", "branch", *argv)
    assert (code, written) == (0, 556_046)
    assert peak < 2**20, peak


def test_records_reparse_and_determinism(capsys):
    args = ("table", "period", "--pq", "1,2", "--n-max", "4", "--k-max", "4")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    for line in first.splitlines():
        record = json.loads(line)
        assert record["schema"] == cli.SCHEMA
        assert set(record) == {"schema", "command", "inputs", "result", "provenance"}
    code, second, _ = run_cli(capsys, *args)
    assert first == second


def test_nonconvergence_exit_code(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("refinement budget exhausted")

    monkeypatch.setattr(cli.periods.PeriodGrid, "quadrature", explode)
    code, _, err = run_cli(capsys, "period", "--pq", "1,2", "--n", "0", "--k", "0")
    assert code == 3
    assert "budget" in err


def test_period_quadrature_failures_exit_3(capsys):
    # a bound above tol times the scale; a scale that is not finite, which
    # the quaternionic band q = 263 to 265 reaches below its cap (it was
    # reported as the validation error "abs_tol must be positive"); and a
    # quadrature that does not resolve the closed value at the complex cap;
    # a table writes the rows before the failing one
    quaternionic = ("--pq", "1,265", "--family", "quaternionic")
    cases = [
        (("period", "--pq", "1,2", "--n", "4", "--k", "2", "--tol", "1e-20"), "exceeds tol", 0),
        (("period", *quaternionic, "--n", "64", "--k", "64"), "scale inf is not finite", 0),
        (("table", "period", *quaternionic, "--n-max", "0", "--k-max", "4"), "row n=0 k=4", 2),
        (("period", "--pq", "1,522", "--n", "6", "--k", "0"), "does not resolve", 0),
        (("table", "period", "--pq", "1,522", "--n-max", "6", "--k-max", "0"), "row n=6 k=0", 3),
    ]
    for argv, reason, written in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, len(parse_records(out))) == (cli.EXIT_NONCONVERGENCE, written), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert reason in err, (argv, err)


def test_period_degree_cap_exit(capsys):
    code, out, err = run_cli(capsys, "period", "--pq", "1,2", "--n", "66", "--k", "0")
    assert code == 2
    assert not out
    assert "degree 66 exceeds the label cap MAX_DEGREE = 64" in err


def test_label_above_cap_is_refused_before_any_factor(capsys, monkeypatch):
    # neither the radial factor, whose cost grows with the label, nor a
    # quadrature rule is built for a label above MAX_DEGREE
    def refuse(*args, **kwargs):
        raise AssertionError("a factor was built for a label above the cap")

    monkeypatch.setattr(cli.periods, "radial_integral_exact", refuse)
    monkeypatch.setattr(cli.periods, "gauss_legendre_quadrature", refuse)
    line = "error: degree 2000000 exceeds the label cap MAX_DEGREE = 64\n"
    for labels in (("--n", "2000000", "--k", "0"), ("--n", "0", "--k", "2000000")):
        code, out, err = run_cli(capsys, "period", "--pq", "1,2", *labels)
        assert (code, out, err) == (cli.EXIT_VALIDATION, "", line), labels
    with pytest.raises(ValueError, match="^degree 2000000 exceeds the label cap MAX_DEGREE = 64$"):
        cli.periods.period_integral_quadrature(1, 2, 0, 2_000_000)


def test_table_period_reaches_past_degree_24(capsys):
    code, out, err = run_cli(
        capsys, "table", "period", "--pq", "1,2", "--n-max", "28", "--k-max", "0"
    )
    assert (code, err) == (0, "")
    records = parse_records(out)
    assert [r["inputs"]["n"] for r in records] == list(range(0, 29, 2))


def test_table_period_refuses_label_above_cap_before_any_record(capsys):
    # the grid's largest k, then its largest n, is checked before the first
    # record, in the order `period` checks one record's labels
    line = "error: degree {} exceeds the label cap MAX_DEGREE = 64\n"
    cases = [("66", "0", 66), ("0", "66", 66), ("70", "66", 66), ("67", "64", 66)]
    for n_max, k_max, degree in cases:
        for family in ("complex", "quaternionic"):
            argv = ("--pq", "1,2", "--n-max", n_max, "--k-max", k_max, "--family", family)
            got = run_cli(capsys, "table", "period", *argv)
            assert got == (cli.EXIT_VALIDATION, "", line.format(degree)), argv
    code, out, err = run_cli(
        capsys, "table", "period", "--pq", "1,2", "--n-max", "65", "--k-max", "0"
    )
    assert (code, err) == (0, "")
    assert [r["inputs"]["n"] for r in parse_records(out)] == list(range(0, 65, 2))
    # a signature error is refused before the first row too, so it names no row
    code, out, err = run_cli(capsys, "table", "period", "--pq", "2,2", "--n-max", "4")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == "error: need integer signature with q > p > 0, got (2, 2)\n"


def test_table_period_refuses_the_first_of_several_faults(capsys):
    # the order is tol, signature, family (argparse refuses an unknown one),
    # signature cap, grid size, labels: everything the grid is built with
    # comes first, so an empty grid is refused for its signature too (above
    # the cap it exited 0 and wrote nothing before the cap was checked)
    huge = "99999999999999999999"
    cap = "q = 600 exceeds the signature cap MAX_Q_COMPLEX = 522"
    cases = [
        (("--pq", "2,2", "--tol", "0", "--n-max", huge), "tol must be positive and finite"),
        (("--pq", "1,600", "--tol", "0"), "tol must be positive and finite"),
        (("--pq", "2,2", "--n-max", huge), "need integer signature with q > p > 0, got (2, 2)"),
        (("--pq", "600,600"), "need integer signature with q > p > 0, got (600, 600)"),
        (("--pq", "1,600", "--n-max", huge, "--k-max", huge), cap),
        (("--pq", "1,600", "--n-max", "70", "--k-max", "66"), cap),
        (("--pq", "2,2", "--n-max", "-2"), "need integer signature with q > p > 0, got (2, 2)"),
        (("--pq", "1,600", "--n-max", "-2"), cap),
        (("--pq", "1,2", "--n-max", "200", "--k-max", "200"), "grid of 10201 records exceeds"),
        (("--pq", "1,2", "--n-max", "70", "--k-max", "66"), "degree 66 exceeds"),
    ]
    for argv, text in cases:
        code, out, err = run_cli(capsys, "table", "period", *argv)
        assert (code, out) == (cli.EXIT_VALIDATION, ""), argv
        assert err.startswith(f"error: {text}") and err.count("\n") == 1, (argv, err)


def test_period_quaternionic_record_keys(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--pq", "1,2", "--family", "quaternionic", "--n", "2", "--k", "4"
    )
    assert code == 0
    (record,) = parse_records(out)
    assert list(record["result"]) == [
        "family", "closed", "quadrature", "quadrature_error", "abs_difference", "nonvanishing"
    ]
    assert record["result"]["nonvanishing"] is False


def _explode_at(n_bad, k_bad, exc_type, real):
    def patched(grid, n, k):
        if (n, k) == (n_bad, k_bad):
            raise exc_type("refinement budget exhausted")
        return real(grid, n, k)

    return patched


def test_table_nonconvergence_names_row(capsys, monkeypatch):
    real = cli.periods.PeriodGrid.quadrature
    monkeypatch.setattr(
        cli.periods.PeriodGrid, "quadrature", _explode_at(4, 2, ConvergenceError, real)
    )
    code, out, err = run_cli(capsys, "table", "period", "--pq", "1,2", "--n-max", "6")
    assert code == 3
    assert len(parse_records(out)) == 2 * 5 + 1  # rows n=0, n=2, then n=4 with k=0
    assert err == "error: table period row n=4 k=2: refinement budget exhausted\n"


@pytest.mark.parametrize("form", ["json", "csv"])
def test_table_branch_names_failing_row(capsys, monkeypatch, form):
    # a hom_dim that couples one row's mixed-side pairs breaks the
    # exactly-one-witness check there: the rows before it are emitted (in
    # CSV after the header), and the run exits 2 naming that row
    real = cli.branching.hom_dim

    def couples_mixed_sides(Pi, pi):
        if (Pi.twice, pi.twice) == (10, 7) and Pi.side is not pi.side:  # a = 5, b = 7/2
            return 1
        return real(Pi, pi)

    monkeypatch.setattr(cli.branching, "hom_dim", couples_mixed_sides)
    argv = ("table", "branch", "--pq", "4,5", "--a-range", "4..5", "--b-range", "7/2..9/2")
    code, out, err = run_cli(capsys, *argv, *(["--csv"] if form == "csv" else []))
    assert code == cli.EXIT_VALIDATION
    if form == "csv":
        header, *lines = out.splitlines()
        assert header.startswith("command,in.p,in.q,in.a,in.b,out.")
        rows = [tuple(line.split(",")[3:5]) for line in lines]
    else:
        rows = [(r["inputs"]["a"], r["inputs"]["b"]) for r in parse_records(out)]
    assert rows == [("4", "7/2"), ("4", "9/2")]
    assert err == (
        "error: table branch row a=5 b=7/2: "
        "expected exactly one contributing pair, got ['(+,+)', '(+,-)', '(-,+)']\n"
    )


@pytest.mark.parametrize("form", ["json", "csv"])
def test_rows_before_a_failing_row_are_written_after_many_batches(monkeypatch, form):
    # the failing row is far into the benchmark grid: every row before it
    # reaches out, in writes of up to WRITE_BATCH characters, each of which
    # took all the rows that fit
    import contextlib
    import io
    from types import SimpleNamespace

    argv = ["table", "branch", "--pq", "4,5", "--a-range", "4..60", "--b-range", "7/2..121/2"]
    argv += ["--csv"] if form == "csv" else []
    whole = io.StringIO()
    with contextlib.redirect_stdout(whole):
        assert cli.main(argv) == 0
    lines = whole.getvalue().splitlines(keepends=True)
    key = ",4,5,50,7/2," if form == "csv" else '"a":"50","b":"7/2"'
    (failing,) = [index for index, line in enumerate(lines) if key in line]
    real = cli.branching.hom_dim

    def couples_mixed_sides(Pi, pi):
        if (Pi.twice, pi.twice) == (100, 7) and Pi.side is not pi.side:  # a = 50, b = 7/2
            return 1
        return real(Pi, pi)

    monkeypatch.setattr(cli.branching, "hom_dim", couples_mixed_sides)
    args, writes = cli.build_parser().parse_args(argv), []
    with pytest.raises(ValueError, match="^table branch row a=50 b=7/2: expected exactly one"):
        cli._write(cli._lines(args.func(args), args.csv), SimpleNamespace(write=writes.append))
    assert "".join(writes) == "".join(lines[:failing])
    assert len(writes) > 2 and max(map(len, writes)) <= cli.WRITE_BATCH
    assert all(len(text) + len(after) > cli.WRITE_BATCH for text, after in zip(writes, writes[1:]))


def test_subgroup_level_of_u11_is_refused(capsys):
    # the good range at U(1,1)'s subgroup level would admit only b >= 0, and
    # interlacing needs b > 0: every command that reaches it exits 2 on one message
    message = (
        "U(1,1) has no subgroup-level parameters: the good range would admit "
        "b = 0, and branching needs b > 0\n"
    )
    cases = [
        (("branch", "--pq", "1,1", "--gp", "1/2", "0"), ""),
        (("branch", "--pq", "1,1", "--plus-a", "1/2", "--plus-b", "1"), ""),
        (("branch", "--pq", "1,1", "--pi-minus", "1/2"), ""),
        (("table", "branch", "--pq", "1,1", "--a-range", "0..3", "--b-range", "0..3"), ""),
        (("table", "exhaustion", "--pq", "1,1", "--ell", "2..2"), "table exhaustion row ell=2: "),
    ]
    for argv, where in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (cli.EXIT_VALIDATION, "", f"error: {where}{message}"), argv
    # the level-G parameters of U(1,1) are unaffected
    sig = Signature(1, 1)
    assert str(make_param(sig, Side.PLUS, GroupLevel.G, 1)) == (
        "U(1,1)+a=1/2"
    )


def test_table_validation_error_names_row(capsys, monkeypatch):
    real = cli.periods.PeriodGrid.quadrature
    monkeypatch.setattr(cli.periods.PeriodGrid, "quadrature", _explode_at(2, 0, ValueError, real))
    code, _, err = run_cli(
        capsys, "table", "period", "--pq", "1,2", "--family", "quaternionic", "--n-max", "2"
    )
    assert code == 2
    assert err.startswith("error: table period row n=2 k=0: ")


def _read_then_close(args, size):
    """Run relbranch with args, read size bytes of its stdout and close the
    pipe; the exit code and stderr of the run."""
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "relbranch.cli", *args]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.read(size)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert first.startswith(b'{"schema":'), first
    return proc.returncode, err


def test_broken_pipe_exits_quietly():
    # about 0.3 MB of records: more than a pipe buffer holds
    args = ["table", "branch", "--pq", "4,5", "--a-range", "4..30", "--b-range", "7/2..59/2"]
    assert _read_then_close(args, 64) == (0, b"")


def test_broken_pipe_inside_a_streamed_record_exits_quietly():
    # one 7.9 MB record, written in batches: the reader leaves mid-record
    args = ["table", "he", "--big", "+-" * 10, "--small", "PM" * 10]
    assert _read_then_close(args, 64) == (0, b"")


def _without(env, *names):
    return {key: value for key, value in env.items() if key not in names}


@pytest.mark.parametrize("dev", [False, True])
def test_process_entry_freezes_the_heap_outside_dev_mode(dev):
    # `python -m relbranch.cli` ends with the heap frozen, so exit walks no
    # collection over it; dev mode keeps exit's full collection.  The count
    # is taken against its value at start-up, which is not 0 on 3.12.
    import os
    import subprocess
    import sys

    probe = (
        "import atexit, gc, runpy, sys\n"
        "start = gc.get_freeze_count()\n"
        "atexit.register(lambda: print(gc.get_freeze_count() - start, file=sys.stderr))\n"
        "sys.argv[1:] = ['table', 'he', '--n', '4..5']\n"
        "runpy.run_module('relbranch.cli', run_name='__main__', alter_sys=True)\n"
    )
    flags = ["-X", "dev"] if dev else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe], capture_output=True, text=True, timeout=30,
        env=_without(os.environ, "PYTHONDEVMODE"),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2
    frozen = int(proc.stderr.strip().splitlines()[-1])
    assert frozen == 0 if dev else frozen > 0, frozen


def test_console_script_runs_the_module_entry():
    # the installed `relbranch` script and `python -m relbranch.cli` call the
    # same function (pyproject is read as text: 3.10 has no tomllib)
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    (target,) = re.findall(r'^relbranch = "relbranch\.cli:(\w+)"$', pyproject, re.M)
    (block,) = [
        node
        for node in ast.parse(inspect.getsource(cli)).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(statement) for statement in block.body] == [f"sys.exit({target}())"]
    assert target != "main" and callable(getattr(cli, target))


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "branch", "--pq", "4,5", "--a-range", "4..60", "--b-range", "7/2..121/2"),
        ("table", "branch", "--pq", "4,5", "--a-range", "4..40", "--b-range", "7/2..81/2", "--csv"),
        ("table", "he", "--big", "+-" * 9, "--small", "PM" * 9),
    ],
)
def test_output_does_not_depend_on_stdout_buffering(argv):
    # batched writes to an unbuffered stdout give the bytes a buffered one does
    import os
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "relbranch.cli", *argv]
    env = _without(os.environ, "PYTHONUNBUFFERED")
    runs = [
        subprocess.run(cmd, capture_output=True, timeout=60, env=child_env)
        for child_env in (env, {**env, "PYTHONUNBUFFERED": "1"})
    ]
    buffered, unbuffered = [(run.returncode, run.stdout, run.stderr) for run in runs]
    assert buffered == unbuffered
    assert buffered[0] == 0 and len(buffered[1]) > cli.WRITE_BATCH and buffered[2] == b""


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """The argv of every `relbranch ...` line in the README's bash blocks."""
    readme = README.read_text()
    return [
        shlex.split(line)[1:]
        for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("relbranch ")
    ]


def test_readme_commands_emit_records(capsys):
    commands = _readme_commands()
    assert commands
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        lines = out.splitlines()
        assert lines and all(json.loads(line)["schema"] == cli.SCHEMA for line in lines), argv


def _readme_rows(header):
    """The cells of each row of the README table whose header row starts
    with header, e.g. "| module |"."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _public_names(module):
    """The module's public top-level functions and classes: each callable
    with no leading _ that the module defines itself; callables, not only
    functions, so that an lru_cache-wrapped function counts."""
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
    )


def test_readme_module_names_resolve():
    # every backticked `module.name` in the README, where module is a
    # relbranch module, names an attribute that module has; and the layout
    # table has one row per module, naming exactly its public names
    import importlib
    import pkgutil

    import relbranch

    modules = {info.name for info in pkgutil.iter_modules(relbranch.__path__)}
    names = {
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
        if module in modules
    }
    assert names
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"relbranch.{module}"), name)
    ]
    assert missing == []
    rows = {}
    for module_cell, _, names_cell in _readme_rows("| module |"):
        (module,) = re.fullmatch(r"`relbranch\.(\w+)`", module_cell).groups()
        assert module not in rows, module
        rows[module] = sorted(re.findall(r"`(\w+)`", names_cell))
    assert sorted(rows) == sorted(modules)
    for module, listed in rows.items():
        assert listed == _public_names(importlib.import_module(f"relbranch.{module}")), module


def test_limits_match_the_code():
    # each row of the README's Limits table: its NAME = value is the named
    # module's, and its refusal is the stderr of a tests/pins.py refusal
    import importlib

    import pins

    pinned = {stderr for _, _, stderr, _ in pins.ROWS}
    rows = _readme_rows("| limit |")
    assert rows
    for limit, module_cell, _, refusal in rows:
        name, value = re.fullmatch(r"`(\w+) = (\d+)`", limit).groups()
        (module,) = re.fullmatch(r"`(\w+)`", module_cell).groups()
        assert getattr(importlib.import_module(f"relbranch.{module}"), name) == int(value), limit
        (text,) = re.fullmatch(r"`(error: .*)`", refusal).groups()
        assert text + "\n" in pinned, text


def test_table_options_match_the_parser():
    # each row of the README's options table names exactly the options the
    # parser gives that command or table kind, -h aside
    rows = _readme_rows("| command |")
    leaves = list(_leaf_parsers())
    assert [cell.strip("`") for cell, _ in rows] == [name for name, _, _ in leaves]
    for (_, cell), (name, parser, _) in zip(rows, leaves):
        options = {option for action in parser._actions for option in action.option_strings}
        assert set(re.findall(r"--[a-z][a-z-]*", cell)) == options - {"-h", "--help"}, name


def test_every_readme_command_is_pinned():
    # a new README example needs a row in tests/pins.py
    import pins

    pinned = [shlex.split(line)[1:] for line, *_ in pins.ROWS]
    assert [shlex.join(argv) for argv in _readme_commands() if argv not in pinned] == []


def test_pinned_bytes():
    # every row of tests/pins.py, its refusals and partial outputs
    # included, run by its script in two interpreters at once, under hash
    # seeds 0 and 1: no record depends on set or dict iteration order
    import os
    import subprocess
    import sys

    import pins

    children = [
        (seed, subprocess.Popen(
            [sys.executable, pins.__file__],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ))
        for seed in ("0", "1")
    ]
    expected = [f"PASS {line}" for line, *_ in pins.ROWS]
    for seed, child in children:
        out, err = child.communicate(timeout=120)
        lines = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
        failed = [line for line in lines if line.startswith("FAIL ")]
        assert (lines, err, child.returncode) == (expected, "", 0), (seed, failed)


# Runs each argv list of its JSON argument through cli.main in one
# interpreter, after `from relbranch import cli` and build_parser(), and
# prints a JSON report: sys.flags.optimize, and before any command and after
# each one the relbranch modules and watched stdlib modules in sys.modules
# ("present"), those of them whose body has run ("ran": a module cli
# registered lazily is in sys.modules from the start, but is a plain
# ModuleType only once its body has run, and type() does not run it) and,
# after a command, its [exit code, stdout, stderr] ("result").
_CHILD = """
import contextlib, io, json, sys, types
from relbranch import cli
cli.build_parser()
watched = ("numpy", "dataclasses", "inspect", "csv", "fractions", "decimal", "numbers")

def modules():
    present = sorted(m for m in sys.modules if m in watched or m.startswith("relbranch."))
    return {"present": present, "ran": [m for m in present if type(sys.modules[m]) is types.ModuleType]}

steps = [modules()]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    steps.append({**modules(), "result": [code, out.getvalue(), err.getvalue()]})
json.dump({"optimize": sys.flags.optimize, "steps": steps}, sys.stdout)
"""


def _child(commands, *flags):
    """The report of _CHILD run on commands in a fresh interpreter started
    with flags."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, *flags, "-c", _CHILD, json.dumps(commands)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_readme_commands_under_python_O(capsys):
    # no result may rest on an assert statement, and the CLI never imports the oracle
    commands = _readme_commands()
    report = _child(commands, "-O")
    assert report["optimize"] == 1
    assert "relbranch.oracle" not in report["steps"][-1]["present"]
    results = [step["result"] for step in report["steps"][1:]]
    assert len(results) == len(commands)
    for argv, (code, out, err) in zip(commands, results):
        assert (code, err) == (0, ""), argv
        assert out == run_cli(capsys, *argv)[1], argv


def _traced_layers():
    """The layer names the benchmark tracer looks up in sys.modules: the keys
    of ENTRY_POINTS in perfbench/spans.py, parsed rather than imported."""
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "ENTRY_POINTS"
        ]:
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"no ENTRY_POINTS in {spans}")


def test_exact_commands_never_import_numpy(capsys):
    # every layer module is in sys.modules with the CLI (registered lazily,
    # see test_commands_load_only_the_layers_they_reach), and no command loads numpy,
    # the period commands and their quadrature included; nor does any load
    # dataclasses, inspect, fractions, decimal or numbers, and only the --csv
    # run, the last, loads csv
    layers = _traced_layers()
    assert {"periods", "jacobi", "specfun"} <= layers
    required = {f"relbranch.{layer}" for layer in layers}
    unwanted = {"numpy", "dataclasses", "inspect", "fractions", "decimal", "numbers"}
    commands = [
        ["branch", "--pq", "3,3", "--plus-a", "7/2", "--plus-b", "2"],
        ["table", "exhaustion", "--pq", "3,3", "--ell", "8..10"],
        ["table", "he", "--n", "4..5"],
        ["table", "branch", "--pq", "4,5", "--a-range", "4..5", "--b-range", "7/2..9/2"],
        ["period", "--pq", "1,2", "--n", "4", "--k", "2"],
        ["table", "period", "--pq", "2,5", "--family", "quaternionic", "--n-max", "4"],
        ["table", "exhaustion", "--pq", "3,3", "--ell", "8..10", "--csv"],
    ]
    steps = _child(commands)["steps"]
    assert len(steps) == len(commands) + 1
    for argv, step in zip([["import"]] + commands, steps):
        modules = set(step["present"])
        assert not unwanted & modules, argv
        assert required <= modules, argv
        assert ("csv" in modules) == ("--csv" in argv), argv
    for argv, step in zip(commands, steps[1:]):
        code, out, err = step["result"]
        assert (code, err) == (0, ""), argv
        assert out == run_cli(capsys, *argv)[1], argv


def test_commands_load_only_the_layers_they_reach():
    watched = [
        f"relbranch.{name}"
        for name in ("branching", "frozen", "halfint", "hepattern", "jacobi", "periods", "reps",
                     "specfun")
    ] + ["decimal", "fractions", "numbers"]
    # building the parser runs no layer module; the period route never
    # reaches the branching, parameter or alignment layers, and table he
    # --big/--small reaches only hepattern.  No command loads fractions, or
    # decimal and numbers with it: the period route computes with int
    # ratios, and a half-integer literal is read with int arithmetic
    period = ["relbranch.jacobi", "relbranch.periods", "relbranch.specfun"]
    exhaustion = ["relbranch.branching", "relbranch.frozen", "relbranch.halfint", "relbranch.reps"]
    for argv, loaded in (
        (["period", "--pq", "1,2", "--n", "4", "--k", "2"], period),
        (["table", "period", "--pq", "1,2", "--n-max", "4", "--k-max", "4"], period),
        (["table", "period", "--pq", "2,5", "--family", "quaternionic", "--csv"], period),
        (["table", "he", "--big", "+-+-", "--small", "PMPM"], ["relbranch.hepattern"]),
        (["table", "he", "--big", "+-+-", "--small", "PMPM", "--csv"], ["relbranch.hepattern"]),
        (["table", "exhaustion", "--pq", "3,3", "--ell", "8..140"], exhaustion),
        (["branch", "--pq", "3,3", "--plus-a", "7/2", "--plus-b", "2"], exhaustion),
    ):
        before, after = _child([argv])["steps"]
        ran = [[m for m in step["ran"] if m in watched] for step in (before, after)]
        assert (ran, after["result"][0]) == ([[], loaded], 0), argv


def test_family_names_are_the_period_kinds(capsys):
    # build_parser spells the families out so that it loads no periods module
    from relbranch import periods

    assert cli.FAMILIES == periods.FIELD_KINDS and cli.FAMILIES[0] == periods.COMPLEX
    parser = cli.build_parser()
    args = parser.parse_args(["period", "--pq", "1,2", "--n", "0", "--k", "0"])
    assert args.family == periods.COMPLEX
    for kind in periods.FIELD_KINDS:
        argv = ["table", "period", "--pq", "1,2", "--family", kind]
        assert parser.parse_args(argv).family == kind


def test_option_value_double_dash_is_a_usage_error():
    # argparse before 3.13 drops the `--` of `--pq=--` and stores [], 3.13
    # keeps it: on every Python it is refused by the parser given it
    import subprocess
    import sys

    cases = [
        (["table", "he", "--big=--", "--small=PM"], "table he", "--big"),
        (["table", "branch", "--pq=--", "--a-range", "1..2", "--b-range", "1..2"],
         "table branch", "--pq"),
        (["period", "--pq=--", "--n", "0", "--k", "0"], "period", "--pq"),
        (["table", "exhaustion", "--pq", "3,3", "--ell=--"], "table exhaustion", "--ell"),
        (["branch", "--pq", "3,3", "--plus-a=--", "--plus-b", "2"], "branch", "--plus-a"),
        (["table", "period", "--pq", "1,2", "--n-max=--"], "table period", "--n-max"),
    ]
    for argv, parser, option in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "relbranch.cli", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, ""), argv
        assert "Traceback" not in proc.stderr, argv
        assert proc.stderr.startswith(f"usage: relbranch {parser} "), argv
        assert f"relbranch {parser}: error: argument {option}" in proc.stderr, argv


def test_table_branch_sizes_a_huge_range_by_its_ends(capsys):
    # len() of a range longer than sys.maxsize raises OverflowError
    argv = ("table", "branch", "--pq", "3,3", "--a-range", "9/2..1e400", "--b-range", "1..2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (
        cli.EXIT_VALIDATION,
        "",
        "error: grid of more than 10^18 records exceeds the cap 10000\n",
    )
    # an empty range makes an empty grid, whatever the length of the other
    argv = ("table", "branch", "--pq", "3,3", "--a-range", "9/2..1e400", "--b-range", "0..0")
    assert run_cli(capsys, *argv) == (0, "", "")


def test_table_period_sizes_a_huge_label_range_by_its_ends():
    # len() of a label range longer than sys.maxsize raised OverflowError, a
    # traceback with exit code 1
    import subprocess
    import sys

    huge = "99999999999999999999"
    table = [sys.executable, "-m", "relbranch.cli", "table", "period", "--pq", "1,2"]
    for labels in (["--n-max", huge, "--k-max", "0"], ["--n-max", "0", "--k-max", huge]):
        proc = subprocess.run([*table, *labels], capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            cli.EXIT_VALIDATION,
            "",
            "error: grid of more than 10^18 records exceeds the cap 10000\n",
        ), labels
    # an empty range makes an empty grid, whatever the length of the other
    for labels in (["--n-max", huge, "--k-max", "-1"], ["--n-max", "-1", "--k-max", huge]):
        proc = subprocess.run([*table, *labels], capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", ""), labels


# Option values that no command may answer with a traceback, and a valid
# invocation of every command and table kind.  The property test below draws
# each option value of an invocation from its own value or from these, and,
# for a range, also a range with one adversarial end.
_ADVERSARIAL = ["--", "1e400", "9" * 400, "nan", "inf", "1/3", "-0", "", "é→"]
_INVOCATIONS = [
    ["branch", "--pq", "3,3", "--plus-a", "7/2", "--plus-b", "2"],
    ["branch", "--pq", "3,3", "--minus-a", "7/2", "--minus-b", "2"],
    ["branch", "--pq", "3,3", "--gp", "9/2", "3"],
    ["branch", "--pq", "3,3", "--pi-minus", "5/2", "--max-k", "2"],
    ["period", "--pq", "1,2", "--n", "4", "--k", "2", "--family", "complex", "--tol", "1e-10"],
    ["table", "branch", "--pq", "4,5", "--a-range", "4..5", "--b-range", "7/2..9/2", "--csv"],
    ["table", "period", "--pq", "1,2", "--n-max", "2", "--k-max", "2", "--family",
     "quaternionic", "--tol", "1e-8"],
    ["table", "exhaustion", "--pq", "3,3", "--ell", "8..9"],
    ["table", "he", "--n", "4..5"],
    ["table", "he", "--big", "+-", "--small", "PM", "--csv"],
]


@st.composite
def _invocations(draw):
    argv = draw(st.sampled_from(_INVOCATIONS))
    first = next(i for i, token in enumerate(argv) if token.startswith("--"))
    drawn = argv[:first]
    for token in argv[first:]:
        values = [token] if token.startswith("--") else [token, *_ADVERSARIAL]
        if ".." in token:
            lo, hi = token.split("..")
            values += [f"{lo}..{bad}" for bad in _ADVERSARIAL]
            values += [f"{bad}..{hi}" for bad in _ADVERSARIAL]
        drawn.append(draw(st.sampled_from(values)))
    return drawn


def _written_digits(argv):
    """Every run of digits the command line writes, as it stands: a refusal
    echoes a value as it was written (1e400, not the 401 digits of 10^400)."""
    return set(re.findall(r"[0-9]+", " ".join(argv)))


@settings(deadline=None)
@given(_invocations())
@example(["branch", "--pq", "3,3", "--pi-minus", "5/2", "--max-k", "9" * 400])
def test_no_command_line_escapes_the_exit_codes(argv):
    # exit 0, 2 or 3, with nothing but an argparse SystemExit out of main;
    # nothing on stderr on success; and no refusal prints a number of 20 or
    # more digits that the command line does not write, such as a count
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        assert err.getvalue() == "", argv
    written = _written_digits(argv)
    for run in re.findall(r"[0-9]{20,}", err.getvalue()):
        assert any(run in digits for digits in written), (argv, err.getvalue())


def test_a_value_starting_with_dash_is_left_to_argparse():
    # argparse reads -7/2 as an option, not as --minus-a's value, and
    # refuses the line; the direct reader leaves every such line to it
    import contextlib
    import io

    argv = ["branch", "--pq", "3,3", "--minus-a", "-7/2", "--minus-b", "2"]
    assert cli._parse_direct(argv) is None
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == cli.EXIT_VALIDATION
    assert err.getvalue().endswith(
        "relbranch branch: error: argument --minus-a: expected one argument\n"
    )


def _comparable(namespace):
    """vars(namespace) with a NaN written "nan", so that equal namespaces
    compare equal."""
    import math

    return {
        key: "nan" if isinstance(value, float) and math.isnan(value) else value
        for key, value in vars(namespace).items()
    }


def _assert_direct_agrees(parser, argv):
    """Whether _parse_direct reads argv; if it does, it gives the namespace
    parser gives, and parser does not refuse the line."""
    import contextlib
    import io

    direct = cli._parse_direct(argv)
    if direct is None:
        return False
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"argparse refuses {argv}") from None
    assert _comparable(direct) == _comparable(namespace), argv
    return True


def _option_groups(argv):
    """argv split into its command names and its options, each an option
    name with the values that follow it."""
    first = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
    groups = []
    for token in argv[first:]:
        if token.startswith("--") or not groups:
            groups.append([token])
        else:
            groups[-1].append(token)
    return argv[:first], groups


def _variants(argv):
    """argv and command lines near it: its options reversed, each dropped
    or given twice, each named by a prefix or as --opt=value, and each value
    replaced by -3, --, "" or nan."""
    names, groups = _option_groups(argv)
    yield argv
    yield names + [token for group in reversed(groups) for token in group]
    for i, group in enumerate(groups):
        rest = groups[:i] + groups[i + 1 :]
        yield names + [token for other in rest for token in other]
        yield names + [token for other in groups + [group] for token in other]
        for spelling in [[group[0][:-1], *group[1:]], ["=".join(group[:2]), *group[2:]]]:
            yield names + [token for other in rest[:i] + [spelling] + rest[i:] for token in other]
        for j in range(1, len(group)):
            for value in ("-3", "--", "", "nan"):
                changed = group[:j] + [value] + group[j + 1 :]
                yield names + [token for other in rest[:i] + [changed] + rest[i:] for token in other]


def _parser_inputs():
    """The command lines the direct reader is checked on: every tests/pins.py
    line, the README's commands, the property test's invocations and lines
    that give two options of one exclusive group."""
    import pins

    lines = [shlex.split(line)[1:] for line, *_ in pins.ROWS]
    conflicts = [
        ["branch", "--pq", "3,3", "--gp", "9/2", "3", "--pi-minus", "5/2"],
        ["branch", "--pq", "3,3", "--plus-a", "7/2", "--plus-b", "2", "--minus-b", "2"],
        ["table", "he", "--n", "4..5", "--big", "+-", "--small", "PM"],
    ]
    return lines + _readme_commands() + _INVOCATIONS + conflicts


def test_direct_parse_is_argparse_or_nothing():
    # every line and its variants: the direct reader gives argparse's own
    # namespace or leaves the line to argparse, and it reads every pinned
    # line that names each option in full
    import pins

    parser = cli.build_parser()
    read = left = 0
    for argv in _parser_inputs():
        for variant in _variants(argv):
            if _assert_direct_agrees(parser, variant):
                read += 1
            else:
                left += 1
    for line, code, *_ in pins.ROWS:
        if code:
            continue
        # every successful line is spelled out but the one pinning --pq=1,2 --n 4
        assert (cli._parse_direct(shlex.split(line)[1:]) is None) == ("=" in line), line
    assert read > 100 and left > 1000, (read, left)


# Tokens for the sweep below: the command names, every option name of the
# table and some prefixes, -h and --, =-forms, and values of each kind.
_SWEEP_TOKENS = sorted(
    {"branch", "period", "table", "exhaustion", "he", "-h", "--help", "--", "-", "--n", "--k",
     "--plus", "--a", "--fam", "--pq=3,3", "--n=4", "--csv=1", "3,3", "1,2", "4,5", "7/2", "2",
     "4", "0", "-3", "nan", "inf", "1e-8", "", "4..9", "8..9", "+-", "PM", "complex",
     "quaternionic", "9" * 30}
    | {option for argv in _INVOCATIONS for option in argv if option.startswith("--")}
)


@st.composite
def _edited_invocations(draw):
    argv = list(draw(st.sampled_from(_INVOCATIONS)))
    for _ in range(draw(st.integers(0, 4))):
        where = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "swap"]))
        if edit == "insert" or where == len(argv):
            argv.insert(where, draw(st.sampled_from(_SWEEP_TOKENS)))
        elif edit == "replace":
            argv[where] = draw(st.sampled_from(_SWEEP_TOKENS))
        elif edit == "delete":
            del argv[where]
        else:
            other = draw(st.integers(0, len(argv) - 1))
            argv[where], argv[other] = argv[other], argv[where]
    return argv


_SWEEP_PARSER = cli.build_parser()


@settings(deadline=None)
@given(_edited_invocations())
def test_direct_parse_agrees_on_edited_command_lines(argv):
    _assert_direct_agrees(_SWEEP_PARSER, argv)


def test_well_formed_command_lines_never_import_argparse():
    # a fresh child runs every README command and every benchmark
    # invocation (read from perfbench/run.py in a child of its own, as the
    # test process never imports the benchmark) without importing argparse,
    # or gettext and locale with it; -h and a usage error still come from it
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    workloads = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_ARGV, str(root / "perfbench" / "run.py")],
        capture_output=True, text=True, check=True,
    )
    commands = _readme_commands() + json.loads(workloads.stdout)
    assert len(commands) > len(_readme_commands())
    child = subprocess.run(
        [sys.executable, "-c", _NO_ARGPARSE, json.dumps(commands)],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(child.stdout) == {"codes": [0] * len(commands), "loaded": []}
    entry = [sys.executable, "-m", "relbranch.cli"]
    proc = subprocess.run([*entry, "-h"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, cli.build_parser().format_help(), "")
    proc = subprocess.run([*entry, "table", "he", "--n", "4..5", "--bogus"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, "")
    assert proc.stderr.startswith("usage: relbranch table he [-h] "), proc.stderr
    assert proc.stderr.endswith("error: unrecognized arguments: --bogus\n"), proc.stderr


# Prints the relbranch argv of each benchmark invocation as JSON: argv[1]
# is perfbench/run.py.
_BENCHMARK_ARGV = """
import json, runpy, sys
workloads = runpy.run_path(sys.argv[1], run_name="benchmark")["WORKLOADS"]
print(json.dumps([invocation.argv for runs in workloads.values() for invocation in runs]))
"""

# Runs each argv list of its JSON argument through cli.main, output
# discarded, and prints the exit codes and which of argparse, gettext and
# locale the runs imported.
_NO_ARGPARSE = """
import contextlib, io, json, sys
watched = {"argparse", "gettext", "locale"} - set(sys.modules)
from relbranch import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(watched & set(sys.modules))}))
"""
