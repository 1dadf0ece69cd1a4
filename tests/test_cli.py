import json

from relbranch import cli
from relbranch.specfun import ConvergenceError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_branch_validation_exit_code(capsys):
    code, out, err = run_cli(capsys, "branch", "--pq", "3,3", "--plus-a", "2", "--plus-b", "2")
    assert code == 2
    assert not out
    assert "parity" in err


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


def test_table_he_range(capsys):
    code, out, _ = run_cli(capsys, "table", "he", "--n", "4..6")
    assert code == 0
    records = parse_records(out)
    assert [r["inputs"]["n"] for r in records] == [4, 5, 6]
    assert all(r["result"]["total_alignments"] == 2 for r in records)


def test_table_he_raw_sequences(capsys):
    code, out, _ = run_cli(capsys, "table", "he", "--big", "+--+", "--small", "PMM")
    assert code == 0
    (record,) = parse_records(out)
    assert record["result"]["alignments"] == ["+PM-M-+"]


def test_table_empty_grid(capsys):
    code, out, _ = run_cli(
        capsys, "table", "branch", "--pq", "4,5", "--a-range", "4..4", "--b-range", "9/2..7/2"
    )
    assert code == 0
    assert out == ""


def test_table_missing_required(capsys):
    code, _, err = run_cli(capsys, "table", "exhaustion", "--pq", "3,3")
    assert code == 2
    assert "--ell" in err


def test_table_cap(capsys):
    code, _, err = run_cli(
        capsys, "table", "branch", "--pq", "4,5", "--a-range", "4..2000", "--b-range", "7/2..2001/2"
    )
    assert code == 2
    assert "cap" in err


def test_table_csv_projection(capsys):
    code, out, _ = run_cli(
        capsys, "table", "exhaustion", "--pq", "3,3", "--ell", "8..10", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("command,in.p,in.q,in.ell")
    assert len(lines) == 4


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

    monkeypatch.setattr(cli.periods, "period_integral_quadrature", explode)
    code, _, err = run_cli(capsys, "period", "--pq", "1,2", "--n", "0", "--k", "0")
    assert code == 3
    assert "budget" in err


def test_subprocess_invocations_byte_identical():
    import subprocess
    import sys

    cmd = [
        sys.executable, "-m", "relbranch.cli",
        "table", "period", "--pq", "1,3", "--n-max", "4", "--k-max", "4",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


def test_period_degree_cap_exit(capsys):
    code, out, err = run_cli(capsys, "period", "--pq", "1,2", "--n", "66", "--k", "0")
    assert code == 2
    assert not out
    assert "exceeds the exact-coefficient cap 64" in err


def test_period_quaternionic_record_keys(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--pq", "1,2", "--family", "quaternionic", "--n", "2", "--k", "4"
    )
    assert code == 0
    (record,) = parse_records(out)
    assert set(record["result"]) == {"family", "quadrature", "quadrature_error", "nonvanishing"}
    assert record["result"]["nonvanishing"] is False


def _explode_at(n_bad, k_bad, exc_type, real):
    def patched(p, q, n, k, *args):
        if (n, k) == (n_bad, k_bad):
            raise exc_type("refinement budget exhausted")
        return real(p, q, n, k, *args)

    return patched


def test_table_nonconvergence_names_row(capsys, monkeypatch):
    real = cli.periods.period_integral_quadrature
    monkeypatch.setattr(
        cli.periods, "period_integral_quadrature", _explode_at(4, 2, ConvergenceError, real)
    )
    code, out, err = run_cli(capsys, "table", "period", "--pq", "1,2", "--n-max", "6")
    assert code == 3
    assert len(parse_records(out)) == 2 * 5 + 1  # rows n=0, n=2, then n=4 with k=0
    assert err == "error: table period row n=4 k=2: refinement budget exhausted\n"


def test_table_validation_error_names_row(capsys, monkeypatch):
    real = cli.periods.quaternionic_period_quadrature
    monkeypatch.setattr(
        cli.periods, "quaternionic_period_quadrature", _explode_at(2, 0, ValueError, real)
    )
    code, _, err = run_cli(
        capsys, "table", "period", "--pq", "1,2", "--family", "quaternionic", "--n-max", "2"
    )
    assert code == 2
    assert err.startswith("error: table period row n=2 k=0: ")


def test_broken_pipe_exits_quietly():
    import subprocess
    import sys

    # about 0.3 MB of records: more than a pipe buffer holds
    cmd = [
        sys.executable, "-m", "relbranch.cli",
        "table", "branch", "--pq", "4,5", "--a-range", "4..30", "--b-range", "7/2..59/2",
    ]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""
