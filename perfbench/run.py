"""relbranch benchmark: CLI sweep workloads timed end to end, with a separate
traced in-process run for per-layer numbers.

    python3 perfbench/run.py --workload period-complex --seed 1 --seconds 40 --trace 0

Run from a source checkout; the package is imported from ``src/`` of the
checkout that holds this file.  Each workload is a closed loop with one
client: its invocations run back to back as ``python -m relbranch.cli``
children, one at a time, and a pass is one round over them.  Passes repeat
until ``--seconds`` have elapsed.  Every invocation's output is checked
(see checks.py) and fingerprinted by its sha256.

``--trace 0`` reports the end-to-end metrics:

  wall_s         median wall time of one pass (fork to reap, per child)
  records_per_s  records emitted per second of wall_s
  cpu_s          median user+sys CPU of the children of a pass (wait4)
  peak_rss_mb    median over passes of the largest child max-RSS
  setup_s        median time of a fresh interpreter that imports
                 relbranch.cli and builds its parser, probed before each pass

The times are host-normalised.  The speed of a shared host drifts by 10-45%
over minutes, more than any median within one run can absorb.  So a fixed
pure-Python reference job (reference_job below, no relbranch code) is timed
in this process before the first pass and after every pass, and each pass's
times are scaled by REFERENCE_S over the mean of the two reference timings
around it (CPU times by the reference job's CPU time).  A time thus reads
in seconds of a host on which the reference job takes REFERENCE_S; the raw
times are printed as ``#`` lines.  A change to relbranch moves the pass and
not the reference, so it shows in full.

Failed invocations (nonzero exit or a failed output check) are reported as
``failed`` out of ``attempted``; the seed fails none, so a failure ratio
would read 0 and is not a bounded metric.

``--trace 1`` runs one untraced child pass, then alternates untraced and
traced in-process passes (``relbranch.cli.main``) and reports the per-layer
metrics of spans.py; traced output must hash the same as the children's.

The grids are fixed, so the counts repeat exactly and later changes can cite
them.  The seed orders the invocations of each pass.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 120.0
MIN_PASSES = 5
# about the reference job's wall (and CPU) time on a 2-CPU shared Linux
# host, Python 3.11.7; fixed, so that normalised times compare across runs
REFERENCE_S = 0.2
SETUP_CODE = "import relbranch.cli as cli; cli.build_parser()"


class Invocation(NamedTuple):
    kind: str  # key into checks.CHECKS
    argv: list[str]  # relbranch CLI arguments
    spec: dict  # what the output must cover, for the check


def _period(pq, n_max, k_max, family="complex"):
    argv = ["table", "period", "--pq", f"{pq[0]},{pq[1]}"]
    if family != "complex":
        argv += ["--family", family]
    argv += ["--n-max", str(n_max), "--k-max", str(k_max)]
    spec = {"pq": pq, "n_max": n_max, "k_max": k_max, "family": family}
    return Invocation("period", argv, spec)


def _exhaustion(pq, lo, hi):
    argv = ["table", "exhaustion", "--pq", f"{pq[0]},{pq[1]}", "--ell", f"{lo}..{hi}"]
    return Invocation("exhaustion", argv, {"pq": pq, "ell": (lo, hi)})


def _he(big, small):
    return Invocation("he", ["table", "he", "--big", big, "--small", small],
                      {"big": big, "small": small})


def _branch(pq, a_range, b_range):
    argv = ["table", "branch", "--pq", f"{pq[0]},{pq[1]}",
            "--a-range", "..".join(a_range), "--b-range", "..".join(b_range)]
    return Invocation("branch", argv, {"pq": pq, "a_range": a_range, "b_range": b_range})


# Why each workload: see README.md in this directory.
WORKLOADS = {
    # exact Jacobi algebra on highly shared inputs: 1,014 jacobi_poly builds
    # of 26 distinct polynomials, two weighted inner products per record
    "period-complex": [_period((1, 2), 24, 24)],
    # the same jacobi layer through Cauchy-Schwarz norms (poly_mul,
    # integrate_with_weight) and a second quadrature pass per record
    "period-quaternionic": [_period((2, 5), 20, 20, "quaternionic")],
    # never touches jacobi, specfun or periods: O(ell^2) stage enumeration,
    # exponential alignment enumeration, parameter validation, JSON emission
    "enumeration": [
        _exhaustion((3, 3), 8, 140),
        _he("+-" * 9, "PM" * 9),
        _branch((4, 5), ("4", "60"), ("7/2", "121/2")),
    ],
}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str]) -> dict:
    """Run one Python child to completion; wall time spans fork to reap.

    Output goes to files, never through this process's memory: a child's
    max-RSS from wait4 includes the high-water mark of the process that
    spawned it, so this process must stay small.
    """
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)
        exited = os.pidfd_open(proc.pid)
        try:
            if not select.select([exited], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
        finally:
            os.close(exited)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest, size, lines = hashlib.sha256(), 0, 0
    with open(out_path, "rb") as out:
        while chunk := out.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return {
        "code": proc.returncode,
        "stdout_path": out_path,
        "sha256": digest.hexdigest(),
        "bytes": size,
        "lines": lines,
        "stderr": err_path.read_text(errors="replace").strip()[-400:],
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


class Checker:
    """Checks each distinct output once (in a child, see checks.py);
    identical bytes pass identically."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.fingerprints: dict[str, set] = {}

    def check(self, inv: Invocation, res: dict) -> list[str]:
        label = " ".join(inv.argv)
        self.fingerprints.setdefault(label, set()).add((res["sha256"], res["bytes"]))
        if res["code"] != 0:
            return [f"{label}: exit code {res['code']}: {res['stderr']}"]
        key = (label, res["sha256"])
        if key not in self.verdicts:
            with open(res["stdout_path"], "rb") as stdin:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "checks.py"), inv.kind, json.dumps(inv.spec)],
                    stdin=stdin, capture_output=True, check=False, timeout=CHILD_TIMEOUT_S,
                )
            if proc.returncode == 0:
                problems = json.loads(proc.stdout)
            else:
                problems = [f"check crashed: {proc.stderr.decode(errors='replace')[-400:]}"]
            self.verdicts[key] = [f"{label}: {p}" for p in problems[:5]]
        return self.verdicts[key]

    def report(self) -> list[str]:
        lines = []
        for label, seen in self.fingerprints.items():
            for digest, size in sorted(seen):
                lines.append(f"# sha256 {digest} bytes {size} :: {label}")
        return lines


def _environment(when: str) -> str:
    load = os.getloadavg()
    return "# env " + json.dumps({
        "when": when,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in load],
    })


def reference_job() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python job that uses no relbranch
    code: a three-term recurrence in Fraction (as in exact Jacobi algebra),
    tuple-keyed dict churn and sorting (as in the enumerations), and JSON
    encoding (as in the CLI's output)."""
    wall, cpu = time.perf_counter(), time.process_time()
    for alpha in range(1, 25):
        prev, cur = [Fraction(1)], [Fraction(alpha, 2), Fraction(alpha + 2, 2)]
        for m in range(2, 25):
            a = Fraction(2 * m + alpha - 1, 2 * m * (m + alpha))
            nxt = [Fraction(0)] + [a * c for c in cur]
            for i, c in enumerate(prev):
                nxt[i] -= Fraction(m + alpha - 1, m) * c
            prev, cur = cur, nxt
    for rounds in range(6):  # small tables, so this process stays small
        table: dict[tuple[int, int], int] = {}
        for i in range(110):
            for j in range(i, 110):
                table[(i, j)] = table.get((j % 97, i % 89), rounds) + math.gcd(i, j)
        order = sorted(table.items(), key=lambda item: (item[1], item[0]))
        for ell, (key, value) in enumerate(order[:2500]):
            json.dumps({"ell": ell, "key": list(key), "value": value}, sort_keys=True)
    return time.perf_counter() - wall, time.process_time() - cpu


def _passes(invocations: list[Invocation], rng: random.Random):
    while True:
        order = list(invocations)
        rng.shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# end to end (--trace 0)
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> dict:
    invocations = WORKLOADS[workload]
    rng = random.Random(seed)
    checker = Checker()
    attempted = failed = 0
    setup, walls, cpus, rsss, references = [], [], [], [], []
    records = None

    warm = run_child(["-c", "import numpy, relbranch.cli; print(numpy.__version__)"])
    if warm["code"] != 0:
        raise SystemExit(f"cannot import relbranch from {SRC}: {warm['stderr']}")
    print(f"# numpy {warm['stdout_path'].read_text().strip()}")
    reference_job()  # warm-up
    start = time.perf_counter()
    deadline = start + seconds
    references.append(reference_job())
    for order in _passes(invocations, rng):
        pass_start = time.perf_counter()
        attempted += 1
        res = run_child(["-c", SETUP_CODE])
        if res["code"] != 0:
            failed += 1
            print(f"# setup probe failed: {res['stderr']}")
        setup.append(res["wall_s"])
        wall = cpu = rss = 0.0
        count = 0
        for inv in order:
            attempted += 1
            res = run_child(["-m", "relbranch.cli", *inv.argv])
            problems = checker.check(inv, res)
            if problems:
                failed += 1
                print("\n".join(f"# FAIL {p}" for p in problems))
            wall += res["wall_s"]
            cpu += res["cpu_s"]
            rss = max(rss, res["rss_mb"])
            count += res["lines"]
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        references.append(reference_job())
        if records is not None and count != records:
            failed += 1
            print(f"# FAIL record count changed between passes: {records} -> {count}")
        records = count
        now = time.perf_counter()
        # start another pass only if it should finish inside the window
        if len(walls) >= MIN_PASSES and 2 * now - pass_start > deadline:
            break
    print("\n".join(checker.report()))
    # each pass is scaled by the reference timings before and after it
    wall_scale = [2 * REFERENCE_S / (a[0] + b[0]) for a, b in zip(references, references[1:])]
    cpu_scale = [2 * REFERENCE_S / (a[1] + b[1]) for a, b in zip(references, references[1:])]
    print(f"# passes {len(walls)} raw wall_s {[round(w, 4) for w in walls]}")
    print(f"# raw cpu_s {[round(c, 4) for c in cpus]}")
    print(f"# raw setup_s {[round(t, 4) for t in setup]}")
    print(f"# reference job wall_s {[round(r[0], 4) for r in references]}")
    # a child's max-RSS includes this process's high-water mark at spawn
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# peak_rss_mb per pass {[round(r, 2) for r in rsss]}; benchmark's own {own_mb:.2f}")
    if own_mb >= min(rsss):
        print("# WARNING peak_rss_mb is bounded below by the benchmark's own max-RSS")
    wall_s = statistics.median(w * k for w, k in zip(walls, wall_scale))
    metrics = {
        "wall_s": (wall_s, "s"),
        "records_per_s": (records / wall_s, "1/s"),
        "cpu_s": (statistics.median(c * k for c, k in zip(cpus, cpu_scale)), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "setup_s": (statistics.median(t * k for t, k in zip(setup, wall_scale)), "s"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced in-process run (--trace 1)
# ---------------------------------------------------------------------------


def _in_process_pass(order: list[Invocation], tracer=None) -> tuple[float, list[bytes]]:
    from relbranch import cli

    outputs = []
    wall = 0.0
    for request, inv in enumerate(order):
        buffer = io.StringIO()
        if tracer is not None:
            tracer.request = request
        start = time.perf_counter()
        with redirect_stdout(buffer):
            try:
                code = cli.main(list(inv.argv))
            except SystemExit as exc:
                code = exc.code
        wall += time.perf_counter() - start
        outputs.append(buffer.getvalue().encode("ascii") if code == 0 else b"exit %d" % code)
    return wall, outputs


def reach_label() -> int:
    """Largest even n = k <= MAX_DEGREE at (p, q) = (1, 2) where the period
    quadrature converges, stopping at the first ConvergenceError."""
    from relbranch import periods
    from relbranch.jacobi import MAX_DEGREE
    from relbranch.specfun import ConvergenceError

    reached = -2
    for n in range(0, MAX_DEGREE + 1, 2):
        try:
            periods.period_integral_quadrature(1, 2, n, n)
        except ConvergenceError:
            break
        reached = n
    return reached


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    from spans import LAYERS, Tracer

    invocations = WORKLOADS[workload]
    rng = random.Random(seed)
    checker = Checker()
    attempted = failed = 0

    # reference hashes from untraced children, checked
    order = next(_passes(invocations, rng))
    reference = {}
    for inv in order:
        attempted += 1
        res = run_child(["-m", "relbranch.cli", *inv.argv])
        problems = checker.check(inv, res)
        if problems:
            failed += 1
            print("\n".join(f"# FAIL {p}" for p in problems))
        reference[tuple(inv.argv)] = res["sha256"]

    _in_process_pass(order)  # warm-up: first-use costs stay out of the timings
    start = time.perf_counter()
    deadline = start + seconds
    plain_walls, traced_walls, tracers = [], [], []
    for order in _passes(invocations, rng):
        plain_wall, _ = _in_process_pass(order)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, outputs = _in_process_pass(order, tracer)
        finally:
            tracer.uninstall()
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        tracers.append(tracer)
        if len(tracers) == 1:
            first_outputs = list(zip(order, outputs))
        else:
            tracer.spans.clear()  # only the first pass's spans are written out
        for inv, out in zip(order, outputs):
            attempted += 1
            if hashlib.sha256(out).hexdigest() != reference[tuple(inv.argv)]:
                failed += 1
                print(f"# FAIL traced output differs from untraced: {' '.join(inv.argv)}")
        if len(tracers) >= MIN_PASSES - 1 and (
            time.perf_counter() + plain_wall + traced_wall > deadline
        ):
            break

    first = tracers[0]
    for other in tracers[1:]:
        if other.counts() != first.counts():
            failed += 1
            print("# FAIL traced counts differ between passes")
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-seed{seed}.json"
    dump.write_text(json.dumps(first.dump(), separators=(",", ":")))
    print(f"# spans of the first traced pass: {dump.relative_to(ROOT)}")

    exceeded = 0
    for inv, out in first_outputs:
        if inv.kind != "period":
            continue
        for line in out.decode("ascii").splitlines():
            result = json.loads(line)["result"]
            if "abs_difference" in result and result["abs_difference"] > result["quadrature_error"]:
                exceeded += 1
    calls, counters = first.calls, first.counters
    built = counters["stage1_built"]
    metrics = {
        f"{layer}.self_s": (statistics.median(t.layer_self_s(layer) for t in tracers), "s")
        for layer in LAYERS
    }
    metrics.update({
        "cli.bytes_out": (sum(len(out) for _, out in first_outputs), "bytes"),
        "reps.make_param.calls": (calls["reps.make_param"], "count"),
        "branching.stage1.built": (built, "count"),
        "branching.stage1.kept_ratio": (counters["stage1_kept"] / built if built else 0.0, "ratio"),
        "hepattern.alignments": (counters["alignments"], "count"),
        "periods.quaternionic_period_scale.calls": (
            calls["periods.quaternionic_period_scale"], "count"),
        "periods.err_estimate_exceeded": (exceeded, "count"),
        "periods.reach_label": (reach_label(), "label"),
        "jacobi.jacobi_poly.calls": (calls["jacobi.jacobi_poly"], "count"),
        "jacobi.jacobi_poly.distinct": (len(first.distinct_jacobi), "count"),
        "jacobi.poly_mul.calls": (calls["jacobi.poly_mul"], "count"),
        "jacobi.integrate_with_weight.calls": (calls["jacobi.integrate_with_weight"], "count"),
        "jacobi.weighted_inner_product.calls": (calls["jacobi.weighted_inner_product"], "count"),
        "specfun.adaptive_quadrature.calls": (calls["specfun.adaptive_quadrature"], "count"),
        "specfun.quad_evaluations": (counters["quad_evaluations"], "count"),
        "specfun.max_err_ratio": (first.max_err_ratio, "ratio"),
        "trace.overhead_s": (first.overhead_s(), "s"),
    })
    print("\n".join(checker.report()))
    print(f"# traced passes {len(tracers)}")
    # the direct measurement is below the host's noise; see README.md
    print(f"# traced minus untraced in-process wall over {len(tracers)} pairs: "
          f"{sum(traced_walls) - sum(plain_walls):.4f} s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relbranch" / "cli.py").is_file():
        print(f"error: no relbranch sources under {SRC}", file=sys.stderr)
        return 2
    print(_environment("before"))
    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    print(_environment("after"))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
