"""Run sets of benchmark runs and report their spread and drift.

    python3 perfbench/sets.py --sets 2 --seeds 10 --out perfbench/out/sets.json

Within a set the workloads are interleaved (seed 1 of every workload, then
seed 2, ... with the workload order rotated each round) rather than run in
blocks, so slow drift of the host lands on every workload alike.  The
Python and numpy versions, the CPU count and the load average are recorded
before and after each set.

For each end-to-end metric of each workload the report gives the median and
quartiles of the run values, the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json, and, with two or more sets, how far each
later set's median moved against the first set's in the worse direction.

Every run measures all workloads of BENCHMARK.json for its ``run_seconds``,
so that a report compares with the committed baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _environment() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=False,
    ).stdout.strip()
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace,
                  log=[line for line in lines[:-1] if not line.startswith("# sha256")],
                  fingerprints=sorted({line.split()[2] for line in lines
                                       if line.startswith("# sha256")}))
    return result


def _summary(values: list[float], better: str, bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values, "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0, "bound": bound, "better": better,
        "repeats_exactly": len(set(values)) == 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "sets.json")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    sets = []
    for number in range(args.sets):
        env_before = _environment()
        runs = []
        for i in range(args.seeds):
            shift = i % len(workloads)
            for workload in workloads[shift:] + workloads[:shift]:
                run = _run(workload, i + 1, seconds, args.trace)
                runs.append(run)
                print(f"set {number + 1} seed {i + 1} {workload}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']}", flush=True)
        sets.append({"env_before": env_before, "env_after": _environment(), "runs": runs})

    report = {"seconds": seconds, "trace": args.trace, "sets": sets, "summary": {}}
    for workload in workloads:
        rows = {}
        for metric in metrics:
            name = metric["name"]
            per_set = [
                _summary([r["metrics"][name]["value"] for r in s["runs"] if r["workload"] == workload],
                         metric["better"], metric.get("bound", 0.0))
                for s in sets
            ]
            first = per_set[0]["median"]
            for summary in per_set[1:]:
                moved = (summary["median"] - first) / first if first else 0.0
                summary["worse_by"] = moved if metric["better"] == "lower" else -moved
            rows[name] = per_set
        report["summary"][workload] = rows
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))

    width = max(len(m["name"]) for m in metrics)
    print(f"\n{'workload':20} {'metric':{width}} {'set':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'worse_by':>9}")
    for workload, rows in report["summary"].items():
        for name, per_set in rows.items():
            for number, s in enumerate(per_set, 1):
                worse = f"{s['worse_by']:9.4f}" if "worse_by" in s else ""
                print(f"{workload:20} {name:{width}} {number:3d} {s['median']:12.5g} "
                      f"{s['spread']:8.4f} {s['bound']:6.3f} {worse}")
    all_correct = all(r["correct"] for s in sets for r in s["runs"])
    print(f"\nall runs correct: {all_correct}; report written to {args.out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
