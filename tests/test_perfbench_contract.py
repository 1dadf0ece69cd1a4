"""What the benchmark in perfbench/ reads of the package.

The benchmark scripts are parsed, never imported into the test process: a
name they take from relbranch, the period call of their reach_label metric,
the class-level hook through which they count StageParams and the len()
through which they count alignments must keep working, so
that a deletion that would break a benchmark run fails here first.  One test
runs the span tracer in a child process, on layers that the CLI registered
but no command has loaded yet, and then traces a command under it."""

import ast
from math import isfinite
from pathlib import Path

from relbranch import hepattern, periods
from relbranch.halfint import HalfInt
from relbranch.jacobi import MAX_DEGREE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _relbranch_names(tree):
    """The (module, name) pairs a tree takes from relbranch: each
    ``from relbranch.m import name``, and each ``alias.name`` read off a
    module bound by ``from relbranch import m`` or ``import relbranch.m as
    alias``."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "relbranch":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relbranch."):
            names.update((node.module[len("relbranch."):], a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("relbranch.") and a.asname:
                    modules[a.asname] = a.name[len("relbranch."):]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
    return names


def _setup_code(tree):
    """The code of run.py's SETUP_CODE, which its setup probe runs."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "SETUP_CODE"
        ]:
            return ast.parse(ast.literal_eval(node.value))
    raise AssertionError("no SETUP_CODE in run.py")


def test_every_relbranch_name_the_benchmark_reads_exists():
    import importlib

    run = _tree("run.py")
    names = _relbranch_names(run) | _relbranch_names(_setup_code(run))
    assert {
        ("cli", "main"),
        ("cli", "build_parser"),
        ("jacobi", "MAX_DEGREE"),
        ("specfun", "ConvergenceError"),
        ("periods", "period_integral_quadrature"),
    } <= names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(f"relbranch.{module}"), name), (module, name)


def test_reach_label_call_runs_with_defaults():
    # reach_label calls period_integral_quadrature(1, 2, n, n), with the
    # default tol and kind, for every even n up to MAX_DEGREE
    (call,) = [
        node
        for node in ast.walk(_tree("run.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "period_integral_quadrature"
    ]
    args = [ast.unparse(arg) for arg in call.args]
    assert (args, call.keywords) == (["1", "2", "n", "n"], [])
    for n in range(0, MAX_DEGREE + 1, 2):
        result = periods.period_integral_quadrature(1, 2, n, n)
        assert isfinite(result.value) and isfinite(result.abs_error_estimate), n


def test_stage_params_hook_is_called_on_every_construction(monkeypatch):
    # spans.py counts StageParams by rebinding the class's __post_init__ and
    # reading lambda_prime off each term; the package builds none, so the
    # hook is driven here on the frozen dataclass the stage tests build
    from test_branching import StageParams

    spans = _tree("spans.py")
    strings = {n.value for n in ast.walk(spans) if isinstance(n, ast.Constant)}
    attrs = {n.attr for n in ast.walk(spans) if isinstance(n, ast.Attribute)}
    assert "StageParams" in strings and {"__post_init__", "lambda_prime"} <= attrs
    seen = []
    real = StageParams.__post_init__

    def counted(sp):
        real(sp)
        seen.append(sp)

    monkeypatch.setattr(StageParams, "__post_init__", counted)
    built = [StageParams(8, 0, HalfInt(6)), StageParams(9, 2, HalfInt(4))]
    assert seen == built
    assert [sp.lambda_prime == 0 for sp in seen] == [True, False]


def test_alignment_observer_reads_the_count_by_len():
    # spans.py counts alignments as len() of enumerate_alignments' result,
    # which is lazy: its len() must be the number of alignments it yields
    (branch,) = [
        node
        for node in ast.walk(_tree("spans.py"))
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and any(
            isinstance(c, ast.Constant) and c.value == "hepattern.enumerate_alignments"
            for c in node.test.comparators
        )
    ]
    calls = [
        ast.unparse(node)
        for stmt in branch.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
    ]
    assert "len(result)" in calls
    found = hepattern.enumerate_alignments("+-" * 3, "PM" * 3)
    assert len(found) == sum(1 for _ in found) == 20


# After cli.main runs an `enumeration` command that reaches only hepattern,
# the tracer installs on every layer, the lazily registered ones included,
# and wraps the period entry point.  A `table exhaustion` run under it exits
# 0 and builds no first-stage term for the stage counters to count, and
# uninstall restores every wrapped function.
_TRACER_CHILD = """
import contextlib, io, json, sys, types
sys.path.insert(0, sys.argv[1])
import spans
from relbranch import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["table", "he", "--big", "+-+-", "--small", "PMPM"])
periods = sys.modules["relbranch.periods"]
branching = sys.modules["relbranch.branching"]
loaded = type(periods) is types.ModuleType
tracer = spans.Tracer()
tracer.install()
wrapped = [periods.period_integral_quadrature, branching.exhaustion_check, cli.main]
with contextlib.redirect_stdout(io.StringIO()):
    traced = cli.main(["table", "exhaustion", "--pq", "3,3", "--ell", "8..10"])
tracer.uninstall()
now = [periods.period_integral_quadrature, branching.exhaustion_check, cli.main]
restored = [fn is getattr(w, "__wrapped__", None) for fn, w in zip(now, wrapped)]
stage = [tracer.counters["stage1_built"], tracer.counters["stage1_kept"]]
checks = tracer.calls["branching.exhaustion_check"]
json.dump([code, loaded, wrapped[0].__name__, traced, checks, stage, restored], sys.stdout)
"""


def test_tracer_installs_on_lazily_registered_layers():
    import json
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_CHILD, str(PERFBENCH)],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == [
        0, False, "period_integral_quadrature", 0, 3, [0, 0], [True, True, True]
    ]


# Entry points that spans.py still names but that no longer exist where it
# looks: the tracer skips them silently, so their counters read 0.  Any
# other name that stops resolving (a rename or a move) fails here first.
_STALE_ENTRY_POINTS = {
    ("branching", "gp_sum_dim"),
    ("branching", "stage1_enumerate"),
    ("branching", "stage2_enumerate"),
    ("periods", "period_integral_closed"),
    ("periods", "period_nonvanishing"),
    ("periods", "period_angular_exact"),
    ("periods", "quaternionic_period_quadrature"),
    ("periods", "quaternionic_period_scale"),
    ("jacobi", "jacobi_poly"),
    ("jacobi", "poly_mul"),
    ("jacobi", "integrate_with_weight"),
    ("jacobi", "weighted_inner_product"),
    ("specfun", "adaptive_quadrature"),
    ("specfun", "radial_integral_quadrature"),
    ("specfun", "radial_integral_closed"),
}


def test_every_traced_entry_point_resolves_or_is_known_stale():
    import importlib

    (entry_points,) = [
        ast.literal_eval(node.value)
        for node in _tree("spans.py").body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]
    ]
    named = {(layer, name) for layer, names in entry_points.items() for name in names}
    assert _STALE_ENTRY_POINTS <= named
    for layer, name in sorted(named):
        found = callable(getattr(importlib.import_module(f"relbranch.{layer}"), name, None))
        assert found == ((layer, name) not in _STALE_ENTRY_POINTS), (layer, name)
