"""In-process span tracing of the relbranch layers, installed from outside.

The tracer wraps each layer's public entry functions and rebinds the
wrapper in every relbranch module namespace that holds the original (a
name imported with ``from .reps import make_param`` lives in the importing
module too).  Nothing under ``src/`` is edited.

A span records (id, parent id, request, function, start, end); a layer's
self time is the sum over its spans of the span's duration minus the time
its direct child spans cover.

Per-element predicates stay unwrapped: spanning the 661,220
``hepattern.allowed_adjacent`` calls of one alignment enumeration takes it
from about 0.5 s to about 1.6 s, and ``branching.hom_dim`` runs several
times per branch record.  Two
modules get no spans at all: ``halfint`` is a value type constructed about
1.2M times in the exhaustion sweep (ell 8..140), so its cost lands in its
callers' self time; ``oracle`` is on no CLI path, so no workload reaches it.
"""

from __future__ import annotations

import functools
import gc
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from types import SimpleNamespace

# Public entry functions per layer; names that a module no longer defines
# are skipped (their counters read 0).
ENTRY_POINTS = {
    "cli": ("main",),
    "reps": ("make_param", "epsilon_of"),
    "branching": (
        "coupling_summary", "gp_sum_dim", "classify_interlacing", "pattern_characters",
        "pi_minus_summands", "exhaustion_check", "stage1_enumerate", "stage2_enumerate",
    ),
    "hepattern": ("enumerate_alignments", "u2n_case_report"),
    "periods": (
        "period_integral_closed", "period_integral_quadrature", "period_nonvanishing",
        "period_angular_exact", "quaternionic_period_quadrature", "quaternionic_period_scale",
    ),
    "jacobi": ("jacobi_poly", "poly_mul", "integrate_with_weight", "weighted_inner_product"),
    "specfun": ("adaptive_quadrature", "radial_integral_quadrature", "radial_integral_closed"),
}
LAYERS = tuple(ENTRY_POINTS)


def _cost_per_call(bare, wrapped, arg, calls: int = 20_000, blocks: int = 7) -> float:
    """Median over blocks of the extra time per call of wrapped over bare.

    The collector is off while timing, as in timeit: otherwise a collection
    that walks the traced run's whole heap lands in one block or another.
    """
    clock = time.perf_counter
    extra = []
    gc.disable()
    try:
        for _ in range(blocks):
            start = clock()
            for _ in range(calls):
                bare(arg)
            middle = clock()
            for _ in range(calls):
                wrapped(arg)
            extra.append((clock() - middle) - (middle - start))
    finally:
        gc.enable()
    return max(statistics.median(extra) / calls, 0.0)


class Tracer:
    """Spans and counters for one traced pass; install() and uninstall()
    rebind the wrappers in place."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.distinct_jacobi: set = set()
        self.max_err_ratio = 0.0
        self.request = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- observers: counts taken at the layer boundary -----------------------

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "jacobi.jacobi_poly":
            n = args[0] if args else kwargs["n"]
            alpha = args[1] if len(args) > 1 else kwargs["alpha"]
            beta = args[2] if len(args) > 2 else kwargs.get("beta_param", 0)
            self.distinct_jacobi.add((n, Fraction(alpha), Fraction(beta)))
        elif name == "specfun.adaptive_quadrature":
            abs_tol = args[3] if len(args) > 3 else kwargs["abs_tol"]
            self.counters["quad_evaluations"] += result.evaluations
            self.max_err_ratio = max(self.max_err_ratio, result.abs_error_estimate / abs_tol)
        elif name == "hepattern.enumerate_alignments":
            self.counters["alignments"] += len(result)

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                tracer.spans.append((span_id, parent, tracer.request, name, start, end))
            tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _count_stage_params(self, post_init):
        counters = self.counters

        def counted(sp):
            post_init(sp)
            counters["stage1_built"] += 1
            if sp.lambda_prime == 0:
                counters["stage1_kept"] += 1

        return counted

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "relbranch" or key.startswith("relbranch.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules[f"relbranch.{layer}"]
            for short in names:
                original = getattr(home, short, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{short}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        # StageParams built versus kept (the lambda' = 0 slice the
        # exhaustion check consumes), counted wherever they are built
        stage = getattr(sys.modules["relbranch.branching"], "StageParams", None)
        if stage is not None:
            post_init = stage.__post_init__
            stage.__post_init__ = self._count_stage_params(post_init)
            self._restore.append((stage, "__post_init__", post_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- per-layer summary ----------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def overhead_s(self) -> float:
        """Tracing cost of this pass, from its own counts: wrapped calls times
        the measured cost of one span, plus StageParams built times the cost
        of the count hook.  Observer work (_observe) is left out."""
        probe = Tracer()

        def noop(_):
            return None

        span = _cost_per_call(noop, probe._wrap("calibrate", noop), None)
        hook = _cost_per_call(noop, probe._count_stage_params(noop),
                              SimpleNamespace(lambda_prime=1))
        return sum(self.calls.values()) * span + self.counters["stage1_built"] * hook

    def counts(self) -> dict:
        """Everything that must repeat exactly from pass to pass."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "counters": dict(sorted(self.counters.items())),
            "jacobi_distinct": len(self.distinct_jacobi),
            "max_err_ratio": self.max_err_ratio,
        }

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "parent", "request", "function", "start", "end"],
            "spans": self.spans,
            "self_s": dict(sorted(self.self_s.items())),
            **self.counts(),
        }
