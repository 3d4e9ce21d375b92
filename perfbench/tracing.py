"""Span tracing for the traced run, and the per-layer metrics built from it.

Each layer is a public function wrapped at the module attribute through
which its caller looks it up, so the program itself is unchanged.  A span
records (op, name, start, end, parent) in memory; the spans are written
out when the run ends.  Functions of one layer share a span name, and a
layer's time counts only its outermost spans, so nested calls inside the
same layer are not counted twice.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from pathlib import Path


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, name, start, end, parent]
        self.peak_mb: dict[str, list[float]] = {}
        self.op = -1
        self._stack: list[int] = []
        self._alloc_pass = False

    def wrap(self, name: str, fn, alloc: bool = False):
        """``fn`` recording a span; in the allocation pass, ``alloc`` also
        records tracemalloc's peak over the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc_now = alloc and self._alloc_pass
            if alloc_now:
                tracemalloc.start()
            rec = [self.op, name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()
                if alloc_now:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_mb.setdefault(name, []).append(peak / 2**20)

        return traced

    def patch(self, owner, attr: str, name: str, alloc: bool = False) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), alloc))

    def run_op(self, op: int, fn):
        """Run one benchmark operation under a root span named ``bench.op``."""
        self.op = op
        return self.wrap("bench.op", fn)()

    def alloc_pass(self, fn) -> None:
        """Run ``fn`` once more with tracemalloc on, keeping only the peaks.

        tracemalloc slows every Python allocation, so the timed operations
        run without it and this extra pass leaves no spans behind.
        """
        mark = len(self.spans)
        self._alloc_pass = True
        try:
            fn()
        finally:
            self._alloc_pass = False
            del self.spans[mark:]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("op", "name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap every layer the workloads pass through."""
    import stratmean
    from stratmean import cli, montecarlo, mse

    for owner, attr, name, alloc in (
        (cli, "ingest", "cli.ingest", False),
        (cli.Emitter, "render", "cli.render", False),
        (cli, "design_from_microdata", "design.summarize", False),
        (montecarlo, "design_from_microdata", "design.summarize", False),
        (cli, "aggregate_moments", "design.aggregate_moments", False),
        (mse, "aggregate_moments", "design.aggregate_moments", False),
        (montecarlo, "aggregate_moments", "design.aggregate_moments", False),
        (cli, "resolve_spec", "mse.analyze", False),
        (cli, "analyze", "mse.analyze", False),
        (cli, "efficiency_table", "mse.analyze", False),
        (mse, "resolve_spec", "mse.analyze", False),
        (mse, "analyze", "mse.analyze", False),
        (mse, "optimal_dual", "mse.optimal_dual", False),
        (montecarlo, "estimate_many", "estimators.estimate_many", False),
        (montecarlo, "synthesize_population", "montecarlo.synthesize", False),
        (montecarlo, "replicate", "montecarlo.replicate", True),
        (stratmean, "enumerate_exact_moments", "montecarlo.enumerate", True),
    ):
        tracer.patch(owner, attr, name, alloc)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics: {name: (value, unit)}.

    Times are seconds per operation summed over a layer's outermost spans;
    ``montecarlo.draw_reduce_s`` is the self time of ``replicate`` (its span
    minus its child spans); counts are calls per operation; peaks are the
    largest tracemalloc peak over all calls.
    """
    spans = tracer.spans
    ops = max(1, len({s[0] for s in spans if s[1] == "bench.op"}))
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for i, (_, name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_time[parent] += end - start
        ancestor = parent
        while ancestor is not None and spans[ancestor][1] != name:
            ancestor = spans[ancestor][4]
        if ancestor is None:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    draw_reduce = sum(
        s[3] - s[2] - child_time[i] for i, s in enumerate(spans) if s[1] == "montecarlo.replicate"
    )

    def seconds(name: str) -> float:
        return inclusive.get(name, 0.0) / ops

    def count(name: str) -> float:
        return calls.get(name, 0) / ops

    def peak(name: str) -> float:
        return max(tracer.peak_mb.get(name, [0.0]))

    return {
        "bench.op_s": (seconds("bench.op"), "s"),
        "cli.ingest_s": (seconds("cli.ingest"), "s"),
        "cli.render_s": (seconds("cli.render"), "s"),
        "design.summarize_s": (seconds("design.summarize"), "s"),
        "design.aggregate_moments_calls": (count("design.aggregate_moments"), "count"),
        "mse.analyze_s": (seconds("mse.analyze"), "s"),
        "mse.optimal_dual_calls": (count("mse.optimal_dual"), "count"),
        "estimators.estimate_many_s": (seconds("estimators.estimate_many"), "s"),
        "estimators.estimate_many_calls": (count("estimators.estimate_many"), "count"),
        "montecarlo.synthesize_s": (seconds("montecarlo.synthesize"), "s"),
        "montecarlo.replicate_s": (seconds("montecarlo.replicate"), "s"),
        "montecarlo.draw_reduce_s": (draw_reduce / ops, "s"),
        "montecarlo.replicate_peak_alloc_mb": (peak("montecarlo.replicate"), "MB"),
        "montecarlo.enumerate_s": (seconds("montecarlo.enumerate"), "s"),
        "montecarlo.enumerate_peak_alloc_mb": (peak("montecarlo.enumerate"), "MB"),
    }
