"""Run one workload in this process and print one JSON line.

Started by ``run.py``, once per workload run and once per extra set-up
measurement (``--setup-only``).  Set-up is timed from ``import stratmean``
to the start of the first timed operation; the benchmark's own input
generation is not part of it.  Operations run back to back (a closed loop
with one caller) until ``--seconds`` have passed; each one's output is
checked outside its timed region, and an operation whose check fails
counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks  # benchmark-local modules, found next to this script
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"


def _main_json(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Simulate:
    """``simulate`` on a bundled design at the default reps, one seed per op."""

    def __init__(self, data: str, seed: int) -> None:
        self.data = data
        self.seeds = inputs.simulate_seeds(seed)

    def setup(self) -> None:
        from stratmean import cli

        self.cli = cli

    def reference(self) -> None:
        pass

    def next_op(self):
        argv = [
            "simulate", "--data", self.data, "--seed", str(next(self.seeds)),
            "--workers", "1", "--output-format", "json", "--full-precision",
        ]
        return lambda: _main_json(self.cli, argv)

    def finish(self, raw) -> tuple[int, list[str]]:
        code, text = raw
        if code != 0:
            return 0, [f"simulate exited {code}"]
        rows = json.loads(text)["rows"]
        return rows[0]["reps"], checks.simulate(rows, self.data)


class Enumerate:
    """``enumerate_exact_moments`` on a population of 9,702,000 samples."""

    def __init__(self, seed: int) -> None:
        self.spec = inputs.lattice_design(seed)

    def setup(self) -> None:
        import stratmean as sm

        design = sm.validate_design(
            sm.DesignSummary(
                tuple(sm.StratumSummary.from_correlation(**row) for row in self.spec["strata"]),
                label="lattice",
            )
        )
        self.sm = sm
        self.pop = sm.synthesize_population(design, seed=self.spec["pop_seed"])
        self.n = design.sample_sizes

    def reference(self) -> None:
        self.arrays = [(s.y, s.x) for s in self.pop.strata]

    def next_op(self):
        sm, pop, n = self.sm, self.pop, self.n
        return lambda: (sm.enumeration_count(pop, n), sm.enumerate_exact_moments(pop, n))

    def finish(self, raw) -> tuple[int, list[str]]:
        count, moments = raw
        return count, checks.enumeration(moments, count, self.arrays, self.n)


class PlanFrame:
    """``moments``, ``table`` and ``optimize`` on a generated microdata frame."""

    COMMANDS = ("moments", "table", "optimize")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.path = plan_frame_path(seed)

    def setup(self) -> None:
        from stratmean import cli

        self.cli = cli

    def reference(self) -> None:
        arrays = inputs.plan_frame_arrays(self.seed)
        sizes = {label: n for label, _, n in inputs.PLAN_STRATA}
        self.ref = checks.design_moments(
            checks.strata_from_arrays(*zip(*arrays), sizes)
        )

    def next_op(self):
        argvs = [
            [cmd, "--data", str(self.path), "--format", "microdata-csv",
             "--output-format", "json", "--full-precision"]
            for cmd in self.COMMANDS
        ]
        return lambda: [_main_json(self.cli, argv) for argv in argvs]

    def finish(self, raw) -> tuple[int, list[str]]:
        if any(code != 0 for code, _ in raw):
            return 0, [f"exit codes {[code for code, _ in raw]}"]
        outputs = {cmd: json.loads(text)["rows"] for cmd, (_, text) in zip(self.COMMANDS, raw)}
        ingested = len(self.COMMANDS) * outputs["moments"][0]["N"]
        return ingested, checks.plan(outputs, self.ref)


def plan_frame_path(seed: int) -> Path:
    return OUT / f"plan-frame-{seed}.csv"


WORKLOADS = {
    "sim-orchard": lambda seed: Simulate("paper-2", seed),
    "sim-cane": lambda seed: Simulate("paper-1", seed),
    "enum-lattice": Enumerate,
    "plan-frame": PlanFrame,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import stratmean

    workload.setup()
    setup_s = time.perf_counter() - t0
    if Path(stratmean.__file__).resolve().parent != ROOT / "src" / "stratmean":
        print(f"error: imported stratmean from {stratmean.__file__}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.reference()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    durations: list[float] = []
    work = 0
    failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        op = workload.next_op()
        t = time.perf_counter()
        raw = tracer.run_op(len(durations), op) if tracer else op()
        durations.append(time.perf_counter() - t)
        try:
            done, found = workload.finish(raw)
        except (KeyError, TypeError, ValueError) as exc:  # output not in the documented shape
            done, found = 0, [f"unreadable output: {exc!r}"]
        work += done
        if found:
            failed += 1
            problems.extend(found[:3])
        if time.perf_counter() - start >= args.seconds:
            break
    report = {
        "setup_s": setup_s,
        "durations": durations,
        "work": work,
        "attempted": len(durations),
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.alloc_pass(workload.next_op())
        report["per_layer"] = tracing.layer_metrics(tracer)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
