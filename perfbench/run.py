"""stratmean benchmark: four workloads, checked outputs, metrics by name.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim-cane --seed 1 --seconds 20 --trace 0

Without ``--workload`` all four workloads run, one after another.  Each
workload run is a fresh worker process (``worker.py``), single-threaded.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run.  See README.md for the workloads, the metrics
and the reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from worker import WORKLOADS, plan_frame_path  # noqa: E402

#: Timed set-up measurements per run: this many set-up-only processes plus
#: the measuring worker's own set-up; the run reports their median.
SETUP_PROCESSES = 5

#: Every run ends within this many seconds or fails.
RUN_LIMIT_S = 175.0

#: One thread everywhere: the machine has 2 shared cores.
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, trace: int, deadline: float,
            setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload; returns the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    frame = plan_frame_path(seed)
    if workload == "plan-frame":
        inputs.write_plan_frame(seed, frame)
    try:
        report, metrics = _measure(workload, seed, seconds, trace, deadline)
    finally:
        for path in (frame, Path(f"{frame}.n.json")):
            path.unlink(missing_ok=True)
    for problem in report["problems"]:
        print(f"# {workload}: check failed: {problem}", file=sys.stderr)
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def _measure(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    if trace:
        report = _worker(workload, seed, seconds, 1, deadline)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["per_layer"].items()
        }
    else:
        def setup_s() -> float:
            return _worker(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]

        setup_s()  # compiles bytecode and warms the file cache: not counted
        # set-ups on both sides of the measuring worker, so that one burst of
        # load on the shared machine cannot shift all of them
        before = SETUP_PROCESSES // 2
        setups = [setup_s() for _ in range(before)]
        report = _worker(workload, seed, seconds, 0, deadline)
        setups += [setup_s() for _ in range(SETUP_PROCESSES - before)] + [report["setup_s"]]
        durations = report["durations"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_per_s": {"value": report["work"] / sum(durations), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return report, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "stratmean" / "__init__.py").is_file():
        print(f"error: no stratmean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"# {workload}: attempted {result['attempted']}, failed {result['failed']}")
        for name, m in result["metrics"].items():
            print(f"# {workload}: {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
