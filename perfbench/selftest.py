"""Self-test of the benchmark's output checks.

Every check must accept today's output and reject a corrupted copy of it.
Real outputs come from the same workload code the benchmark times; the
corrupted copies scale one reported value by 1.1, break a count, or
replace SRSWOR by with-replacement sampling.  Run from the root of a
checkout (about 30 s, most of it one default ``simulate`` on paper-2):

    python3 perfbench/selftest.py

Exits 1 if any case comes out wrong.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from worker import Enumerate, PlanFrame, Simulate, plan_frame_path  # noqa: E402

SEED = 7


def _with_replacement_draw(rng, pop, n, weights, count):
    """A faulty sampler: stratified draws with replacement."""
    yb = np.zeros(count)
    xb = np.zeros(count)
    for s, nh, w in zip(pop.strata, n, weights):
        idx = rng.integers(0, s.N, (count, nh))
        yb += w * s.y[idx].mean(axis=1)
        xb += w * s.x[idx].mean(axis=1)
    return yb, xb


def _simulate_rows(data: str, faulty_draw: bool = False) -> list[dict]:
    from stratmean import montecarlo

    workload = Simulate(data, SEED)
    workload.setup()
    saved = montecarlo._draw_block
    if faulty_draw:
        montecarlo._draw_block = _with_replacement_draw
    try:
        code, text = workload.next_op()()
    finally:
        montecarlo._draw_block = saved
    if code != 0:
        raise RuntimeError(f"simulate exited {code}")
    return json.loads(text)["rows"]


def _scaled(rows: list[dict], key: str, factor: float, only: str | None = None) -> list[dict]:
    out = copy.deepcopy(rows)
    for r in out:
        if only is None or r["estimator"] == only:
            r[key] *= factor
    return out


def simulate_cases(data: str) -> list[tuple[str, list[str], str | None]]:
    rows = _simulate_rows(data)
    off_by_one = copy.deepcopy(rows)
    off_by_one[0]["valid"] -= 1
    if data == "paper-1":
        band = ("with-replacement draw", _simulate_rows(data, faulty_draw=True))
    else:
        # with replacement moves paper-2's MSEs by only 0.5%, inside the band
        # (README): test the band there with a scaled copy
        band = ("empirical_mse x 1.1", _scaled(rows, "empirical_mse", 1.1))
    cases = [
        ("today's output", rows, None),
        ("theoretical_mse x 1.1", _scaled(rows, "theoretical_mse", 1.1), "theoretical_mse"),
        ("theoretical_bias x 1.1 on ratio", _scaled(rows, "theoretical_bias", 1.1, "ratio"),
         "theoretical_bias"),
        ("valid - 1", off_by_one, "valid"),
        (*band, "empirical_mse"),
    ]
    return [(f"sim {data}: {label}", checks.simulate(out, data), want) for label, out, want in cases]


def enumeration_cases() -> list[tuple[str, list[str], str | None]]:
    workload = Enumerate(SEED)
    workload.setup()
    workload.reference()
    count, moments = workload.next_op()()
    arrays, n = workload.arrays, workload.n
    wr = checks.design_moments(
        checks.strata_from_arrays(range(len(arrays)), *zip(*arrays), dict(enumerate(n))),
        gamma=lambda N, nh: 1.0 / nh,
    )
    scaled = SimpleNamespace(**{**vars(moments), "var_ybar": 1.1 * moments.var_ybar})
    return [
        ("enum: today's output", checks.enumeration(moments, count, arrays, n), None),
        ("enum: with-replacement variances",
         checks.enumeration(SimpleNamespace(**wr), count, arrays, n), "var_ybar"),
        ("enum: var_ybar x 1.1", checks.enumeration(scaled, count, arrays, n), "var_ybar"),
        ("enum: sample count + 1", checks.enumeration(moments, count + 1, arrays, n), "sample count"),
    ]


def plan_cases() -> list[tuple[str, list[str], str | None]]:
    frame = plan_frame_path(SEED)
    inputs.write_plan_frame(SEED, frame)
    try:
        workload = PlanFrame(SEED)
        workload.setup()
        workload.reference()
        raw = workload.next_op()()
    finally:
        for path in (frame, Path(f"{frame}.n.json")):
            path.unlink(missing_ok=True)
    outputs = {cmd: json.loads(text)["rows"] for cmd, (_, text) in zip(workload.COMMANDS, raw)}
    ref = workload.ref
    floor = ref["var_ybar"] - ref["cov_xybar"] ** 2 / ref["var_xbar"]

    def corrupt(command: str, estimator: str | None, key: str, value) -> dict:
        out = copy.deepcopy(outputs)
        for r in out[command]:
            if estimator is None or r["estimator"] == estimator:
                r[key] = value(r[key])
        return out

    wr_ref = checks.design_moments(
        checks.strata_from_arrays(*zip(*inputs.plan_frame_arrays(SEED)),
                                  {label: n for label, _, n in inputs.PLAN_STRATA}),
        gamma=lambda N, n: 1.0 / n,
    )
    wr_moments = copy.deepcopy(outputs)
    for key in ("var_ybar", "var_xbar", "cov_xybar"):
        wr_moments["moments"][0][key] = wr_ref[key]
    cases = [
        ("today's output", outputs, None),
        ("moments with with-replacement variances", wr_moments, "moments var_ybar"),
        ("moments var_xbar x 1.1", corrupt("moments", None, "var_xbar", lambda v: 1.1 * v),
         "moments var_xbar"),
        ("unbiased PRE 99", corrupt("table", "unbiased", "pre", lambda v: 99.0), "unbiased PRE"),
        ("ratio MSE x 1.1", corrupt("table", "ratio", "mse", lambda v: 1.1 * v), "ratio MSE"),
        ("product MSE x 1.1", corrupt("optimize", "product", "mse", lambda v: 1.1 * v),
         "product MSE"),
        ("t2 MSE x 1.1", corrupt("table", "t2", "mse", lambda v: 1.1 * v), "t2 MSE"),
        ("t4 MSE above the T1/T2 floor",
         corrupt("table", "t4", "mse", lambda v: floor * 1.001), "t4 MSE"),
        ("optimize t1 w x 1.1", corrupt("optimize", "t1", "w", lambda v: 1.1 * v), "t1 w"),
    ]
    return [(f"plan: {label}", checks.plan(out, ref), want) for label, out, want in cases]


def main() -> int:
    wrong = 0
    for cases in (simulate_cases("paper-1"), simulate_cases("paper-2"), enumeration_cases(),
                  plan_cases()):
        for label, problems, want in cases:
            if want is None:
                ok = not problems
                verdict = "accepted" if ok else f"REJECTED: {problems[:2]}"
            else:
                ok = any(want in p for p in problems)
                verdict = f"rejected: {problems[0]}" if ok else f"NOT REJECTED: {problems[:2]}"
            wrong += not ok
            print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}")
    print(f"{wrong} case(s) wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
