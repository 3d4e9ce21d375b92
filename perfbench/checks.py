"""Output checks of the benchmark, computed apart from the program.

Nothing here imports ``stratmean``.  Every reference value is evaluated
from the published design rows, from the population arrays, or from the
generated microdata, by direct summation over strata.  Each check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

from inputs import ORCHARD_RATIO, PAPER_1, PAPER_2

#: The nine rows of every simulate, table and optimize report.
ESTIMATORS = ("t1", "t2", "t3", "t4", "t5", "t6", "ratio", "product", "unbiased")

#: Relative tolerance of every closed-form comparison.
REL_TOL = 1e-9

#: Sampling-noise half-width of the simulate band, in units of MSE/sqrt(valid)
#: (7.07 standard errors for normal errors; see README).
BAND_NOISE = 10.0

#: First-order allowance of the simulate band, in units of cv(xbar_st).
BAND_FIRST_ORDER = 3.0


def published_strata(name: str) -> list[tuple[int, int, int, float, float, float, float, float]]:
    """Published rows as (index, N, n, mean_y, mean_x, var_y, var_x, cov_xy)."""
    if name == "paper-1":
        return [
            (i, N, n, my, mx, vy, vx, rho * math.sqrt(vx) * math.sqrt(vy))
            for i, N, n, my, mx, vy, vx, rho in PAPER_1
        ]
    if name == "paper-2":
        return [
            (i, N, n, ORCHARD_RATIO * mx, mx, vy, vx, cov)
            for i, N, n, mx, vx, vy, cov in PAPER_2
        ]
    raise KeyError(name)


def design_moments(strata, gamma=None) -> dict[str, float]:
    """Combined moments sum_h W_h^2 gamma_h S_h^2 by direct summation.

    ``strata`` holds (index, N, n, mean_y, mean_x, var_y, var_x, cov_xy)
    with divisor N - 1.  ``gamma(N, n)`` defaults to the SRSWOR factor
    1/n - 1/N; the self-test passes the with-replacement factor 1/n.
    """
    gamma = gamma or (lambda N, n: 1.0 / n - 1.0 / N)
    total = sum(s[1] for s in strata)
    out = dict(mean_y=0.0, mean_x=0.0, var_ybar=0.0, var_xbar=0.0, cov_xybar=0.0)
    for _, N, n, my, mx, vy, vx, cxy in strata:
        w = N / total
        wwg = w * w * gamma(N, n)
        out["mean_y"] += w * my
        out["mean_x"] += w * mx
        out["var_ybar"] += wwg * vy
        out["var_xbar"] += wwg * vx
        out["cov_xybar"] += wwg * cxy
    out["ratio"] = out["mean_y"] / out["mean_x"]
    out["N"] = total
    out["n"] = sum(s[2] for s in strata)
    return out


def strata_from_arrays(labels, ys, xs, sizes) -> list[tuple]:
    """Stratum rows from unit-level numpy arrays (divisor N - 1)."""
    rows = []
    for label, y, x in zip(labels, ys, xs):
        my, mx = float(y.mean()), float(x.mean())
        dy, dx = y - my, x - mx
        d = y.size - 1
        rows.append(
            (label, y.size, sizes[label], my, mx,
             float((dy * dy).sum()) / d, float((dx * dx).sum()) / d, float((dx * dy).sum()) / d)
        )
    return rows


def _transform(name: str, row: dict) -> tuple[float, float]:
    """Taylor coefficients (phi1, phi2) of the auxiliary transform in e1.

    Exponent family 2 - (1 + e)**w; mixing family
    ((1 + (1-a) e) / (1 + (1-b) e))**p, expanded through log and exp.
    """
    if name == "unbiased":
        return 0.0, 0.0
    if name == "ratio":
        return -1.0, 1.0
    if name == "product":
        return 1.0, 0.0
    if name in ("t1", "t3", "t5"):
        w = row["w"]
        return -w, -w * (w - 1.0) / 2.0
    p, a, b = row["p"], row["a"], row["b"]
    lin = p * (b - a)
    return lin, (lin * lin - lin * (2.0 - a - b)) / 2.0


def first_order(name: str, row: dict, m: dict) -> tuple[float, float]:
    """First-order (MSE, bias) of one estimator at the row's constants.

    Writes ybar = Y(1 + e0), xbar = X(1 + e1) and expands the estimator to
    second order in (e0, e1):

        t - Y = delta + A e0 + B e1 + C e0 e1 + D e1**2

    with E[e0] = E[e1] = 0 under SRSWOR and the second moments taken from
    the combined design moments.
    """
    phi1, phi2 = _transform(name, row)
    k1 = row["k1"] if row.get("k1") is not None else 1.0
    k2 = row["k2"] if row.get("k2") is not None else 0.0
    kappa = 1.0 if name in ("t3", "t4") else 0.0
    Y, X = m["mean_y"], m["mean_x"]
    e00 = m["var_ybar"] / (Y * Y)
    e11 = m["var_xbar"] / (X * X)
    e01 = m["cov_xybar"] / (Y * X)
    delta = (k1 - 1.0) * Y
    A = k1 * Y
    B = k1 * Y * phi1 - k2 * X
    C = k1 * Y * phi1
    D = k1 * Y * phi2 - kappa * k2 * X * phi1
    drift = C * e01 + D * e11
    bias = delta + drift
    mse = delta * delta + 2.0 * delta * drift + A * A * e00 + B * B * e11 + 2.0 * A * B * e01
    return mse, bias


def _close(got, want) -> bool:
    if got is None or not math.isfinite(got):
        return False
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def simulate(rows: list[dict], design: str) -> list[str]:
    """Checks of one ``simulate`` report on a bundled design.

    * theoretical MSE and bias equal the closed form from the published rows;
    * valid replications plus tallied errors equal the reps;
    * the empirical MSE lies in the band derived in the README.
    """
    problems = []
    m = design_moments(published_strata(design))
    cv_xbar = math.sqrt(m["var_xbar"]) / m["mean_x"]
    names = sorted(r["estimator"] for r in rows)
    if names != sorted(ESTIMATORS):
        problems.append(f"{design}: unexpected estimator rows {names}")
    for r in rows:
        name = r["estimator"]
        mse, bias = first_order(name, r, m)
        if not _close(r["theoretical_mse"], mse):
            problems.append(f"{name}: theoretical_mse {r['theoretical_mse']!r} != closed form {mse!r}")
        if not _close(r["theoretical_bias"], bias):
            problems.append(f"{name}: theoretical_bias {r['theoretical_bias']!r} != closed form {bias!r}")
        tallied = sum(int(part.split(":")[1]) for part in r["errors"].split(";") if part)
        if r["valid"] + tallied != r["reps"]:
            problems.append(f"{name}: valid {r['valid']} + errors {tallied} != reps {r['reps']}")
        half = BAND_NOISE * mse / math.sqrt(r["valid"]) + BAND_FIRST_ORDER * cv_xbar * mse
        emp = r["empirical_mse"]
        if not (math.isfinite(emp) and abs(emp - mse) <= half):
            problems.append(
                f"{name}: empirical_mse {emp!r} outside {mse!r} +- {half!r}"
            )
    return problems


def enumeration(moments, count: int, pop_strata, sample_sizes) -> list[str]:
    """Checks of one exhaustive enumeration against the population arrays.

    ``pop_strata`` is a sequence of (y, x) arrays; ``moments`` has the
    attributes mean_y, mean_x, var_ybar, var_xbar and cov_xybar.
    """
    problems = []
    want_count = math.prod(math.comb(len(y), n) for (y, _), n in zip(pop_strata, sample_sizes))
    if count != want_count:
        problems.append(f"sample count {count} != prod C(N_h, n_h) = {want_count}")
    ref = design_moments(
        strata_from_arrays(
            range(len(pop_strata)),
            [y for y, _ in pop_strata],
            [x for _, x in pop_strata],
            dict(enumerate(sample_sizes)),
        )
    )
    for key in ("mean_y", "mean_x", "var_ybar", "var_xbar", "cov_xybar"):
        got = getattr(moments, key)
        if not _close(got, ref[key]):
            problems.append(f"enumerated {key} {got!r} != {ref[key]!r}")
    return problems


def plan(outputs: dict[str, list[dict]], ref: dict) -> list[str]:
    """Checks of the ``moments``, ``table`` and ``optimize`` reports.

    ``ref`` holds the numpy moments of the generated frame
    (``design_moments`` of ``strata_from_arrays``).
    """
    problems = []
    (mom,) = outputs["moments"]
    for key in ("N", "n", "mean_y", "mean_x", "ratio", "var_ybar", "var_xbar", "cov_xybar"):
        if not _close(mom[key], ref[key]):
            problems.append(f"moments {key} {mom[key]!r} != numpy {ref[key]!r}")
    vy, vx, cxy, R = ref["var_ybar"], ref["var_xbar"], ref["cov_xybar"], ref["ratio"]
    floor = vy - cxy * cxy / vx
    want = {
        "ratio": vy + R * R * vx - 2.0 * R * cxy,
        "product": vy + R * R * vx + 2.0 * R * cxy,
        "t1": floor,
        "t2": floor,
    }
    for command in ("table", "optimize"):
        rows = {r["estimator"]: r for r in outputs[command]}
        if sorted(r["estimator"] for r in outputs[command]) != sorted(ESTIMATORS):
            problems.append(f"{command}: unexpected rows {sorted(rows)}")
            continue
        if not _close(rows["unbiased"]["pre"], 100.0):
            problems.append(f"{command}: unbiased PRE {rows['unbiased']['pre']!r} != 100")
        for name, value in want.items():
            if not _close(rows[name]["mse"], value):
                problems.append(f"{command}: {name} MSE {rows[name]['mse']!r} != {value!r}")
        for name in ("t3", "t4", "t5", "t6"):
            got = rows[name]["mse"]
            if not (math.isfinite(got) and got <= floor * (1.0 + REL_TOL)):
                problems.append(f"{command}: {name} MSE {got!r} above the T1/T2 floor {floor!r}")
    w = {r["estimator"]: r for r in outputs["optimize"]}.get("t1", {}).get("w")
    if not _close(w, cxy / (R * vx)):
        problems.append(f"optimize: t1 w {w!r} != cov/(R var_x) {cxy / (R * vx)!r}")
    return problems
