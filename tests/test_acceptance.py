"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (each criterion is one test)
or ``pytest -s`` to see the printed detail lines.  Published comparison
values come from the sources the bundled datasets cite; derived expectations
come from the direct-summation oracle in conftest.  Tolerances are fixed
here and nowhere else.
"""

import math

import numpy as np
import pytest

import stratmean as sm
from stratmean import EstimatorKind as K
from stratmean.cli import main

REL_TOL = 5e-3  # published values: inputs are rounded to the printed digits
SEED = 20260810

#: published nine-row table values for the dual-constant rows (non-gating)
PUBLISHED_DUALS = {
    "paper-1": {"t3": 2.77094, "t4": 3.051538, "t5": 2.77668, "t6": 2.77092},
    "paper-2": {"t3": 629.0631, "t4": 874.5025, "t5": 601.846, "t6": 524.6948},
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _analyze(kind, m, **constants):
    return sm.analyze(sm.EstimatorSpec(kind, **constants), m)


def test_c01_baseline_reproduction_dataset1(m1):
    v = m1.var_ybar
    ratio = _analyze(K.COMBINED_RATIO, m1).mse
    product = _analyze(K.COMBINED_PRODUCT, m1).mse
    ok = (
        _rel(v, 11.26173) < REL_TOL
        and _rel(ratio, 3.47243) < REL_TOL
        and _rel(product, 47.0589) < REL_TOL
    )
    _report(
        1, ok,
        f"dataset-1 v(ybar)={v:.5f} (want 11.26173), ratio={ratio:.5f} "
        f"(want 3.47243), product={product:.4f} (want 47.0589), tol 0.5%",
    )


def test_c02_baseline_reproduction_dataset2(m2):
    v = m2.var_ybar
    ratio = _analyze(K.COMBINED_RATIO, m2).mse
    ok = (
        _rel(v, 9844.9203) < REL_TOL
        and _rel(ratio, 857.37974) < REL_TOL
        and _rel(m2.ratio, 49.03) < 1e-9
    )
    _report(
        2, ok,
        f"dataset-2 v(ybar)={v:.4f} (want 9844.9203), ratio MSE={ratio:.4f} "
        f"(want 857.37974) at R=49.03, tol 0.5%",
    )


def test_c03_one_parameter_optima(m1, m2):
    got1 = _analyze(K.T1, m1).mse
    got1b = _analyze(K.T2, m1).mse
    got2 = _analyze(K.T1, m2).mse
    closed1 = m1.var_ybar - m1.cov_xybar**2 / m1.var_xbar
    ok = (
        _rel(got1, 2.782946) < REL_TOL
        and _rel(got2, 701.546) < REL_TOL
        and got1 == got1b
        and got1 == pytest.approx(closed1, rel=1e-14)
    )
    _report(
        3, ok,
        f"optimal t1/t2 MSE: dataset-1 {got1:.6f} (want 2.782946), "
        f"dataset-2 {got2:.3f} (want 701.546), tol 0.5%",
    )


def test_c04_pre_reproduction(m1):
    pre_product = _analyze(K.COMBINED_PRODUCT, m1).pre
    pre_unbiased = sm.pre(m1.var_ybar, m1)
    ok = _rel(pre_product, 23.93111) < REL_TOL and pre_unbiased == 100.0
    _report(
        4, ok,
        f"dataset-1 product PRE={pre_product:.5f} (want 23.93111, tol 0.5%); "
        f"unbiased PRE={pre_unbiased} (must be exactly 100.0)",
    )


def test_c05_dual_constant_dominance(m1, m2):
    """Optimal (k1, k2) beats (1, 0), a 201x201 grid, and the shape optima."""
    failures = []
    for tag, m in (("dataset-1", m1), ("dataset-2", m2)):
        w_opt = m.cov_xybar / (m.ratio * m.var_xbar)
        shapes = {
            K.T3: dict(w=w_opt),
            K.T5: dict(w=w_opt),
            K.T4: dict(p=1.0, a=1.0, b=0.0),
            K.T6: dict(p=1.0, a=1.0, b=0.0),
        }
        shape_min = m.var_ybar - m.cov_xybar**2 / m.var_xbar
        k1g = np.linspace(0.0, 2.0, 201)[:, None]
        k2g = np.linspace(-3.0 * m.ratio, 3.0 * m.ratio, 201)[None, :]
        for kind, shape in shapes.items():
            form = sm.quadratic_form(sm.EstimatorSpec(kind, **shape), m)
            res = _analyze(kind, m, **shape)
            at_unit = form.value(1.0, 0.0)
            grid = (
                form.ybar_sq * (k1g - 1.0) ** 2 + form.a * k1g**2 + form.b * k2g**2
                - 2.0 * form.c * k1g + 2.0 * form.d * k2g - 2.0 * form.e * k1g * k2g
            )
            slack = 1e-9 * abs(at_unit)
            if res.mse > at_unit + slack:
                failures.append(f"{tag} {kind.value}: optimum above (1,0)")
            if res.mse > grid.min() + slack:
                failures.append(f"{tag} {kind.value}: optimum above grid minimum")
            if kind in (K.T5, K.T6) and res.mse > shape_min + slack:
                failures.append(f"{tag} {kind.value}: optimum above shape optimum")
    _report(
        5, not failures,
        "optimal duals dominate (1,0), the 201x201 grid on [0,2]x[-3R,3R], "
        "and the one-parameter optima on both datasets"
        + ("" if not failures else "; " + "; ".join(failures)),
    )


def test_c06_reconciliation_report_nongating(ds1, ds2):
    """Published t3..t6 rows vs the defaults; divergence is recorded, not failed."""
    lines = []
    for design in (ds1, ds2):
        rows = {r.label: r.mse for r in sm.efficiency_table(design)}
        for label, published in PUBLISHED_DUALS[design.label].items():
            got = rows[label]
            rel = _rel(got, published)
            status = "match" if rel < REL_TOL else "diverges"
            lines.append(
                f"{design.label} {label}: computed {got:.6g} vs published "
                f"{published:.6g} ({status}, rel {rel:.2%})"
            )
    _report(6, True, "reconciliation (non-gating): " + " | ".join(lines))


def test_c07_exact_finite_population_identity(ds1):
    pop = sm.synthesize_population(ds1, seed=SEED)
    exact = sm.enumerate_exact_moments(pop, ds1.sample_sizes)
    formula = sm.aggregate_moments(sm.design_from_microdata(pop, ds1.sample_sizes)).var_ybar
    rel = _rel(exact.var_ybar, formula)
    count = sm.enumeration_count(pop, ds1.sample_sizes)
    _report(
        7, rel < 1e-9,
        f"enumerating all {count} stratified samples: var(ybar_st)="
        f"{exact.var_ybar:.12f} vs weighted-sum formula {formula:.12f} "
        f"(rel {rel:.2e}, tol 1e-9)",
    )


def test_c08_formula_vs_simulation(ds1):
    pop = sm.synthesize_population(ds1, seed=SEED)
    specs = [
        sm.EstimatorSpec(K.UNBIASED),
        sm.EstimatorSpec(K.COMBINED_RATIO),
        sm.EstimatorSpec(K.COMBINED_PRODUCT),
        sm.EstimatorSpec(K.T1, w=1.0),
        sm.EstimatorSpec(K.T2, p=1.0, a=1.0, b=0.0),
        sm.EstimatorSpec(K.T3),
        sm.EstimatorSpec(K.T4),
        sm.EstimatorSpec(K.T5),
        sm.EstimatorSpec(K.T6),
    ]
    reps = 200_000
    report = sm.replicate(pop, ds1.sample_sizes, specs, reps=reps, seed=SEED)
    failures = []
    for row in report.rows:
        band = max(3.0 * row.se_mse, 0.05 * abs(row.theoretical_mse))
        if abs(row.empirical_mse - row.theoretical_mse) > band:
            failures.append(
                f"{row.label}: empirical MSE {row.empirical_mse:.5f} vs "
                f"theory {row.theoretical_mse:.5f} outside {band:.5f}"
            )
    t1_row = next(r for r in report.rows if r.label == "t1")
    m = sm.aggregate_moments(sm.design_from_microdata(pop, ds1.sample_sizes))
    bias_band = max(3.0 * t1_row.se_bias, 0.10 * math.sqrt(m.var_ybar / reps))
    if abs(t1_row.empirical_bias - t1_row.theoretical_bias) > bias_band:
        failures.append(
            f"t1 bias {t1_row.empirical_bias:.5f} vs theory "
            f"{t1_row.theoretical_bias:.5f} outside {bias_band:.5f}"
        )
    _report(
        8, not failures,
        f"{reps} seeded replications: every empirical MSE within "
        "max(3 MC SE, 5%) of the first-order value; t1(w=1) bias within policy"
        + ("" if not failures else "; " + "; ".join(failures)),
    )


def test_c09_reduction_lattice_randomized():
    rng = np.random.default_rng(SEED)
    count = 1000
    ybar = rng.uniform(1.0, 500.0, count)
    xbar = rng.uniform(1.0, 900.0, count)
    mean_x = 326.0
    shape_w = dict(w=rng.uniform(-2.0, 3.0))
    shape_pab = dict(
        p=rng.uniform(0.5, 2.0), a=rng.uniform(-1.0, 1.5), b=rng.uniform(-1.0, 1.5)
    )
    (t1,) = sm.estimate_many([sm.EstimatorSpec(K.T1, **shape_w)], ybar, xbar, mean_x)
    (t2,) = sm.estimate_many([sm.EstimatorSpec(K.T2, **shape_pab)], ybar, xbar, mean_x)
    failures = []
    for kind, shape, ref in (
        (K.T3, shape_w, t1), (K.T5, shape_w, t1),
        (K.T4, shape_pab, t2), (K.T6, shape_pab, t2),
    ):
        (got,) = sm.estimate_many(
            [sm.EstimatorSpec(kind, **shape, k1=1.0, k2=0.0)], ybar, xbar, mean_x
        )
        if not np.array_equal(got.values[ref.valid], ref.values[ref.valid]):
            failures.append(f"{kind.value}(1,0) != embedded shape estimator")
    (ratio,) = sm.estimate_many([sm.EstimatorSpec(K.COMBINED_RATIO)], ybar, xbar, mean_x)
    (product,) = sm.estimate_many([sm.EstimatorSpec(K.COMBINED_PRODUCT)], ybar, xbar, mean_x)
    (as_ratio,) = sm.estimate_many(
        [sm.EstimatorSpec(K.T2, p=1.0, a=1.0, b=0.0)], ybar, xbar, mean_x
    )
    (as_product,) = sm.estimate_many(
        [sm.EstimatorSpec(K.T2, p=1.0, a=0.0, b=1.0)], ybar, xbar, mean_x
    )
    if not np.allclose(as_ratio.values, ratio.values, rtol=1e-13):
        failures.append("t2(1,1,0) != combined ratio")
    if not np.allclose(as_product.values, product.values, rtol=1e-13):
        failures.append("t2(1,0,1) != combined product")
    (balanced,) = sm.estimate_many(
        [sm.EstimatorSpec(K.T6, **shape_pab, k1=0.77, k2=5.0)],
        ybar, np.full(count, mean_x), mean_x,
    )
    if not np.array_equal(balanced.values, 0.77 * ybar):
        failures.append("balance point does not return k1 * ybar_st")
    _report(
        9, not failures,
        f"reduction lattice holds on {count} randomized inputs to floating precision"
        + ("" if not failures else "; " + "; ".join(failures)),
    )


def test_c10_simulation_determinism(capsys, ds1):
    argv = [
        "simulate", "--data", "paper-1", "--reps", "5000", "--seed", "7",
        "--estimators", "unbiased,ratio,t5", "--output-format", "csv",
    ]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    pop = sm.synthesize_population(ds1, seed=7)
    rep1 = sm.replicate(pop, ds1.sample_sizes, [sm.EstimatorSpec(K.T5)], 5000, seed=7)
    rep2 = sm.replicate(pop, ds1.sample_sizes, [sm.EstimatorSpec(K.T5)], 5000, seed=7)
    ok = code1 == code2 == 0 and out1 == out2 and rep1 == rep2
    _report(
        10, ok,
        "simulate output byte-identical across runs; replication reports "
        "identical across same-seed calls",
    )
