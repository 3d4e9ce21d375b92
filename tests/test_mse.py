"""First-order MSE analysis: published targets, optima, dominance, bias."""

import dataclasses

import numpy as np
import pytest

import stratmean as sm
from stratmean import EstimatorKind as K
from stratmean.errors import ComputationError, ZeroMse

# frozen via the direct-summation oracle over the published inputs
DS1_MSE_RATIO = 3.4776315694138233
DS1_MSE_PRODUCT = 47.05353911811376
DS1_W_OPT = 0.7779269867815293
DS1_SHAPE_MIN = 2.787011519425672
DS2_MSE_RATIO = 858.2853038894718
DS2_SHAPE_MIN = 702.1373972823694


def analyze(kind, m, **constants):
    return sm.analyze(sm.EstimatorSpec(kind, **constants), m)


def t1(w):
    return dict(w=w)


def t2(delta):
    """The T2 shape whose first-order coefficient is ``delta``."""
    return dict(p=1.0, a=0.0, b=delta)


class TestBaselineMse:
    def test_ds1_values(self, m1):
        assert analyze(K.UNBIASED, m1).mse == m1.var_ybar
        assert analyze(K.COMBINED_RATIO, m1).mse == pytest.approx(DS1_MSE_RATIO, rel=1e-14)
        assert analyze(K.COMBINED_PRODUCT, m1).mse == pytest.approx(DS1_MSE_PRODUCT, rel=1e-14)

    def test_ds1_published(self, m1):
        assert analyze(K.COMBINED_RATIO, m1).mse == pytest.approx(3.47243, rel=5e-3)
        assert analyze(K.COMBINED_PRODUCT, m1).mse == pytest.approx(47.0589, rel=5e-3)

    def test_ds2_published(self, m2):
        assert analyze(K.UNBIASED, m2).mse == pytest.approx(9844.9203, rel=5e-3)
        assert analyze(K.COMBINED_RATIO, m2).mse == pytest.approx(857.37974, rel=5e-3)
        assert analyze(K.COMBINED_RATIO, m2).mse == pytest.approx(DS2_MSE_RATIO, rel=1e-14)

    def test_zero_cov_makes_ratio_product_equal(self, m1):
        m = dataclasses.replace(m1, cov_xybar=0.0)
        r = analyze(K.COMBINED_RATIO, m).mse
        p = analyze(K.COMBINED_PRODUCT, m).mse
        assert r == p == m.var_ybar + m.ratio**2 * m.var_xbar


class TestShapeMse:
    def test_zero_parameter_is_unbiased(self, m1):
        assert analyze(K.T1, m1, **t1(0.0)).mse == m1.var_ybar
        assert analyze(K.T2, m1, **t2(0.0)).mse == m1.var_ybar

    def test_reductions_to_baselines(self, m1):
        assert analyze(K.T1, m1, **t1(1.0)).mse == pytest.approx(DS1_MSE_RATIO, rel=1e-14)
        assert analyze(K.T2, m1, **t2(1.0)).mse == pytest.approx(DS1_MSE_PRODUCT, rel=1e-14)
        assert analyze(K.T2, m1, **t2(-1.0)).mse == pytest.approx(DS1_MSE_RATIO, rel=1e-14)

    def test_optimal_shape_ds1(self, m1):
        res = analyze(K.T1, m1)
        w = res.constants["w"]
        assert w == pytest.approx(DS1_W_OPT, rel=1e-14)
        assert res.mse == pytest.approx(DS1_SHAPE_MIN, rel=1e-14)
        assert res.mse == pytest.approx(2.782946, rel=5e-3)  # published
        res2 = analyze(K.T2, m1)
        delta = res2.constants["b"]
        assert delta == -w
        assert res2.mse == res.mse
        assert res2.constants == {"p": 1.0, "a": 0.0, "b": delta}

    def test_optimal_shape_ds2(self, m2):
        res = analyze(K.T1, m2)
        assert res.mse == pytest.approx(DS2_SHAPE_MIN, rel=1e-14)
        assert res.mse == pytest.approx(701.546, rel=5e-3)  # published

    def test_optimal_shape_zero_cov(self, m1):
        m = dataclasses.replace(m1, cov_xybar=0.0)
        res = analyze(K.T1, m)
        assert res.constants["w"] == 0.0
        assert res.mse == m.var_ybar

    def test_optimal_shape_zero_aux_variance(self, m1):
        m = dataclasses.replace(m1, var_xbar=0.0, cov_xybar=0.0)
        res = analyze(K.T1, m)
        assert res.constants["w"] == 0.0
        assert res.mse == m.var_ybar
        assert res.shape_unidentified

    def test_optimum_dominates_scan(self, m1):
        w_grid = np.linspace(-3.0, 3.0, 2001)
        values = [analyze(K.T1, m1, **t1(w)).mse for w in w_grid]
        res = analyze(K.T1, m1)
        assert res.mse <= min(values) + 1e-12


class TestDualMse:
    def test_unit_reduction_matches_shape(self, m1, m2):
        for m in (m1, m2):
            for w in (0.3, 1.0, DS1_W_OPT):
                shape = dict(w=w)
                for kind in (K.T3, K.T5):
                    dual = analyze(kind, m, **shape, k1=1.0, k2=0.0).mse
                    assert dual == pytest.approx(analyze(K.T1, m, **shape).mse, rel=1e-12)
            shape = dict(p=1.0, a=1.0, b=0.0)
            for kind in (K.T4, K.T6):
                dual = analyze(kind, m, **shape, k1=1.0, k2=0.0).mse
                assert dual == pytest.approx(analyze(K.COMBINED_RATIO, m).mse, rel=1e-12)

    def test_t6_ratio_shape_ds1(self, m1):
        got = analyze(K.T6, m1, p=1.0, a=1.0, b=0.0, k1=1.0, k2=0.0).mse
        assert got == pytest.approx(3.4724, rel=5e-3)

    def test_optimal_dual_frozen_ds1(self, m1):
        # frozen from the normal-equation oracle on the published inputs
        k1, k2 = sm.optimal_dual(sm.EstimatorSpec(K.T3, w=DS1_W_OPT), m1)
        assert k1 == pytest.approx(1.000426221386015, rel=1e-12)
        assert k2 == pytest.approx(-0.00010435232801519796, rel=1e-9)
        res = analyze(K.T3, m1, w=DS1_W_OPT)
        assert (res.constants["k1"], res.constants["k2"]) == (k1, k2)
        assert res.mse == pytest.approx(2.7851028668317954, rel=1e-12)
        res5 = analyze(K.T5, m1, w=DS1_W_OPT)
        assert res5.mse == pytest.approx(2.7851044051479192, rel=1e-12)
        res4 = analyze(K.T4, m1, p=1.0, a=1.0, b=0.0)
        assert res4.mse == pytest.approx(2.786272851558148, rel=1e-12)
        res6 = analyze(K.T6, m1, p=1.0, a=1.0, b=0.0)
        assert res6.mse == pytest.approx(2.7837109926117662, rel=1e-12)

    def test_optimum_beats_unit_constants(self, m1, m2):
        shapes = {
            K.T3: dict(w=0.9),
            K.T5: dict(w=0.9),
            K.T4: dict(p=1.0, a=1.0, b=0.0),
            K.T6: dict(p=1.0, a=1.0, b=0.0),
        }
        for m in (m1, m2):
            for kind, shape in shapes.items():
                res = analyze(kind, m, **shape)
                at_unit = analyze(kind, m, **shape, k1=1.0, k2=0.0).mse
                assert res.mse <= at_unit * (1.0 + 1e-12)

    def test_optimum_dominates_grid(self, m1):
        """Grid oracle: no (k1, k2) on [0,2] x [-3R,3R] beats the optimum."""
        shape = dict(w=DS1_W_OPT)
        form = sm.quadratic_form(sm.EstimatorSpec(K.T5, **shape), m1)
        k1g = np.linspace(0.0, 2.0, 201)[:, None]
        k2g = np.linspace(-3 * m1.ratio, 3 * m1.ratio, 601)[None, :]
        grid = (
            form.ybar_sq * (k1g - 1.0) ** 2
            + form.a * k1g**2
            + form.b * k2g**2
            - 2 * form.c * k1g
            + 2 * form.d * k2g
            - 2 * form.e * k1g * k2g
        )
        res = analyze(K.T5, m1, **shape)
        assert res.mse <= grid.min() + 1e-9 * abs(grid.min())

    def test_t5_optimal_k2_vanishes_at_w_opt(self, m1):
        # at w = w_opt the difference direction carries no extra information
        _, k2 = sm.optimal_dual(sm.EstimatorSpec(K.T5, w=DS1_W_OPT), m1)
        assert k2 == 0.0

    def test_zero_aux_variance_limit(self, m1):
        m = dataclasses.replace(m1, var_xbar=0.0, cov_xybar=0.0)
        res = analyze(K.T5, m, w=1.0)
        k1, k2 = res.constants["k1"], res.constants["k2"]
        y2 = m.mean_y**2
        assert res.singular_system
        assert k2 == 0.0
        assert k1 == pytest.approx(y2 / (y2 + m.var_ybar), rel=1e-14)
        assert res.mse == pytest.approx(y2 * m.var_ybar / (y2 + m.var_ybar), rel=1e-12)

    def test_quadratic_value_is_consistent(self, m1):
        form = sm.quadratic_form(sm.EstimatorSpec(K.T4, p=1.0, a=1.0, b=0.0), m1)
        direct = analyze(K.T4, m1, p=1.0, a=1.0, b=0.0, k1=0.9, k2=0.1).mse
        assert form.value(0.9, 0.1) == direct
        # the docstring's a k1**2 - 2 c k1 spelling of the same surface
        spelled = (
            form.ybar_sq * (0.9 - 1.0) ** 2 + form.a * 0.81 + form.b * 0.01
            - 2 * form.c * 0.9 + 2 * form.d * 0.1 - 2 * form.e * 0.09
        )
        assert direct == pytest.approx(spelled, rel=1e-12)


class TestBias:
    def test_t1_degenerate(self, m1):
        assert sm.first_order_bias(sm.EstimatorSpec(K.T1, w=0.0), m1) == 0.0

    def test_t1_linear_case(self, m1):
        # at w = 1 the transform is linear, so the bias is -cov/mean_x exactly
        got = sm.first_order_bias(sm.EstimatorSpec(K.T1, w=1.0), m1)
        assert got == pytest.approx(-m1.cov_xybar / m1.mean_x, rel=1e-14)

    def test_product_bias(self, m1):
        got = sm.first_order_bias(sm.EstimatorSpec(K.COMBINED_PRODUCT), m1)
        assert got == pytest.approx(m1.cov_xybar / m1.mean_x, rel=1e-14)

    def test_ratio_bias(self, m1):
        got = sm.first_order_bias(sm.EstimatorSpec(K.COMBINED_RATIO), m1)
        want = (m1.ratio * m1.var_xbar - m1.cov_xybar) / m1.mean_x
        assert got == pytest.approx(want, rel=1e-12)

    def test_dual_reduces_to_shape_bias(self, m1):
        shape = dict(w=1.4)
        dual = sm.first_order_bias(sm.EstimatorSpec(K.T5, **shape, k1=1.0, k2=0.0), m1)
        plain = sm.first_order_bias(sm.EstimatorSpec(K.T1, **shape), m1)
        assert dual == plain


class TestPre:
    def test_baseline_is_100(self, m1):
        assert sm.pre(m1.var_ybar, m1) == 100.0

    def test_halved_mse_doubles(self, m1):
        assert sm.pre(m1.var_ybar / 2.0, m1) == 200.0

    def test_ds1_product_published(self, m1):
        got = sm.pre(analyze(K.COMBINED_PRODUCT, m1).mse, m1)
        assert got == pytest.approx(23.93111, rel=5e-3)

    def test_ds2_ratio_published(self, m2):
        got = sm.pre(analyze(K.COMBINED_RATIO, m2).mse, m2)
        assert got == pytest.approx(1148.2567, rel=5e-3)

    def test_zero_mse_rejected(self, m1):
        with pytest.raises(ZeroMse):
            sm.pre(0.0, m1)


class TestEfficiencyTable:
    def test_nine_rows_in_order(self, ds1):
        rows = sm.efficiency_table(ds1)
        assert [r.label for r in rows] == [
            "t1", "t2", "t3", "t4", "t5", "t6", "ratio", "product", "unbiased",
        ]
        assert rows[-1].pre == 100.0

    def test_t1_t2_rows_equal(self, ds1):
        rows = sm.efficiency_table(ds1)
        assert rows[0].mse == rows[1].mse == pytest.approx(DS1_SHAPE_MIN, rel=1e-14)
        assert rows[0].mse == pytest.approx(2.7829, rel=5e-3)

    def test_pre_order_inverse_of_mse(self, ds1, ds2):
        for design in (ds1, ds2):
            rows = sm.efficiency_table(design)
            by_mse = sorted(rows, key=lambda r: r.mse)
            by_pre = sorted(rows, key=lambda r: -r.pre)
            assert [r.label for r in by_mse] == [r.label for r in by_pre]

    def test_custom_spec_order_preserved(self, ds1):
        specs = [sm.EstimatorSpec(K.UNBIASED), sm.EstimatorSpec(K.T1, w=1.0)]
        rows = sm.efficiency_table(ds1, specs)
        assert [r.label for r in rows] == ["unbiased", "t1"]
        assert rows[1].constants == {"w": 1.0}


def test_analyze_explicit_dual_constants(m1):
    spec = sm.EstimatorSpec(K.T5, w=1.0, k1=0.9, k2=0.5)
    res = sm.analyze(spec, m1)
    form = sm.quadratic_form(sm.EstimatorSpec(K.T5, w=1.0), m1)
    assert res.mse == form.value(0.9, 0.5)
    assert res.bias == sm.first_order_bias(spec, m1)
    assert res.constants == {"w": 1.0, "k1": 0.9, "k2": 0.5}
    assert not res.singular_system


def test_resolve_spec_defaults(m1):
    resolved = sm.resolve_spec(sm.EstimatorSpec(K.T6), m1)
    assert resolved.shape() == (1.0, 1.0, 0.0)
    assert resolved.k1 is not None and resolved.k2 is not None
    resolved_t3 = sm.resolve_spec(sm.EstimatorSpec(K.T3), m1)
    assert resolved_t3.w == pytest.approx(DS1_W_OPT, rel=1e-14)


def test_resolve_spec_rejects_partial_duals(m1):
    with pytest.raises(ValueError):
        sm.resolve_spec(sm.EstimatorSpec(K.T5, w=1.0, k1=0.9), m1)


def test_optimal_dual_solved_once_per_unresolved_spec(ds1, m1, monkeypatch):
    calls = []
    solve = sm.mse.optimal_dual

    def counting(*args):
        calls.append(args[0].kind)
        return solve(*args)

    monkeypatch.setattr(sm.mse, "optimal_dual", counting)
    sm.efficiency_table(ds1)
    assert calls == [K.T3, K.T4, K.T5, K.T6]
    calls.clear()
    resolved = sm.resolve_spec(sm.EstimatorSpec(K.T6), m1)
    assert len(calls) == 1
    sm.analyze(resolved, m1)
    assert len(calls) == 1


def test_mse_and_bias_is_analyze_without_pre(m1):
    """The (MSE, bias) pair that replicate compares against is analyze's;
    a negative MSE, which has no PRE, is returned rather than raised."""
    for spec in sm.default_table_specs():
        result = sm.analyze(spec, m1)
        resolved = sm.resolve_spec(spec, m1)
        assert sm.mse.mse_and_bias(resolved, m1) == (result.mse, result.bias)
    s = sm.StratumSummary(1, N=8, n=2, mean_y=10.0, mean_x=0.5, var_y=1.0,
                          var_x=4.0, cov_xy=0.0)
    m = sm.aggregate_moments(sm.DesignSummary((s,)))
    resolved = sm.resolve_spec(sm.EstimatorSpec(K.T6), m)
    mse_value, _ = sm.mse.mse_and_bias(resolved, m)
    assert mse_value < 0.0
    with pytest.raises(ZeroMse):
        sm.analyze(resolved, m)


def _one_stratum_moments(mean_y, var_x, cov_xy):
    s = sm.StratumSummary(1, N=2, n=1, mean_y=mean_y, mean_x=1.0, var_y=1.0,
                          var_x=var_x, cov_xy=cov_xy)
    return sm.aggregate_moments(sm.DesignSummary((s,)))


@pytest.mark.parametrize(
    "call, mean_y, var_x, cov_xy, cause",
    [
        # optimal w = cov_xybar / (R var_xbar) ~ 2e154 overflows T2's curvature
        (lambda m: sm.analyze(sm.EstimatorSpec(K.T2), m), 1.0, 2.2e-309, 4.7e-155,
         "OverflowError: "),
        # the same overflow through the helper that replicate calls
        (lambda m: sm.mse.mse_and_bias(sm.EstimatorSpec(K.T2, p=1.0, a=0.0, b=-2e154), m),
         1.0, 2.2e-309, 4.7e-155, "OverflowError: "),
        # R var_xbar ~ 5e-401 underflows to zero in the optimal w
        (lambda m: sm.resolve_spec(sm.EstimatorSpec(K.T1), m), 1e-300, 1e-100, 1e-51,
         "ZeroDivisionError: "),
    ],
    ids=["analyze-overflow", "mse-and-bias-overflow", "resolve-underflow"],
)
def test_arithmetic_failure_is_computation_error(call, mean_y, var_x, cov_xy, cause):
    m = _one_stratum_moments(mean_y, var_x, cov_xy)
    with pytest.raises(ComputationError) as err:
        call(m)
    assert err.value.code == "computation" and err.value.exit_code == 4
    assert str(err.value).startswith(cause)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_indefinite_surface_is_flagged():
    # relative variances of order one make the T4 surface indefinite, so the
    # stationary point (k1, k2) = (2, -6) that optimum() returns is a saddle
    s = sm.StratumSummary(1, N=2, n=1, mean_y=1.0, mean_x=0.5, var_y=1.0,
                          var_x=1.0, cov_xy=0.0)
    m = sm.aggregate_moments(sm.DesignSummary((s,)))
    form = sm.quadratic_form(sm.EstimatorSpec(K.T4, p=1.0, a=1.0, b=0.0), m)
    assert (form.ybar_sq + form.a) * form.b - form.e * form.e < 0.0
    assert analyze(K.T4, m).singular_system
