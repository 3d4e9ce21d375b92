"""Estimator evaluation: hand-checked values, reductions, error handling."""

import numpy as np
import pytest

import stratmean as sm
from stratmean import EstimatorKind as K
from stratmean.errors import ComputationError, NonPositiveBase, ZeroDenominator

MEAN_X = 326.0


def stats(ybar=100.0, xbar=300.0):
    """Observed (ybar_st, xbar_st)."""
    return ybar, xbar


def estimate(kind, s, **constants):
    return sm.estimate(sm.EstimatorSpec(kind, **constants), *s, MEAN_X)


class TestBaselines:
    def test_no_deviation_returns_ybar(self):
        s = stats(xbar=MEAN_X)
        for kind in (K.UNBIASED, K.COMBINED_RATIO, K.COMBINED_PRODUCT):
            assert estimate(kind, s) == 100.0

    def test_ratio_hand_value(self):
        # 100 * 326 / 300
        got = estimate(K.COMBINED_RATIO, stats())
        assert got == pytest.approx(108.66666666666667, rel=1e-14)

    def test_product_hand_value(self):
        # 100 * 300 / 326
        got = estimate(K.COMBINED_PRODUCT, stats())
        assert got == pytest.approx(92.02453987730061, rel=1e-14)

    def test_ratio_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            estimate(K.COMBINED_RATIO, stats(xbar=0.0))


class TestShapeFamilies:
    def test_degenerate_parameters_return_ybar(self):
        s = stats(xbar=330.0)
        assert estimate(K.T1, s, w=0.0) == 100.0
        assert estimate(K.T2, s, p=0.0, a=1.0, b=0.0) == 100.0
        balanced = stats(xbar=MEAN_X)
        assert estimate(K.T1, balanced, w=2.5) == 100.0

    def test_t1_hand_value(self):
        # 100 * (2 - 330/326)
        got = estimate(K.T1, stats(xbar=330.0), w=1.0)
        assert got == pytest.approx(98.77300613496932, rel=1e-13)

    def test_t2_reduces_to_ratio_and_product(self):
        s = stats()
        ratio = estimate(K.COMBINED_RATIO, s)
        product = estimate(K.COMBINED_PRODUCT, s)
        t2_ratio = estimate(K.T2, s, p=1.0, a=1.0, b=0.0)
        t2_product = estimate(K.T2, s, p=1.0, a=0.0, b=1.0)
        assert t2_ratio == pytest.approx(ratio, rel=1e-13)
        assert t2_product == pytest.approx(product, rel=1e-13)

    def test_t1_non_positive_base(self):
        with pytest.raises(NonPositiveBase):
            estimate(K.T1, stats(xbar=-10.0), w=0.5)

    def test_t1_zero_base_negative_integer_power(self):
        # (0 / mean_x) ** -1 divides by zero, as T2 reports the same power
        with pytest.raises(ZeroDenominator):
            estimate(K.T1, stats(xbar=0.0), w=-1.0)
        with pytest.raises(ZeroDenominator):
            estimate(K.T2, stats(xbar=0.0), p=-1.0, a=0.0, b=1.0)

    def test_t2_zero_denominator(self):
        # denominator xbar + b (mean_x - xbar) = 0 at b = xbar / (xbar - mean_x)
        xbar = 300.0
        b = xbar / (xbar - MEAN_X)
        with pytest.raises(ZeroDenominator):
            estimate(K.T2, stats(xbar=xbar), p=1.0, a=0.0, b=b)

    def test_t2_non_positive_base(self):
        # numerator 300 - 20 * 26 < 0, denominator 300 > 0, fractional p
        with pytest.raises(NonPositiveBase):
            estimate(K.T2, stats(xbar=300.0), p=0.5, a=-20.0, b=0.0)


class TestDualEstimators:
    def test_t5_hand_value(self):
        # 0.9 * 98.7730... + 0.5 * (326 - 330)
        got = estimate(K.T5, stats(xbar=330.0), w=1.0, k1=0.9, k2=0.5)
        assert got == pytest.approx(86.8957055214724, rel=1e-13)

    def test_unit_constants_reduce_to_shape(self):
        s = stats(ybar=97.0, xbar=311.0)
        shape_w = dict(w=1.7)
        shape_pab = dict(p=2.0, a=0.3, b=1.1)
        t1 = estimate(K.T1, s, **shape_w)
        t2 = estimate(K.T2, s, **shape_pab)
        assert estimate(K.T3, s, **shape_w, k1=1.0, k2=0.0) == t1
        assert estimate(K.T5, s, **shape_w, k1=1.0, k2=0.0) == t1
        assert estimate(K.T4, s, **shape_pab, k1=1.0, k2=0.0) == t2
        assert estimate(K.T6, s, **shape_pab, k1=1.0, k2=0.0) == t2

    def test_balance_point_returns_scaled_ybar(self):
        s = stats(xbar=MEAN_X)
        shape_w = dict(w=3.2)
        shape_pab = dict(p=1.5, a=0.2, b=0.9)
        for kind, shape in ((K.T3, shape_w), (K.T5, shape_w), (K.T4, shape_pab), (K.T6, shape_pab)):
            got = estimate(kind, s, **shape, k1=0.87, k2=41.0)
            assert got == 0.87 * 100.0


def test_reduction_lattice_randomized():
    """Identities of the reduction lattice on 1000 randomized inputs."""
    rng = np.random.default_rng(11)
    count = 1000
    ybar = rng.uniform(1.0, 500.0, count)
    xbar = rng.uniform(1.0, 900.0, count)
    mean_x = 326.0
    w = rng.uniform(-2.0, 3.0)
    p, a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.5), rng.uniform(-1.0, 1.5)
    shape_w = dict(w=w)
    shape_pab = dict(p=p, a=a, b=b)

    (t1,) = sm.estimate_many([sm.EstimatorSpec(K.T1, **shape_w)], ybar, xbar, mean_x)
    (t2,) = sm.estimate_many([sm.EstimatorSpec(K.T2, **shape_pab)], ybar, xbar, mean_x)
    for kind, shape, ref in (
        (K.T3, shape_w, t1),
        (K.T5, shape_w, t1),
        (K.T4, shape_pab, t2),
        (K.T6, shape_pab, t2),
    ):
        (dual,) = sm.estimate_many(
            [sm.EstimatorSpec(kind, **shape, k1=1.0, k2=0.0)], ybar, xbar, mean_x
        )
        assert np.array_equal(dual.valid, ref.valid)
        ok = ref.valid
        assert np.array_equal(dual.values[ok], ref.values[ok])

    (ratio,) = sm.estimate_many([sm.EstimatorSpec(K.COMBINED_RATIO)], ybar, xbar, mean_x)
    (product,) = sm.estimate_many([sm.EstimatorSpec(K.COMBINED_PRODUCT)], ybar, xbar, mean_x)
    (as_ratio,) = sm.estimate_many(
        [sm.EstimatorSpec(K.T2, p=1.0, a=1.0, b=0.0)], ybar, xbar, mean_x
    )
    (as_product,) = sm.estimate_many(
        [sm.EstimatorSpec(K.T2, p=1.0, a=0.0, b=1.0)], ybar, xbar, mean_x
    )
    np.testing.assert_allclose(as_ratio.values, ratio.values, rtol=1e-13)
    np.testing.assert_allclose(as_product.values, product.values, rtol=1e-13)


def test_first_order_consistency():
    """Tiny deviations: T1 and T2 match their linearizations to O(e^2)."""
    mean_y, mean_x = 102.6, 326.0
    w = 1.7
    p, a, b = 1.3, 0.4, 1.2
    delta, _ = sm.transform_coefficients(sm.EstimatorSpec(K.T2, p=p, a=a, b=b))
    for eps in (1e-4, 1e-6):
        e0, e1 = 0.8 * eps, -eps
        s = (mean_y * (1 + e0), mean_x * (1 + e1))
        t1 = sm.estimate(sm.EstimatorSpec(K.T1, w=w), *s, mean_x)
        t2 = sm.estimate(sm.EstimatorSpec(K.T2, p=p, a=a, b=b), *s, mean_x)
        lin1 = mean_y * (1 + e0 - w * e1)
        lin2 = mean_y * (1 + e0 + delta * e1)
        bound = 50.0 * mean_y * eps * eps  # generous second-order envelope
        assert abs(t1 - lin1) <= bound
        assert abs(t2 - lin2) <= bound
        assert abs(t1 - lin1) > 0.0  # the quadratic term is resolvable


def test_estimate_many_matches_scalar():
    rng = np.random.default_rng(5)
    ybar = rng.uniform(10.0, 200.0, 50)
    xbar = rng.uniform(10.0, 600.0, 50)
    spec = sm.EstimatorSpec(K.T6, p=1.0, a=1.0, b=0.0, k1=0.95, k2=0.2)
    (batch,) = sm.estimate_many([spec], ybar, xbar, MEAN_X)
    for i in range(50):
        scalar = sm.estimate(spec, ybar[i], xbar[i], MEAN_X)
        assert scalar == batch.values[i]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_estimate_many_over_specs_equals_each_alone():
    """One call over many specs, repeated shapes and exact duplicates
    included, gives each spec's values, nan positions, ``valid`` mask and
    error tallies bit for bit as a call with that spec alone."""
    rng = np.random.default_rng(8)
    ybar = rng.uniform(50.0, 150.0, 400)
    xbar = rng.uniform(-100.0, 700.0, 400)
    xbar[:5] = [0.0, 0.0, 163.0, 163.0, -326.0]  # zero base; b = -1 denominator zero
    shape_w = dict(w=0.5)
    mix = dict(p=1.0, a=1.0, b=0.0)
    specs = [
        sm.EstimatorSpec(K.T1, **shape_w),
        sm.EstimatorSpec(K.T2, **mix),
        sm.EstimatorSpec(K.T3, **shape_w, k1=0.9, k2=0.3),
        sm.EstimatorSpec(K.T4, **mix, k1=0.95, k2=-0.1),
        sm.EstimatorSpec(K.T5, **shape_w, k1=1.1, k2=0.2),
        sm.EstimatorSpec(K.T6, **mix, k1=0.97, k2=0.05),
        sm.EstimatorSpec(K.T1, w=-1.0),  # zero base to a negative power
        sm.EstimatorSpec(K.T1, w=2.0),  # integer power of negative bases
        sm.EstimatorSpec(K.T2, p=0.5, a=0.0, b=-1.0),
        sm.EstimatorSpec(K.T6, p=0.5, a=0.0, b=-1.0, k1=1.0, k2=0.0),
        sm.EstimatorSpec(K.COMBINED_RATIO),
        sm.EstimatorSpec(K.COMBINED_PRODUCT),
        sm.EstimatorSpec(K.UNBIASED),
        sm.EstimatorSpec(K.T1, **shape_w),  # an exact duplicate
    ]
    together = sm.estimate_many(specs, ybar, xbar, MEAN_X)
    assert len(together) == len(specs)
    for spec, got in zip(specs, together):
        (alone,) = sm.estimate_many([spec], ybar, xbar, MEAN_X)
        assert np.array_equal(_bits(got.values), _bits(alone.values)), spec
        assert np.array_equal(got.valid, alone.valid), spec
        assert got.error_counts == alone.error_counts, spec
    # the invalid draws are there to compare
    assert together[0].error_counts["non-positive-base"] > 0
    assert together[6].error_counts == {"zero-denominator": 2}
    assert together[7].error_counts == {}
    assert together[8].error_counts["zero-denominator"] == 2
    assert together[10].error_counts == {"zero-denominator": 2}
    assert sm.estimate_many([], ybar, xbar, MEAN_X) == []


def test_estimate_many_forms_each_distinct_transform_once(monkeypatch):
    """paper-1's nine resolved default specs hold three distinct transforms:
    the w of t1, t3 and t5; t2's (p, a, b); and the (1, 1, 0) of t4 and t6."""
    calls = []
    power = sm.estimators._guarded_power

    def counted(*args):
        calls.append(args[2])
        return power(*args)

    monkeypatch.setattr(sm.estimators, "_guarded_power", counted)
    m = sm.aggregate_moments(sm.get_dataset("paper-1"))
    specs = [sm.resolve_spec(spec, m) for spec in sm.default_table_specs()]
    rng = np.random.default_rng(3)
    ybar = rng.normal(m.mean_y, 5.0, 64)
    xbar = rng.normal(m.mean_x, 10.0, 64)
    together = sm.estimate_many(specs, ybar, xbar, m.mean_x)
    assert len(calls) == 3
    calls.clear()
    alone = [sm.estimate_many([spec], ybar, xbar, m.mean_x)[0] for spec in specs]
    assert len(calls) == 6
    for got, ref in zip(together, alone):
        assert np.array_equal(_bits(got.values), _bits(ref.values))


def test_estimate_many_counts_errors():
    spec = sm.EstimatorSpec(K.COMBINED_RATIO)
    (batch,) = sm.estimate_many([spec], np.array([1.0, 2.0]), np.array([0.0, 300.0]), MEAN_X)
    assert batch.error_counts == {"zero-denominator": 1}
    assert batch.valid.tolist() == [False, True]
    assert np.isnan(batch.values[0])


def test_non_finite_estimate_is_an_invalid_draw():
    # an estimate that overflows is tallied like a zero denominator, and a
    # draw that is already invalid is not counted twice
    ratio = sm.EstimatorSpec(K.COMBINED_RATIO)
    ybar, xbar = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1e-320, 300.0])
    (batch,) = sm.estimate_many([ratio], ybar, xbar, MEAN_X)
    assert batch.error_counts == {"zero-denominator": 1, "non-finite": 1}
    assert batch.valid.tolist() == [False, False, True]
    assert np.isnan(batch.values[:2]).all() and batch.values[2] == 3.0 * MEAN_X / 300.0
    # w = 1e150 overflows the transform above mean_x and leaves 2 below it
    t1 = sm.EstimatorSpec(K.T1, w=1e150)
    (batch,) = sm.estimate_many([t1], np.array([100.0, 100.0]), np.array([330.0, 320.0]), MEAN_X)
    assert batch.error_counts == {"non-finite": 1}
    assert batch.valid.tolist() == [False, True] and batch.values[1] == 200.0
    with pytest.raises(ComputationError, match="t1: estimate is not finite"):
        sm.estimate(t1, 100.0, 330.0, MEAN_X)
    # a finite transform can still overflow in the k1/k2 combination
    t5 = sm.EstimatorSpec(K.T5, w=1.0, k1=1e307, k2=0.0)
    with pytest.raises(ComputationError, match="t5: estimate is not finite"):
        sm.estimate(t5, 100.0, 300.0, MEAN_X)


def test_integer_exponent_allows_negative_base():
    got = estimate(K.T1, stats(xbar=-326.0), w=3.0)
    assert got == 100.0 * (2.0 - (-1.0) ** 3)


def test_only_a_zero_auxiliary_mean_is_refused():
    ratio = sm.EstimatorSpec(K.COMBINED_RATIO)
    assert sm.estimate(ratio, 130.0, -360.0, -366.0) == 130.0 * -366.0 / -360.0
    with pytest.raises(ZeroDenominator):
        sm.estimate(sm.EstimatorSpec(K.UNBIASED), 130.0, 360.0, 0.0)
    # a fractional power still refuses the negative base xbar / mean_x
    with pytest.raises(NonPositiveBase):
        sm.estimate(sm.EstimatorSpec(K.T1, w=0.5), 130.0, 360.0, -366.0)


def _mixing(p, a, b):
    """(delta, curvature): T2's transform coefficients at (p, a, b)."""
    return sm.transform_coefficients(sm.EstimatorSpec(K.T2, p=p, a=a, b=b))


def test_shape_params_derived():
    delta, _ = _mixing(2.0, 0.5, 1.5)
    assert delta == 2.0
    # numerator slope p (1 - a) less denominator slope p (1 - b)
    assert delta == 2.0 * (1.0 - 0.5) - 2.0 * (1.0 - 1.5)
    assert _mixing(2.0, 0.7, 0.7)[0] == 0.0
    # curvature at (1, 1, 0) is 1: the transform is the ratio correction
    assert _mixing(1.0, 1.0, 0.0)[1] == 1.0
    assert _mixing(1.0, 0.0, 1.0)[1] == 0.0


def test_transform_coefficients_baselines():
    # each baseline is its family at its fixed shape, signed zeros included
    for kind, want in (
        (K.UNBIASED, "(0.0, 0.0)"),
        (K.COMBINED_RATIO, "(-1.0, 1.0)"),
        (K.COMBINED_PRODUCT, "(1.0, 0.0)"),
    ):
        assert repr(sm.transform_coefficients(sm.EstimatorSpec(kind))) == want
        member = K.T1 if kind.family == "exponent" else K.T2
        shape = dict(zip(member.shape_names, kind.fixed_shape))
        assert repr(sm.transform_coefficients(sm.EstimatorSpec(member, **shape))) == want
    phi1, phi2 = sm.transform_coefficients(sm.EstimatorSpec(K.T1, w=2.0))
    assert (phi1, phi2) == (-2.0, -1.0)


def test_declaration_derives_every_kind_set():
    def named(keep):
        return {kind.value for kind in K if keep(kind)}

    assert named(lambda k: k.is_dual) == {"t3", "t4", "t5", "t6"}
    assert named(lambda k: k.placement == "whole") == {"t3", "t4"}
    assert named(lambda k: k.placement == "study") == {"t5", "t6"}
    assert named(lambda k: k.family == "exponent") == {"t1", "t3", "t5", "unbiased"}
    assert named(lambda k: k.fixed_shape is not None) == {"ratio", "product", "unbiased"}
    for kind in K:
        assert K(kind.value) is kind
        if kind.fixed_shape is not None:
            assert kind.shape_names == ()
        else:
            assert kind.shape_names == (("w",) if kind.family == "exponent" else ("p", "a", "b"))


def test_missing_constants_raise():
    with pytest.raises(ValueError):
        sm.estimate(sm.EstimatorSpec(K.T3, w=1.0), *stats(), MEAN_X)
    with pytest.raises(ValueError):
        estimate(K.T1, stats())


def test_constants_are_keyword_only():
    # a positional shape fails at construction, not later in analyze
    with pytest.raises(TypeError):
        sm.EstimatorSpec(K.T1, 1.0)
    assert sm.EstimatorSpec(K.T2, p=1.0, a=1.0, b=0.0).shape() == (1.0, 1.0, 0.0)
    assert sm.EstimatorSpec(K.UNBIASED).shape() == ()
    with pytest.raises(ValueError, match=r"t4 requires shape constants \(p, a, b\)"):
        sm.EstimatorSpec(K.T4, p=1.0, a=1.0).shape()


def test_kinds_declared_in_table_order():
    assert [s.kind for s in sm.default_table_specs()] == list(K)
    assert [k.value for k in K] == [
        "t1", "t2", "t3", "t4", "t5", "t6", "ratio", "product", "unbiased",
    ]


@pytest.mark.parametrize("kind", list(K))
def test_constants_keyed_by_constant_names(kind):
    # every constant is given; each kind keeps the ones it takes, in order
    every = sm.EstimatorSpec(kind, w=2.0, p=1.0, a=0.5, b=0.25, k1=0.9, k2=0.1)
    assert tuple(every.constants()) == kind.constant_names
    assert sm.EstimatorSpec(kind).constants() == {}
