"""Design model: validation, stratum summaries, and combined moments."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stratmean as sm
from stratmean.errors import (
    CorrelationOutOfRange,
    DegenerateStratum,
    NonPositiveCount,
    SampleExceedsStratum,
    ValidationError,
    ZeroAuxiliaryMean,
    ZeroMse,
)
from conftest import direct_moments, RAW_DS1, DS1_KNOWN_MEAN_X


def test_validate_populates_weights(ds1):
    # N = 25, so the squared weights are (6/25)^2 etc.
    assert ds1.weights == (0.24, 0.48, 0.28)
    assert [round(w**2, 4) for w in ds1.weights] == [0.0576, 0.2304, 0.0784]


def test_gamma_values(ds1):
    gammas = [s.gamma for s in ds1.strata]
    assert gammas[0] == pytest.approx(1 / 6, rel=1e-12)
    assert gammas[1] == pytest.approx(1 / 6, rel=1e-12)
    assert gammas[2] == pytest.approx(4 / 21, rel=1e-12)


def test_census_stratum_has_zero_gamma():
    s = sm.StratumSummary(1, N=5, n=5, mean_y=1.0, mean_x=2.0, var_y=1.0, var_x=1.0, cov_xy=0.0)
    d = sm.DesignSummary((s,))
    assert d.strata[0].gamma == 0.0
    assert d.weights == (1.0,)


def test_sample_exceeds_stratum():
    with pytest.raises(SampleExceedsStratum):
        sm.StratumSummary(1, N=4, n=5, mean_y=1.0, mean_x=2.0, var_y=1.0, var_x=1.0, cov_xy=0.0)


def test_non_positive_count():
    with pytest.raises(NonPositiveCount):
        sm.StratumSummary(1, N=0, n=0, mean_y=1.0, mean_x=2.0, var_y=1.0, var_x=1.0, cov_xy=0.0)
    with pytest.raises(NonPositiveCount):
        sm.DesignSummary(())


def test_correlation_out_of_range():
    with pytest.raises(CorrelationOutOfRange):
        sm.StratumSummary.from_correlation(
            1, N=6, n=3, mean_y=1.0, mean_x=2.0, var_y=1.0, var_x=1.0, rho=1.2
        )
    # the same bound on a covariance given directly, and on one too large
    # to square in floating point
    for cov in (1.5, 1e200):
        with pytest.raises(CorrelationOutOfRange):
            sm.StratumSummary(1, N=6, n=3, mean_y=1.0, mean_x=1.0, var_y=1.0, var_x=1.0, cov_xy=cov)


@pytest.mark.parametrize("index, message", [
    (1.5, "stratum index 1.5 is not an integer"),
    (True, "stratum index True is not an integer"),
    (0, r"stratum indexes must be positive: \[0\]"),
])
def test_stratum_index_is_a_positive_count(index, message):
    with pytest.raises(ValidationError, match=message):
        sm.StratumSummary(index, 6, 3, 1.0, 2.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda: sm.StratumSummary(1, 6, 3, math.nan, 2.0, 1.0, 1.0, 0.0),
    lambda: sm.StratumSummary(1, 6, 3, 1.0, 2.0, math.inf, 1.0, 0.0),
    lambda: sm.StratumSummary.from_correlation(1, 6, 3, 1.0, 2.0, 1.0, 1.0, math.nan),
    lambda: sm.DesignSummary((sm.StratumSummary(1, 6, 3, 1.0, 2.0, 1.0, 1.0, 0.0),),
                             known_mean_x=math.inf),
], ids=["mean_y-nan", "var_y-inf", "rho-nan", "known_mean_x-inf"])
def test_non_finite_moments_rejected(build):
    with pytest.raises(ValidationError, match="not finite|non-finite"):
        build()


@pytest.mark.parametrize("make", [sm.StratumSummary, sm.StratumSummary.from_correlation])
def test_negative_variance_named(make):
    """from_correlation reports the variance, not the square root's domain error."""
    with pytest.raises(ValidationError, match="^stratum 1: negative variance$"):
        make(1, 6, 3, 1.0, 2.0, -1.0, 1.0, 0.5)


def test_strata_reordered_ascending():
    s1 = sm.StratumSummary(2, 6, 3, 1.0, 2.0, 1.0, 1.0, 0.0)
    s2 = sm.StratumSummary(1, 6, 3, 1.0, 2.0, 1.0, 1.0, 0.0)
    d = sm.DesignSummary((s1, s2))
    assert [s.index for s in d.strata] == [1, 2]
    assert sm.validate_design(d) is d


def test_duplicate_stratum_indexes_rejected():
    s1 = sm.StratumSummary(1, 6, 3, 1.0, 2.0, 1.0, 1.0, 0.0)
    s2 = sm.StratumSummary(1, 6, 3, 1.0, 2.0, 1.0, 1.0, 0.0)
    with pytest.raises(sm.errors.ValidationError, match=r"duplicate stratum indexes: \[1, 1\]"):
        sm.DesignSummary((s1, s2))


#: Every kind of number a caller could pass for one field.
ANY_NUMBER = st.one_of(st.integers(-2, 12), st.integers(), st.floats(), st.booleans())


@settings(max_examples=500, deadline=None)
@given(st.booleans(), st.tuples(*[ANY_NUMBER] * 8))
def test_stratum_checks_itself(with_rho, fields):
    """A stratum is rejected with a ValidationError, or it is valid."""
    build = sm.StratumSummary.from_correlation if with_rho else sm.StratumSummary
    try:
        s = build(*fields)
    except ValidationError:
        return
    assert all(type(v) is int for v in (s.index, s.N, s.n))
    assert 1 <= s.n <= s.N and s.index >= 1
    assert all(math.isfinite(v) for v in (s.mean_y, s.mean_x, s.var_y, s.var_x, s.cov_xy))
    assert s.var_y >= 0 and s.var_x >= 0
    tol = sm.design.CORRELATION_TOL
    assert abs(s.cov_xy) <= s.sd_x * s.sd_y * (1.0 + tol) + tol


def test_summarize_constant_data():
    stratum = sm.MicrodataStratum(1, np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0]))
    s = sm.summarize_stratum(stratum, 2)
    assert (s.var_y, s.var_x, s.cov_xy) == (0.0, 0.0, 0.0)
    assert s.rho == 0.0


def test_summarize_hand_example():
    # y = (0, 2), x = (0, 4): deviations (-1, 1) and (-2, 2) give, with
    # divisor N-1 = 1, var_y = 2, var_x = 8, cov = 4, rho = 1.
    stratum = sm.MicrodataStratum(1, np.array([0.0, 2.0]), np.array([0.0, 4.0]))
    s = sm.summarize_stratum(stratum, 1)
    assert s.mean_y == 1.0 and s.mean_x == 2.0
    assert s.var_y == 2.0 and s.var_x == 8.0 and s.cov_xy == 4.0
    assert s.rho == pytest.approx(1.0, abs=1e-15)


def test_summarize_degenerate_stratum():
    stratum = sm.MicrodataStratum(1, np.array([1.0]), np.array([2.0]))
    with pytest.raises(DegenerateStratum):
        sm.summarize_stratum(stratum, 1)


def test_aggregate_matches_direct_oracle(m1, oracle1, m2, oracle2):
    for got, want in ((m1, oracle1), (m2, oracle2)):
        for name, value in want.items():
            assert getattr(got, name) == pytest.approx(value, rel=1e-14), name


def test_aggregate_ds1_frozen_values(m1):
    # frozen from the direct-summation oracle over the published rows
    assert m1.mean_y == pytest.approx(102.5996, rel=1e-12)
    assert m1.mean_x == 326.0
    assert m1.ratio == pytest.approx(0.31472269938650305, rel=1e-14)
    assert m1.var_ybar == pytest.approx(11.261730133333334, rel=1e-14)
    assert m1.var_xbar == pytest.approx(141.3811392, rel=1e-14)
    assert m1.cov_xybar == pytest.approx(34.61452544862792, rel=1e-14)


def test_aggregate_ds1_against_published(m1):
    # the published table rounds to 11.26173
    assert m1.var_ybar == pytest.approx(11.26173, rel=5e-3)
    assert m1.ratio == pytest.approx(0.314723, abs=5e-7)


def test_aggregate_ds2_frozen_values(m2):
    assert m2.ratio == pytest.approx(49.03, rel=1e-12)
    assert m2.var_ybar == pytest.approx(9848.340971836957, rel=1e-14)
    assert m2.var_xbar == pytest.approx(4.863873692725803, rel=1e-14)
    assert m2.cov_xybar == pytest.approx(210.91699541428792, rel=1e-14)
    # published value, reproduced within 0.5% (inputs are rounded)
    assert m2.var_ybar == pytest.approx(9844.9203, rel=5e-3)


def test_known_mean_x_override(ds1):
    bare = dataclasses.replace(ds1, known_mean_x=None)
    m = sm.aggregate_moments(bare)
    assert m.mean_x == pytest.approx(326.02372, abs=1e-5)
    assert m.mean_x != 326.0


def test_zero_auxiliary_mean():
    s = sm.StratumSummary(1, 6, 3, 1.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ZeroAuxiliaryMean):
        sm.aggregate_moments(sm.DesignSummary((s,)))


def test_moments_linear_in_var_y(ds1):
    doubled = dataclasses.replace(
        ds1,
        strata=tuple(dataclasses.replace(s, var_y=2.0 * s.var_y) for s in ds1.strata),
    )
    assert sm.aggregate_moments(doubled).var_ybar == 2.0 * sm.aggregate_moments(ds1).var_ybar


@st.composite
def small_designs(draw):
    n_strata = draw(st.integers(1, 4))
    strata = []
    for idx in range(1, n_strata + 1):
        N = draw(st.integers(2, 40))
        n = draw(st.integers(1, N))
        strata.append(
            sm.StratumSummary.from_correlation(
                idx,
                N=N,
                n=n,
                mean_y=draw(st.floats(0.5, 1e3)),
                mean_x=draw(st.floats(0.5, 1e3)),
                var_y=draw(st.floats(0.0, 1e4)),
                var_x=draw(st.floats(0.0, 1e4)),
                rho=draw(st.floats(-1.0, 1.0)),
            )
        )
    return sm.DesignSummary(tuple(strata))


@settings(max_examples=200, deadline=None)
@given(small_designs())
def test_cov_bounded_by_variances(design):
    m = sm.aggregate_moments(design)
    assert m.var_ybar >= 0.0 and m.var_xbar >= 0.0
    bound = math.sqrt(m.var_ybar * m.var_xbar)
    assert abs(m.cov_xybar) <= bound * (1.0 + 1e-12) + 1e-15


def test_microdata_roundtrip_bit_for_bit():
    """Summaries recomputed in the test equal the library's bit for bit."""
    rng = np.random.default_rng(3)
    strata = []
    expected = []
    for idx, (N, n) in enumerate(((6, 3), (12, 4), (7, 3)), start=1):
        y = rng.normal(100.0, 10.0, N)
        x = rng.normal(300.0, 50.0, N)
        strata.append(sm.MicrodataStratum(idx, y, x))
        mean_y = float(y.mean())
        mean_x = float(x.mean())
        dy, dx = y - mean_y, x - mean_x
        # centred sums of products by numpy's pairwise add, never BLAS
        expected.append(
            sm.StratumSummary(
                idx, N, n, mean_y, mean_x,
                float(np.add.reduce(dy * dy)) / (N - 1),
                float(np.add.reduce(dx * dx)) / (N - 1),
                float(np.add.reduce(dx * dy)) / (N - 1),
            )
        )
    data = sm.Microdata(tuple(strata))
    via_micro = sm.design_from_microdata(data, (3, 4, 3))
    via_summaries = sm.DesignSummary(tuple(expected))
    a = sm.aggregate_moments(via_micro)
    b = sm.aggregate_moments(via_summaries)
    assert a == b  # identical floats, not just close


@pytest.mark.parametrize(
    "sizes, error, message",
    [({1: 2, 2: 1, 9: 1}, DegenerateStratum, "stratum 9: sample size given, but no units"),
     ({1: 2, 7: 1, 2: 1, 9: 1}, DegenerateStratum, "stratum 7, 9: sample size given"),
     ((2, 1, 1), ValidationError, "expected 2 sample sizes, got 3"),
     ((2,), ValidationError, "expected 2 sample sizes, got 1")],
)
def test_design_from_microdata_sizes_match_strata(sizes, error, message):
    data = sm.Microdata((
        sm.MicrodataStratum(1, np.array([1.0, 2.0, 4.0]), np.array([2.0, 3.0, 3.5])),
        sm.MicrodataStratum(2, np.array([5.0, 7.0]), np.array([1.0, 3.0])),
    ))
    with pytest.raises(error, match=message):
        sm.design_from_microdata(data, sizes)


@pytest.mark.parametrize("sizes", [(2.7,), (True,), {1: 2.5}])
def test_design_from_microdata_sizes_are_counts(sizes):
    data = sm.Microdata((
        sm.MicrodataStratum(1, np.array([1.0, 2.0, 4.0]), np.array([2.0, 3.0, 3.5])),
    ))
    with pytest.raises(ValidationError, match="stratum 1: sample size .* is not an integer"):
        sm.design_from_microdata(data, sizes)


FIVE_UNITS = sm.Microdata((
    sm.MicrodataStratum(1, np.array([1.0, 2.0, 4.0, 7.0, 5.0]), np.array([2.0, 3.0, 3.5, 6.0, 4.0])),
))


def _rejection(call):
    """The class of the ValidationError that ``call`` raises, or None."""
    try:
        call()
    except ValidationError as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-2, 7), st.integers(-2, 7).map(float), st.floats(), st.booleans()))
def test_one_rule_for_sample_sizes(v):
    """Every entry point accepts the same sample sizes, or rejects them alike."""
    outcomes = {
        _rejection(lambda: sm.StratumSummary(
            1, N=5, n=v, mean_y=1.0, mean_x=2.0, var_y=1.0, var_x=1.0, cov_xy=0.0)),
        _rejection(lambda: sm.design_from_microdata(FIVE_UNITS, {1: v})),
        _rejection(lambda: sm.design_from_microdata(FIVE_UNITS, (v,))),
        _rejection(lambda: sm.enumeration_count(FIVE_UNITS, (v,))),
    }
    assert len(outcomes) == 1, (v, outcomes)


def test_many_strata_pass_without_weight_sum_check():
    """40,000 two-unit strata: the weights are N_h/N, so no rounded sum of
    them can fail; the moments match the direct oracle."""
    rows = tuple(
        (h, 2, 1, 300.0 + h % 7, 100.0 + h % 5, 2.0 + h % 3, 1.0 + h % 4, 0.5)
        for h in range(1, 40_001)
    )
    design = sm.DesignSummary(tuple(
        sm.StratumSummary.from_correlation(
            idx, N=N, n=n, mean_y=my, mean_x=mx, var_y=vy, var_x=vx, rho=rho
        )
        for idx, N, n, mx, my, vx, vy, rho in rows
    ))
    m = sm.aggregate_moments(design)
    for name, value in direct_moments(rows).items():
        assert getattr(m, name) == pytest.approx(value, rel=1e-14), name


def test_relative_sd_helpers(ds1):
    s = ds1.strata[0]
    assert s.sd_x == math.sqrt(s.var_x) == pytest.approx(math.sqrt(2706.666), rel=1e-14)
    assert s.sd_y == math.sqrt(s.var_y) == pytest.approx(math.sqrt(80.0), rel=1e-14)


def test_direct_oracle_crosscheck():
    """The conftest oracle itself: one stratum checked by long-hand arithmetic."""
    rows = (RAW_DS1[0],)
    got = direct_moments(rows, known_mean_x=DS1_KNOWN_MEAN_X)
    # single stratum of weight 1: var_ybar = 1 * (1/3 - 1/6) * 80
    assert got["var_ybar"] == pytest.approx(80.0 / 6.0, rel=1e-14)
    assert got["mean_y"] == 135.0



def _analyzed(spec, m):
    """(mse, bias) of ``analyze``, or None where the MSE is not positive."""
    res = sm.analyze(spec, m)
    try:
        res.pre
    except ZeroMse:
        return None
    return res.mse, res.bias


@settings(max_examples=300, deadline=None)
@given(small_designs())
# a subnormal var_x: both optima are 0 up to one subnormal ulp
@example(sm.DesignSummary((
    sm.StratumSummary(1, 2, 1, 0.5, 42.5, 0.0, 1.1125369292536007e-308, 0.0),
)))
def test_one_quadratic_form_reductions_and_dominance(design):
    """Every estimator is a point on one MSE surface (module ``mse``).

    T1 at w = 0 is the plain mean exactly; T2 at (p, a, b) = (1, 1, 0) is the
    combined ratio and at (1, 0, 1) the combined product; and no non-singular
    T3..T6 optimum is worse than the T1/T2 optimum.  The dominance holds where
    the surface is positive definite, so that its stationary point is a
    minimum; far outside the first-order regime (relative variances of order
    one) the truncated surface can be indefinite.
    """
    K = sm.EstimatorKind
    m = sm.aggregate_moments(design)
    # An optimal w = cov_xybar / (R var_xbar) beyond ~1e154 overflows w**2 in
    # the transform's curvature, a ComputationError (or R var_xbar underflows
    # to 0): a known limitation of the optimum, separate from the reductions
    # checked here.
    assume(m.var_xbar == 0.0 or abs(m.cov_xybar) < 1e150 * abs(m.ratio * m.var_xbar))
    t1_at_zero = _analyzed(sm.EstimatorSpec(K.T1, w=0.0), m)
    assert t1_at_zero == _analyzed(sm.EstimatorSpec(K.UNBIASED), m)
    if m.var_ybar > 0.0:
        assert t1_at_zero[0] == m.var_ybar
    for kind, (a, b) in ((K.COMBINED_RATIO, (1.0, 0.0)), (K.COMBINED_PRODUCT, (0.0, 1.0))):
        t2 = _analyzed(sm.EstimatorSpec(K.T2, p=1.0, a=a, b=b), m)
        baseline = _analyzed(sm.EstimatorSpec(kind), m)
        assert t2 == baseline  # one formula: the family at the fixed point
    t1 = sm.resolve_spec(sm.EstimatorSpec(K.T1), m)
    shape_min = sm.quadratic_form(t1, m).value(1.0, 0.0)
    # a perfect fit leaves both optima at zero plus rounding of this scale;
    # the absolute term keeps it above zero when the moments are subnormal
    noise = 1e-12 * (m.var_ybar + m.ratio**2 * m.var_xbar) + 4 * math.ulp(0.0)
    t2 = sm.resolve_spec(sm.EstimatorSpec(K.T2), m)
    assert sm.quadratic_form(t2, m).value(1.0, 0.0) == shape_min
    for kind in (K.T3, K.T4, K.T5, K.T6):
        spec = sm.resolve_spec(sm.EstimatorSpec(kind), m)
        form = sm.quadratic_form(spec, m)
        minimum = form.b * (form.ybar_sq + form.a) > form.e * form.e
        if minimum and not form.singular:
            bound = shape_min + 1e-9 * abs(shape_min) + noise
            assert form.value(spec.k1, spec.k2) <= bound, kind
