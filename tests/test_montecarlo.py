"""Monte Carlo harness: exact synthesis, SRSWOR draws, replication reports."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stratmean as sm
from stratmean import EstimatorKind as K
from stratmean import montecarlo
from stratmean.design import _centred_moments
from stratmean.montecarlo import (
    _BLOCK,
    _draw_block,
    _merge_moments,
    _subset_sums,
)
from stratmean.errors import (
    DegenerateStratum,
    NonPositiveCount,
    SampleExceedsStratum,
    ValidationError,
    ZeroAuxiliaryMean,
)


@pytest.fixture(scope="module")
def pop1(ds1):
    return sm.synthesize_population(ds1, seed=42)


class TestSynthesize:
    def test_roundtrip_exact(self, ds1, pop1):
        """Recomputed summaries equal the targets within 1e-9 relative."""
        recovered = sm.design_from_microdata(pop1, ds1.sample_sizes)
        for target, got in zip(ds1.strata, recovered.strata):
            assert got.mean_y == pytest.approx(target.mean_y, rel=1e-9)
            assert got.mean_x == pytest.approx(target.mean_x, rel=1e-9)
            assert got.var_y == pytest.approx(target.var_y, rel=1e-9)
            assert got.var_x == pytest.approx(target.var_x, rel=1e-9)
            assert got.cov_xy == pytest.approx(target.cov_xy, rel=1e-9)
            assert got.N == target.N

    def test_single_target_stratum_moment_match(self):
        # the first cane-juice stratum on its own: var_y target 80 recovered
        target = sm.StratumSummary.from_correlation(
            1, N=6, n=3, mean_y=135.0, mean_x=366.666, var_y=80.0, var_x=2706.666,
            rho=0.9455626,
        )
        pop = sm.synthesize_population(sm.DesignSummary((target,)), seed=1)
        got = sm.summarize_stratum(pop.strata[0], 3)
        assert got.var_y == pytest.approx(80.0, rel=1e-9)

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_perfect_correlation_is_affine(self, rho):
        target = sm.StratumSummary.from_correlation(
            1, N=8, n=3, mean_y=10.0, mean_x=20.0, var_y=4.0, var_x=9.0, rho=rho
        )
        pop = sm.synthesize_population(sm.DesignSummary((target,)), seed=3)
        y, x = pop.strata[0].y, pop.strata[0].x
        # x must be an exact affine image of y with slope rho * sd_x/sd_y
        np.testing.assert_allclose(x, 20.0 + rho * 1.5 * (y - 10.0), rtol=1e-12)
        got = sm.summarize_stratum(pop.strata[0], 3)
        assert got.rho == pytest.approx(rho, rel=1e-12)
        assert got.var_y == pytest.approx(4.0, rel=1e-12)
        assert got.var_x == pytest.approx(9.0, rel=1e-12)

    def test_same_seed_bit_identical(self, ds1):
        a = sm.synthesize_population(ds1, seed=7)
        b = sm.synthesize_population(ds1, seed=7)
        for sa, sb in zip(a.strata, b.strata):
            assert np.array_equal(sa.y, sb.y)
            assert np.array_equal(sa.x, sb.x)

    @pytest.mark.parametrize(
        "var_y, var_x", [(0.0, 2.0), (2.0, 0.0), (0.0, 0.0)], ids=["var_y", "var_x", "both"]
    )
    def test_zero_variance_targets(self, var_y, var_x):
        target = sm.StratumSummary(
            1, N=5, n=2, mean_y=3.0, mean_x=4.0, var_y=var_y, var_x=var_x, cov_xy=0.0
        )
        pop = sm.synthesize_population(sm.DesignSummary((target,)), seed=2)
        got = sm.summarize_stratum(pop.strata[0], 2)
        for values, mean, var, got_var in (
            (pop.strata[0].y, 3.0, var_y, got.var_y),
            (pop.strata[0].x, 4.0, var_x, got.var_x),
        ):
            if var == 0.0:
                assert np.all(values == mean)
            else:
                assert got_var == pytest.approx(var, rel=1e-12)
        assert got.cov_xy == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_population(self):
        target = sm.StratumSummary(1, N=2, n=1, mean_y=1.0, mean_x=1.0, var_y=1.0, var_x=1.0, cov_xy=0.0)
        with pytest.raises(DegenerateStratum):
            sm.synthesize_population(sm.DesignSummary((target,)), seed=0)


class TestDraw:
    def test_census_draw_recovers_population_means(self, pop1):
        census = [s.N for s in pop1.strata]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        yb, xb = _draw_block(rng, pop1, tuple(census), pop1.weights, 1)
        # a census leaves no unit out, so it draws no random numbers
        assert rng.bit_generator.state == state
        d = sm.design_from_microdata(pop1, census)
        m = sm.aggregate_moments(d)
        assert yb[0] == pytest.approx(m.mean_y, rel=1e-12)
        assert xb[0] == pytest.approx(m.mean_x, rel=1e-12)

    def test_single_unit_draw(self, pop1):
        # one unit per stratum: the combined means are sum_h W_h (y_h, x_h)
        # over some choice of one unit in each stratum
        yb, xb = _draw_block(np.random.default_rng(5), pop1, (1, 1, 1), pop1.weights, 1)
        weights = pop1.weights
        choices = [
            (
                sum(w * s.y[i] for w, s, i in zip(weights, pop1.strata, units)),
                sum(w * s.x[i] for w, s, i in zip(weights, pop1.strata, units)),
            )
            for units in itertools.product(*(range(s.N) for s in pop1.strata))
        ]
        assert any(
            ybar == pytest.approx(yb[0], rel=1e-12)
            and xbar == pytest.approx(xb[0], rel=1e-12)
            for ybar, xbar in choices
        )

    def test_bad_sample_sizes(self, pop1):
        for call in (sm.enumeration_count, sm.design_from_microdata):
            with pytest.raises(SampleExceedsStratum):
                call(pop1, (7, 4, 3))
            with pytest.raises(NonPositiveCount):
                call(pop1, (0, 4, 3))
            for bad in ((2.7, 4, 3), (True, 4, 3), (math.nan, 4, 3), (math.inf, 4, 3)):
                with pytest.raises(ValidationError, match="is not an integer"):
                    call(pop1, bad)
        assert sm.enumeration_count(pop1, (3.0, 4, 3)) == sm.enumeration_count(pop1, (3, 4, 3))

    def test_wrong_count_of_sample_sizes(self, pop1):
        # a missing size is a plain validation error: no size exceeds its stratum
        for call in (sm.enumeration_count, sm.design_from_microdata):
            with pytest.raises(ValidationError, match="expected 3 sample sizes, got 2") as err:
                call(pop1, (3, 4))
            assert err.value.code == "validation"

    def test_mean_deviations_center_on_zero(self, ds1, pop1):
        """e0 and e1 average to ~0 over replications (3 MC SE band)."""
        d = sm.design_from_microdata(pop1, ds1.sample_sizes)
        m = sm.aggregate_moments(d)
        rng = np.random.default_rng(12)
        yb, xb = _draw_block(rng, pop1, ds1.sample_sizes, pop1.weights, 4000)
        e0 = yb / m.mean_y - 1.0
        e1 = xb / m.mean_x - 1.0
        for e in (e0, e1):
            assert abs(e.mean()) <= 3.0 * e.std(ddof=1) / math.sqrt(e.size)


def _subset_frequencies(N: int, n: int, rows: int, seed: int) -> dict[int, float]:
    """Share of each n-subset of N units over ``rows`` rows of ``_draw_block``.

    Unit i has y = 2**i, so n * ybar is the bit mask of the row's subset.
    """
    y = 2.0 ** np.arange(N)
    pop = sm.Microdata((sm.MicrodataStratum(1, y, np.ones(N)),))
    rng = np.random.default_rng(seed)
    counts: dict[int, int] = {}
    for _ in range(rows // 200_000):
        yb, _ = _draw_block(rng, pop, (n,), (1.0,), 200_000)
        masks, freq = np.unique(np.rint(n * yb).astype(np.int64), return_counts=True)
        for mask, c in zip(masks.tolist(), freq.tolist()):
            counts[mask] = counts.get(mask, 0) + c
    return {mask: c / rows for mask, c in counts.items()}


class TestFloydDraw:
    # 1M rows: the +-2.5% band is 5.7 binomial SEs per subset at 1/20
    # (2.6 at 200k rows, where one of 20 cells would stray about 1 run in 5)
    ROWS = 1_000_000

    @pytest.mark.parametrize("N, n", [(6, 3), (7, 5)])
    def test_every_subset_equally_likely(self, N, n):
        """(6, 3) draws the sample itself; (7, 5) draws the 2 left-out units."""
        freq = _subset_frequencies(N, n, self.ROWS, seed=N)
        subsets = {sum(1 << i for i in c) for c in itertools.combinations(range(N), n)}
        assert set(freq) == subsets  # no repeated unit, every subset reached
        share = 1.0 / math.comb(N, n)
        for f in freq.values():
            assert abs(f / share - 1.0) <= 0.025


def _row_major_floyd_picks(rng, N, m, count):
    """The row-major Floyd draw: the reference for the random stream and its picks."""
    picks = np.empty((count, m), dtype=np.intp)
    for i, j in enumerate(range(N - m, N)):
        t = rng.integers(0, j + 1, size=count)
        held = (picks[:, :i] == t[:, None]).any(axis=1)
        picks[:, i] = np.where(held, j, t)
    return picks


def _row_major_sample_means(rng, stratum, n, count):
    """One stratum's block of sample means, summed as the row-major draw summed them."""
    m = min(n, stratum.N - n)
    left_out = m < n
    sign = -1.0 if left_out else 1.0
    picks = _row_major_floyd_picks(rng, stratum.N, m, count)
    return [
        (left_out * float(v.sum()) + sign * v[picks].sum(axis=1)) / n
        for v in (stratum.y, stratum.x)
    ]


@pytest.mark.parametrize(
    "N, n",
    [(6, 3), (7, 5), (12, 4), (7, 1), (985, 6), (2196, 8), (1020, 11), (6, 6),
     (40, 16), (60, 24), (400, 150), (1 << 15, 4), (40000, 3)],
)
def test_draw_keeps_row_major_stream_and_bits(N, n):
    """Same random numbers consumed, same picks, same summed bits per row;
    2**15 units is the last size whose repeat check runs on 16-bit picks."""
    values = np.random.default_rng(N * 100 + n).standard_normal((2, N))
    stratum = sm.MicrodataStratum(1, 1e3 + 37.0 * values[0], 1e5 * values[1])
    rng = np.random.default_rng(N + n)
    yb, xb = _draw_block(rng, sm.Microdata((stratum,)), (n,), (1.0,), _BLOCK)
    ref = np.random.default_rng(N + n)
    yb_ref, xb_ref = _row_major_sample_means(ref, stratum, n, _BLOCK)
    assert np.array_equal(yb, yb_ref) and np.array_equal(xb, xb_ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def _state_of(u):
    """(count, mean, centred sum) of the values ``u``; zeros when there are none."""
    if u.size == 0:
        return 0, 0.0, 0.0
    (mean,), (ss,) = _centred_moments(u)
    return u.size, mean, ss


def _merge_one(a, b):
    """Pool two scalar states by the pairwise update of Chan, Golub &
    LeVeque (1983): the bit reference of the elementwise ``_merge_moments``."""
    (na, mean_a, ss_a), (nb, mean_b, ss_b) = a, b
    if nb == 0:
        return a
    if na == 0:
        return b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, ss_a + ss_b + delta * delta * na * nb / n


def test_merged_block_moments_match_one_pass():
    """Pooling uneven blocks, an empty one included, equals the whole sample."""
    rng = np.random.default_rng(2)
    values = 1e8 + rng.standard_normal(10_000)

    def state(u):
        return tuple(np.array([x]) for x in _state_of(u))

    pooled = state(np.empty(0))
    for block in np.split(values, [3, 3, 4000, 9999]):
        pooled = _merge_moments(pooled, state(block))
    (count,), (mean,), (ss,) = pooled
    assert count == values.size
    assert mean == pytest.approx(values.mean(), rel=1e-15)
    assert ss / (count - 1) == pytest.approx(values.var(ddof=1), rel=1e-9)


def test_elementwise_merge_has_the_bits_of_one_merge_per_state():
    """States held as arrays pool entry by entry as ``_merge_one`` pools
    each on its own, an empty state on either side or both included."""
    rng = np.random.default_rng(6)
    a_count = np.array([0, 3, 0, 5, 7, 0])
    b_count = np.array([3, 0, 0, 2, 3, 1])
    a_mean, b_mean = rng.uniform(-1e3, 1e3, 6), np.array([0.7, 10.7, 0.0, 0.1, 1.1, -0.0])
    a_sum, b_sum = rng.uniform(0.0, 1e3, 6), rng.uniform(0.0, 1e3, 6)
    a_mean[a_count == 0] = a_sum[a_count == 0] = 0.0  # the state of no values
    b_sum[b_count == 0] = 0.0
    count, mean, ss = _merge_moments((a_count, a_mean, a_sum), (b_count, b_mean, b_sum))
    for i in range(6):
        want = _merge_one(
            (int(a_count[i]), float(a_mean[i]), float(a_sum[i])),
            (int(b_count[i]), float(b_mean[i]), float(b_sum[i])),
        )
        got = (int(count[i]), float(mean[i]), float(ss[i]))
        assert repr(got) == repr(want)


def _stratum(index, N, seed):
    rng = np.random.default_rng(seed)
    x = 300.0 + 50.0 * rng.standard_normal(N)
    return sm.MicrodataStratum(index, 100.0 + 0.2 * x + 10.0 * rng.standard_normal(N), x)


def _broadcast_means(pop, n):
    """Every sample's (ybar_st, xbar_st) by one broadcast of the
    ``itertools.combinations`` means, last stratum fastest."""
    yb = xb = np.zeros(())
    for s, nh, w in zip(pop.strata, n, pop.weights):
        idx = np.array(list(itertools.combinations(range(s.N), nh)))
        yb = np.add.outer(yb, w * s.y[idx].mean(axis=1))
        xb = np.add.outer(xb, w * s.x[idx].mean(axis=1))
    return yb.ravel(), xb.ravel()


class TestEnumeration:
    def test_count(self, pop1, ds1):
        assert sm.enumeration_count(pop1, ds1.sample_sizes) == (
            math.comb(6, 3) * math.comb(12, 4) * math.comb(7, 3)
        )

    def test_exact_variance_identity(self, ds1, pop1):
        """Enumerated variance of ybar_st equals the weighted-sum formula."""
        exact = sm.enumerate_exact_moments(pop1, ds1.sample_sizes)
        m = sm.aggregate_moments(sm.design_from_microdata(pop1, ds1.sample_sizes))
        assert exact.var_ybar == pytest.approx(m.var_ybar, rel=1e-9)
        assert exact.var_xbar == pytest.approx(m.var_xbar, rel=1e-9)
        assert exact.cov_xybar == pytest.approx(m.cov_xybar, rel=1e-9)
        assert exact.mean_y == pytest.approx(m.mean_y, rel=1e-12)

    def test_limit_enforced(self):
        """One 40-unit stratum sampled 10: C(40, 10) = 847,660,528 samples,
        refused before any is formed, naming the count and the limit."""
        units = np.arange(40.0)
        pop = sm.Microdata((sm.MicrodataStratum(1, units, units + 1.0),))
        assert sm.enumeration_count(pop, (10,)) == math.comb(40, 10) > montecarlo.ENUMERATION_LIMIT
        with pytest.raises(ValueError) as err:
            sm.enumerate_exact_moments(pop, (10,))
        assert f"{math.comb(40, 10)}" in str(err.value)
        assert f"{montecarlo.ENUMERATION_LIMIT}" in str(err.value)

    def test_large_mean_against_exact_rationals(self):
        """y = x = 1e6 + N(0, 1): the centred strata keep var_ybar within
        1e-14 of the rational (1/n - 1/N) S^2 of the same float values."""
        y = 1e6 + np.random.default_rng(0).standard_normal(40)
        exact = sm.enumerate_exact_moments(sm.Microdata((sm.MicrodataStratum(1, y, y),)), (5,))
        units = [Fraction(v) for v in y.tolist()]
        mean = sum(units) / 40
        var_ybar = (Fraction(1, 5) - Fraction(1, 40)) * sum((v - mean) ** 2 for v in units) / 39
        for got in (exact.var_ybar, exact.var_xbar, exact.cov_xybar):
            assert abs(Fraction(got) - var_ybar) / var_ybar <= Fraction(1, 10**14)
        assert exact.mean_y == exact.mean_x == pytest.approx(float(mean), rel=1e-15)

    def test_zero_auxiliary_mean(self):
        """x averages to exactly 0 over the six samples, so R is undefined."""
        pop = sm.Microdata((sm.MicrodataStratum(
            1, np.array([1.0, 2.0, 3.0, 4.0]), np.array([-1.0, 0.0, 1.0, 0.0])),))
        with pytest.raises(ZeroAuxiliaryMean):
            sm.enumerate_exact_moments(pop, (2,))


@pytest.mark.parametrize("k", range(1, 10))
def test_subset_sums_in_combinations_order(k):
    """Powers of two make every sum exact and distinct, so order is checked too;
    k > 4 takes the complement path and k = 9 is a census."""
    v = 2.0 ** np.arange(9)
    want = [sum(c) for c in itertools.combinations(v.tolist(), k)]
    assert _subset_sums(v, k).tolist() == want


@pytest.mark.parametrize("case", ["ds1", "one-stratum", "census"])
def test_exact_moments_match_the_whole_product_set(case, pop1, ds1, monkeypatch):
    """The sums of each stratum's own samples, in runs of any length, give
    numpy's moments over every sample of the product set, formed whole by
    one broadcast: ds1's 346,500 samples, one stratum, and a census beside
    a stratum that takes the complement."""
    if case == "ds1":
        pop, n = pop1, ds1.sample_sizes
    elif case == "one-stratum":
        pop, n = sm.Microdata((_stratum(1, 9, 1),)), (4,)
    else:  # the middle stratum is a census; the last one takes the complement
        pop = sm.Microdata((_stratum(1, 4, 2), _stratum(2, 5, 3), _stratum(3, 7, 4)))
        n = (2, 5, 5)
    yb, xb = _broadcast_means(pop, n)
    assert yb.size == sm.enumeration_count(pop, n)
    want = {
        "mean_y": yb.mean(), "mean_x": xb.mean(), "var_ybar": yb.var(), "var_xbar": xb.var(),
        "cov_xybar": np.mean((yb - yb.mean()) * (xb - xb.mean())),
    }
    for chunk in (1, 7, 50):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        got = sm.enumerate_exact_moments(pop, n)
        for key, value in want.items():
            assert getattr(got, key) == pytest.approx(value, rel=1e-12), (chunk, key)


def _exact_agrees_with_formula(pop, n, rel=1e-9):
    exact = sm.enumerate_exact_moments(pop, n)
    m = sm.aggregate_moments(sm.design_from_microdata(pop, n))
    for key in ("mean_y", "mean_x", "var_ybar", "var_xbar", "cov_xybar"):
        assert getattr(exact, key) == pytest.approx(getattr(m, key), rel=rel), key


def test_enumeration_memory_bounded_by_chunk(ds1):
    """9,702,000 samples (paper-1 plus an 8-unit stratum sampled 2) peak far
    below the 78 MB that one array of their ybar_st alone would take, and
    below the two 2**14-float chunks a pass over the product set would fill:
    only the strata's own 578 samples are formed."""
    extra = sm.StratumSummary.from_correlation(
        4, N=8, n=2, mean_y=110.0, mean_x=330.0, var_y=150.0, var_x=2200.0, rho=0.8
    )
    design = sm.DesignSummary(ds1.strata + (extra,))
    pop = sm.synthesize_population(design, seed=7)
    assert sm.enumeration_count(pop, design.sample_sizes) == 9_702_000
    tracemalloc.start()
    try:
        _exact_agrees_with_formula(pop, design.sample_sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert peak < 0.25e6


def test_enumeration_of_one_large_stratum():
    """40 choose 5: 658,008 samples of a single stratum."""
    _exact_agrees_with_formula(sm.Microdata((_stratum(1, 40, 5),)), (5,))


def test_enumeration_streams_the_split_stratum_in_runs():
    """60 choose 5: 5,461,512 samples of one stratum, formed run by run from
    the C(59, 4) sums of its 4-subsets, peak below 16 MB; holding the whole
    sums of y and x peaked at 91 MB."""
    pop = sm.Microdata((_stratum(1, 60, 6),))
    tracemalloc.start()
    try:
        _exact_agrees_with_formula(pop, (5,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _rational_moments(pop, n):
    """(mean_y, mean_x, var_ybar, var_xbar, cov_xybar) as exact rationals:
    plain sums over every sample of the product set, from the same float
    units and weights, each sample's means held as integers over one
    common denominator."""
    terms = []
    for s, nh, w in zip(pop.strata, n, pop.weights):
        y, x = ([Fraction(v) for v in u.tolist()] for u in (s.y, s.x))
        terms.append([
            (Fraction(w) * sum(y[i] for i in c) / nh, Fraction(w) * sum(x[i] for i in c) / nh)
            for c in itertools.combinations(range(s.N), nh)
        ])
    den = math.lcm(*(t.denominator for stratum in terms for pair in stratum for t in pair))
    ints = [[tuple(t.numerator * (den // t.denominator) for t in pair) for pair in stratum]
            for stratum in terms]
    count = s_y = s_x = s_yy = s_yx = s_xx = 0
    for sample in itertools.product(*ints):
        yb = sum(p[0] for p in sample)
        xb = sum(p[1] for p in sample)
        count += 1
        s_y, s_x = s_y + yb, s_x + xb
        s_yy, s_yx, s_xx = s_yy + yb * yb, s_yx + yb * xb, s_xx + xb * xb
    mean_y, mean_x = Fraction(s_y, count * den), Fraction(s_x, count * den)
    square = count * den * den
    return (mean_y, mean_x, Fraction(s_yy, square) - mean_y**2,
            Fraction(s_xx, square) - mean_x**2, Fraction(s_yx, square) - mean_y * mean_x)


@st.composite
def enumerable_populations(draw):
    """2-4 strata of 2-9 units, at most 3000 samples in all; each stratum's
    y and x are offset by up to 1e6 over standard normal units."""
    strata, n, count = [], [], 1
    for index in range(1, draw(st.integers(2, 4)) + 1):
        N = draw(st.integers(2, 9))
        nh = draw(st.sampled_from([k for k in range(1, N + 1) if count * math.comb(N, k) <= 3000]))
        count *= math.comb(N, nh)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        offset_y, offset_x = (draw(st.floats(-1e6, 1e6)) for _ in range(2))
        strata.append(sm.MicrodataStratum(
            index, offset_y + rng.standard_normal(N), offset_x + rng.standard_normal(N)))
        n.append(nh)
    assume(any(nh < s.N for s, nh in zip(strata, n)))  # some variance to compare
    return sm.Microdata(tuple(strata)), tuple(n)


def _opposed_strata():
    """Weighted stratum means of about +-4.2e5 that cancel to a mean of 0.08."""
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 5)), rng.standard_normal((2, 7))
    return sm.Microdata((
        sm.MicrodataStratum(1, 1e6 + a[0], 3e5 + a[1]),
        sm.MicrodataStratum(2, -1e6 * 5 / 7 + b[0], -3e5 * 5 / 7 + b[1]),
    )), (2, 3)


@settings(max_examples=60, deadline=None)
@given(enumerable_populations(), st.sampled_from([1, 7, 60, montecarlo._CHUNK]))
@example(_opposed_strata(), 7)
def test_enumeration_against_exact_rationals(case, chunk):
    """The raw sums over centred strata, in chunks of any size, are within
    1e-13 of exact rational arithmetic on the same floats: the variances
    relative to themselves, the covariance to sd(ybar_st) * sd(xbar_st),
    and each mean to sum W_h |mean_h| plus its sd, since the weighted
    stratum means it adds may cancel."""
    pop, n = case
    with mock.patch.object(montecarlo, "_CHUNK", chunk):
        got = sm.enumerate_exact_moments(pop, n)
    mean_y, mean_x, var_y, var_x, cov = _rational_moments(pop, n)
    sd_y, sd_x = math.sqrt(var_y), math.sqrt(var_x)
    size_y = sum(w * abs(float(s.y.mean())) for s, w in zip(pop.strata, pop.weights))
    size_x = sum(w * abs(float(s.x.mean())) for s, w in zip(pop.strata, pop.weights))
    for value, want, scale in (
        (got.mean_y, mean_y, size_y + sd_y),
        (got.mean_x, mean_x, size_x + sd_x),
        (got.var_ybar, var_y, var_y),
        (got.var_xbar, var_x, var_x),
        (got.cov_xybar, cov, sd_y * sd_x),
    ):
        assert abs(Fraction(value) - want) <= Fraction(1, 10**13) * Fraction(scale)


@pytest.fixture(scope="module")
def report(ds1, pop1):
    specs = [
        sm.EstimatorSpec(K.UNBIASED),
        sm.EstimatorSpec(K.T1, w=1.0),
        sm.EstimatorSpec(K.T6),
    ]
    return sm.replicate(pop1, ds1.sample_sizes, specs, reps=20_000, seed=3)


class TestReplicate:
    def test_unbiased_bias_near_zero(self, report):
        row = report.rows[0]
        assert abs(row.empirical_bias) <= 3.0 * row.se_bias

    def test_unbiased_mse_matches_variance(self, report):
        row = report.rows[0]
        assert row.verdict == "ok"
        assert abs(row.empirical_mse - row.theoretical_mse) <= max(
            3.0 * row.se_mse, 0.05 * row.theoretical_mse
        )

    def test_t1_linear_case_agrees(self, report):
        row = report.rows[1]
        assert row.verdict == "ok"

    def test_t6_resolved_constants_recorded(self, report):
        row = report.rows[2]
        assert set(row.constants) == {"p", "a", "b", "k1", "k2"}
        assert row.verdict == "ok"

    def test_mse_bounds_bias_squared(self, report):
        for row in report.rows:
            assert row.empirical_mse >= row.empirical_bias**2

    def test_paper2_replicate_memory_bounded(self, ds2):
        """The draw keeps O(count * n_h) state, not a count x N_h key matrix."""
        pop = sm.synthesize_population(ds2, seed=5)
        tracemalloc.start()
        try:
            sm.replicate(pop, ds2.sample_sizes, sm.default_table_specs(), reps=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_replicate_memory_flat_in_reps(self, ds1, pop1):
        """Blocks are seeded, drawn and pooled one at a time: ten times the
        replications hold no more memory."""
        def peak(reps):
            tracemalloc.start()
            try:
                sm.replicate(pop1, ds1.sample_sizes, sm.default_table_specs(), reps=reps, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(200_000)
        assert peak(2_000_000) - small <= 0.25 * 2**20

    def test_se_bias_stable_under_large_offset(self, ds1, pop1):
        """Shifting y by 1e8 moves every draw's ybar_st, not its spread."""
        shifted = sm.Microdata(
            tuple(sm.MicrodataStratum(s.index, s.y + 1e8, s.x) for s in pop1.strata)
        )
        specs = [sm.EstimatorSpec(K.UNBIASED)]
        base = sm.replicate(pop1, ds1.sample_sizes, specs, reps=20_000, seed=3)
        moved = sm.replicate(shifted, ds1.sample_sizes, specs, reps=20_000, seed=3)
        assert moved.rows[0].se_bias == pytest.approx(base.rows[0].se_bias, rel=1e-6)

    def test_deterministic_across_runs(self, ds1, pop1):
        specs = [sm.EstimatorSpec(K.T5)]
        a = sm.replicate(pop1, ds1.sample_sizes, specs, reps=3000, seed=11)
        b = sm.replicate(pop1, ds1.sample_sizes, specs, reps=3000, seed=11)
        assert a == b

    def test_insufficient_reps_verdict(self, ds1, pop1):
        report = sm.replicate(
            pop1, ds1.sample_sizes, [sm.EstimatorSpec(K.UNBIASED)], reps=100, seed=1
        )
        assert report.rows[0].verdict == "insufficient-replications"
        assert not report.all_ok

    def test_optimal_t6_beats_ratio_empirically(self, ds1, pop1):
        specs = [sm.EstimatorSpec(K.COMBINED_RATIO), sm.EstimatorSpec(K.T6)]
        report = sm.replicate(pop1, ds1.sample_sizes, specs, reps=20_000, seed=3)
        ratio_row, t6_row = report.rows
        assert t6_row.empirical_mse <= ratio_row.empirical_mse + 3.0 * ratio_row.se_mse

    def test_estimator_errors_counted_not_fatal(self, ds1):
        # a population with negative x values makes fractional powers fail
        # on some draws; those draws are tallied, not raised
        strata = (
            sm.StratumSummary(1, N=8, n=2, mean_y=10.0, mean_x=0.5, var_y=1.0, var_x=4.0, cov_xy=0.0),
        )
        pop = sm.synthesize_population(sm.DesignSummary(strata), seed=4)
        report = sm.replicate(
            pop, (2,), [sm.EstimatorSpec(K.T1, w=0.5)], reps=1000, seed=2
        )
        row = report.rows[0]
        assert row.error_counts.get("non-positive-base", 0) > 0
        assert row.valid + sum(row.error_counts.values()) == row.reps

    def test_theory_comes_from_analyze(self, ds1, pop1, monkeypatch):
        # one first-order path: the resolved specs and the theoretical
        # columns are analyze's, so a tracer of mse.analyze sees them
        results = []
        analyze = sm.mse.analyze

        def recording(spec, m):
            results.append(analyze(spec, m))
            return results[-1]

        monkeypatch.setattr(sm.mse, "analyze", recording)
        specs = sm.default_table_specs()
        report = sm.replicate(pop1, ds1.sample_sizes, specs, reps=20, seed=1)
        assert [result.label for result in results] == [spec.label for spec in specs]
        for row, result in zip(report.rows, results):
            assert row.theoretical_mse == result.mse
            assert row.theoretical_bias == result.bias
            assert row.constants == result.constants


def test_block_states_pool_like_sequential_merges(monkeypatch):
    """``replicate`` pools all its block states in one elementwise update per
    block; the report has the bits of per-block states pooled spec by spec
    with sequential ``_merge_one``, also where a block has no valid draw for
    a spec."""
    block = 3
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    strata = (
        sm.StratumSummary(1, N=8, n=2, mean_y=10.0, mean_x=0.5, var_y=1.0, var_x=4.0, cov_xy=0.0),
    )
    pop = sm.synthesize_population(sm.DesignSummary(strata), seed=4)
    n, reps, seed = (2,), 400, 5
    specs = [
        sm.EstimatorSpec(K.T1, w=0.5),
        sm.EstimatorSpec(K.T2),
        sm.EstimatorSpec(K.COMBINED_RATIO),
        sm.EstimatorSpec(K.UNBIASED),
        sm.EstimatorSpec(K.T5),
        sm.EstimatorSpec(K.T1, w=0.5),
    ]
    report = sm.replicate(pop, n, specs, reps, seed)

    m = sm.aggregate_moments(sm.design_from_microdata(pop, n))
    resolved = [sm.resolve_spec(spec, m) for spec in specs]
    counts = [min(block, reps - start) for start in range(0, reps, block)]
    children = np.random.SeedSequence(seed).spawn(len(counts))
    empty_blocks = 0
    for spec, row in zip(resolved, report.rows):
        pooled_v = pooled_q = _state_of(np.empty(0))
        errors = {}
        for child, count in zip(children, counts):
            yb, xb = _draw_block(np.random.default_rng(child), pop, n, pop.weights, count)
            (batch,) = sm.estimate_many([spec], yb, xb, m.mean_x)
            for code, cnt in batch.error_counts.items():
                errors[code] = errors.get(code, 0) + cnt
            v = batch.values[batch.valid]
            empty_blocks += v.size == 0
            q = v - m.mean_y
            q *= q
            pooled_v = _merge_one(pooled_v, _state_of(v))
            pooled_q = _merge_one(pooled_q, _state_of(q))
        valid, mean_v, ss_v = pooled_v
        _, emp_mse, ss_q = pooled_q
        assert (row.valid, row.error_counts) == (valid, errors)
        assert row.empirical_mean == mean_v
        assert row.empirical_mse == emp_mse
        assert row.se_bias == math.sqrt(ss_v / (valid - 1) / valid)
        assert row.se_mse == math.sqrt(ss_q / (valid - 1) / valid)
    assert empty_blocks > 0
