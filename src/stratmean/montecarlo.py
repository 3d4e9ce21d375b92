"""Monte Carlo verification harness for the estimator formulas.

Synthesizes finite populations whose stratum moments match a target design
exactly, replicates stratified SRSWOR draws, and compares the empirical
bias/MSE of every estimator against the first-order formulas.  Exhaustive
enumeration gives exact design moments instead of simulated ones.  The
strata are sampled independently, so the moments over every stratified
sample are the sums of each stratum's own moments over its C(N_h, n_h)
samples: the enumeration forms each stratum's samples alone, in runs of at
most ``_CHUNK``, and never the product set, so its work and memory grow
with the strata's sample counts, not with the design's.

A population is a ``design.Microdata``: every public function here takes
one, and checks its sample sizes with ``design.checked_sample_sizes``.  It
is either synthesized, with one whiten-then-colour construction for every
stratum, or read from unit-level data; the draw and the enumeration treat
both alike.  Samples are drawn only in blocks, inside ``replicate``.

Reproducibility: replication block i, of ``_BLOCK`` rows, draws from its
own generator, seeded by ``SeedSequence(seed, spawn_key=(i,))``, so a report
depends only on (population, sample sizes, specs, reps, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import mse as mse_mod
from .design import (
    CombinedMoments,
    DesignSummary,
    Microdata,
    MicrodataStratum,
    StratumSummary,
    _centred_moments,
    aggregate_moments,
    checked_sample_sizes,
    design_from_microdata,
    summarize_stratum,
)
from .errors import ComputationError, DegenerateStratum, InfeasibleMoments
from .estimators import EstimatorSpec, estimate_many

#: Replication block size; part of the random-stream definition.
_BLOCK = 4096

#: Most samples of one stratum in one run of the exact enumeration; it fixes
#: the runs and so the order of the sums.
_CHUNK = 1 << 14

#: Most samples, the product of the C(N_h, n_h), of a design that
#: ``enumerate_exact_moments`` accepts; past it, use ``replicate``.  The
#: enumeration's cost grows only as the sum of the C(N_h, n_h).
ENUMERATION_LIMIT = 10_000_000

#: (counts, means, centred sums) of a block of samples, one array entry per
#: state: ``replicate`` holds every estimator's estimates and squared errors.
_Moments = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Agreement policy applied by ``replicate`` (recorded in every report).
AGREEMENT_POLICY = (
    "MSE: |empirical - theoretical| <= max(3*SE(MSE), 5% of theoretical); "
    "bias: |empirical - theoretical| <= max(3*SE(mean), "
    "10% of the stratified mean's MC standard error)"
)

MIN_REPS_FOR_VERDICT = 1000


@dataclass(frozen=True)
class EstimatorOutcome:
    """Replication summary for one estimator."""

    label: str
    constants: dict[str, float]
    reps: int
    valid: int
    error_counts: dict[str, int]
    empirical_mean: float
    empirical_bias: float
    empirical_mse: float
    se_bias: float
    se_mse: float
    theoretical_bias: float
    theoretical_mse: float
    verdict: str


@dataclass(frozen=True)
class EmpiricalReport:
    """Full replication report; identical for identical seeds."""

    label: str
    reps: int
    seed: int
    sample_sizes: tuple[int, ...]
    policy: str
    rows: tuple[EstimatorOutcome, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.verdict == "ok" for r in self.rows)


def _lower_factor(s: StratumSummary) -> tuple[float, float, float]:
    """(f11, f21, f22), the lower Cholesky factor of the covariance of (x, y);
    f22 = 0 where 1 - rho**2 < 1e-12, and a zero variance gives a zero column."""
    f11 = s.sd_x
    f21 = s.cov_xy * (1.0 / f11) if f11 > 0.0 else 0.0
    if s.var_y - f21 * f21 < 1e-12 * s.var_y:
        return f11, math.copysign(s.sd_y, f21), 0.0
    return f11, f21, math.sqrt(s.var_y - f21 * f21)


def _match_bivariate(rng: np.random.Generator, s: StratumSummary) -> tuple[np.ndarray, np.ndarray]:
    """Values whose sample moments (divisor N-1) equal the targets exactly:
    centred normal draws, whitened by the ``_lower_factor`` of their own
    ``summarize_stratum`` and coloured by the target's (no BLAS or LAPACK)."""
    l11, l21, l22 = _lower_factor(s)
    for _ in range(16):
        z = rng.standard_normal((s.N, 2))
        zx, zy = (z - z.mean(axis=0)).T
        drawn = summarize_stratum(MicrodataStratum(s.index, zy, zx), s.n)
        f11, f21, f22 = _lower_factor(drawn)
        if f11 > 0.0 and f22 > 0.0:
            wx = zx / f11
            wy = (zy - f21 * wx) / f22
            x = l11 * wx
            y = l21 * wx + l22 * wy
            return y - y.mean() + s.mean_y, x - x.mean() + s.mean_x
    raise InfeasibleMoments("could not draw a full-rank stratum")


def synthesize_population(
    targets: DesignSummary, seed: int | None = None
) -> Microdata:
    """Generate a population matching every stratum summary exactly.

    Bivariate normal draws are affinely transformed so that each stratum's
    recomputed means, variances, and covariance (divisor N-1) equal the
    targets to machine precision; one construction serves every stratum,
    including zero variances and |rho| = 1.  Deterministic per seed.  A
    stratum of fewer than 3 units raises DegenerateStratum; InfeasibleMoments
    is left for a draw that stays degenerate.
    """
    rng = np.random.default_rng(seed)
    strata = []
    for s in targets.strata:
        if s.N < 3:
            raise DegenerateStratum(
                f"stratum {s.index}: population of {s.N} cannot match 5 moments"
            )
        y, x = _match_bivariate(rng, s)
        strata.append(MicrodataStratum(s.index, y, x))
    return Microdata(tuple(strata), label=targets.label)


def _floyd_picks(rng: np.random.Generator, N: int, m: int, count: int) -> np.ndarray:
    """``count`` independent m-subsets of range(N) (Floyd, 1987), one for
    each row of a block, as an (m, count) ``intp`` array: ``picks[:, r]`` is
    row r's.

    Step j (N-m <= j < N) draws t uniform on 0..j and keeps t, or j where
    the row already holds t; every m-subset comes out equally likely.  The
    membership check costs O(count * m**2) comparisons.

    The work is stratum-major: ``picks[i]`` holds step i for all ``count``
    rows, so the check reduces over the outer, contiguous axis, and a
    repeat is marked in place.  While N <= 2**15 the picks are held in 16
    bits, so the check reads a quarter of the bytes, and are widened to
    ``intp`` once at the end.  The random numbers are one ``integers`` call
    of ``count`` per step, in step order, the stream a row-major loop makes;
    only their copies are narrowed, since an ``int16`` draw is another
    stream.
    """
    picks = np.empty((m, count), dtype=np.int16 if N <= 1 << 15 else np.intp)
    for i, j in enumerate(range(N - m, N)):
        step = picks[i]
        step[...] = rng.integers(0, j + 1, size=count)
        if i:  # step 0 has no earlier pick to repeat
            np.putmask(step, np.logical_or.reduce(picks[:i] == step, axis=0), j)
    return picks.astype(np.intp, copy=False)


def _gathered_sum(v: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """``v[picks].sum(axis=0)`` for an (m, count) index, gathered one step at
    a time and added in numpy's pairwise order along a contiguous axis.

    Fewer than 8 terms are added in sequence; 8 to 128 go to 8 accumulators,
    joined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the remainder follows
    in sequence; more terms split at n//2 - (n//2)%8 and recurse.  So each
    row gets the bits of ``v[picks.T].sum(axis=1)`` on a C-ordered index.
    ``v`` may be complex: a complex add is one IEEE add per part, so the
    real and imaginary parts each get the bits of their own sum.
    """
    m = len(picks)
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _gathered_sum(v, picks[:half]) + _gathered_sum(v, picks[half:])
    if m < 8:
        acc = v[picks[0]] if m else np.zeros(picks.shape[1], dtype=v.dtype)
        rest = picks[1:]
    else:
        r = [v[p] for p in picks[:8]]
        end = m - m % 8
        for i in range(8, end, 8):
            for r_j, p in zip(r, picks[i:i + 8]):
                r_j += v[p]
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
        acc, rest = r[0], picks[end:]
    for p in rest:
        acc += v[p]
    return acc


def _draw_block(
    rng: np.random.Generator,
    pop: Microdata,
    n: tuple[int, ...],
    weights: tuple[float, ...],
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized SRSWOR block: ``count`` rows of combined sample means.

    Each stratum draws m = min(n_h, N_h - n_h) units per row with Floyd's
    algorithm.  When m < n_h the drawn units are the ones left out, and the
    sample sum is the stratum total minus theirs.  A census stratum
    (n_h = N_h) leaves out m = 0 units: it draws no random numbers and
    contributes its mean to every row.  The units are gathered once, from a
    complex array with y as the real part and x as the imaginary part, and
    ``_gathered_sum`` sums both at once with the bits of two real sums.
    """
    yb = np.zeros(count)
    xb = np.zeros(count)
    for s, nh, w in zip(pop.strata, n, weights):
        m = min(nh, s.N - nh)
        units = np.empty(s.N, dtype=np.complex128)
        units.real, units.imag = s.y, s.x
        sums = _gathered_sum(units, _floyd_picks(rng, s.N, m, count))
        if m < nh:  # the drawn units are the complement of the sample
            sums = complex(float(s.y.sum()), float(s.x.sum())) - sums
        yb += w * sums.real / nh
        xb += w * sums.imag / nh
    return yb, xb


def _merge_moments(a: _Moments, b: _Moments) -> _Moments:
    """Pool two states entry by entry; an empty entry leaves the other's as
    it is.

    The pairwise update of Chan, Golub & LeVeque (1983): no sum of raw
    squares is formed, so a large mean does not swamp the spread.
    """
    na, mean_a, ss_a = a
    nb, mean_b, ss_b = b
    n = na + nb
    div = np.maximum(n, 1)  # two empty entries: no 0/0
    delta = mean_b - mean_a
    mean = mean_a + delta * nb / div
    ss = ss_a + ss_b + delta * delta * na * nb / div
    if not (na.all() and nb.all()):
        empty_a, empty_b = na == 0, nb == 0
        mean = np.where(empty_b, mean_a, np.where(empty_a, mean_b, mean))
        ss = np.where(empty_b, ss_a, np.where(empty_a, ss_b, ss))
    return n, mean, ss


def replicate(
    pop: Microdata,
    sample_sizes: Sequence[int],
    specs: Sequence[EstimatorSpec],
    reps: int,
    seed: int,
) -> EmpiricalReport:
    """Measure empirical bias/MSE of every spec over seeded replications.

    Constants marked for optimal resolution are resolved once against the
    population's own moments; the same resolved constants feed both the
    replication and the theoretical comparison values.  Estimator errors on
    individual draws (zero denominators, non-real powers) are tallied per
    spec, not raised.  Agreement verdicts follow AGREEMENT_POLICY and
    require at least MIN_REPS_FOR_VERDICT replications.

    Block b of ``_BLOCK`` rows draws from ``SeedSequence(seed, spawn_key=(b,))``,
    the stream of ``SeedSequence(seed).spawn``'s child b, and is folded in as
    it finishes: every spec in one ``estimate_many`` call, the all-valid specs
    reduced in one pass over a (2k, count) array (a spec with invalid draws
    keeps only its valid values), and the state pooled in block order by one
    elementwise ``_merge_moments``.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    n = checked_sample_sizes(pop, sample_sizes)
    m = aggregate_moments(design_from_microdata(pop, n))
    weights = pop.weights

    resolved = [mse_mod.resolve_spec(spec, m) for spec in specs]
    theory = [mse_mod.mse_and_bias(spec, m) for spec in resolved]
    for spec, (theo_mse, theo_bias) in zip(resolved, theory):
        if math.isnan(theo_mse) or math.isnan(theo_bias):
            raise ComputationError(f"{spec.label}: first-order MSE or bias is nan")

    k = len(resolved)
    errors: list[dict[str, int]] = [{} for _ in resolved]

    def run_block(b: int, count: int) -> _Moments:
        """Block b's state over 2k entries: spec i's estimates v at i,
        q = (v - mean_y)**2 at k + i, by ``_centred_moments``, or zeros where
        no draw is valid; its error tallies go to ``errors``.  A function, so
        its arrays are freed before the next draw."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        yb, xb = _draw_block(rng, pop, n, weights, count)
        batches = estimate_many(resolved, yb, xb, m.mean_x)
        full = [i for i, batch in enumerate(batches) if not batch.error_counts]
        entries = full + [k + i for i in full]  # all-valid specs: one pass
        block = np.empty((len(entries), count))
        v, q = block[:len(full)], block[len(full):]
        for r, i in enumerate(full):
            v[r] = batches[i].values
        np.subtract(v, m.mean_y, out=q)
        q *= q
        counts, means, sums = np.full(2 * k, count), np.zeros(2 * k), np.zeros(2 * k)
        row_means = np.add.reduce(block, axis=1) / count
        block -= row_means[:, None]
        block *= block
        means[entries], sums[entries] = row_means, np.add.reduce(block, axis=1)
        for i, batch in enumerate(batches):
            if batch.error_counts:  # only the valid draws count
                for code, cnt in batch.error_counts.items():
                    errors[i][code] = errors[i].get(code, 0) + cnt
                v = batch.values[batch.valid]
                q = v - m.mean_y
                q *= q
                counts[[i, k + i]] = v.size
                if v.size:
                    (means[i],), (sums[i],) = _centred_moments(v)
                    (means[k + i],), (sums[k + i],) = _centred_moments(q)
        return counts, means, sums

    # fixed block order: deterministic sums
    pooled, pooled_means, pooled_sums = reduce(
        _merge_moments,
        (run_block(b, min(_BLOCK, reps - s)) for b, s in enumerate(range(0, reps, _BLOCK))),
    )
    rows = []
    for i, (spec, (theo_mse, theo_bias)) in enumerate(zip(resolved, theory)):
        valid = int(pooled[i])
        mean_v, ss_v = float(pooled_means[i]), float(pooled_sums[i])
        emp_mse, ss_q = float(pooled_means[k + i]), float(pooled_sums[k + i])
        if valid < 2:
            raise ValueError(
                f"{spec.label}: only {valid} valid replications; cannot summarize"
            )
        emp_bias = mean_v - m.mean_y
        se_bias = math.sqrt(ss_v / (valid - 1) / valid)
        se_mse = math.sqrt(ss_q / (valid - 1) / valid)
        if reps < MIN_REPS_FOR_VERDICT:
            verdict = "insufficient-replications"
        else:
            mse_ok = abs(emp_mse - theo_mse) <= max(3.0 * se_mse, 0.05 * abs(theo_mse))
            bias_ok = abs(emp_bias - theo_bias) <= max(
                3.0 * se_bias, 0.10 * math.sqrt(m.var_ybar / reps)
            )
            if mse_ok and bias_ok:
                verdict = "ok"
            elif mse_ok:
                verdict = "bias-divergent"
            elif bias_ok:
                verdict = "mse-divergent"
            else:
                verdict = "mse+bias-divergent"
        rows.append(
            EstimatorOutcome(
                label=spec.label,
                constants=spec.constants(),
                reps=reps,
                valid=valid,
                error_counts=errors[i],
                empirical_mean=mean_v,
                empirical_bias=emp_bias,
                empirical_mse=emp_mse,
                se_bias=se_bias,
                se_mse=se_mse,
                theoretical_bias=theo_bias,
                theoretical_mse=theo_mse,
                verdict=verdict,
            )
        )
    return EmpiricalReport(
        label=pop.label,
        reps=reps,
        seed=seed,
        sample_sizes=n,
        policy=AGREEMENT_POLICY,
        rows=tuple(rows),
    )


def _subset_sum_runs(v: np.ndarray, k: int, rows: int):
    """Sums of the k-subsets of ``v`` in ``itertools.combinations`` order,
    ``rows`` at a time; the last run may be shorter.

    The k-subsets of v are, for each i in turn, v[i] plus each (k-1)-subset
    of v[i+1:].  Those are the tail of the (k-1)-subsets of v[1:], so one
    array of C(N - 1, k - 1) sums, found by recursion, serves every i, and
    the k-subsets are formed from it one run at a time.  As in
    ``_draw_block``, m = min(k, N - k) units are summed: for m < k the sums
    are the total minus those of the m left-out units, in reverse order,
    since complements reverse the order.
    """
    N = v.size
    m = min(k, N - k)
    total = float(v.sum())
    if m == 0:  # a census, or the empty subset
        yield np.array([total if k else 0.0])
        return
    level = _subset_sums(v[1:], m - 1)
    pieces = [(v[i], level[level.size - math.comb(N - i - 1, m - 1):]) for i in range(N - m + 1)]
    add = np.add
    if m < k:  # the total minus each sum: pieces and their tails reversed
        pieces = [(total - vi, tail[::-1]) for vi, tail in reversed(pieces)]
        add = np.subtract
    rows = min(rows, math.comb(N, m))
    run, filled = np.empty(rows), 0
    for vi, tail in pieces:
        while tail.size:
            take = min(tail.size, rows - filled)
            add(vi, tail[:take], out=run[filled:filled + take])
            filled, tail = filled + take, tail[take:]
            if filled == rows:
                yield run
                run, filled = np.empty(rows), 0
    if filled:
        yield run[:filled]


def _subset_sums(v: np.ndarray, k: int) -> np.ndarray:
    """Every sum of ``_subset_sum_runs`` in one array."""
    return next(_subset_sum_runs(v, k, math.comb(v.size, k)))


def enumeration_count(pop: Microdata, sample_sizes: Sequence[int]) -> int:
    """Number of distinct stratified samples for the given sizes."""
    n = checked_sample_sizes(pop, sample_sizes)
    total = 1
    for s, nh in zip(pop.strata, n):
        total *= math.comb(s.N, nh)
    return total


def enumerate_exact_moments(pop: Microdata, sample_sizes: Sequence[int]) -> CombinedMoments:
    """Design moments of (ybar_st, xbar_st) over every possible sample.

    A stratified sample is one independent SRSWOR sample per stratum, so
    over the product set of all samples ybar_st = sum W_h * ybar_h is a sum
    of independent coordinates: its mean, variances and covariance are
    exactly the sums of each stratum's own, taken over that stratum's
    C(N_h, n_h) samples alone.  Each stratum's y and x are centred on their
    own means, and its sample sums come from ``_subset_sum_runs`` in runs of
    at most ``_CHUNK``; each run's z = W_h * sum / n_h is added into five
    running sums: of y and x by pairwise ``np.add.reduce``, and of y*y, y*x
    and x*x by ``np.einsum`` (never BLAS).  The centred means lie near zero,
    so these raw sums do not cancel against a large mean; sum W_h * mean_h
    is added back to the means.  Returns the exact enumeration
    mean/variance/covariance (population divisor: every sample equally
    likely).  The work is sum C(N_h, n_h), and memory is bounded by one run
    and by the largest stratum's C(N_h - 1, m - 1) sums of its
    (m-1)-subsets.  Raises ValueError when the design's sample count, the
    product of the C(N_h, n_h), exceeds ``ENUMERATION_LIMIT``; fall back to
    seeded replication in that case.
    """
    n = checked_sample_sizes(pop, sample_sizes)
    total = enumeration_count(pop, n)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration of {total} samples exceeds the limit of {ENUMERATION_LIMIT}"
        )
    centre_y = centre_x = mean_y = mean_x = var_ybar = var_xbar = cov_xybar = 0.0
    for s, nh, w in zip(pop.strata, n, pop.weights):
        cy, cx = float(s.y.mean()), float(s.x.mean())
        s_y = s_x = s_yy = s_yx = s_xx = 0.0
        runs = zip(_subset_sum_runs(s.y - cy, nh, _CHUNK), _subset_sum_runs(s.x - cx, nh, _CHUNK))
        for zy, zx in runs:
            zy, zx = w * (zy / nh), w * (zx / nh)
            s_y += float(np.add.reduce(zy))
            s_x += float(np.add.reduce(zx))
            s_yy += float(np.einsum("i,i->", zy, zy))
            s_yx += float(np.einsum("i,i->", zy, zx))
            s_xx += float(np.einsum("i,i->", zx, zx))
        count = math.comb(s.N, nh)
        my, mx = s_y / count, s_x / count
        centre_y, centre_x = centre_y + w * cy, centre_x + w * cx
        mean_y, mean_x = mean_y + my, mean_x + mx
        var_ybar += s_yy / count - my * my
        var_xbar += s_xx / count - mx * mx
        cov_xybar += s_yx / count - my * mx
    return CombinedMoments(
        mean_y=centre_y + mean_y,
        mean_x=centre_x + mean_x,
        var_ybar=var_ybar,
        var_xbar=var_xbar,
        cov_xybar=cov_xybar,
    )
