"""Monte Carlo verification harness for the estimator formulas.

Synthesizes finite populations whose stratum moments match a target design
exactly, replicates stratified SRSWOR draws, and compares the empirical
bias/MSE of every estimator against the first-order formulas.  Exhaustive
enumeration of all samples is available where the combination count is
feasible, giving exact design moments instead of simulated ones.  It
streams the samples in chunks of at most ``_CHUNK``, in one fixed order, so
its memory is bounded by the chunk and not by the sample count.

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
from itertools import product
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
from .errors import DegenerateStratum, InfeasibleMoments
from .estimators import EstimatorSpec, estimate_many

#: Replication block size; part of the random-stream definition.
_BLOCK = 4096

#: Most samples in one chunk of the exact enumeration; fixes its sum order.
_CHUNK = 1 << 14

#: Most samples ``enumerate_exact_moments`` forms; past it, use ``replicate``.
ENUMERATION_LIMIT = 10_000_000

#: (count, means, centred sums) of a block of samples; see ``_moments``.
#: ``replicate`` holds the states of all its estimators in one, with an
#: array of one entry per state in place of each number.
_Moments = tuple[int, list[float], list[float]]

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
    each row of a block, as an (m, count) array: ``picks[:, r]`` is row r's.

    Step j (N-m <= j < N) draws t uniform on 0..j and keeps t, or j where
    the row already holds t; every m-subset comes out equally likely.  The
    membership check costs O(count * m**2) comparisons.

    The work is stratum-major: ``picks[i]`` holds step i for all ``count``
    rows, so the check reduces over the outer, contiguous axis, and a
    repeat is marked in place.  The random numbers are one ``integers`` call
    of ``count`` per step, in step order, the stream a row-major loop makes.
    ``_gathered_sum`` gathers this index one step at a time and adds the
    steps in numpy's pairwise order, so each row's sum has the bits of a
    row-major (count, m) gather summed along axis 1, for a given numpy
    build.
    """
    picks = np.empty((m, count), dtype=np.intp)
    for i, j in enumerate(range(N - m, N)):
        t = rng.integers(0, j + 1, size=count)
        if i:  # step 0 has no earlier pick to repeat
            np.putmask(t, (picks[:i] == t).any(axis=0), j)
        picks[i] = t
    return picks


def _gathered_sum(v: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """``v[picks].sum(axis=0)`` for an (m, count) index, gathered one step at
    a time and added in numpy's pairwise order along a contiguous axis.

    Fewer than 8 terms are added in sequence; 8 to 128 go to 8 accumulators,
    joined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the remainder follows
    in sequence; more terms split at n//2 - (n//2)%8 and recurse.  So each
    row gets the bits of ``v[picks.T].sum(axis=1)`` on a C-ordered index.
    """
    m = len(picks)
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _gathered_sum(v, picks[:half]) + _gathered_sum(v, picks[half:])
    if m < 8:
        acc = v[picks[0]] if m else np.zeros(picks.shape[1])
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
    contributes its mean to every row.
    """
    yb = np.zeros(count)
    xb = np.zeros(count)
    for s, nh, w in zip(pop.strata, n, weights):
        m = min(nh, s.N - nh)
        picks = _floyd_picks(rng, s.N, m, count)
        sum_y, sum_x = _gathered_sum(s.y, picks), _gathered_sum(s.x, picks)
        if m < nh:  # the drawn units are the complement of the sample
            sum_y, sum_x = float(s.y.sum()) - sum_y, float(s.x.sum()) - sum_x
        yb += w * sum_y / nh
        xb += w * sum_x / nh
    return yb, xb


def _moments(*variates: np.ndarray) -> _Moments:
    """(count, means, centred sums) of one block of equally long variates.

    The means and centred sums are ``_centred_moments``: [ss] for one
    variate, [yy, yx, xx] for two.
    """
    k = len(variates)
    if variates[0].size == 0:
        return 0, [0.0] * k, [0.0] * (k * (k + 1) // 2)
    return (variates[0].size, *_centred_moments(*variates))


def _merge_moments(a: _Moments, b: _Moments) -> _Moments:
    """Pool two ``_moments`` states of the same variates; an empty state
    leaves the other as it is.

    The pairwise update of Chan, Golub & LeVeque (1983), co-moments
    included: no sum of raw products is formed, so a large mean does not
    swamp the spread.  The counts, means and sums may also be equally long
    arrays, one entry per state: the same arithmetic then pools every
    state elementwise, with the bits of one call per state.
    """
    na, means_a, sums_a = a
    nb, means_b, sums_b = b
    elementwise = isinstance(na, np.ndarray)
    if not elementwise:
        if nb == 0:
            return a
        if na == 0:
            return b
    n = na + nb
    div = np.maximum(n, 1) if elementwise else n  # two empty states: no 0/0
    delta = [mb - ma for ma, mb in zip(means_a, means_b)]
    products = [d * e for i, d in enumerate(delta) for e in delta[i:]]
    means = [ma + d * nb / div for ma, d in zip(means_a, delta)]
    sums = [sa + sb + p * na * nb / div for sa, sb, p in zip(sums_a, sums_b, products)]
    if elementwise and not (na.all() and nb.all()):
        empty_a, empty_b = na == 0, nb == 0

        def keep(x_a, x_b, x):
            return np.where(empty_b, x_a, np.where(empty_a, x_b, x))

        means = [keep(*t) for t in zip(means_a, means_b, means)]
        sums = [keep(*t) for t in zip(sums_a, sums_b, sums)]
    return n, means, sums


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
    theory = [mse_mod.analyze(spec, m) for spec in resolved]

    k = len(resolved)
    errors: list[dict[str, int]] = [{} for _ in resolved]

    def run_block(b: int, count: int) -> _Moments:
        """Block b's ``_moments`` state over 2k entries: spec i's estimates
        v at i, q = (v - mean_y)**2 at k + i; its error tallies go to
        ``errors``.  A function, so its arrays are freed before the next draw."""
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
        counts, means, sums = np.full(2 * k, count), np.empty(2 * k), np.empty(2 * k)
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
                for j, (c, (mu,), (ss,)) in ((i, _moments(v)), (k + i, _moments(q))):
                    counts[j], means[j], sums[j] = c, mu, ss
        return counts, [means], [sums]

    # fixed block order: deterministic sums
    pooled, (pooled_means,), (pooled_sums,) = reduce(
        _merge_moments,
        (run_block(b, min(_BLOCK, reps - s)) for b, s in enumerate(range(0, reps, _BLOCK))),
    )
    rows = []
    for i, (spec, theo) in enumerate(zip(resolved, theory)):
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
            mse_ok = abs(emp_mse - theo.mse) <= max(3.0 * se_mse, 0.05 * abs(theo.mse))
            bias_ok = abs(emp_bias - theo.bias) <= max(
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
                theoretical_bias=theo.bias,
                theoretical_mse=theo.mse,
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


def _subset_sums(v: np.ndarray, k: int) -> np.ndarray:
    """Sums of the k-subsets of ``v`` in ``itertools.combinations`` order.

    The j-subsets of v[i:] are v[i] plus each (j-1)-subset of v[i+1:],
    followed by the j-subsets of v[i+1:].  So the sums over a suffix are
    the tail of those over a longer one, and size j, over v[m-j:], is built
    from size j - 1 in N - m + 1 slices.  As in ``_draw_block``,
    m = min(k, N - k): for m < k the sums are the total minus those of the
    m left-out units, in reverse order, since complements reverse the order.
    """
    N = v.size
    m = min(k, N - k)
    level = v[m - 1:] if m else np.zeros(1)
    for j in range(2, m + 1):
        out = np.empty(math.comb(N - m + j, j))
        pos = 0
        for i in range(m - j, N - j + 1):
            tail = level[level.size - math.comb(N - i - 1, j - 1):]
            np.add(v[i], tail, out=out[pos:pos + tail.size])
            pos += tail.size
        level = out
    return float(v.sum()) - level[::-1] if m < k else level


def _enumerated_means(pop: Microdata, n: tuple[int, ...]):
    """Every sample's (ybar_st, xbar_st), in chunks of at most ``_CHUNK``.

    The order is the C order of the stratum axes, the last stratum fastest,
    each stratum's samples in ``itertools.combinations`` order.  The last
    strata whose sample counts multiply to at most ``_CHUNK`` form one inner
    block, broadcast once.  Each chunk adds a run of the preceding
    stratum's samples, and the outer strata's sum, to that block.
    """
    terms = [
        (w * (_subset_sums(s.y, nh) / nh), w * (_subset_sums(s.x, nh) / nh))
        for s, nh, w in zip(pop.strata, n, pop.weights)
    ]
    split, size = len(terms), 1
    while split and size * terms[split - 1][0].size <= _CHUNK:
        split -= 1
        size *= terms[split][0].size
    inner_y = inner_x = np.zeros(1)
    for ty, tx in terms[split:]:
        inner_y = (inner_y[:, None] + ty).ravel()
        inner_x = (inner_x[:, None] + tx).ravel()
    if split == 0:
        yield inner_y, inner_x
        return
    split -= 1  # the stratum whose samples the chunks cut into runs
    ty, tx = terms[split]
    rows = _CHUNK // size
    for outer in product(*(range(t[0].size) for t in terms[:split])):
        oy = ox = 0.0
        for (y, x), i in zip(terms, outer):
            oy += y[i]
            ox += x[i]
        for r in range(0, ty.size, rows):
            yield (
                ((oy + ty[r:r + rows])[:, None] + inner_y).ravel(),
                ((ox + tx[r:r + rows])[:, None] + inner_x).ravel(),
            )


def enumeration_count(pop: Microdata, sample_sizes: Sequence[int]) -> int:
    """Number of distinct stratified samples for the given sizes."""
    n = checked_sample_sizes(pop, sample_sizes)
    total = 1
    for s, nh in zip(pop.strata, n):
        total *= math.comb(s.N, nh)
    return total


def enumerate_exact_moments(pop: Microdata, sample_sizes: Sequence[int]) -> CombinedMoments:
    """Design moments of (ybar_st, xbar_st) over every possible sample.

    Forms every sample's combined means, chunk by chunk in the fixed order
    of ``_enumerated_means``, and pools each chunk's means and centred sums
    in that order with ``_merge_moments``.  Each stratum's y and x are first
    centred on their own means, which are added back to the pooled means as
    sum W_h * mean_h: the chunk means then carry no error of order
    eps * |mean| for the merge to square.  Returns the exact enumeration
    mean/variance/covariance (population divisor: every sample equally
    likely).  Memory is bounded by the chunk and each stratum's own sample
    means, not by the sample count.  Raises ValueError when the combination
    count exceeds ``ENUMERATION_LIMIT``; fall back to seeded replication in that case.
    """
    n = checked_sample_sizes(pop, sample_sizes)
    total = enumeration_count(pop, n)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration of {total} samples exceeds the limit of {ENUMERATION_LIMIT}"
        )
    centres = [(float(s.y.mean()), float(s.x.mean())) for s in pop.strata]
    centred = Microdata(tuple(
        MicrodataStratum(s.index, s.y - my, s.x - mx)
        for s, (my, mx) in zip(pop.strata, centres)
    ))
    _, (mean_y, mean_x), (s_yy, s_yx, s_xx) = reduce(
        _merge_moments, (_moments(yb, xb) for yb, xb in _enumerated_means(centred, n))
    )
    return CombinedMoments(
        mean_y=sum(w * my for w, (my, _) in zip(pop.weights, centres)) + mean_y,
        mean_x=sum(w * mx for w, (_, mx) in zip(pop.weights, centres)) + mean_x,
        var_ybar=s_yy / total,
        var_xbar=s_xx / total,
        cov_xybar=s_yx / total,
    )
