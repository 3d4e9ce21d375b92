"""Stratified-design data model and combined design moments.

A design is described per stratum by the population size ``N``, the planned
sample size ``n``, the stratum means of the study variate y and auxiliary
variate x, and the stratum population variances/covariance with divisor
``N - 1``.  The sampling moments of the combined (weighted) sample means
under stratified SRSWOR are

    var_ybar  = sum_h  W_h^2 gamma_h var_y_h
    var_xbar  = sum_h  W_h^2 gamma_h var_x_h
    cov_xybar = sum_h  W_h^2 gamma_h cov_xy_h

with stratum weight ``W_h = N_h / N`` and finite-population factor
``gamma_h = 1/n_h - 1/N_h``, both derived from the counts, which
``as_count`` checks.  A population is a ``Microdata``.  Every type checks
its invariants when it is built, so one that exists is valid; all are
immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CorrelationOutOfRange,
    DegenerateStratum,
    NonPositiveCount,
    SampleExceedsStratum,
    ValidationError,
    ZeroAuxiliaryMean,
)

CORRELATION_TOL = 1e-9


def as_count(value, what: str) -> int:
    """``value`` as an int, if it is a count: an integer or an integral float.

    Booleans, strings, NaN, infinities and fractions raise ValidationError
    ``"<what> <value> is not an integer"``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"{what} {value!r} is not an integer")


def _weights(strata) -> tuple[float, ...]:
    """Stratum weights W_h = N_h / N."""
    N = sum(s.N for s in strata)
    return tuple(s.N / N for s in strata)


@dataclass(frozen=True)
class StratumSummary:
    """Per-stratum sizes and population moments (variance divisor N - 1).

    Built only valid: index >= 1 and 1 <= n <= N are counts stored as ints,
    the moments are finite, the variances >= 0 and |rho| <= 1.
    """

    index: int
    N: int
    n: int
    mean_y: float
    mean_x: float
    var_y: float
    var_x: float
    cov_xy: float

    def __post_init__(self) -> None:
        index = as_count(self.index, "stratum index")
        if index < 1:
            raise ValidationError(f"stratum indexes must be positive: [{index}]")
        where = f"stratum {index}"
        N = as_count(self.N, f"{where}: N")
        n = as_count(self.n, f"{where}: n")
        for name, count in (("index", index), ("N", N), ("n", n)):
            object.__setattr__(self, name, count)
        if N <= 0 or n <= 0:
            raise NonPositiveCount(f"{where}: N={N}, n={n} must be positive")
        if n > N:
            raise SampleExceedsStratum(f"{where}: sample size {n} exceeds population {N}")
        moments = (self.mean_y, self.mean_x, self.var_y, self.var_x, self.cov_xy)
        if not all(abs(v) <= sys.float_info.max for v in moments):  # false for NaN
            raise ValidationError(f"{where}: non-finite moment")
        if self.var_y < 0 or self.var_x < 0:
            raise ValidationError(f"{where}: negative variance")
        if abs(self.cov_xy) > self.sd_x * self.sd_y * (1.0 + CORRELATION_TOL) + CORRELATION_TOL:
            raise CorrelationOutOfRange(f"{where}: |rho| = {abs(self.rho):.6g} exceeds 1")

    @classmethod
    def from_correlation(
        cls, index: int, N: int, n: int, mean_y: float, mean_x: float,
        var_y: float, var_x: float, rho: float,
    ) -> "StratumSummary":
        """Build a summary from a correlation instead of a covariance.

        Converts via cov_xy = rho * sd_x * sd_y; both parameterizations
        populate the same field.  A negative variance is left for the
        constructor to reject.
        """
        cov = rho * math.sqrt(max(var_x, 0.0)) * math.sqrt(max(var_y, 0.0))
        return cls(index, N, n, mean_y, mean_x, var_y, var_x, cov)

    @property
    def gamma(self) -> float:
        """Finite-population sampling factor 1/n - 1/N."""
        return 1.0 / self.n - 1.0 / self.N

    @property
    def sd_y(self) -> float:
        return math.sqrt(self.var_y)

    @property
    def sd_x(self) -> float:
        return math.sqrt(self.var_x)

    @property
    def rho(self) -> float:
        """Within-stratum correlation; 0 by convention if either sd is 0."""
        denom = self.sd_x * self.sd_y
        if denom == 0.0:
            return 0.0
        return self.cov_xy / denom


@dataclass(frozen=True)
class DesignSummary:
    """An ordered collection of stratum summaries plus design-level fields.

    Strata are sorted by index, so sums are reproducible; an empty or
    repeated index set and a non-finite ``known_mean_x`` are rejected.
    ``known_mean_x``, when given, is used as the auxiliary population mean in
    place of the weighted stratum-mean aggregate (the estimators assume the
    auxiliary mean is known).
    """

    strata: tuple[StratumSummary, ...]
    known_mean_x: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        strata = tuple(sorted(self.strata, key=lambda s: s.index))
        if not strata:
            raise NonPositiveCount("design has no strata")
        indexes = [s.index for s in strata]
        if len(set(indexes)) != len(indexes):
            raise ValidationError(f"duplicate stratum indexes: {indexes}")
        if self.known_mean_x is not None and not abs(self.known_mean_x) <= sys.float_info.max:
            raise ValidationError(f"known_mean_x {self.known_mean_x!r} is not finite")
        object.__setattr__(self, "strata", strata)

    @property
    def N(self) -> int:
        return sum(s.N for s in self.strata)

    @property
    def n(self) -> int:
        return sum(s.n for s in self.strata)

    @property
    def sample_sizes(self) -> tuple[int, ...]:
        return tuple(s.n for s in self.strata)

    @property
    def weights(self) -> tuple[float, ...]:
        return _weights(self.strata)


@dataclass(frozen=True)
class CombinedMoments:
    """Aggregated design moments of the combined stratified sample means;
    a zero ``mean_x`` leaves R = mean_y / mean_x undefined and is rejected."""

    mean_y: float
    mean_x: float
    var_ybar: float
    var_xbar: float
    cov_xybar: float

    def __post_init__(self) -> None:
        if self.mean_x == 0.0:
            raise ZeroAuxiliaryMean("auxiliary population mean is zero; ratio undefined")

    @property
    def ratio(self) -> float:
        return self.mean_y / self.mean_x


@dataclass(frozen=True)
class MicrodataStratum:
    """Raw unit-level values of one stratum (full population)."""

    index: int
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 1 or x.ndim != 1 or y.size != x.size or y.size == 0:
            raise DegenerateStratum(
                f"stratum {self.index}: y and x must be equal-length nonempty vectors"
            )
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            raise DegenerateStratum(f"stratum {self.index}: non-finite values")
        y.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def N(self) -> int:
        return int(self.y.size)


@dataclass(frozen=True)
class Microdata:
    """Unit-level (y, x) values for every stratum of a finite population."""

    strata: tuple[MicrodataStratum, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "strata", tuple(self.strata))

    @property
    def weights(self) -> tuple[float, ...]:
        return _weights(self.strata)


def checked_sample_sizes(
    data: Microdata, sample_sizes: Mapping[int, int] | Sequence[int]
) -> tuple[int, ...]:
    """The sample size of every stratum of ``data``, in stratum order.

    ``sample_sizes`` maps stratum index to n_h, or gives the n_h in stratum
    order.  A size for a stratum that ``data`` does not hold is rejected,
    so a mistyped label cannot pass unnoticed; so are a missing size, a
    size that is not a count (``as_count``), n_h < 1 and n_h > N_h.
    """
    if isinstance(sample_sizes, Mapping):
        held = {s.index for s in data.strata}
        unheld = [str(index) for index in sample_sizes if index not in held]
        if unheld:
            raise DegenerateStratum(
                f"stratum {', '.join(unheld)}: sample size given, but no units"
            )
        missing = [s.index for s in data.strata if s.index not in sample_sizes]
        if missing:
            raise DegenerateStratum(f"stratum {missing[0]}: no sample size given")
        sizes = tuple(sample_sizes[s.index] for s in data.strata)
    else:
        sizes = tuple(sample_sizes)
        if len(sizes) != len(data.strata):
            raise ValidationError(
                f"expected {len(data.strata)} sample sizes, got {len(sizes)}"
            )
    out = []
    for s, size in zip(data.strata, sizes):
        n = as_count(size, f"stratum {s.index}: sample size")
        if n <= 0:
            raise NonPositiveCount(f"stratum {s.index}: n={n} must be positive")
        if n > s.N:
            raise SampleExceedsStratum(
                f"stratum {s.index}: sample size {n} exceeds population {s.N}"
            )
        out.append(n)
    return tuple(out)


def validate_design(design: DesignSummary) -> DesignSummary:
    """Return ``design``: a DesignSummary is checked when it is built.  Kept
    for callers of the earlier API, which checked a design here."""
    return design


def _centred_moments(*variates: np.ndarray) -> tuple[list[float], list[float]]:
    """(means, centred sums) of equally long nonempty 1-D variates.

    Each mean is taken once, as ``np.add.reduce(u) / u.size`` (the bits of
    ``u.mean()``), and each variate is centred on it once.  The centred sums
    are the sums of (u_i - mean_i) * (u_j - mean_j) for i <= j in row order,
    [ss] for one variate and [yy, yx, xx] for two, each by numpy's pairwise
    ``np.add.reduce`` (Higham 2002, 4.2), never BLAS: thread-count independent.
    """
    means = [float(np.add.reduce(u) / u.size) for u in variates]
    devs = [u - mu for u, mu in zip(variates, means)]
    return means, [float(np.add.reduce(d * e)) for i, d in enumerate(devs) for e in devs[i:]]


def summarize_stratum(stratum: MicrodataStratum, n: int) -> StratumSummary:
    """Compute a StratumSummary from the raw values of one stratum.

    Means are arithmetic means; variances and the covariance use divisor
    N - 1, their centred sums formed by ``_centred_moments``.  ``n`` is the
    planned sample size for the stratum, checked by ``StratumSummary``.
    """
    N = stratum.N
    if N < 2:
        raise DegenerateStratum(
            f"stratum {stratum.index}: needs at least 2 units, got {N}"
        )
    (mean_y, mean_x), (s_yy, s_yx, s_xx) = _centred_moments(stratum.y, stratum.x)
    return StratumSummary(
        stratum.index, N, n, mean_y, mean_x, s_yy / (N - 1), s_xx / (N - 1), s_yx / (N - 1)
    )


def design_from_microdata(
    data: Microdata, sample_sizes: Mapping[int, int] | Sequence[int]
) -> DesignSummary:
    """Summarize every stratum of ``data`` and assemble its design.

    ``sample_sizes`` is read by ``checked_sample_sizes``.
    """
    n = checked_sample_sizes(data, sample_sizes)
    summaries = tuple(summarize_stratum(s, nh) for s, nh in zip(data.strata, n))
    return DesignSummary(summaries, label=data.label)


def aggregate_moments(design: DesignSummary) -> CombinedMoments:
    """Aggregate a design into the combined moments used by every formula.

    mean_y = sum W_h mean_y_h and mean_x = sum W_h mean_x_h (the latter
    overridden by ``known_mean_x`` when present); the variance/covariance
    sums run over strata in ascending index order.
    """
    mean_y = 0.0
    mean_x_agg = 0.0
    var_ybar = 0.0
    var_xbar = 0.0
    cov_xybar = 0.0
    for s, w in zip(design.strata, design.weights):
        wwg = w * w * s.gamma
        mean_y += w * s.mean_y
        mean_x_agg += w * s.mean_x
        var_ybar += wwg * s.var_y
        var_xbar += wwg * s.var_x
        cov_xybar += wwg * s.cov_xy
    mean_x = design.known_mean_x if design.known_mean_x is not None else mean_x_agg
    return CombinedMoments(
        mean_y=mean_y,
        mean_x=mean_x,
        var_ybar=var_ybar,
        var_xbar=var_xbar,
        cov_xybar=cov_xybar,
    )
