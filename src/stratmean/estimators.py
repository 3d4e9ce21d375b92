"""Point estimators of the population mean under stratified SRSWOR.

Every estimator combines the stratified sample means ``ybar_st`` and
``xbar_st`` with the known auxiliary population mean ``mean_x``.  Two
auxiliary transforms appear throughout:

* exponent family       f = 2 - (xbar_st / mean_x) ** w
* mixing-ratio family   f = ((xbar_st + a * (mean_x - xbar_st))
                             / (xbar_st + b * (mean_x - xbar_st))) ** p

T1 and T2 apply one transform to ``ybar_st``.  The dual-constant
estimators rescale the study term by ``k1`` and add a difference term
``k2 * (mean_x - xbar_st)``: T3/T4 transform the whole combination, T5/T6
transform only the scaled study term.  The baselines are fixed points of
the two families: the plain stratified mean is the exponent family at
w = 0, the combined ratio estimator ``ybar_st * mean_x / xbar_st`` the
mixing family at (p, a, b) = (1, 1, 0), and the combined product estimator
``ybar_st * xbar_st / mean_x`` the mixing family at (1, 0, 1).
``EstimatorKind`` declares each kind once, as its family, its placement
(``mean``, ``whole`` or ``study``) and, for a baseline, its fixed shape;
what a kind takes and how it combines are derived from that.

An ``EstimatorSpec`` is one kind with its constants: the shape ``w`` or
(p, a, b), then (k1, k2) on the dual kinds.  Each is None until
``mse.resolve_spec`` fills it in, and ``transform_coefficients`` reads the
family's Taylor coefficients off a spec, at a baseline's fixed shape.

``estimate_many`` is the one evaluation path.  It takes a sequence of
specs and evaluates them together on arrays of draws, forming
``mean_x - xbar_st`` once and each distinct transform once: T1, T3 and T5
at one ``w`` share a power, as do T2, T4 and T6 at one (p, a, b).  The
baselines keep their closed forms there, since the family transforms round
them differently in the last bit.  The scalar ``estimate`` is a one-spec,
one-draw call of it.

All functions are pure; the scalar ``estimate`` raises typed errors while
the batch evaluator flags invalid draws instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import KW_ONLY, dataclass
from typing import Sequence

import numpy as np

from .errors import NonPositiveBase, ZeroDenominator


class EstimatorKind(enum.Enum):
    """The nine estimators, declared once each, in the comparison table's order.

    A member is (name, family, placement[, fixed shape]).  The family is the
    auxiliary transform, ``exponent`` or ``mixing``; the placement is what it
    multiplies: ``mean``, ybar_st alone; ``whole``, the whole k1/k2
    combination; ``study``, only the k1-scaled study term.  The baselines are
    fixed points of a family, and take no shape constants of their own.
    """

    T1 = ("t1", "exponent", "mean")
    T2 = ("t2", "mixing", "mean")
    T3 = ("t3", "exponent", "whole")
    T4 = ("t4", "mixing", "whole")
    T5 = ("t5", "exponent", "study")
    T6 = ("t6", "mixing", "study")
    COMBINED_RATIO = ("ratio", "mixing", "mean", (1.0, 1.0, 0.0))
    COMBINED_PRODUCT = ("product", "mixing", "mean", (1.0, 0.0, 1.0))
    UNBIASED = ("unbiased", "exponent", "mean", (0.0,))

    def __new__(cls, name: str, family: str, placement: str, fixed_shape=None):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.family, kind.placement, kind.fixed_shape = family, placement, fixed_shape
        return kind

    @property
    def is_dual(self) -> bool:
        """True for the four (k1, k2) estimators."""
        return self.placement != "mean"

    @property
    def shape_names(self) -> tuple[str, ...]:
        """The ``EstimatorSpec`` fields the kind's transform takes."""
        if self.fixed_shape is not None:
            return ()
        return ("w",) if self.family == "exponent" else ("p", "a", "b")

    @property
    def constant_names(self) -> tuple[str, ...]:
        """Every constant the kind takes, shape first, by its flag name."""
        return self.shape_names + (("k1", "k2") if self.is_dual else ())


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator kind plus its constants, each None until resolved.

    ``w`` is the exponent-family power; ``p``, ``a``, ``b`` parameterize the
    mixing-ratio family; ``k1``, ``k2`` are the dual constants.  The
    constants are keyword-only, and only those in ``kind.constant_names``
    are read.  An unset shape resolves to the optimal or table default, and
    unset (k1, k2) to the MSE-optimal pair; point evaluation requires every
    constant the kind uses.
    """

    kind: EstimatorKind
    _: KW_ONLY
    w: float | None = None
    p: float | None = None
    a: float | None = None
    b: float | None = None
    k1: float | None = None
    k2: float | None = None

    @property
    def label(self) -> str:
        return self.kind.value

    def constants(self) -> dict[str, float]:
        """The set constants among ``kind.constant_names``, keyed by name."""
        values = {name: getattr(self, name) for name in self.kind.constant_names}
        return {name: v for name, v in values.items() if v is not None}

    def shape(self) -> tuple[float, ...]:
        """The values of ``kind.shape_names``; ValueError while one is unset."""
        values = tuple([getattr(self, name) for name in self.kind.shape_names])
        if None in values:
            names = ", ".join(self.kind.shape_names)
            raise ValueError(f"{self.kind.value} requires shape constants ({names})")
        return values

    def dual_constants(self) -> tuple[float, float]:
        """(k1, k2) of a resolved spec; (1, 0) for the kinds without them."""
        if not self.kind.is_dual:
            return 1.0, 0.0
        if self.k1 is None or self.k2 is None:
            raise ValueError(f"{self.kind.value} requires explicit (k1, k2)")
        return float(self.k1), float(self.k2)


def transform_coefficients(spec: EstimatorSpec) -> tuple[float, float]:
    """First- and second-order Taylor coefficients of the auxiliary transform.

    Writing e = xbar_st/mean_x - 1, the transform of ``spec.kind``'s family
    expands as 1 + phi1*e + phi2*e**2 + O(e**3), at the spec's shape or, for
    a baseline, at ``kind.fixed_shape``.  The exponent family has
    phi1 = -w, so the plain mean (w = 0) has (0, 0); the mixing family has
    phi1 = delta = p*(b-a), so the ratio correction mean_x/xbar_st at
    (p, a, b) = (1, 1, 0) has (-1, 1), and the product correction at
    (1, 0, 1) has (1, 0).  A coefficient too large for a float raises
    OverflowError in either family.
    """
    shape = spec.kind.fixed_shape or spec.shape()
    if spec.kind.family == "exponent":
        (w,) = shape
        # 0.0 - w, not -w, so that the plain mean's phi1 is +0, not -0
        phi1, phi2 = 0.0 - w, -w * (w - 1.0) / 2.0
        if not math.isfinite(phi2):  # phi2 is inf or nan wherever phi1 is
            raise OverflowError(f"exponent-family coefficients of w={w!r} are not finite")
        return phi1, phi2
    p, a, b = shape
    return p * (b - a), (p * p * (a - b) ** 2 + p * (b * b - a * a + 2.0 * (a - b))) / 2.0


def _guarded_power(num: np.ndarray, den: np.ndarray | float, e: float):
    """(num / den) ** e where it is real, with masks where it is not.

    ``num`` is a float array and ``den`` one of its shape, or a nonzero
    float, which needs no zero check.  Returns (powed, zero_den, bad_base):
    zero_den marks a vanishing denominator, or a zero base raised to a
    negative integer power; bad_base marks a non-positive base raised to a
    fractional power.  ``powed`` is nan where either holds.
    """
    with np.errstate(all="ignore"):
        base = num / den
        scalar_den = not isinstance(den, np.ndarray)
        zero_den = np.zeros(base.shape, dtype=bool) if scalar_den else den == 0.0
        if float(e).is_integer():
            bad_base = np.zeros_like(zero_den)
            if e < 0:
                zero_den |= base == 0.0
        else:
            bad_base = base <= 0.0
            if not scalar_den:
                bad_base &= ~zero_den
        invalid = zero_den | bad_base
        if invalid.any():
            powed = np.where(invalid, np.nan, np.power(np.where(invalid, 1.0, base), e))
        else:
            powed = np.power(base, e)
    return powed, zero_den, bad_base


def _combine(kind: EstimatorKind, ybar, diff, factor, k1: float, k2: float):
    if kind.placement == "whole":
        return (k1 * ybar + k2 * diff) * factor
    return k1 * ybar * factor + k2 * diff


@dataclass(frozen=True)
class BatchEstimates:
    """Vectorized estimates with per-draw validity and error tallies."""

    values: np.ndarray  # nan where invalid
    valid: np.ndarray
    error_counts: dict[str, int]


def _flags(zero_den: np.ndarray, bad_base: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
    """(valid mask, error tallies by code) of a transform's two masks."""
    counts: dict[str, int] = {}
    if zero_den.any():
        counts["zero-denominator"] = int(zero_den.sum())
    if bad_base.any():
        counts["non-positive-base"] = int(bad_base.sum())
    return ~(zero_den | bad_base), counts


def estimate_many(
    specs: Sequence[EstimatorSpec], ybar_st, xbar_st, mean_x: float
) -> list[BatchEstimates]:
    """Evaluate every spec on arrays of combined sample means, in order.

    ``mean_x - xbar_st`` is formed once, and each distinct transform once,
    with its validity: the exponent family keyed by ``w``, the mixing family
    by (p, a, b).  Specs that share a transform share its factor and its
    ``valid`` mask, so a spec's values have the bits it gets when evaluated
    alone.  Invalid draws (zero denominators, non-real powers) are nan,
    masked out and tallied by error code rather than raised; the scalar
    ``estimate`` below shares this code path and raises instead.  Only a
    zero ``mean_x`` is refused outright: a negative one is a valid design,
    and the transforms that need a positive base flag the draws where they
    do not get one.
    """
    ybar = np.asarray(ybar_st, dtype=float)
    xbar = np.asarray(xbar_st, dtype=float)
    if mean_x == 0.0:
        raise ZeroDenominator("auxiliary population mean is zero")
    diff = mean_x - xbar
    all_valid = np.ones(ybar.shape, dtype=bool)
    transforms: dict[tuple, tuple[np.ndarray, np.ndarray, dict[str, int]]] = {}

    def transform(spec: EstimatorSpec):
        """(factor, valid, error tallies) of the spec's transform."""
        key = spec.shape()
        if key not in transforms:
            if spec.kind.family == "exponent":
                (w,) = key
                powed, zero_den, bad_base = _guarded_power(xbar, mean_x, w)
                factor = 2.0 - powed
            else:
                p, a, b = key
                factor, zero_den, bad_base = _guarded_power(xbar + a * diff, xbar + b * diff, p)
            transforms[key] = (factor, *_flags(zero_den, bad_base))
        return transforms[key]

    out = []
    for spec in specs:
        kind = spec.kind
        k1, k2 = spec.dual_constants()
        valid, counts = all_valid, {}
        if kind is EstimatorKind.UNBIASED:
            values = ybar + 0.0
        elif kind is EstimatorKind.COMBINED_RATIO:
            zero_den = xbar == 0.0
            valid, counts = _flags(zero_den, np.zeros_like(zero_den))
            with np.errstate(all="ignore"):
                values = ybar * mean_x / xbar
        elif kind is EstimatorKind.COMBINED_PRODUCT:
            values = ybar * xbar / mean_x
        else:
            factor, valid, counts = transform(spec)
            values = _combine(kind, ybar, diff, factor, k1, k2)
        if counts:
            values = np.where(valid, values, np.nan)
        out.append(BatchEstimates(values=values, valid=valid, error_counts=dict(counts)))
    return out


def estimate(spec: EstimatorSpec, ybar_st: float, xbar_st: float, mean_x: float) -> float:
    """Evaluate any estimator spec with fully resolved constants."""
    (batch,) = estimate_many([spec], np.array([ybar_st]), np.array([xbar_st]), mean_x)
    if "zero-denominator" in batch.error_counts:
        raise ZeroDenominator(
            f"{spec.kind.value}: denominator vanishes at xbar_st={xbar_st!r}"
        )
    if "non-positive-base" in batch.error_counts:
        raise NonPositiveBase(
            f"{spec.kind.value}: fractional power of a non-positive base"
        )
    return float(batch.values[0])
