"""First-order bias/MSE analysis, optimal constants, and efficiency tables.

Write e0 = ybar_st/mean_y - 1 and e1 = xbar_st/mean_x - 1.  Under
stratified SRSWOR, E[e0] = E[e1] = 0 and the second moments are the
combined design moments scaled by the population means.  Expanding an
estimator's auxiliary transform as 1 + phi1*e1 + phi2*e1**2 (see
``estimators.transform_coefficients``) and keeping every term whose
expectation is of first order gives, for every estimator, one quadratic
in the dual constants (k1, k2):

      MSE(k1, k2) = mean_y**2 (k1-1)**2 + s k1**2 + 2 c k1 (k1-1)
                    + b k2**2 + 2 d k2 - 2 e k1 k2

and its first-order bias is linear in them:

      bias(k1, k2) = (k1-1) mean_y + k1 B - kappa k2 phi1 var_xbar / mean_x

with kappa = 1 when the transform multiplies the whole combination
(T3, T4) and 0 otherwise, and

      s = var_ybar + phi1**2 R**2 var_xbar + 2 phi1 R cov_xybar
      B = phi1 cov_xybar / mean_x + phi2 mean_y var_xbar / mean_x**2
      b = var_xbar
      c = phi1 R cov_xybar + phi2 R**2 var_xbar
      d = kappa * phi1 * R * var_xbar
      e = cov_xybar + (1 + kappa) * phi1 * R * var_xbar

The plain mean, the combined ratio and product estimators, T1 and T2 sit
at (k1, k2) = (1, 0), where the MSE is s and the bias B.  The dual
estimators T3..T6 move off it; writing a = s + 2 c, their optimum solves
the 2x2 normal equations

      (mean_y**2 + a) k1 - e k2 = mean_y**2 + c
      -e k1 + b k2 = -d

``quadratic_form`` works out (phi1, phi2, kappa) of a spec once and
returns a ``QuadraticMseForm`` that carries both lines, ``value(k1, k2)``
and ``bias(k1, k2)``; ``analyze`` reads every first-order result off it.
Every function here takes an ``EstimatorSpec``; ``quadratic_form`` and
``optimal_dual`` read only its kind and shape constants.  Percent relative
efficiency is 100 * var_ybar / MSE, so the plain stratified mean scores
exactly 100.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

from .design import CombinedMoments, DesignSummary, aggregate_moments
from .errors import ComputationError, ZeroMse
from .estimators import EstimatorKind, EstimatorSpec, transform_coefficients

#: |det| below this fraction of its natural scale counts as singular.
SINGULAR_REL_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticMseForm:
    """The MSE(k1, k2) surface and bias(k1, k2) line of a spec (module
    docstring).

    ``s`` is the MSE at (k1, k2) = (1, 0), so ``value(1, 0)`` returns it
    exactly; the docstring's ``a`` is ``s + 2 c`` and its B is
    ``shape_bias``.  ``b`` is var_xbar, and ``kappa_phi1`` is kappa * phi1.
    """

    mean_y: float
    mean_x: float
    s: float
    b: float
    c: float
    d: float
    e: float
    shape_bias: float
    kappa_phi1: float

    @property
    def ybar_sq(self) -> float:
        return self.mean_y * self.mean_y

    @property
    def a(self) -> float:
        return self.s + 2.0 * self.c

    def value(self, k1: float, k2: float) -> float:
        return (
            self.ybar_sq * (k1 - 1.0) ** 2
            + self.s * k1 * k1
            + 2.0 * self.c * k1 * (k1 - 1.0)
            + self.b * k2 * k2
            + 2.0 * self.d * k2
            - 2.0 * self.e * k1 * k2
        )

    def bias(self, k1: float, k2: float) -> float:
        # k2 * (kappa * phi1) has the bits of kappa * k2 * phi1, as kappa is
        # 0 or 1; var_xbar / mean_x is not taken first, which would move them
        return (
            (k1 - 1.0) * self.mean_y
            + k1 * self.shape_bias
            - k2 * self.kappa_phi1 * self.b / self.mean_x
        )

    @property
    def singular(self) -> bool:
        """True when the 2x2 normal equations are singular.

        |det| within SINGULAR_REL_TOL of its natural scale counts as zero.
        """
        m11 = self.ybar_sq + self.a
        det = self.b * m11 - self.e * self.e
        scale = max(abs(self.b * m11), self.e * self.e, 1e-300)
        return abs(det) <= SINGULAR_REL_TOL * scale

    def optimum(self) -> tuple[float, float]:
        """Solve the normal equations for the MSE-minimizing (k1, k2).

        When the system is ``singular`` the optimum along the
        non-degenerate direction is returned, with k2 = 0.
        """
        m11 = self.ybar_sq + self.a
        r1 = self.ybar_sq + self.c
        if self.singular:
            # flat or missing k2 direction: optimize k1 alone at k2 = 0
            return (r1 / m11 if m11 != 0.0 else 1.0), 0.0
        det = self.b * m11 - self.e * self.e
        r2 = -self.d
        return (self.b * r1 + self.e * r2) / det, (m11 * r2 + self.e * r1) / det


@dataclass(frozen=True)
class MseResult:
    """One analyzed estimator: its resolved spec, first-order MSE and bias.

    ``pre`` is formed when it is read, so a result whose MSE is not
    positive exists, and raises ZeroMse only there.
    """

    spec: EstimatorSpec
    moments: CombinedMoments
    mse: float
    bias: float
    shape_unidentified: bool = False
    singular_system: bool = False

    @property
    def kind(self) -> EstimatorKind:
        return self.spec.kind

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def constants(self) -> dict[str, float]:
        return self.spec.constants()

    @property
    def pre(self) -> float:
        return pre(self.mse, self.moments)


def pre(mse_value: float, m: CombinedMoments) -> float:
    """Percent relative efficiency against the plain stratified mean."""
    if not mse_value > 0.0:  # also rejects nan
        raise ZeroMse(f"cannot form PRE for MSE {mse_value!r}")
    return 100.0 * m.var_ybar / mse_value


def quadratic_form(spec: EstimatorSpec, m: CombinedMoments) -> QuadraticMseForm:
    """The MSE(k1, k2) surface and bias(k1, k2) line of any estimator spec
    (module docstring).

    It reads the spec's kind and shape constants, never (k1, k2).  Only
    the dual kinds move off (k1, k2) = (1, 0); the others read
    ``value(1, 0)`` and ``bias(1, 0)``.
    """
    phi1, phi2 = transform_coefficients(spec)
    r = m.ratio
    kappa = 1.0 if spec.kind.placement == "whole" else 0.0
    rvx = r * m.var_xbar
    return QuadraticMseForm(
        mean_y=m.mean_y,
        mean_x=m.mean_x,
        s=m.var_ybar + phi1 * phi1 * r * r * m.var_xbar + 2.0 * phi1 * r * m.cov_xybar,
        b=m.var_xbar,
        c=phi1 * r * m.cov_xybar + phi2 * r * rvx,
        d=kappa * phi1 * rvx,
        e=m.cov_xybar + (1.0 + kappa) * phi1 * rvx,
        shape_bias=(
            phi1 * m.cov_xybar / m.mean_x
            + phi2 * m.mean_y * m.var_xbar / (m.mean_x * m.mean_x)
        ),
        kappa_phi1=kappa * phi1,
    )


def optimal_dual(spec: EstimatorSpec, m: CombinedMoments) -> tuple[float, float]:
    """MSE-minimizing (k1, k2) of a dual estimator spec at its shape."""
    return quadratic_form(spec, m).optimum()


def _w_opt(m: CombinedMoments) -> float:
    """MSE-optimal exponent w = cov_xybar / (R var_xbar); T2's delta is -w.

    Both reach MSE = var_ybar - cov_xybar**2 / var_xbar.  A zero auxiliary
    variance leaves w unidentified, and 0 (the plain mean) is returned.
    """
    if m.var_xbar == 0.0:
        return 0.0
    return m.cov_xybar / (m.ratio * m.var_xbar)


def _optimizes_shape(spec: EstimatorSpec) -> bool:
    """True when the spec leaves its shape to the MSE-optimal w or delta."""
    kind = spec.kind
    if kind.family == "exponent":
        return kind.fixed_shape is None and spec.w is None
    return kind is EstimatorKind.T2 and spec.p is None


def _arithmetic_checked(fn):
    """Raise a float overflow or zero division in ``fn`` as ComputationError."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArithmeticError as exc:
            raise ComputationError(f"{type(exc).__name__}: {exc}") from exc

    return checked


@_arithmetic_checked
def resolve_spec(spec: EstimatorSpec, m: CombinedMoments) -> EstimatorSpec:
    """Fill in any unresolved constants of ``spec`` from the moments.

    Missing shape constants default to the MSE-optimal family parameter for
    T1/T2/T3/T5 and to the combined ratio's fixed point for T4/T6; missing
    dual constants resolve to the MSE-optimal (k1, k2).  A baseline has no
    shape constants to fill in.
    """
    kind = spec.kind
    if _optimizes_shape(spec):
        w = _w_opt(m)
        if kind.family == "exponent":
            spec = replace(spec, w=w)
        else:
            # 0.0 - w, not -w, so that w = 0 gives delta = +0, not -0
            spec = replace(spec, p=1.0, a=0.0, b=0.0 - w)
    elif kind.family == "mixing" and kind.is_dual and spec.p is None:
        p, a, b = EstimatorKind.COMBINED_RATIO.fixed_shape
        spec = replace(spec, p=p, a=a, b=b)
    if kind.is_dual:
        if (spec.k1 is None) != (spec.k2 is None):
            raise ValueError(
                f"{kind.value}: give both k1 and k2, or neither for the optimum"
            )
        if spec.k1 is None:
            k1, k2 = optimal_dual(spec, m)
            spec = replace(spec, k1=k1, k2=k2)
    return spec


@_arithmetic_checked
def analyze(spec: EstimatorSpec, m: CombinedMoments) -> MseResult:
    """Resolve constants and read the spec's first-order MSE and bias off
    its one form; no PRE is formed here.  An MSE or bias that is not finite
    raises OverflowError naming the label and (k1, k2)."""
    resolved = resolve_spec(spec, m)
    form = quadratic_form(resolved, m)
    k1, k2 = resolved.dual_constants()
    try:
        mse, bias = form.value(k1, k2), form.bias(k1, k2)
    except OverflowError:  # (k1 - 1) ** 2 raises where the products give inf
        mse = bias = math.inf
    if not (math.isfinite(mse) and math.isfinite(bias)):
        raise OverflowError(
            f"{resolved.label}: first-order MSE or bias at (k1, k2)=({k1!r}, {k2!r}) "
            "is not finite"
        )
    return MseResult(
        spec=resolved,
        moments=m,
        mse=mse,
        bias=bias,
        shape_unidentified=m.var_xbar == 0.0 and _optimizes_shape(spec),
        singular_system=spec.kind.is_dual and spec.k1 is None and form.singular,
    )


def default_table_specs() -> tuple[EstimatorSpec, ...]:
    """The nine-row comparison: one unresolved spec per kind, in table order."""
    return tuple(EstimatorSpec(kind) for kind in EstimatorKind)


def efficiency_table(
    design: DesignSummary, specs: Sequence[EstimatorSpec] | None = None
) -> list[MseResult]:
    """One MseResult per spec, in the given order, on the design's moments."""
    m = aggregate_moments(design)
    if specs is None:
        specs = default_table_specs()
    return [analyze(spec, m) for spec in specs]
