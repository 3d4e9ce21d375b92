"""Exact-arithmetic oracle for the first-order form of ``stratmean.mse``.

``ExactForm`` mirrors ``quadratic_form`` in ``fractions.Fraction``: the
transform's Taylor coefficients, the MSE and bias coefficients, ``value``,
``bias`` and the normal-equation ``optimum``, each taken exactly from the
same float moments and constants that the code reads.  So a gap between the
two is the code's own rounding.
"""

from fractions import Fraction

import pytest

import stratmean as sm
from stratmean import EstimatorKind as K


def _taylor(kind, shape):
    """(phi1, phi2) of the kind's family at an exact shape."""
    if kind.family == "exponent":
        (w,) = shape
        return -w, -w * (w - 1) / 2
    p, a, b = shape
    return p * (b - a), (p * p * (a - b) ** 2 + p * (b * b - a * a + 2 * (a - b))) / 2


class ExactForm:
    """``quadratic_form(spec, m)`` in exact arithmetic.

    ``terms`` holds each coefficient as the terms it sums, so that one that
    cancels to near zero (``e`` at the optimal w) is compared on the scale
    of its terms.
    """

    def __init__(self, spec, m):
        shape = [Fraction(v) for v in spec.kind.fixed_shape or spec.shape()]
        phi1, phi2 = _taylor(spec.kind, shape)
        kappa = 1 if spec.kind.placement == "whole" else 0
        my, mx, vy, vx, cxy = (
            Fraction(v) for v in (m.mean_y, m.mean_x, m.var_ybar, m.var_xbar, m.cov_xybar)
        )
        r = my / mx
        self.mean_y, self.mean_x = my, mx
        self.terms = {
            "s": [vy, phi1 * phi1 * r * r * vx, 2 * phi1 * r * cxy],
            "b": [vx],
            "c": [phi1 * r * cxy, phi2 * r * r * vx],
            "d": [kappa * phi1 * r * vx],
            "e": [cxy, (1 + kappa) * phi1 * r * vx],
            "shape_bias": [phi1 * cxy / mx, phi2 * my * vx / (mx * mx)],
            "kappa_phi1": [kappa * phi1],
        }
        for name, terms in self.terms.items():
            setattr(self, name, sum(terms))

    def value(self, k1, k2):
        return (
            self.mean_y**2 * (k1 - 1) ** 2
            + self.s * k1 * k1
            + 2 * self.c * k1 * (k1 - 1)
            + self.b * k2 * k2
            + 2 * self.d * k2
            - 2 * self.e * k1 * k2
        )

    def bias(self, k1, k2):
        return (k1 - 1) * self.mean_y + k1 * self.shape_bias - k2 * self.kappa_phi1 * self.b / self.mean_x

    def optimum(self):
        m11 = self.mean_y**2 + self.s + 2 * self.c
        r1 = self.mean_y**2 + self.c
        det = self.b * m11 - self.e * self.e
        return (self.b * r1 - self.e * self.d) / det, (self.e * r1 - m11 * self.d) / det


def _close(got, want, rel, scale=None):
    """|got - want| within ``rel`` of |want|, or of ``scale`` when given."""
    return abs(Fraction(got) - want) <= Fraction(rel) * (abs(want) if scale is None else scale)


@pytest.mark.parametrize("name", ["paper-1", "paper-2"])
def test_form_matches_exact_mirror(name):
    # measured: at most 6.6e-15 for the MSE and 3.2e-15 for the bias
    m = sm.aggregate_moments(sm.get_dataset(name))
    for spec in sm.default_table_specs():
        resolved = sm.resolve_spec(spec, m)
        form, exact = sm.quadratic_form(resolved, m), ExactForm(resolved, m)
        for coefficient, terms in exact.terms.items():
            scale = sum(abs(t) for t in terms)
            assert _close(getattr(form, coefficient), sum(terms), 1e-13, scale), (
                resolved.label, coefficient)
        k1, k2 = resolved.dual_constants()
        assert _close(form.value(k1, k2), exact.value(Fraction(k1), Fraction(k2)), 1e-13), resolved.label
        assert _close(form.bias(k1, k2), exact.bias(Fraction(k1), Fraction(k2)), 1e-13), resolved.label


@pytest.mark.parametrize("name", [
    "paper-1",
    pytest.param("paper-2", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 11: optimum() rounds k1 = 1 - O(V/Ybar**2) before bias() forms "
        "(k1 - 1) * Ybar, so paper-2's t3-t6 bias is off by 1.3e-7 to 2.7e-7 relative"))),
])
def test_optimum_matches_exact_mirror(name):
    m = sm.aggregate_moments(sm.get_dataset(name))
    for kind in (K.T3, K.T4, K.T5, K.T6):
        result = sm.analyze(sm.EstimatorSpec(kind), m)
        exact = ExactForm(result.spec, m)
        k1, k2 = exact.optimum()
        assert not result.singular_system
        assert _close(result.spec.k1, k1, 1e-12), kind
        # k2 is zero at T5's optimum; it scales as mean_y / mean_x
        assert _close(result.spec.k2, k2, 1e-12, abs(exact.mean_y / exact.mean_x)), kind
        assert _close(result.mse, exact.value(k1, k2), 1e-12), kind
        assert _close(result.bias, exact.bias(k1, k2), 1e-12), kind
