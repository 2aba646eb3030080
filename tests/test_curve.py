import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitshape import curve as cv
from limitshape.errors import (
    CurvatureFloorViolated,
    InvalidPresetParameter,
    NonMonotoneDerivative,
    NotConvex,
    NotMonotone,
)

import oracles
from conftest import mixed_cubic_points, parabola_points


# --- slope_inverse -----------------------------------------------------------

def test_parabola_closed_form_inverse_matches_derivative(parabola1):
    # verify the closed form u*(t) = 1 - c^2/(t+c)^2 against g1 before using it
    for t in [0.1, 0.5, 1.0, 2.0, 7.5]:
        u = oracles.parabola_inverse(t)
        assert abs(float(parabola1.g1(u)) - t) < 1e-12 * (1 + t)


def test_slope_inverse_parabola_example(parabola1):
    assert cv.slope_inverse(parabola1, 1.0) == pytest.approx(0.75, abs=1e-12)


def test_slope_inverse_boundaries(parabola1, power2):
    assert cv.slope_inverse(parabola1, 0.0) == 0.0
    assert cv.slope_inverse(parabola1, math.inf) == 1.0
    assert cv.slope_inverse(power2, 2.0) == 1.0
    assert cv.slope_inverse(power2, 5.0) == 1.0


def test_slope_inverse_root_finding_matches_closed_form(parabola1):
    # no closed form and t1 = inf: the last table cell holds g1 = inf, so
    # roots near the vertical end need the bisection fallback
    generic = cv.ConvexCurve(g=parabola1.g, g1=parabola1.g1, g2=parabola1.g2,
                             c_gamma=1.0, t0=0.0, t1=math.inf, K0=parabola1.K0)
    t = np.logspace(-9.0, 12.0, 421)
    assert np.max(np.abs(cv.slope_inverse(generic, t)
                         - cv.slope_inverse(parabola1, t))) < 1e-12


def test_slope_inverse_tabulated_field_matches_bisection(tabulated_mixed):
    # every in-window slope of the c08 direction field at n1 = 1e3
    from limitshape import lattice, measure

    curve = tabulated_mixed
    params = measure.MeasureParams.for_endpoint(curve, 1000)
    rho = params.rho_n
    x1, x2 = lattice.direction_arrays(curve.t0 / rho, curve.t1 / rho,
                                      params.truncation_radius)
    keep = x1 > 0
    t = rho * x2[keep] / x1[keep]
    t = t[(t > curve.t0) & (t < curve.t1)]
    assert t.size > 100_000
    u = cv.slope_inverse(curve, t)
    assert np.max(np.abs(u - oracles.bisect_slope_inverse(curve.g1, t))) <= 1e-15


def test_slope_inverse_non_monotone_rejected():
    # built directly, without the validation of the curve factories
    bad = cv.ConvexCurve(g=lambda u: u, g1=lambda u: 1.0 - np.asarray(u, float),
                         g2=lambda u: np.zeros_like(np.asarray(u, float)),
                         c_gamma=1.0, t0=0.0, t1=1.0, K0=0.0)
    with pytest.raises(NonMonotoneDerivative):
        cv.slope_inverse(bad, 0.5)


def test_slope_inverse_unbracketed_slope_rejected():
    # g1 increases, but the claimed slope range outruns g1(1) = 1
    short = cv.ConvexCurve(g=lambda u: 0.5 * np.asarray(u, float) ** 2,
                           g1=lambda u: np.asarray(u, float),
                           g2=lambda u: np.ones_like(np.asarray(u, float)),
                           c_gamma=0.5, t0=0.0, t1=2.0, K0=0.0)
    assert cv.slope_inverse(short, 0.5) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(NonMonotoneDerivative):
        cv.slope_inverse(short, 1.5)


# --- arc length --------------------------------------------------------------

def test_arc_length_below_range_is_zero(power2):
    assert cv.length_profile(power2, -0.5) == 0.0
    assert cv.length_profile(power2, 0.0) == 0.0  # t = t0 boundary


def test_arc_length_total_matches_independent_quadrature(parabola1):
    oracle = oracles.parabola_arc_length(math.inf)
    assert oracle == pytest.approx(oracles.L_STAR_PARABOLA1, abs=1e-11)
    assert cv.length_profile(parabola1, math.inf) == pytest.approx(oracle, rel=1e-13)


def test_arc_length_partial_matches_independent_quadrature(parabola1):
    for t in [0.3, 1.0, 4.0]:
        assert cv.length_profile(parabola1, t) == pytest.approx(
            oracles.parabola_arc_length(t), rel=1e-13)


def test_length_profile_table_matches_quadrature(parabola1, circle, tabulated_mixed):
    for curve in (parabola1, circle, tabulated_mixed):
        for t in [0.2, 1.0, 3.0, math.inf]:
            assert cv.length_profile(curve, t) == pytest.approx(
                oracles.arc_length_profile(curve, t), abs=1e-9)


# --- curvature ---------------------------------------------------------------

def _curvature_at_slope(curve, t):
    return cv.curvature_profile(curve, cv.slope_inverse(curve, t))


def test_curvature_parabola_values(parabola1):
    assert _curvature_at_slope(parabola1, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert _curvature_at_slope(parabola1, 1.0) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_curvature_circle_constant(circle):
    for t in [0.0, 0.3, 1.0, 5.0, 100.0]:
        assert _curvature_at_slope(circle, t) == pytest.approx(1.0, abs=1e-12)


# --- presets -----------------------------------------------------------------

def test_parabola_preset_solves_defining_equation(parabola1):
    # sqrt(c(1-x1)) + sqrt(x2) = sqrt(c) along the graph
    u = np.linspace(0.0, 1.0, 33)
    lhs = np.sqrt(1.0 - u) + np.sqrt(parabola1.g(u))
    assert np.max(np.abs(lhs - 1.0)) < 1e-12
    assert parabola1.g(0.0) == pytest.approx(0.0, abs=1e-15)
    assert parabola1.g(1.0) == pytest.approx(1.0, abs=1e-12)


def test_parabola2_endpoint(parabola2):
    assert parabola2.c_gamma == 2.0
    assert float(parabola2.g(1.0)) == pytest.approx(2.0, abs=1e-12)


def test_power2_preset(power2):
    assert power2.t0 == 0.0
    assert power2.t1 == 2.0
    u = np.linspace(0, 1, 9)
    assert np.allclose(power2.g(u), u ** 2)


def test_invalid_preset_parameters():
    with pytest.raises(InvalidPresetParameter):
        cv.make_preset("parabola", c=-1.0)
    with pytest.raises(InvalidPresetParameter):
        cv.make_preset("power", p=1.0)
    with pytest.raises(InvalidPresetParameter):
        cv.make_preset("frobnicate")


def test_power_above_two_has_no_curvature_floor():
    # curvature vanishes at u = 0 when p > 2, which the floor check rejects
    with pytest.raises(CurvatureFloorViolated):
        cv.make_preset("power", p=3.0)


# --- tabulated curves ---------------------------------------------------------

def test_tabulated_parabola_agrees_with_preset(parabola1, tabulated_parabola):
    # slope window where the quintic interpolant resolves the inverse to 1e-6
    for t in [0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]:
        assert abs(cv.slope_inverse(tabulated_parabola, t)
                   - cv.slope_inverse(parabola1, t)) < 1e-6


# The piecewise-polynomial form of a tabulated arc and the B-spline it is
# converted from round differently: values agree to within this multiple of
# max(1, |value|) (measured: 1.4e-15), and the c08 field's neg_log_z to
# within this relative error (measured: 8.7e-16 at n1 = 1e3).
_TABULATED_REL = 4e-15
_FIELD_REL = 4e-15


@pytest.mark.parametrize("points, k0", [(mixed_cubic_points(), 0.1), (parabola_points(), 0.05)],
                         ids=["c08", "tabulated_parabola"])
def test_tabulated_matches_bspline_reference(points, k0):
    curve = cv.make_tabulated(points, k0=k0)
    ref = oracles.bspline_tabulated(points)
    u = np.linspace(0.0, 1.0, 100_001)
    for got, want in ((curve.g, ref.g), (curve.g1, ref.g1), (curve.g2, ref.g2)):
        w = want(u)
        assert np.all(np.abs(got(u) - w) <= _TABULATED_REL * np.maximum(1.0, np.abs(w)))


def test_tabulated_field_matches_bspline_reference(tabulated_mixed):
    from limitshape import measure

    got, want = (measure._DirectionField(measure.MeasureParams.for_endpoint(curve, 1000))
                 for curve in (tabulated_mixed, oracles.bspline_tabulated(mixed_cubic_points())))
    assert np.array_equal(got.x1, want.x1) and np.array_equal(got.x2, want.x2)
    assert np.all(np.abs(got.neg_log_z - want.neg_log_z) <= _FIELD_REL * want.neg_log_z)


def test_tabulated_too_few_samples():
    with pytest.raises(NotConvex):
        cv.make_tabulated([[0.0, 0.0], [1.0, 1.0]], k0=0.1)


def test_tabulated_decreasing_values():
    u = np.linspace(0, 1, 16)
    y = (u ** 2).copy()
    y[7] = y[6] - 0.01
    with pytest.raises(NotMonotone):
        cv.make_tabulated(np.column_stack([u, y]), k0=0.01)


def test_tabulated_non_convex_data():
    u = np.linspace(0, 1, 16)
    y = np.sqrt(u + 1e-9)  # concave
    y -= y[0]
    with pytest.raises((NotConvex, NotMonotone)):
        cv.make_tabulated(np.column_stack([u, y]), k0=0.01)


def test_tabulated_curvature_floor_enforced(parabola1):
    u = np.linspace(0.0, 1.0, 64)
    pts = np.column_stack([u, parabola1.g(u)])
    with pytest.raises(CurvatureFloorViolated):
        cv.make_tabulated(pts, k0=0.49)  # actual floor is ~0.115 on the spline


# --- invariants ---------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(c=st.floats(min_value=0.25, max_value=4.0),
       theta=st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3))
def test_inverse_consistency_parabola(c, theta):
    curve = cv.make_preset("parabola", c=c)
    t = math.tan(theta)
    if not (curve.t0 < t < curve.t1):
        return
    u = cv.slope_inverse(curve, t)
    assert abs(float(curve.g1(u)) - t) <= 1e-9 * (1.0 + t)


@settings(deadline=None, max_examples=25)
@given(p=st.floats(min_value=1.5, max_value=2.0),
       frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_inverse_consistency_power(p, frac):
    curve = cv.make_preset("power", p=p)
    t = curve.t0 + frac * (curve.t1 - curve.t0)
    u = cv.slope_inverse(curve, t)
    assert abs(float(curve.g1(u)) - t) <= 1e-9 * (1.0 + t)


def test_rectifiability_bound(parabola1, parabola2, circle, power2, tabulated_mixed):
    for curve in (parabola1, parabola2, circle, power2, tabulated_mixed):
        assert cv.length_profile(curve, math.inf) <= 1.0 + curve.c_gamma + 1e-9


def test_monotone_profiles(parabola1):
    ts = np.concatenate([[0.0], cv.slope_grid(parabola1, 32), [math.inf]])
    us = cv.slope_inverse(parabola1, ts)
    ls = cv.length_profile(parabola1, ts)
    assert np.all(np.diff(us) >= 0)
    assert np.all(np.diff(ls) >= -1e-12)


def test_profiles_constant_outside_range(power2):
    assert cv.slope_inverse(power2, 3.0) == cv.slope_inverse(power2, 2.0) == 1.0
    assert cv.length_profile(power2, 3.0) == pytest.approx(
        cv.length_profile(power2, 2.0), abs=1e-12)


def test_curvature_slope_identity(parabola1, circle, power2):
    for curve in (parabola1, circle, power2):
        for t in cv.slope_grid(curve, 16):
            u = cv.slope_inverse(curve, t)
            lhs = _curvature_at_slope(curve, t) * (1.0 + t * t) ** 1.5
            rhs = float(curve.g2(u))
            assert lhs == pytest.approx(rhs, rel=1e-9)
