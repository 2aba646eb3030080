import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitshape import curve as cv
from limitshape import measure as ms
from limitshape.errors import (
    ParameterOutOfRange,
    SingularCovariance,
    SlopeOutOfRange,
    TailBoundViolated,
)

import oracles


def test_kappa_pinned_and_reproduced_by_series():
    assert ms.KAPPA == pytest.approx(oracles.KAPPA_PINNED, abs=1e-12)
    assert oracles.kappa_from_series() == pytest.approx(oracles.KAPPA_PINNED, abs=1e-9)


# --- tilt functions -----------------------------------------------------------

def test_delta_parabola_constant(parabola1, parabola2):
    for curve, c in ((parabola1, 1.0), (parabola2, 2.0)):
        expected = ms.KAPPA * (c / 2.0) ** (1.0 / 3.0)
        for t in [0.0, 0.5, 1.0, 10.0, math.inf]:
            d1, d2 = ms.delta(curve, t)
            assert d1 == pytest.approx(expected, abs=1e-12)
            assert d2 == pytest.approx(expected / c, abs=1e-12)


def test_delta_pinned_value(parabola1):
    d1, _ = ms.delta(parabola1, 1.0)
    assert d1 == pytest.approx(oracles.DELTA1_PARABOLA1, abs=1e-14)


def test_delta_outside_range_is_infinite(power2):
    d1, d2 = ms.delta(power2, 2.5)
    assert d1 == math.inf and d2 == math.inf
    # curve with t0 > 0: slopes below t0 are excluded too
    below = cv.make_tabulated(
        np.column_stack([np.linspace(0, 1, 16),
                         0.4 * np.linspace(0, 1, 16) + 0.05 * np.linspace(0, 1, 16) ** 2]),
        k0=0.01)
    assert below.t0 > 0
    assert ms.delta(below, below.t0 / 2.0) == (math.inf, math.inf)


def test_delta_ratio_identity(parabola2, circle, power2):
    for curve in (parabola2, circle, power2):
        t_grid = cv.slope_grid(curve, 16)
        d1, d2 = ms.delta(curve, t_grid)
        assert np.all(d2 * curve.c_gamma == d1)


def test_tilt_floor_positive(parabola1, circle, power2, tabulated_mixed):
    for curve in (parabola1, circle, power2, tabulated_mixed):
        assert ms.tilt_floor(curve) > 0.05


def test_calibration_residual_presets(parabola1, power2):
    for curve in (parabola1, power2):
        grid = cv.slope_grid(curve, 64)
        assert np.max(np.abs(ms.calibration_residual(curve, grid))) < 1e-9


def test_calibration_residual_out_of_range(power2):
    with pytest.raises(SlopeOutOfRange):
        ms.calibration_residual(power2, 2.5)


def test_tabulated_residual_against_preset_oracle(parabola1, tabulated_parabola):
    # tilt built on the interpolant, right-hand side from the analytic preset
    t = 0.5
    d1, d2 = ms.delta(tabulated_parabola, t)
    u = cv.slope_inverse(parabola1, t)
    rhs = ms.KAPPA * float(parabola1.g2(u)) ** (1.0 / 3.0)
    assert abs(d1 + t * d2 - rhs) < 1e-5


# --- parameter field -----------------------------------------------------------

def test_params_exact_aspect(parabola2):
    params = ms.MeasureParams.for_endpoint(parabola2, 1000)
    assert params.n2 == 2000
    assert params.rho_n == pytest.approx(1.0, abs=0)
    assert params.alpha_n == pytest.approx((params.rho_n * 1000) ** (-1 / 3), abs=1e-15)
    odd = ms.MeasureParams.for_endpoint(parabola2, 999)
    assert odd.n2 == 1998
    assert odd.rho_n == pytest.approx(oracles.rational_rho(2.0, 999, 1998), abs=0)


def test_z_pow_worked_example(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 1000)
    assert params.alpha_n == pytest.approx(0.1, abs=1e-15)
    assert ms.z_pow(params, (1, 1)) == pytest.approx(oracles.ZPOW_11_AT_N1000, abs=1e-12)
    z1, z2 = ms.z_of(params, (1, 1))
    assert z1 * z2 == pytest.approx(ms.z_pow(params, (1, 1)), rel=1e-15)


def test_z_pow_excluded_direction(power2):
    params = ms.MeasureParams.for_endpoint(power2, 500)
    assert ms.z_pow(params, (1, 3)) == 0.0  # slope 3 > t1 = 2
    assert ms.z_pow(params, (0, 1)) == 0.0  # vertical edge excluded too


def test_z_pow_alpha_to_zero_limit(parabola1):
    values = [ms.z_pow(ms.MeasureParams.for_endpoint(parabola1, n), (2, 1))
              for n in (10 ** 3, 10 ** 5, 10 ** 8)]
    assert values == sorted(values)
    assert values[-1] > 0.99


def test_nu_moments_examples():
    assert ms.nu_moments(0.5) == (1.0, 2.0)
    assert ms.nu_moments(0.0) == (0.0, 0.0)
    mean, var = ms.nu_moments(0.9)
    assert mean == pytest.approx(9.0, rel=1e-12)
    assert var == pytest.approx(90.0, rel=1e-12)
    with pytest.raises(ParameterOutOfRange):
        ms.nu_moments(1.0)


# --- moment sums ---------------------------------------------------------------

def test_expected_length_profile_zero_before_range(power2):
    params = ms.MeasureParams.for_endpoint(power2, 300)
    curve_below = params  # t0 = 0 so only t < 0 is trivially empty, use -eps
    assert ms.expected_length_profile(curve_below, -0.5) == 0.0


def test_expected_length_profile_monotone(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 500)
    vals = [ms.expected_length_profile(params, t) for t in (0.5, 1.0, 2.0)]
    assert vals == sorted(vals)


def test_expected_length_total_tracks_curve(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 2000)
    ratio = ms.expected_length_profile(params, math.inf) / 2000
    assert ratio == pytest.approx(oracles.L_STAR_PARABOLA1, abs=0.01)


def test_expected_length_dual_route_agreement(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 60)
    for t in (0.7, math.inf):
        direct = ms.expected_length_profile(params, t)
        inverted = ms.expected_length_profile_mobius(params, t)
        assert inverted == pytest.approx(direct, rel=1e-12)


def test_expected_endpoint_scaling(parabola1):
    ratios = []
    for n1 in (10 ** 3, 10 ** 4):
        params = ms.MeasureParams.for_endpoint(parabola1, n1)
        a = ms.expected_endpoint(params)
        ratios.append(abs(a[0] / n1 - 1.0))
        assert a[1] / n1 == pytest.approx(parabola1.c_gamma, abs=0.1)
    assert ratios[1] < ratios[0]


def test_expected_endpoint_bias_constant(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 10 ** 4)
    a = ms.expected_endpoint(params)
    for j, nj in ((0, params.n1), (1, params.n2)):
        assert abs(a[j] - nj) / 10 ** 4 ** (2 / 3) < 10.0


def test_degenerate_truncation_radius_rejected(parabola1):
    params = ms.MeasureParams(n1=500, n2=500, curve=parabola1,
                              truncation_radius=3, tail_tolerance=1e-9)
    with pytest.raises(TailBoundViolated):
        ms.expected_endpoint(params)


def test_self_dual_curves_give_symmetric_fields(parabola1, circle):
    # parabola(1) and the circle quadrant are self-dual under
    # (u, g) -> (1 - g, 1 - u), so e(x2, x1) = e(x1, x2) on every direction
    for curve in (parabola1, circle):
        for n1 in (100, 1000):
            params = ms.MeasureParams.for_endpoint(curve, n1)
            f = ms._field(params)
            swapped = ms.direction_exponent(curve, params.rho_n, f.x2, f.x1)
            assert np.max(np.abs(swapped - f.exponent) / f.exponent) < 1e-12
            a = ms.expected_endpoint(params)
            K = ms.covariance_matrix(params)
            assert a[1] == pytest.approx(a[0], rel=1e-13)
            assert K[1, 1] == pytest.approx(K[0, 0], rel=1e-13)


def test_covariance_symmetry_and_definiteness(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 800)
    K = ms.covariance_matrix(params)
    assert K[0, 1] == K[1, 0]
    assert np.linalg.det(K) > 0
    assert K[0, 0] > 0 and K[1, 1] > 0


def test_covariance_diagonal_matches_independent_accumulation(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 200)
    K = ms.covariance_matrix(params)
    f = ms._field(params)
    var1 = sum(float(x) ** 2 * float(v) for x, v in zip(f.x1, f.var_nu))
    var2 = sum(float(x) ** 2 * float(v) for x, v in zip(f.x2, f.var_nu))
    assert K[0, 0] == pytest.approx(var1, rel=1e-12)
    assert K[1, 1] == pytest.approx(var2, rel=1e-12)


def test_covariance_ratio_to_asymptote(parabola1):
    n1 = 10 ** 4
    params = ms.MeasureParams.for_endpoint(parabola1, n1)
    K = ms.covariance_matrix(params)
    asym = 3.0 / ms.KAPPA * n1 ** (4.0 / 3.0) * ms.b_matrix(parabola1)
    assert np.all(np.abs(K / asym - 1.0) < 0.1)


def test_normalization_constant_in_unit_interval(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 400)
    z_norm = ms.normalization_constant(params)
    assert 0.0 < z_norm < 1.0
    f = ms._field(params)
    assert np.isfinite(np.sum(f.zpow))
    assert ms.certified_tail(parabola1, params.rho_n, params.alpha_n,
                             params.truncation_radius) <= params.tail_tolerance


# --- B matrix -------------------------------------------------------------------

def test_b_matrix_power2_closed_form(power2):
    assert np.allclose(ms.b_matrix(power2), oracles.B_POWER2, rtol=1e-8)


def test_b_matrix_parabola_oracle(parabola1):
    assert np.allclose(ms.b_matrix(parabola1), oracles.B_PARABOLA1, rtol=1e-7)


def test_b_matrix_circle_oracle(circle):
    assert np.allclose(ms.b_matrix(circle), oracles.B_CIRCLE, rtol=1e-7)


def test_b_matrix_cauchy_schwarz(parabola1, power2, circle, tabulated_mixed):
    for curve in (parabola1, power2, circle, tabulated_mixed):
        B = ms.b_matrix(curve)
        assert B[0, 0] * B[1, 1] - B[0, 1] ** 2 > 0


# --- Gaussian density -----------------------------------------------------------

def _toy_report(a, K):
    K = np.asarray(K, dtype=float)
    return ms.MomentReport(a_z=np.asarray(a, float), K=K, B=np.eye(2),
                           detK=float(np.linalg.det(K)), density_at_n=0.5)


def test_gaussian_density_isotropic_unit():
    rep = _toy_report([0.0, 0.0], np.eye(2))
    assert ms.gaussian_density_at(rep, (0, 0)) == pytest.approx(1.0 / (2 * math.pi))


def test_gaussian_density_at_mean(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 500)
    rep = ms.moment_report(params)
    m = np.rint(rep.a_z).astype(int)
    expected = 1.0 / (2 * math.pi * math.sqrt(rep.detK))
    assert ms.gaussian_density_at(rep, m) == pytest.approx(expected, rel=1e-3)


def test_gaussian_density_singular_rejected():
    rep = _toy_report([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularCovariance):
        ms.gaussian_density_at(rep, (0, 0))


def test_density_scaling_with_n(parabola1):
    d = {}
    for n1 in (500, 8000):
        params = ms.MeasureParams.for_endpoint(parabola1, n1)
        d[n1] = ms.moment_report(params).density_at_n
    assert d[500] / d[8000] == pytest.approx(16.0 ** (4.0 / 3.0), rel=0.25)


def test_moment_report_invariants(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 300)
    rep = ms.moment_report(params)
    eigs = np.linalg.eigvalsh(rep.K)
    assert np.all(eigs > 0)
    assert rep.detK > 0
    assert 0.0 < rep.density_at_n < 1.0


# --- properties ------------------------------------------------------------------

@settings(deadline=None, max_examples=20)
@given(zp=st.floats(min_value=0.0, max_value=0.99))
def test_nu_moments_match_series(zp):
    mean, var = ms.nu_moments(zp)
    k = np.arange(1, 10_000)  # z <= 0.99 puts the tail below 1e-30
    pmf = (1 - zp) * zp ** k
    assert mean == pytest.approx(float(np.sum(k * pmf)), abs=1e-6)
    assert var == pytest.approx(float(np.sum(k ** 2 * pmf)) - mean ** 2, abs=1e-4)
