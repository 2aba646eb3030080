import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitshape import curve as cv
from limitshape import lattice as lt
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


def test_calibration_residual_rejects_a_tilt_that_is_not_finite():
    # power(1.001): u(t) underflows to 0 at 37 of the 64 grid slopes, where
    # g2 and the tilt are infinite; the residual raises before the
    # subtraction, which would warn and return NaN there
    curve = cv.make_preset("power", p=1.001)
    with pytest.raises(ParameterOutOfRange, match="is not finite at 37 of 64 calibration slopes"):
        ms.calibration_residual(curve, cv.slope_grid(curve, 64))


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


def _zpow(params, x1, x2):
    """z^x = exp(-alpha * e(x)) for directions given as arrays."""
    e = ms.direction_exponent(params.curve, params.rho_n, np.asarray(x1, float),
                              np.asarray(x2, float))
    return np.exp(-params.alpha_n * e)


def test_z_pow_worked_example(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 1000)
    assert params.alpha_n == pytest.approx(0.1, abs=1e-15)
    f = ms._field(params)
    (row,) = np.nonzero((f.x1 == 1) & (f.x2 == 1))[0]
    assert f.zpow[row] == pytest.approx(oracles.ZPOW_11_AT_N1000, abs=1e-12)
    z1, z2 = oracles.z_pair(params.alpha_n, params.rho_n, *ms.delta(parabola1, params.rho_n))
    assert z1 * z2 == pytest.approx(f.zpow[row], rel=1e-15)


def test_z_pow_excluded_direction(power2):
    params = ms.MeasureParams.for_endpoint(power2, 500)
    # slope 3 > t1 = 2, and the vertical edge, are excluded
    assert np.all(_zpow(params, [1, 0], [3, 1]) == 0.0)


def test_z_pow_alpha_to_zero_limit(parabola1):
    values = [float(_zpow(ms.MeasureParams.for_endpoint(parabola1, n), [2], [1])[0])
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

def _mean_length_profile(params, t):
    """The exact mean length profile at slopes t: the step profile of the
    field's jumps |x| * E[nu], the one mean_length_sup_gap reads."""
    f = ms._field(params)
    taus, _, after = ms.step_knots(f.tau, f.norm * f.mean_nu)
    return ms.step_at(taus, after, t)


def test_expected_length_profile_zero_before_range(power2):
    params = ms.MeasureParams.for_endpoint(power2, 300)
    curve_below = params  # t0 = 0 so only t < 0 is trivially empty, use -eps
    assert _mean_length_profile(curve_below, -0.5) == 0.0


def test_expected_length_profile_monotone(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 500)
    vals = [_mean_length_profile(params, t) for t in (0.5, 1.0, 2.0)]
    assert vals == sorted(vals)


def test_expected_length_total_tracks_curve(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 2000)
    ratio = _mean_length_profile(params, math.inf) / 2000
    assert ratio == pytest.approx(oracles.L_STAR_PARABOLA1, abs=0.01)


def test_expected_length_dual_route_agreement(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 60)
    for t in (0.7, math.inf):
        direct = _mean_length_profile(params, t)
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


@pytest.mark.parametrize("tolerance", [0.0, -1e-9, math.inf, math.nan])
def test_tail_tolerance_must_be_positive_and_finite(parabola1, tolerance):
    # the in-ball level T = log1p(2N / tolerance) needs 0 < tolerance < inf
    with pytest.raises(ParameterOutOfRange):
        ms.MeasureParams(n1=500, n2=500, curve=parabola1, truncation_radius=600,
                         tail_tolerance=tolerance)


def test_self_dual_curves_give_symmetric_fields(parabola1, circle):
    # parabola(1) and the circle quadrant are self-dual under
    # (u, g) -> (1 - g, 1 - u), so e(x2, x1) = e(x1, x2) on every direction
    for curve in (parabola1, circle):
        for n1 in (100, 1000):
            params = ms.MeasureParams.for_endpoint(curve, n1)
            f = ms._field(params)
            swapped = params.alpha_n * ms.direction_exponent(curve, params.rho_n, f.x2, f.x1)
            assert np.max(np.abs(swapped - f.neg_log_z) / f.neg_log_z) < 1e-12
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
    f = ms._field(params)
    z_norm = float(np.exp(np.sum(np.log1p(-f.zpow))))  # product of (1 - z^x)
    assert 0.0 < z_norm < 1.0
    assert np.isfinite(np.sum(f.zpow))
    assert ms.certified_tail(parabola1, params.rho_n, params.alpha_n,
                             params.truncation_radius) <= params.tail_tolerance


def test_certified_tail_at_small_radii(parabola1):
    # the y + 1 directions with x1 + x2 = y each have z <= q^y, so
    # E[nu] <= q^y / (1 - q^y) <= q^y / (1 - q^(R+1)) beyond radius R: the
    # certificate is that last sum, also where q^(R+1) > 1/2, and it bounds
    # both the term-wise sum and the measure's own tail beyond R
    params = ms.MeasureParams.for_endpoint(parabola1, 100)
    rho, alpha = params.rho_n, params.alpha_n
    log_q = -ms._tail_rate(parabola1, rho, alpha)
    assert math.exp(4 * log_q) > 0.5  # the small radii below reach that regime
    y = np.arange(1, 20_000, dtype=float)
    geometric = (y + 1) * np.exp(y * log_q)
    f = ms._field(params)
    mean_nu, length = f.mean_nu, f.x1 + f.x2
    for radius in range(1, 16):
        tail = ms.certified_tail(parabola1, rho, alpha, radius)
        closed = float(np.sum(geometric[radius:])) / -math.expm1((radius + 1) * log_q)
        assert tail == pytest.approx(closed, rel=1e-12)
        assert tail >= float(np.sum(geometric[radius:] / -np.expm1(y[radius:] * log_q)))
        assert tail >= float(np.sum(mean_nu[length > radius]))


@pytest.mark.parametrize("name", ["parabola1", "parabola2", "power2", "circle",
                                  "tabulated_parabola", "tabulated_mixed"])
def test_field_is_the_sublevel_set_of_the_ball(request, name):
    curve = request.getfixturevalue(name)
    for n1 in (100, 1000, 10_000):
        params = ms.MeasureParams.for_endpoint(curve, n1)
        f = ms._field(params)
        rho, alpha = params.rho_n, params.alpha_n
        t_hi = curve.t1 / rho if math.isfinite(curve.t1) else math.inf
        x1, x2 = lt.direction_arrays(curve.t0 / rho, t_hi, params.truncation_radius)
        neg_log_z = alpha * ms.direction_exponent(curve, rho, x1, x2)
        keep = neg_log_z <= params.neg_log_z_cap
        assert np.array_equal(f.x1, x1[keep]) and np.array_equal(f.x2, x2[keep])
        # the in-ball directions the cap drops carry at most the in-ball term,
        # and the two certified terms together stay within the tolerance
        dropped, _ = ms.nu_moments(np.exp(-neg_log_z[~keep]))
        in_ball = ms.in_ball_tail(params)
        assert float(np.sum(dropped)) <= in_ball
        beyond = ms.certified_tail(curve, rho, alpha, params.truncation_radius)
        assert beyond + in_ball <= params.tail_tolerance


@pytest.mark.parametrize("name", ["parabola1", "parabola2", "power2", "circle",
                                  "tabulated_parabola", "tabulated_mixed"])
def test_floor_table_lies_below_the_tilt(request, name):
    # every cell floor of the slope table lies below the exact tilt at 7
    # interior points of its cell; the cell ends' own minimum (a margin of
    # 1.0) would not, as the tilt dips between the ends by up to 3.7e-6
    # relative (tabulated_parabola)
    curve = request.getfixturevalue(name)
    u_tab, slopes = cv._slope_table(curve)
    floors = ms._floor_table(curve)
    assert floors.shape == (slopes.size - 1,) and np.all(floors > 0.0)
    u = u_tab[:-1, None] + np.diff(u_tab)[:, None] * (np.arange(1, 8) / 8.0)
    t = curve.g1(u)
    assert np.all((t > slopes[:-1, None]) & (t < slopes[1:, None]))
    base = ms._tilt_base(curve, t.ravel()).reshape(t.shape)
    assert np.all(base >= floors[:, None])


def test_field_solves_few_directions_it_drops(tabulated_mixed):
    # the c08 curve at n1 = 1e4 keeps 119 922 directions of the 125 508 it
    # enumerates, each of which gets the exact tilt
    f = ms._DirectionField(ms.MeasureParams.for_endpoint(tabulated_mixed, 10_000))
    kept = f.x1.size
    assert kept <= f.candidates <= 1.05 * kept


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

def _lclt_points(params):
    """The lclt study's 26 points: the 5 x 5 cells around the rounded
    expected endpoint, then n."""
    c = np.rint(ms.expected_endpoint(params)).astype(int)
    return np.array([(c[0] + i, c[1] + j) for i in range(-2, 3) for j in range(-2, 3)]
                    + [(params.n1, params.n2)])


@pytest.mark.parametrize("which,n1", [("parabola", 200), ("parabola", 400), ("c08", 1000)])
def test_endpoint_density_matches_scipy(parabola1, tabulated_mixed, which, n1):
    from scipy.stats import multivariate_normal

    curve = parabola1 if which == "parabola" else tabulated_mixed
    params = ms.MeasureParams.for_endpoint(curve, n1)
    law = multivariate_normal(ms.expected_endpoint(params), ms.covariance_matrix(params))
    for m in _lclt_points(params):
        assert ms.endpoint_density(params, m) == pytest.approx(law.pdf(m), rel=1e-12)


def test_endpoint_density_rows_are_single_calls(parabola1, tabulated_mixed):
    for curve, n1 in ((parabola1, 24), (parabola1, 200), (parabola1, 1000),
                      (tabulated_mixed, 1000)):
        params = ms.MeasureParams.for_endpoint(curve, n1)
        points = _lclt_points(params)
        batch = ms.endpoint_density(params, points)
        assert batch.shape == (len(points),)
        single = [ms.endpoint_density(params, tuple(int(v) for v in m)) for m in points]
        assert all(isinstance(d, float) for d in single)
        assert batch.tolist() == single


def test_gaussian_density_at_mean(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 500)
    m = np.rint(ms.expected_endpoint(params)).astype(int)
    expected = 1.0 / (2 * math.pi * math.sqrt(np.linalg.det(ms.covariance_matrix(params))))
    assert ms.endpoint_density(params, m) == pytest.approx(expected, rel=1e-3)


def test_gaussian_density_singular_rejected():
    # power(1.0001) at n1 = 5 keeps the single direction (1, 1), so det K = 0
    params = ms.MeasureParams.for_endpoint(cv.make_preset("power", p=1.0001), 5)
    f = ms._field(params)
    assert (f.x1.tolist(), f.x2.tolist()) == ([1], [1])
    for m in ((5, 5), np.array([[5, 5], [4, 4]])):
        with pytest.raises(SingularCovariance, match="not positive definite"):
            ms.endpoint_density(params, m)


def test_density_scaling_with_n(parabola1):
    d = {}
    for n1 in (500, 8000):
        params = ms.MeasureParams.for_endpoint(parabola1, n1)
        d[n1] = ms.endpoint_density(params, (params.n1, params.n2))
    assert d[500] / d[8000] == pytest.approx(16.0 ** (4.0 / 3.0), rel=0.25)


def test_moment_report_invariants(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 300)
    K = ms.covariance_matrix(params)
    assert np.all(np.linalg.eigvalsh(K) > 0)
    assert np.linalg.det(K) > 0
    assert 0.0 < ms.endpoint_density(params, (params.n1, params.n2)) < 1.0


# --- properties ------------------------------------------------------------------

@settings(deadline=None, max_examples=20)
@given(zp=st.floats(min_value=0.0, max_value=0.99))
def test_nu_moments_match_series(zp):
    mean, var = ms.nu_moments(zp)
    k = np.arange(1, 10_000)  # z <= 0.99 puts the tail below 1e-30
    pmf = (1 - zp) * zp ** k
    assert mean == pytest.approx(float(np.sum(k * pmf)), abs=1e-6)
    assert var == pytest.approx(float(np.sum(k ** 2 * pmf)) - mean ** 2, abs=1e-4)
