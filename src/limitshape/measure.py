"""The tilted product measure over coprime directions.

Each direction x gets an independent geometric multiplicity with
parameter z^x = exp(-alpha * e(x)), where the exponent field

    e(x) = base(tt) * (c*x1 + rho*x2),   tt = rho*x2/x1,
    base(t) = KAPPA * kappa(u(t))^(1/3) * w(t),   w(t) = sqrt(1+t^2)/(c+t),

encodes the tilt functions (delta1, delta2) = (c*base, base),
calibrated so that the expected length profile of the random path
reproduces the target arc.  KAPPA = (2 zeta(3)/zeta(2))^(1/3) is the
universal constant of the calibration identity
delta1(t) + t*delta2(t) = KAPPA * g2(u(t))^(1/3).  base is written once
(_tilt_base), and nu_moments is the one formula for the mean and
variance of a multiplicity.

Directions with slope outside the curve's tangent range get e = +inf
(z = 0) and are never enumerated.  The direction field is the tilt's
sublevel set {alpha*e(x) <= T} inside the L1 ball x1 + x2 <= R, so all
moment sums are finite truncations with a two-term certified tail:
certified_tail bounds the edges beyond the ball, in_ball_tail those
along the in-ball directions with z <= e^-T, and MeasureParams picks R
and T so that each term is at most half the tail tolerance.  Length
profiles of paths and of the mean path are step functions in the
slope; step_knots and step_at evaluate them, and profile_gap is the
one place a step profile is compared with the arc-length profile l of
the curve.  expected_length_profile_mobius is the independent route
that cross-checks the exact sums: one Moebius-inverted sum over the
full lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy import integrate
from scipy.special import zeta as _zeta

from . import curve as _curve
from . import lattice as _lattice
from .curve import ConvexCurve, curvature_profile, slope_inverse
from .errors import (
    ParameterOutOfRange,
    QuadratureFailure,
    SingularCovariance,
    SlopeOutOfRange,
    TailBoundViolated,
)

# Universal calibration constant, computed from high-precision zeta values
# at import and cross-checked against the pinned oracle evaluation.
KAPPA = float((2.0 * _zeta(3.0) / _zeta(2.0)) ** (1.0 / 3.0))
_KAPPA_PINNED = 1.1348422840496904
assert abs(KAPPA - _KAPPA_PINNED) < 1e-12, "zeta-based kappa drifted from pinned value"

_TAIL_BUDGET = 1e-9
_MAX_RADIUS = 200_000
_SECTOR_SAFETY = 0.9  # sector floor = 0.9 x the smaller tilt at its two ends


def _tilt_base(curve: ConvexCurve, t: np.ndarray) -> np.ndarray:
    """KAPPA * kappa(u(t))^(1/3) * w(t) with w(t) = sqrt(1+t^2)/(c+t) and
    w(inf) = 1; +inf outside [t0, t1].

    The curvature-in-u form keeps vertical tangents (t1 = inf) stable.
    """
    out = np.full(t.shape, math.inf)
    inside = (t >= curve.t0) & (t <= curve.t1)
    if np.any(inside):
        ti = t[inside]
        k3 = curvature_profile(curve, slope_inverse(curve, ti)) ** (1.0 / 3.0)
        finite = ~np.isinf(ti)
        w = np.ones_like(ti)
        w[finite] = np.hypot(1.0, ti[finite]) / (curve.c_gamma + ti[finite])
        out[inside] = KAPPA * k3 * w
    return out


def delta(curve: ConvexCurve, t):
    """Tilt pair (delta1, delta2) = (c * base, base) at slope t, with
    base = KAPPA * kappa(t)^(1/3) * sqrt(1+t^2)/(c+t); (+inf, +inf)
    outside [t0, t1]."""
    t_arr, scalar = _curve._as_float_array(t)
    d2 = _tilt_base(curve, t_arr)
    d1 = curve.c_gamma * d2
    if scalar:
        return float(d1), float(d2)
    return d1, d2


def calibration_residual(curve: ConvexCurve, t):
    """delta1(t) + t*delta2(t) - KAPPA*g2(u(t))^(1/3); zero for a correct tilt."""
    t_arr, scalar = _curve._as_float_array(t)
    if np.any(t_arr <= curve.t0) or np.any(t_arr >= curve.t1):
        raise SlopeOutOfRange("calibration residual needs t strictly inside (t0, t1)")
    d1, d2 = delta(curve, t_arr)
    u = slope_inverse(curve, t_arr)
    rhs = KAPPA * np.asarray(curve.g2(u), dtype=float) ** (1.0 / 3.0)
    out = d1 + t_arr * d2 - rhs
    return float(out) if scalar else out


@lru_cache(maxsize=32)
def _tilt_grid(curve: ConvexCurve) -> tuple[np.ndarray, np.ndarray]:
    """257 slopes uniform in tangent angle, endpoints included, and
    _tilt_base on them (read-only arrays)."""
    _, t = _curve._angle_grid(curve, 257)
    base = _tilt_base(curve, t)
    t.flags.writeable = False
    base.flags.writeable = False
    return t, base


def tilt_floor(curve: ConvexCurve) -> float:
    """Positive lower bound of min(delta1, delta2) over the slope range.

    The infimum is taken on the tilt grid (_tilt_grid); it feeds the
    truncation-tail certificate beyond the radius.
    """
    _, base = _tilt_grid(curve)
    return float(min(curve.c_gamma, 1.0) * np.min(base))


@dataclass(frozen=True, eq=False)
class MeasureParams:
    """Everything defining the tilted measure for one endpoint n.

    alpha_n = (rho_n * n1)^(-1/3) with rho_n = c_gamma / c_n computed
    from the exact rational c_n = n2/n1.  The direction field keeps
    the coprime x with x1 + x2 <= truncation_radius and
    alpha_n * e(x) <= neg_log_z_cap, the sublevel set of the tilt.
    tail_tolerance is the certified bound on the expected number of
    edges the truncation omits, in two halves: certified_tail covers
    the directions beyond the radius, and neg_log_z_cap = T is set so
    that N * e^-T / (1 - e^-T) <= tail_tolerance / 2, with
    N = (R+1)(R+2)/2 lattice points in the ball; that term covers the
    in-ball directions the cap drops (in_ball_tail).
    """

    n1: int
    n2: int
    curve: ConvexCurve
    truncation_radius: int
    tail_tolerance: float
    c_n: float = field(init=False)
    rho_n: float = field(init=False)
    alpha_n: float = field(init=False)
    neg_log_z_cap: float = field(init=False)

    def __post_init__(self):
        if self.n1 <= 0 or self.n2 <= 0:
            raise ParameterOutOfRange("endpoint components must be positive")
        if not 0.0 < self.tail_tolerance < math.inf:
            raise ParameterOutOfRange("tail tolerance must be positive and finite")
        c_n = Fraction(self.n2, self.n1)
        rho = self.curve.c_gamma * self.n1 / self.n2
        object.__setattr__(self, "c_n", float(c_n))
        object.__setattr__(self, "rho_n", rho)
        object.__setattr__(self, "alpha_n", (rho * self.n1) ** (-1.0 / 3.0))
        # N / expm1(T) = tol/2 at T = log1p(2N/tol); the relative 1e-12 keeps
        # the in-ball term below tol/2 through the rounding of both functions
        n_ball = _ball_points(self.truncation_radius)
        object.__setattr__(self, "neg_log_z_cap",
                           math.log1p(2.0 * n_ball / self.tail_tolerance) * (1.0 + 1e-12))

    @staticmethod
    def for_endpoint(curve: ConvexCurve, n1: int, n2: int | None = None) -> "MeasureParams":
        """Build params with the default aspect rule n2 = round(c_gamma*n1)
        and the smallest truncation radius meeting the tail budget."""
        if n2 is None:
            n2 = max(1, round(curve.c_gamma * n1))
        rho = curve.c_gamma * n1 / n2
        alpha = (rho * n1) ** (-1.0 / 3.0)
        radius, tail = _choose_radius(curve, rho, alpha)
        return MeasureParams(n1=n1, n2=n2, curve=curve,
                             truncation_radius=radius, tail_tolerance=tail)


def _ball_points(radius: int) -> float:
    """Lattice points x >= 0 with x1 + x2 <= radius, origin included."""
    return (radius + 1) * (radius + 2) / 2.0


def _geometric_tail(q: float, m: int) -> float:
    """Sum of (y+1) q^y over y >= m."""
    if q >= 1.0:
        return math.inf
    return q ** m * ((m + 1) / (1.0 - q) + q / (1.0 - q) ** 2)


def _tail_rate(curve: ConvexCurve, rho: float, alpha: float) -> float:
    # z^x <= exp(-alpha*dstar*(x1 + rho*x2)) <= exp(-alpha*dstar*(x1+x2)/2)
    # requires rho >= 1/2 for the crude halving to stay a bound.
    if rho < 0.5:
        raise TailBoundViolated(f"aspect ratio rho={rho!r} outside certificate range")
    dstar = tilt_floor(curve)
    return alpha * dstar / 2.0


def certified_tail(curve: ConvexCurve, rho: float, alpha: float, radius: int) -> float:
    """Closed-form bound on the expected number of edges beyond the radius."""
    b = _tail_rate(curve, rho, alpha)
    q = math.exp(-b)
    if q >= 1.0:
        return math.inf
    # E[nu] = z/(1-z) <= z / (1 - q^(radius+1)) on the omitted set
    return _geometric_tail(q, radius + 1) / (1.0 - q ** (radius + 1))


def in_ball_tail(params: MeasureParams) -> float:
    """Bound on the expected number of edges along the in-ball directions
    the cap drops: each has z <= e^-T, so E[nu] = z/(1-z) <= 1/expm1(T),
    and there are at most N = (R+1)(R+2)/2 of them."""
    return _ball_points(params.truncation_radius) / math.expm1(params.neg_log_z_cap)


def _choose_radius(curve: ConvexCurve, rho: float, alpha: float) -> tuple[int, float]:
    b = _tail_rate(curve, rho, alpha)
    q1 = math.exp(-2.0 * b)  # un-halved decay, rough scale of the edge count
    anchor = max(1.0, _geometric_tail(q1, 1))
    target = _TAIL_BUDGET * anchor
    half = target / 2.0  # the other half is in_ball_tail's
    lo, hi = 1, 2
    while certified_tail(curve, rho, alpha, hi) > half:
        hi *= 2
        if hi > _MAX_RADIUS:
            raise TailBoundViolated(
                f"no radius below {_MAX_RADIUS} meets the tail budget {target!r}")
    while lo < hi:
        mid = (lo + hi) // 2
        if certified_tail(curve, rho, alpha, mid) <= half:
            hi = mid
        else:
            lo = mid + 1
    return hi, target


def validate_tail(params: MeasureParams) -> None:
    """Raise unless the two certified tail terms, beyond the radius and
    dropped in the ball, sum to at most tail_tolerance."""
    tail = certified_tail(params.curve, params.rho_n, params.alpha_n,
                          params.truncation_radius) + in_ball_tail(params)
    if tail > params.tail_tolerance:
        raise TailBoundViolated(
            f"certified tail {tail!r} exceeds tolerance {params.tail_tolerance!r} "
            f"at radius {params.truncation_radius}")


def direction_exponent(curve: ConvexCurve, rho: float, x1, x2):
    """Exponent field e(x) = base(tt) * (c*x1 + rho*x2), tt = rho*x2/x1,
    with z^x = exp(-alpha*e(x)); +inf outside the slope window.  Accepts
    real vectors (1-homogeneous in x)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = np.where(x1 > 0.0, rho * x2 / np.where(x1 > 0.0, x1, 1.0), math.inf)
    base = _tilt_base(curve, tt)
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(base), math.inf,
                        base * (curve.c_gamma * x1 + rho * x2))


class _DirectionField:
    """Tau-sorted per-direction arrays for one parameter set: the coprime
    x in the ball with alpha * e(x) <= T (MeasureParams.neg_log_z_cap)."""

    def __init__(self, params: MeasureParams):
        validate_tail(params)
        c = params.curve
        rho = params.rho_n
        cap = params.neg_log_z_cap
        # enumerate only the slope window where z > 0: tau in [t0/rho, t1/rho].
        # Between two tilt-grid slopes the tilt base is at least floor_k, so
        # alpha*e(x) <= T needs c*x1 + rho*x2 <= T / (alpha * floor_k) there.
        t_lo = c.t0 / rho
        t_hi = c.t1 / rho if math.isfinite(c.t1) else math.inf
        t, base = _tilt_grid(c)
        floors = _SECTOR_SAFETY * np.minimum(base[:-1], base[1:])
        x1, x2 = _lattice.direction_arrays(t_lo, t_hi, params.truncation_radius,
                                           cuts=t[1:-1] / rho,
                                           caps=cap / (params.alpha_n * floors),
                                           weights=(c.c_gamma, rho))
        exponent = direction_exponent(c, rho, x1, x2)
        neg_log_z = params.alpha_n * exponent
        keep = neg_log_z <= cap
        x1, x2 = x1[keep], x2[keep]
        self.x1 = x1
        self.x2 = x2
        with np.errstate(divide="ignore"):
            self.tau = np.where(x1 > 0, x2 / np.maximum(x1, 1), np.inf)
        self.norm = np.hypot(x1.astype(float), x2.astype(float))
        self.exponent = exponent[keep]
        self.neg_log_z = neg_log_z[keep]
        self.zpow = np.exp(-self.neg_log_z)
        self.mean_nu, self.var_nu = nu_moments(self.zpow)
        self.cum_length = np.cumsum(self.norm * self.mean_nu)

    @cached_property
    def cum_hazard(self) -> np.ndarray:
        """Cumulative hazard -log(1 - z^x) of the per-direction activity
        events, the axis of the batched skip draws; built on first use."""
        return np.cumsum(-np.log1p(-self.zpow))


@lru_cache(maxsize=2)
def _field(params: MeasureParams) -> _DirectionField:
    return _DirectionField(params)


def z_of(params: MeasureParams, x) -> tuple[float, float]:
    """Per-direction parameter pair (z1, z2).

    The aspect correction rho rides on the second component, so that
    z1**x1 * z2**x2 equals z_pow(params, x) identically.
    """
    x1, x2 = _direction_tuple(x)
    rho = params.rho_n
    tt = rho * x2 / x1 if x1 else math.inf
    d1, d2 = delta(params.curve, tt)
    return (math.exp(-params.alpha_n * d1),
            math.exp(-params.alpha_n * rho * d2))


def z_pow(params: MeasureParams, x) -> float:
    """Geometric parameter z^x in [0, 1); 0 when the direction is excluded."""
    x1, x2 = _direction_tuple(x)
    e = float(direction_exponent(params.curve, params.rho_n,
                                 np.array([float(x1)]), np.array([float(x2)]))[0])
    if math.isinf(e):
        return 0.0
    return math.exp(-params.alpha_n * e)


def _direction_tuple(x):
    x1, x2 = x
    return int(x1), int(x2)


def nu_moments(zp):
    """Exact mean and variance of a geometric multiplicity with parameter z."""
    z_arr, scalar = _curve._as_float_array(zp)
    if np.any(z_arr < 0.0) or np.any(z_arr >= 1.0):
        raise ParameterOutOfRange("geometric parameter must lie in [0, 1)")
    mean = z_arr / (1.0 - z_arr)
    var = z_arr / (1.0 - z_arr) ** 2
    if scalar:
        return float(mean), float(var)
    return mean, var


def step_knots(taus, jumps):
    """Knots of a step profile: the slope-sorted jump slopes with the
    profile value just before and just after each jump."""
    after = np.cumsum(jumps)
    return taus, after - jumps, after


def step_at(taus, after, t, side: str = "right"):
    """Step profile at slopes t: the sum of the jumps at slopes <= t,
    or < t with side="left" (the value just below t)."""
    idx = np.searchsorted(taus, np.asarray(t, dtype=float), side=side)
    return np.concatenate([[0.0], after])[idx]


def profile_gap(curve: ConvexCurve, taus, before, after):
    """Sup over slopes of |step profile - l| and the slope of its first
    occurrence, as (gap, argmax_t).

    before and after are the already-scaled profile values on either
    side of each jump at the sorted slopes taus.  Between knots the
    profile is constant and l is continuous and monotone, so the sup
    sits on one side of a knot or at t = +inf; a closing knot at +inf
    (before = after = the final value, 0 without knots) covers the
    stretch past the last jump.  l(+inf) is the total arc length.
    """
    end = after[-1] if len(after) else 0.0
    taus = np.append(taus, math.inf)
    ell = _curve.length_profile(curve, taus)
    gaps = np.maximum(np.abs(np.append(after, end) - ell),
                      np.abs(np.append(before, end) - ell))
    i = int(np.argmax(gaps))
    return float(gaps[i]), float(taus[i])


def expected_length_profile(params: MeasureParams, t):
    """Exact truncated expectation of the path-length profile at slope t."""
    f = _field(params)
    t_arr, scalar = _curve._as_float_array(t)
    out = step_at(f.tau, f.cum_length, t_arr)
    return float(out) if scalar else out


def mean_length_sup_gap(params: MeasureParams) -> float:
    """sup over t of |E[path length profile](t) / n1 - l(t)|."""
    f = _field(params)
    taus, before, after = step_knots(f.tau, f.norm * f.mean_nu)
    return profile_gap(params.curve, taus, before / params.n1, after / params.n1)[0]


def expected_endpoint(params: MeasureParams) -> np.ndarray:
    """Expected right endpoint: sum over directions of x * E[nu(x)]."""
    f = _field(params)
    return np.array([float(np.sum(f.x1 * f.mean_nu)),
                     float(np.sum(f.x2 * f.mean_nu))])


def covariance_matrix(params: MeasureParams) -> np.ndarray:
    """Covariance of the endpoint: sum of x_i x_j Var[nu(x)]."""
    f = _field(params)
    k11 = float(np.sum(f.x1.astype(float) ** 2 * f.var_nu))
    k12 = float(np.sum(f.x1.astype(float) * f.x2.astype(float) * f.var_nu))
    k22 = float(np.sum(f.x2.astype(float) ** 2 * f.var_nu))
    return np.array([[k11, k12], [k12, k22]])


def normalization_constant(params: MeasureParams) -> float:
    """Product of (1 - z^x) over the truncated direction set."""
    f = _field(params)
    return float(np.exp(np.sum(np.log1p(-f.zpow))))


def b_matrix(curve: ConvexCurve) -> np.ndarray:
    """Limit covariance profile: B_jk = integral of g1^(j+k-2) / g2^(1/3)."""
    entries = []
    for power in range(3):
        def integrand(u, power=power):
            with np.errstate(divide="ignore", over="ignore"):
                g1v = float(curve.g1(u))
                g2v = float(curve.g2(u))
            if not math.isfinite(g2v):
                return 0.0
            return g1v ** power / g2v ** (1.0 / 3.0)

        value, abserr = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13,
                                       epsrel=1e-10, limit=200)
        if not math.isfinite(value) or abserr > max(1e-8 * abs(value), 1e-12):
            raise QuadratureFailure(f"B integral (power {power}) did not converge")
        entries.append(value)
    b11, b12, b22 = entries
    return np.array([[b11, b12], [b12, b22]])


@dataclass(frozen=True)
class MomentReport:
    """Exact first/second endpoint moments plus their limit profile."""

    a_z: np.ndarray
    K: np.ndarray
    B: np.ndarray
    detK: float
    density_at_n: float


def gaussian_density_at(report: MomentReport, m) -> float:
    """Bivariate normal density with mean a_z and covariance K at the
    lattice point m, evaluated through the inverse covariance."""
    if not (report.detK > 0.0) or not math.isfinite(report.detK):
        raise SingularCovariance(f"det K = {report.detK!r}")
    diff = np.asarray(m, dtype=float) - report.a_z
    quad_form = float(diff @ np.linalg.solve(report.K, diff))
    return float(np.exp(-0.5 * quad_form) / (2.0 * math.pi * math.sqrt(report.detK)))


def moment_report(params: MeasureParams) -> MomentReport:
    a = expected_endpoint(params)
    K = covariance_matrix(params)
    B = b_matrix(params.curve)
    detK = float(np.linalg.det(K))
    if not (detK > 0.0):
        raise SingularCovariance("endpoint covariance is not positive definite")
    report = MomentReport(a_z=a, K=K, B=B, detK=detK, density_at_n=0.0)
    density = gaussian_density_at(report, (params.n1, params.n2))
    object.__setattr__(report, "density_at_n", density)
    return report


def expected_length_profile_mobius(params: MeasureParams, t) -> float:
    """Moebius-inverted evaluation of the expected length profile.

    Independent route for cross-checking expected_length_profile: one
    mobius_inverted_sum of |v| * E[nu] * 1[tau_v <= t] * 1[alpha*e(v) <= T]
    over the full lattice in the truncation ball, with
    z_v = exp(-alpha * e(v)) taken from the exponent field at every
    lattice point v.  Both indicators are functions of the lattice
    point, so the inversion stays exact.  Cost grows with radius^2, so
    use test-sized parameter sets.
    """
    c = params.curve
    rho = params.rho_n
    t = float(t)

    def f(v1, v2):
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.where(v1 > 0.0, v2 / np.where(v1 > 0.0, v1, 1.0), math.inf)
        neg_log_z = params.alpha_n * direction_exponent(c, rho, v1, v2)
        mean, _ = nu_moments(np.exp(-neg_log_z))
        return np.where((tau <= t) & (neg_log_z <= params.neg_log_z_cap),
                        np.hypot(v1, v2) * mean, 0.0)

    return _lattice.mobius_inverted_sum(f, params.truncation_radius)
