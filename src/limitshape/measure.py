"""The tilted product measure over coprime directions.

Each direction x gets an independent geometric multiplicity with
parameter z^x = exp(-alpha * e(x)), where the exponent field

    e(x) = KAPPA * kappa(u(tt))^(1/3) * w(tt) * (c*x1 + rho*x2),
    tt = rho*x2/x1,   w(t) = sqrt(1+t^2)/(c+t),

encodes the tilt functions (delta1, delta2) calibrated so that the
expected length profile of the random path reproduces the target arc.
KAPPA = (2 zeta(3)/zeta(2))^(1/3) is the universal constant of the
calibration identity delta1(t) + t*delta2(t) = KAPPA * g2(u(t))^(1/3).

Directions with slope outside the curve's tangent range get e = +inf
(z = 0) and are never enumerated.  All moment sums are finite,
tail-certified truncations.  Length profiles of paths and of the mean
path are step functions in the slope; step_knots and step_at evaluate
them, and profile_gap is the one place a step profile is compared with
the arc-length profile l of the curve.
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

_DEFAULT_TAIL_BUDGET = 1e-9
_MAX_RADIUS = 200_000


def delta(curve: ConvexCurve, t):
    """Tilt pair (delta1, delta2) at slope t; (+inf, +inf) outside [t0, t1].

    delta1 = KAPPA * kappa(t)^(1/3) * c * sqrt(1+t^2)/(c+t) and
    delta2 = delta1 / c, evaluated through the curvature-in-u form so
    vertical tangents (t1 = inf) stay numerically stable.
    """
    t_arr, scalar = _curve._as_float_array(t)
    d1 = np.full_like(t_arr, math.inf)
    inside = (t_arr >= curve.t0) & (t_arr <= curve.t1)
    if np.any(inside):
        ti = t_arr[inside]
        u = slope_inverse(curve, ti)
        k3 = curvature_profile(curve, u) ** (1.0 / 3.0)
        w = np.where(np.isinf(ti), 1.0,
                     np.hypot(1.0, np.where(np.isinf(ti), 0.0, ti))
                     / (curve.c_gamma + np.where(np.isinf(ti), 0.0, ti)))
        d1[inside] = KAPPA * k3 * curve.c_gamma * w
    d2 = d1 / curve.c_gamma
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


def tilt_floor(curve: ConvexCurve) -> float:
    """Positive lower bound of min(delta1, delta2) over the slope range.

    The infimum is taken on 257 slopes uniform in tangent angle,
    endpoints included; it feeds the truncation-tail certificates.
    """
    _, t = _curve._angle_grid(curve, 257)
    d1, d2 = delta(curve, t)
    return float(min(np.min(d1), np.min(d2)))


@dataclass(frozen=True, eq=False)
class MeasureParams:
    """Everything defining the tilted measure for one endpoint n.

    alpha_n = (rho_n * n1)^(-1/3) with rho_n = c_gamma / c_n computed
    from the exact rational c_n = n2/n1.  truncation_radius bounds
    x1 + x2 of enumerated directions; tail_tolerance is the certified
    bound on the expected number of edges the truncation omits.
    """

    n1: int
    n2: int
    curve: ConvexCurve
    truncation_radius: int
    tail_tolerance: float
    c_n: float = field(init=False)
    rho_n: float = field(init=False)
    alpha_n: float = field(init=False)

    def __post_init__(self):
        if self.n1 <= 0 or self.n2 <= 0:
            raise ParameterOutOfRange("endpoint components must be positive")
        c_n = Fraction(self.n2, self.n1)
        rho = self.curve.c_gamma * self.n1 / self.n2
        object.__setattr__(self, "c_n", float(c_n))
        object.__setattr__(self, "rho_n", rho)
        object.__setattr__(self, "alpha_n", (rho * self.n1) ** (-1.0 / 3.0))

    @staticmethod
    def for_endpoint(curve: ConvexCurve, n1: int, n2: int | None = None, *,
                     tail_budget: float = _DEFAULT_TAIL_BUDGET) -> "MeasureParams":
        """Build params with the default aspect rule n2 = round(c_gamma*n1)
        and the smallest truncation radius meeting the tail budget."""
        if n2 is None:
            n2 = max(1, round(curve.c_gamma * n1))
        rho = curve.c_gamma * n1 / n2
        alpha = (rho * n1) ** (-1.0 / 3.0)
        radius, tail = _choose_radius(curve, rho, alpha, tail_budget)
        return MeasureParams(n1=n1, n2=n2, curve=curve,
                             truncation_radius=radius, tail_tolerance=tail)


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
    # E[nu] = z/(1-z) <= z / (1 - q^(radius+1)) on the omitted set
    slack = 1.0 / max(1.0 - q ** (radius + 1), 0.5)
    return _geometric_tail(q, radius + 1) * slack


def _choose_radius(curve: ConvexCurve, rho: float, alpha: float,
                   tail_budget: float) -> tuple[int, float]:
    b = _tail_rate(curve, rho, alpha)
    q1 = math.exp(-2.0 * b)  # un-halved decay, rough scale of the edge count
    anchor = max(1.0, _geometric_tail(q1, 1))
    target = tail_budget * anchor
    lo, hi = 1, 2
    while certified_tail(curve, rho, alpha, hi) > target:
        hi *= 2
        if hi > _MAX_RADIUS:
            raise TailBoundViolated(
                f"no radius below {_MAX_RADIUS} meets the tail budget {target!r}")
    while lo < hi:
        mid = (lo + hi) // 2
        if certified_tail(curve, rho, alpha, mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return hi, target


def validate_tail(params: MeasureParams) -> None:
    tail = certified_tail(params.curve, params.rho_n, params.alpha_n,
                          params.truncation_radius)
    if tail > params.tail_tolerance:
        raise TailBoundViolated(
            f"certified tail {tail!r} exceeds tolerance {params.tail_tolerance!r} "
            f"at radius {params.truncation_radius}")


def direction_exponent(curve: ConvexCurve, rho: float, x1, x2):
    """Exponent field e(x) with z^x = exp(-alpha*e(x)); +inf outside the
    slope window.  Accepts real vectors (1-homogeneous in x)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = np.where(x1 > 0.0, rho * x2 / np.where(x1 > 0.0, x1, 1.0), math.inf)
    inside = (tt >= curve.t0) & (tt <= curve.t1)
    out = np.full(np.broadcast(x1, x2).shape, math.inf)
    if np.any(inside):
        ti = tt[inside]
        u = slope_inverse(curve, ti)
        k3 = curvature_profile(curve, u) ** (1.0 / 3.0)
        finite = ~np.isinf(ti)
        w = np.ones_like(ti)
        w[finite] = np.hypot(1.0, ti[finite]) / (curve.c_gamma + ti[finite])
        x1b = np.broadcast_to(x1, out.shape)[inside]
        x2b = np.broadcast_to(x2, out.shape)[inside]
        out[inside] = KAPPA * k3 * w * (curve.c_gamma * x1b + rho * x2b)
    return out


class _DirectionField:
    """Tau-sorted per-direction arrays for one parameter set."""

    def __init__(self, params: MeasureParams):
        validate_tail(params)
        c = params.curve
        rho = params.rho_n
        # enumerate only the slope window where z > 0: tau in [t0/rho, t1/rho]
        t_lo = c.t0 / rho
        t_hi = c.t1 / rho if math.isfinite(c.t1) else math.inf
        x1, x2 = _lattice.direction_arrays(t_lo, t_hi, params.truncation_radius)
        self.x1 = x1
        self.x2 = x2
        with np.errstate(divide="ignore"):
            self.tau = np.where(x1 > 0, x2 / np.maximum(x1, 1), np.inf)
        self.norm = np.hypot(x1.astype(float), x2.astype(float))
        self.exponent = direction_exponent(c, rho, x1, x2)
        self.neg_log_z = params.alpha_n * self.exponent
        with np.errstate(over="ignore"):
            self.zpow = np.exp(-self.neg_log_z)
        self.mean_nu = self.zpow / (1.0 - self.zpow)
        self.var_nu = self.zpow / (1.0 - self.zpow) ** 2
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


def expected_length_profile_mobius(params: MeasureParams, t,
                                   radius: int | None = None,
                                   rel_tol: float = 1e-12) -> float:
    """Moebius-inverted evaluation of the expected length profile.

    Independent route for cross-checking expected_length_profile: the
    geometric series over multiplicities is kept explicit and each term
    is a full-lattice sum combined with mu weights.  Cost grows with
    radius^2, so use test-sized parameter sets.
    """
    r = int(radius if radius is not None else params.truncation_radius)
    c = params.curve
    rho = params.rho_n
    alpha = params.alpha_n
    t = float(t)
    table = _lattice.mobius_sieve(max(r, 1))

    e_min = alpha * tilt_floor(c)
    k_max = max(1, int(math.ceil(37.0 / e_min)))

    def f(v1, v2):
        # scale-invariant in direction, 1-homogeneous in magnitude, so
        # f(k*x)/k recovers the k-th geometric term of E[nu(x)]
        e = direction_exponent(c, rho, v1, v2)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.where(v1 > 0.0, v2 / np.where(v1 > 0.0, v1, 1.0), math.inf)
        with np.errstate(over="ignore"):
            vals = np.hypot(v1, v2) * np.exp(-alpha * np.where(tau <= t, e, math.inf))
        return np.where(np.isfinite(vals), vals, 0.0)

    total = 0.0
    for k in range(1, k_max + 1):
        term = _lattice.mobius_inverted_sum(f, float(k), r, table=table) / k
        total += term
        if k > 3 and abs(term) < rel_tol * max(abs(total), 1e-300):
            break
    return total
