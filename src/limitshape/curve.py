"""Convex target arcs and their tangent-slope parameterization.

A curve is the graph of a strictly increasing, strictly convex function
g on [0, 1] with g(0) = 0.  Everything downstream works in the
tangent-slope coordinate t = g'(u): the generalized inverse u(t), the
arc-length profile l(t) (length of the sub-arc with tangent slope <= t)
and the curvature kappa(u(t)) (curvature_profile).  Presets supply closed forms; tabulated
data is fitted with a shape-verified quintic interpolating spline, kept
in piecewise-polynomial form (scipy PPoly) so that g, g1 and g2 are
evaluated by Horner's rule on one interval each.

l(t) has one route, length_profile: a cached antiderivative spline of
1/kappa over the tangent angle, which maps t = +inf to the total
length.  One tangent-angle grid (_angle_grid) serves that table,
slope_grid and the tilt floor of measure.

Curves without a closed-form inverse (tabulated arcs) get u(t) from a
cached table of g1 on 4097 dyadic abscissae: each slope's table cell
brackets its root, and a safeguarded Newton iteration inside that
bracket converges to roundoff, in chunks of 2^15 slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline, PPoly, make_interp_spline

from .errors import (
    CurvatureFloorViolated,
    InvalidPresetParameter,
    NonMonotoneDerivative,
    NotConvex,
    NotMonotone,
)

_VALIDATION_GRID = 513
_CURVATURE_REJECT_FLOOR = 1e-7
_SLOPE_TABLE = 4097
_ROOT_CHUNK = 1 << 15
_ROOT_STEP = 2.0 ** -50
_NEWTON_BUDGET = 100


@dataclass(frozen=True, eq=False)
class ConvexCurve:
    """Immutable convex arc with derivative data.

    g, g1, g2 are vectorized callables on [0, 1].  t0 = g1(0) and
    t1 = g1(1) bound the tangent slope; t1 may be +inf when the arc
    ends vertically.  K0 is the verified curvature floor.  curvature_u
    and inverse_slope are optional numerically stable overrides
    (curvature as a function of u, and the closed-form inverse of g1);
    generic fallbacks are used when absent.
    """

    g: Callable
    g1: Callable
    g2: Callable
    c_gamma: float
    t0: float
    t1: float
    K0: float
    curvature_u: Callable | None = field(default=None, repr=False)
    inverse_slope: Callable | None = field(default=None, repr=False)
    name: str = "curve"


def _as_float_array(t):
    a = np.asarray(t, dtype=float)
    return a, (a.ndim == 0)


def curvature_profile(curve: ConvexCurve, u):
    """Curvature as a function of the abscissa u."""
    u_arr, scalar = _as_float_array(u)
    if curve.curvature_u is not None:
        out = np.asarray(curve.curvature_u(u_arr), dtype=float)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = curve.g2(u_arr) / (1.0 + curve.g1(u_arr) ** 2) ** 1.5
        out = np.asarray(out, dtype=float)
    return float(out) if scalar else out


@lru_cache(maxsize=32)
def _slope_table(curve: ConvexCurve):
    """g1 on the dyadic grid u = j / 2^12, checked strictly increasing.

    Each root of g1(u) = t lies in the table cell that brackets t, so
    searchsorted hands every slope a bracket of width 2^-12; measure's
    tilt floors (measure._floor_table) use the same cells.  The last
    entry may be +inf when the arc ends vertically.
    """
    u = np.linspace(0.0, 1.0, _SLOPE_TABLE)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g1 = np.asarray(curve.g1(u), dtype=float)
    if not np.all(np.diff(g1) > 0.0):
        raise NonMonotoneDerivative("g1 is not strictly increasing on [0, 1]")
    return u, g1


def _invert_g1(curve: ConvexCurve, t):
    """Root of g1(u) = t for a 1-D array t strictly inside (t0, t1).

    The cached slope table brackets each root in one cell; a safeguarded
    Newton iteration (rtsafe) starts from the linear interpolate, and
    any step that leaves the bracket or fails to halve becomes a
    bisection step.  Each point iterates until its step is at most
    _ROOT_STEP (2^-50) in u, within _NEWTON_BUDGET iterations (a point
    that runs out keeps its last iterate, which lies in its bracket);
    two final Newton steps drive the slope residual to roundoff, which
    the calibration identity needs at large t.  Slopes are processed in
    chunks of _ROOT_CHUNK (2^15) so temporaries stay bounded for any
    input size.
    """
    u_tab, g1_tab = _slope_table(curve)
    out = np.empty_like(t)
    for start in range(0, t.size, _ROOT_CHUNK):
        part = t[start:start + _ROOT_CHUNK]
        tol = 1e-9 * (1.0 + np.abs(part))
        if np.any(g1_tab[0] - part > tol) or np.any(g1_tab[-1] - part < -tol):
            raise NonMonotoneDerivative("g1 does not bracket the requested slope")
        u = _rtsafe(curve, u_tab, g1_tab, part)
        for _ in range(2):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                step = (curve.g1(u) - part) / curve.g2(u)
            step = np.where(np.isfinite(step), step, 0.0)
            u = np.clip(u - step, 0.0, 1.0)
        out[start:start + _ROOT_CHUNK] = u
    return out


def _rtsafe(curve: ConvexCurve, u_tab, g1_tab, t):
    j = np.clip(np.searchsorted(g1_tab, t, side="right") - 1, 0, g1_tab.size - 2)
    lo, hi = u_tab[j], u_tab[j + 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        frac = (t - g1_tab[j]) / (g1_tab[j + 1] - g1_tab[j])
    frac = np.where(np.isfinite(frac), np.clip(frac, 0.0, 1.0), 0.5)
    u = lo + frac * (hi - lo)
    last = hi - lo
    out = np.empty_like(t)
    todo = np.arange(t.size)
    for _ in range(_NEWTON_BUDGET):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f = curve.g1(u) - t
            step = f / curve.g2(u)
        below = f < 0.0
        lo = np.where(below, u, lo)
        hi = np.where(below, hi, u)
        newton = u - step
        bisect = ~((newton >= lo) & (newton <= hi) & (np.abs(step) <= 0.5 * last))
        nxt = np.where(bisect, 0.5 * (lo + hi), newton)
        last = np.abs(nxt - u)
        done = (last <= _ROOT_STEP) | (f == 0.0)
        out[todo[done]] = nxt[done]
        keep = ~done
        if not np.any(keep):
            return out
        todo, t, u = todo[keep], t[keep], nxt[keep]
        lo, hi, last = lo[keep], hi[keep], last[keep]
    out[todo] = u
    return out


def slope_inverse(curve: ConvexCurve, t):
    """Generalized inverse u(t) of the derivative g1.

    Returns 0 for t <= t0 and 1 for t >= t1; in between, the unique
    root of g1(u) = t: the closed form when the curve carries one,
    otherwise the table-bracketed safeguarded Newton of _invert_g1,
    whose slope residual |g1(u) - t| is at roundoff level.
    Accepts scalars or arrays; t may be +inf.
    """
    t_arr, scalar = _as_float_array(t)
    out = np.empty_like(t_arr)
    low = t_arr <= curve.t0
    high = t_arr >= curve.t1
    mid = ~(low | high)
    out[low] = 0.0
    out[high] = 1.0
    if np.any(mid):
        tm = t_arr[mid]
        if curve.inverse_slope is not None:
            out[mid] = np.clip(curve.inverse_slope(tm), 0.0, 1.0)
        else:
            out[mid] = _invert_g1(curve, tm)
    return float(out) if scalar else out


def _angle_grid(curve: ConvexCurve, n: int):
    """n tangent angles uniform on [atan t0, atan t1] and their slopes.

    The last angle is pi/2 when the arc ends vertically; the last slope
    is t1 itself (+inf for a vertical end), not the tangent of the
    rounded angle.
    """
    theta1 = math.atan(curve.t1) if math.isfinite(curve.t1) else math.pi / 2.0
    theta = np.linspace(math.atan(curve.t0), theta1, n)
    t = np.tan(theta)
    t[-1] = curve.t1
    return theta, t


@lru_cache(maxsize=32)
def _length_table(curve: ConvexCurve):
    """Antiderivative spline of 1/kappa over the tangent angle.

    The arc length satisfies dl = d(theta)/kappa(theta) with
    theta = arctan t, so a dense cumulative table gives l(t) for any t
    at ~1e-12 accuracy, vectorized.  Only valid (checked) curves reach
    this path.
    """
    theta, t = _angle_grid(curve, 4097)
    u = slope_inverse(curve, t)
    f = 1.0 / curvature_profile(curve, u)
    spline = CubicSpline(theta, f).antiderivative()
    return float(theta[0]), float(theta[-1]), spline


def length_profile(curve: ConvexCurve, t):
    """Vectorized arc-length profile via the cached angle table."""
    theta0, theta1, spline = _length_table(curve)
    t_arr, scalar = _as_float_array(t)
    theta = np.arctan(np.clip(t_arr, 0.0, None))
    theta = np.clip(theta, theta0, theta1)
    out = spline(theta) - spline(theta0)
    out = np.clip(out, 0.0, None)
    return float(out) if scalar else out


def discretize(curve: ConvexCurve, n_points: int = 1024) -> np.ndarray:
    """Arc-length-uniform polyline approximation of the curve."""
    theta0, theta1, spline = _length_table(curve)
    base = spline(theta0)
    total = spline(theta1) - base
    s_targets = np.linspace(0.0, total, n_points)
    # invert the monotone cumulative length on a fine angle grid
    theta_fine = np.linspace(theta0, theta1, 8193)
    s_fine = spline(theta_fine) - base
    theta_pts = np.interp(s_targets, s_fine, theta_fine)
    t = np.tan(np.clip(theta_pts, 0.0, math.pi / 2 - 1e-12))
    u = slope_inverse(curve, t)
    u[0] = 0.0
    u[-1] = 1.0
    return np.column_stack([u, curve.g(u)])


def slope_grid(curve: ConvexCurve, n: int = 64) -> np.ndarray:
    """n slopes strictly inside (t0, t1), uniform in tangent angle.

    The angle parameterization keeps the grid meaningful when t1 is
    infinite; endpoints are excluded (interior-only contracts).
    """
    return _angle_grid(curve, n + 2)[1][1:-1]


def _validate(curve: ConvexCurve, k0_floor: float) -> float:
    """Check construction invariants on a dense grid; return the curvature floor."""
    grid = np.linspace(0.0, 1.0, _VALIDATION_GRID)
    g_vals = np.asarray(curve.g(grid), dtype=float)
    if abs(g_vals[0]) > 1e-12:
        raise NotMonotone(f"g(0) = {g_vals[0]!r}, expected 0")
    if abs(g_vals[-1] - curve.c_gamma) > 1e-9 * max(1.0, abs(curve.c_gamma)):
        raise NotMonotone(f"g(1) = {g_vals[-1]!r}, expected {curve.c_gamma!r}")
    if not np.all(np.diff(g_vals) > 0.0):
        raise NotMonotone("g is not strictly increasing")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g1_vals = np.asarray(curve.g1(grid), dtype=float)
    if np.any(g1_vals < -1e-12):
        raise NotMonotone("g1 takes negative values")
    finite = np.isfinite(g1_vals)
    if not np.all(np.diff(g1_vals[finite]) > 0.0):
        raise NotConvex("g1 is not strictly increasing (curve not strictly convex)")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kappa = curvature_profile(curve, grid)
    kmin = float(np.nanmin(kappa))
    if not (kmin > 0.0) or kmin < k0_floor or kmin < _CURVATURE_REJECT_FLOOR:
        raise CurvatureFloorViolated(
            f"curvature floor {kmin!r} below required {max(k0_floor, _CURVATURE_REJECT_FLOOR)!r}")
    return kmin


def _finish(g, g1, g2, c_gamma, *, curvature_u=None, inverse_slope=None,
            name="curve", k0_floor=0.0) -> ConvexCurve:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t0 = float(g1(0.0))
        t1 = float(g1(1.0))
    candidate = ConvexCurve(g=g, g1=g1, g2=g2, c_gamma=float(c_gamma),
                            t0=t0, t1=t1, K0=0.0,
                            curvature_u=curvature_u, inverse_slope=inverse_slope,
                            name=name)
    k0 = _validate(candidate, k0_floor)
    object.__setattr__(candidate, "K0", k0)
    return candidate


def _preset_param(kwargs: dict, key: str, default: float) -> float:
    try:
        return float(kwargs.pop(key, default))
    except (TypeError, ValueError, OverflowError):
        raise InvalidPresetParameter(f"preset parameter {key} must be a number") from None


def make_preset(name: str, **kwargs) -> ConvexCurve:
    """Build a closed-form preset curve.

    Presets: parabola(c) with vertical right tangent, the unit circle
    quadrant, and power(p) = u**p with finite slope range.
    """
    if name == "parabola":
        c = _preset_param(kwargs, "c", 1.0)
        if kwargs or not (c > 0.0) or not math.isfinite(c):
            raise InvalidPresetParameter(f"parabola needs c > 0, got {kwargs or c}")

        def g(u):
            return c * (1.0 - np.sqrt(1.0 - np.asarray(u, float))) ** 2

        def g1(u):
            s = np.sqrt(1.0 - np.asarray(u, float))
            with np.errstate(divide="ignore"):
                return c * (1.0 - s) / s

        def g2(u):
            with np.errstate(divide="ignore"):
                return c / (2.0 * (1.0 - np.asarray(u, float)) ** 1.5)

        def curvature_u(u):
            s = np.sqrt(1.0 - np.asarray(u, float))
            return c / (2.0 * (s * s + c * c * (1.0 - s) ** 2) ** 1.5)

        def inverse_slope(t):
            r = c / (np.asarray(t, float) + c)
            return 1.0 - r * r

        return _finish(g, g1, g2, c, curvature_u=curvature_u,
                       inverse_slope=inverse_slope, name=f"parabola({c:g})")

    if name == "circle_arc":
        if kwargs:
            raise InvalidPresetParameter(f"circle_arc takes no parameters, got {kwargs}")

        def g(u):
            return 1.0 - np.sqrt(1.0 - np.asarray(u, float) ** 2)

        def g1(u):
            u = np.asarray(u, float)
            with np.errstate(divide="ignore"):
                return u / np.sqrt(1.0 - u * u)

        def g2(u):
            u = np.asarray(u, float)
            with np.errstate(divide="ignore"):
                return (1.0 - u * u) ** -1.5

        def curvature_u(u):
            u = np.asarray(u, float)
            return np.ones_like(u)

        def inverse_slope(t):
            t = np.asarray(t, float)
            return t / np.hypot(1.0, t)

        return _finish(g, g1, g2, 1.0, curvature_u=curvature_u,
                       inverse_slope=inverse_slope, name="circle_arc")

    if name == "power":
        p = _preset_param(kwargs, "p", 2.0)
        if kwargs or not (p > 1.0) or not math.isfinite(p):
            raise InvalidPresetParameter(f"power needs p > 1, got {kwargs or p}")

        def g(u):
            return np.asarray(u, float) ** p

        def g1(u):
            return p * np.asarray(u, float) ** (p - 1.0)

        def g2(u):
            # u^(p-2) overflows at tiny u for p near 1: the slope inverse
            # (t/p)^(1/(p-1)) underflows there
            with np.errstate(divide="ignore", over="ignore"):
                return p * (p - 1.0) * np.asarray(u, float) ** (p - 2.0)

        def inverse_slope(t):
            return (np.asarray(t, float) / p) ** (1.0 / (p - 1.0))

        return _finish(g, g1, g2, 1.0, inverse_slope=inverse_slope,
                       name=f"power({p:g})")

    raise InvalidPresetParameter(f"unknown preset {name!r}")


def make_tabulated(samples, k0: float) -> ConvexCurve:
    """Fit a shape-verified C2 interpolant through (u, g(u)) samples.

    Needs at least 8 samples with u strictly increasing from 0 to 1 and
    strictly convex, strictly increasing values.  The interpolant is the
    quintic not-a-knot interpolating spline (smooth g2 for the tilt
    functions), converted once to piecewise-polynomial form: g, g1 and
    g2 are a PPoly and its first two derivatives, each evaluated by one
    interval search and Horner's rule, which is several times cheaper
    than B-spline evaluation on the many slopes of a direction field
    and agrees with it to a few ulps.  Convexity and the caller's
    curvature floor k0 are verified on a dense grid and violations are
    rejected rather than silently smoothed.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 8:
        raise NotConvex(f"need at least 8 (u, g) samples, got shape {pts.shape}")
    u, y = pts[:, 0], pts[:, 1]
    if not np.all(np.diff(u) > 0) or abs(u[0]) > 1e-12 or abs(u[-1] - 1.0) > 1e-12:
        raise NotMonotone("u samples must increase strictly from 0 to 1")
    if abs(y[0]) > 1e-12:
        raise NotMonotone("g(0) must be 0")
    if not np.all(np.diff(y) > 0):
        raise NotMonotone("g samples must be strictly increasing")
    slopes = np.diff(y) / np.diff(u)
    if not np.all(np.diff(slopes) > 0):
        raise NotConvex("sample chords are not strictly convex")

    poly = PPoly.from_spline(make_interp_spline(u, y, k=5))
    d1 = poly.derivative(1)
    d2 = poly.derivative(2)

    def g(x):
        return poly(np.asarray(x, float))

    def g1(x):
        return d1(np.asarray(x, float))

    def g2(x):
        return d2(np.asarray(x, float))

    dense = np.linspace(0.0, 1.0, 4001)
    if not np.all(d2(dense) > 0.0):
        raise NotConvex("interpolant loses convexity; supply denser or smoother samples")
    return _finish(g, g1, g2, float(y[-1]), name="tabulated", k0_floor=float(k0))
