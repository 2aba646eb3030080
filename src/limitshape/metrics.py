"""Path distances between scaled lattice paths and the target arc.

Two metrics: the Hausdorff distance between point sets, and the
sup-distance between arc-length profiles in the tangent-slope
coordinate.  The path profile is a step function and the curve
profile is continuous and monotone between knots, so the profile
distance is exact on both sides of the jump slopes plus +inf; it comes
from measure.profile_gap, which also serves the expected profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import curve as _curve
from . import measure as _measure
from . import sampler as _sampler
from .curve import ConvexCurve
from .errors import EmptyPath
from .sampler import PolygonalLine

_POINT_CHUNK = 1024
_CURVE_POINTS = 2048  # vertices of the target polyline for Hausdorff


@dataclass(frozen=True)
class PathDistanceReport:
    d_hausdorff: float
    d_length: float
    argmax_t: float


def _directed_hausdorff(points: np.ndarray, poly: np.ndarray) -> float:
    """max over points of the distance to the polyline poly."""
    if poly.shape[0] == 1:
        d = np.hypot(points[:, 0] - poly[0, 0], points[:, 1] - poly[0, 1])
        return float(d.max())
    a = poly[:-1]
    v = poly[1:] - a
    vv = np.maximum(np.einsum("ij,ij->i", v, v), 1e-300)
    best = np.full(points.shape[0], math.inf)
    for start in range(0, points.shape[0], _POINT_CHUNK):
        p = points[start:start + _POINT_CHUNK]
        w = p[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("pij,ij->pi", w, v) / vv, 0.0, 1.0)
        d2 = np.einsum("pij,pij->pi", w - t[:, :, None] * v[None, :, :],
                       w - t[:, :, None] * v[None, :, :])
        best[start:start + _POINT_CHUNK] = np.sqrt(d2.min(axis=1))
    return float(best.max())


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two polylines.

    Vertices of each path are tested against the segments of the other,
    so the result is exact whenever the directed maxima sit at vertices;
    densify beforehand when mid-segment excursions matter.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptyPath("hausdorff needs two non-empty paths")
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


def length_distance(line: PolygonalLine, scale: float, curve: ConvexCurve) -> float:
    return distance_report(line, scale, curve).d_length


def profile_distance(line_a: PolygonalLine, scale_a: float,
                     line_b: PolygonalLine, scale_b: float) -> float:
    """Sup-distance between two scaled path length profiles.

    Both profiles are step functions, so the sup sits on the union of
    their jump slopes, evaluated from both sides.
    """
    taus_a, _, after_a = _sampler.profile_knots(line_a)
    taus_b, _, after_b = _sampler.profile_knots(line_b)
    all_taus = np.unique(np.concatenate([taus_a, taus_b]))
    if not all_taus.size:
        all_taus = np.array([0.0])
    gaps = [np.abs(scale_a * _measure.step_at(taus_a, after_a, all_taus, side)
                   - scale_b * _measure.step_at(taus_b, after_b, all_taus, side))
            for side in ("right", "left")]
    return float(np.maximum(*gaps).max())


@lru_cache(maxsize=32)
def _curve_polyline(curve: ConvexCurve) -> np.ndarray:
    """Read-only arc-length-uniform polyline of the curve, built once."""
    poly = _curve.discretize(curve, _CURVE_POINTS)
    poly.flags.writeable = False
    return poly


def distance_report(line: PolygonalLine, scale: float,
                    curve: ConvexCurve) -> PathDistanceReport:
    """Both path distances between the scaled line and the target arc.

    The profile distance is the sup over slopes of
    |scale * path_profile(t) - curve_profile(t)|, taken by
    measure.profile_gap on both sides of the path's jump slopes and at
    +inf; argmax_t is the slope of its first occurrence, +inf when the
    sup holds from the last knot on.
    """
    if scale < 0.0:
        raise ValueError("scale must be nonnegative")
    taus, before, after = _sampler.profile_knots(line)
    d_length, argmax_t = _measure.profile_gap(curve, taus, scale * before, scale * after)
    d_h = hausdorff(line.vertices.astype(float) * scale, _curve_polyline(curve))
    return PathDistanceReport(d_hausdorff=d_h, d_length=d_length, argmax_t=argmax_t)
