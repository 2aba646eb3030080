"""Path distances between scaled lattice paths and the target arc.

Two metrics: the Hausdorff distance between point sets, and the
sup-distance between arc-length profiles in the tangent-slope
coordinate.  The path profile is a step function and the curve
profile is continuous and monotone between knots, so the profile
distance is exact on both sides of the jump slopes plus +inf; it comes
from measure.profile_gap, which also serves the expected profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import curve as _curve
from . import measure as _measure
from . import sampler as _sampler
from .curve import ConvexCurve
from .errors import EmptyPath, NotMonotone
from .sampler import PolygonalLine

# (point, segment) pairs evaluated per block: bounds the memory of a far-off
# path, whose windows span every segment
_PAIR_CHUNK = 1 << 18
# The window half-width is the seed distance times (1 + _REL_PAD) plus
# _ABS_PAD times (1 + the largest coordinate magnitude).  The per-pair
# formula rounds by a few ulps of the distance plus a few ulps of the
# coordinates and segment length, so the pad keeps every pair whose
# computed d2 could undercut the seed's.
_REL_PAD = 1e-9
_ABS_PAD = 1e-14
_CURVE_POINTS = 2048  # vertices of the target polyline for Hausdorff


@dataclass(frozen=True)
class PathDistanceReport:
    d_hausdorff: float
    d_length: float
    argmax_t: float


def _directed_hausdorff(points: np.ndarray, poly: np.ndarray) -> float:
    """max over points of the distance to the monotone polyline poly.

    Each (point, segment) pair gets the point-to-segment formula
    t = clip(w.v / v.v, 0, 1), d2 = |w - t v|^2, but only on the pairs
    whose segment box meets the square [p - d, p + d]^2 around the
    point.  d bounds the point's distance from above (three seed
    segments, padded against rounding), and a segment whose box misses
    that square lies farther than d, so the minimum over the window is
    the minimum over all segments.  Both polylines are non-decreasing
    in x and y, so segment starts and ends are sorted in each
    coordinate and each window is one index range [lo, hi).
    """
    if poly.shape[0] == 1:
        d = np.hypot(points[:, 0] - poly[0, 0], points[:, 1] - poly[0, 1])
        return float(d.max())
    a = poly[:-1]
    b = poly[1:]
    v = b - a
    vv = np.maximum(np.einsum("ij,ij->i", v, v), 1e-300)
    last = a.shape[0] - 1

    def pair_d2(pt: np.ndarray, seg: np.ndarray) -> np.ndarray:
        w = points[pt] - a[seg]
        vs = v[seg]
        t = np.clip(np.einsum("ij,ij->i", w, vs) / vv[seg], 0.0, 1.0)
        r = w - t[:, None] * vs
        return np.einsum("ij,ij->i", r, r)

    every = np.arange(points.shape[0])
    near_x = np.minimum(np.searchsorted(b[:, 0], points[:, 0]), last)
    near_y = np.minimum(np.searchsorted(b[:, 1], points[:, 1]), last)
    best = np.minimum.reduce([pair_d2(every, seg) for seg in
                              (near_x, np.minimum(near_x + 1, last), near_y)])
    scale = 1.0 + max(np.abs(points).max(), np.abs(poly).max())
    d = np.sqrt(best) * (1.0 + _REL_PAD) + _ABS_PAD * scale
    lo = np.maximum(np.searchsorted(b[:, 0], points[:, 0] - d),
                    np.searchsorted(b[:, 1], points[:, 1] - d))
    hi = np.minimum(np.searchsorted(a[:, 0], points[:, 0] + d, "right"),
                    np.searchsorted(a[:, 1], points[:, 1] + d, "right"))
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    starts = ends - counts
    # pairs are numbered point by point; block [k0, k1) holds a run of
    # each point p0 <= p < p1
    for k0 in range(0, int(ends[-1]), _PAIR_CHUNK):
        k1 = min(k0 + _PAIR_CHUNK, int(ends[-1]))
        p0 = int(np.searchsorted(ends, k0, "right"))
        p1 = int(np.searchsorted(ends, k1 - 1, "right")) + 1
        run = np.minimum(ends[p0:p1], k1) - np.maximum(starts[p0:p1], k0)
        pt = np.repeat(every[p0:p1], run)
        seg = np.arange(k0, k1) - np.repeat(starts[p0:p1] - lo[p0:p1], run)
        np.minimum.at(best, pt, pair_d2(pt, seg))
    return float(np.sqrt(best).max())


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two monotone polylines.

    Both polylines must be non-decreasing in x and in y, as lattice
    paths and curve.discretize output are; NotMonotone is raised
    otherwise.  Vertices of each path are tested against the segments
    of the other, so the result is exact whenever the directed maxima
    sit at vertices; densify beforehand when mid-segment excursions
    matter.  Each vertex is checked only against the window of
    segments that can lie within its padded seed distance, which
    leaves the result bit-identical to checking every segment.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptyPath("hausdorff needs two non-empty paths")
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    for name, poly in (("first", a), ("second", b)):
        if not np.all(np.diff(poly, axis=0) >= 0.0):
            raise NotMonotone(f"hausdorff needs polylines non-decreasing in x and y; "
                              f"the {name} one is not")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


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
