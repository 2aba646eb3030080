"""Path distances between scaled lattice paths and the target arc.

Two metrics: the Hausdorff distance between point sets, and the
sup-distance between arc-length profiles in the tangent-slope
coordinate.

The Hausdorff kernel takes polylines non-decreasing in x and y.  Per
direction it bounds each vertex's distance to the other polyline by
three seed segments, then takes the exact minimum only of the vertices
whose bound exceeds the largest exact minimum so far, largest bound
first, in rounds of growing size; a vertex left out cannot raise the
maximum.  An exact minimum scans only the one index range of segments
whose bounding box meets a square around the vertex, sized by its
padded bound.  The result is bit-identical to a scan of every
(vertex, segment) pair.

The path profile is a step function and the curve profile is
continuous and monotone between knots, so the profile distance is
exact on both sides of the jump slopes plus +inf; it comes from
measure.profile_gap, which also serves the expected profile.
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
from .errors import EmptyPath, InvalidPolyline, NotMonotone, ParameterOutOfRange
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
# Coordinates up to this magnitude keep every squared distance finite; a
# nan one would end the early break too soon without a sign
_MAX_COORD = 1e150
# points given the exact window scan in the first round of the early
# break; each later round takes four times as many
_FIRST_ROUND = 16


@dataclass(frozen=True)
class PathDistanceReport:
    d_hausdorff: float
    d_length: float
    argmax_t: float


def _directed_hausdorff(points: np.ndarray, poly: np.ndarray, floor: float = 0.0) -> float:
    """max(floor, max over points of the distance to the monotone polyline poly).

    Each (point, segment) pair gets the point-to-segment formula
    t = min(max(w.v / v.v, 0), 1), d2 = |w - t v|^2, on x and y columns.
    Three seed segments per point (the ones at its x and its y among the
    sorted segment ends) bound its distance from above.  A point's exact
    minimum is over its seeds and the window of segments whose box meets
    the square [p - d, p + d]^2, d the bound padded against rounding: a
    segment whose box misses that square lies farther than d.  Both
    polylines are non-decreasing in x and y, so segment starts and ends
    are sorted in each coordinate and each window is one index range
    [lo, hi).  Only points whose bound exceeds the running maximum,
    which starts at floor, get their exact minimum, largest bound
    first, in rounds of _FIRST_ROUND points, four times as many the
    next round, and so on.  A point left out lies no farther than its
    bound, which is no larger than the maximum, so the result is
    bit-identical to taking every point's exact minimum.
    """
    if poly.shape[0] == 1:
        d = np.hypot(points[:, 0] - poly[0, 0], points[:, 1] - poly[0, 1])
        return max(floor, float(d.max()))
    qx = np.ascontiguousarray(poly[:, 0])
    qy = np.ascontiguousarray(poly[:, 1])
    ax, ay, bx, by = qx[:-1], qy[:-1], qx[1:], qy[1:]
    vx = bx - ax
    vy = by - ay
    vv = np.maximum(vx * vx + vy * vy, 1e-300)
    last = ax.shape[0] - 1

    def pair_d2(x: np.ndarray, y: np.ndarray, seg: np.ndarray) -> np.ndarray:
        wx = x - ax[seg]
        wy = y - ay[seg]
        sx = vx[seg]
        sy = vy[seg]
        t = np.minimum(np.maximum((wx * sx + wy * sy) / vv[seg], 0.0), 1.0)
        rx = wx - t * sx
        ry = wy - t * sy
        return rx * rx + ry * ry

    px = np.ascontiguousarray(points[:, 0])
    py = np.ascontiguousarray(points[:, 1])
    near_x = np.minimum(np.searchsorted(bx, px), last)
    near_y = np.minimum(np.searchsorted(by, py), last)
    seed = np.minimum(np.minimum(pair_d2(px, py, near_x),
                                 pair_d2(px, py, np.minimum(near_x + 1, last))),
                      pair_d2(px, py, near_y))
    bound = np.sqrt(seed)
    pad = _ABS_PAD * (1.0 + max(np.abs(points).max(), np.abs(poly).max()))

    def exact_d2(pick: np.ndarray) -> np.ndarray:
        x = px[pick]
        y = py[pick]
        best = seed[pick]
        d = bound[pick] * (1.0 + _REL_PAD) + pad
        lo = np.maximum(np.searchsorted(bx, x - d), np.searchsorted(by, y - d))
        hi = np.minimum(np.searchsorted(ax, x + d, "right"),
                        np.searchsorted(ay, y + d, "right"))
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
            pt = np.repeat(np.arange(p0, p1), run)
            seg = np.arange(k0, k1) - np.repeat(starts[p0:p1] - lo[p0:p1], run)
            np.minimum.at(best, pt, pair_d2(x[pt], y[pt], seg))
        return best

    order = np.flatnonzero(bound > floor)
    order = order[np.argsort(bound[order])[::-1]]
    top = floor
    done, size = 0, _FIRST_ROUND
    # each round takes at least one point, so there are at most len(points)
    while done < order.size and bound[order[done]] > top:
        pick = order[done:done + size]
        top = max(top, math.sqrt(exact_d2(pick[bound[pick] > top]).max()))
        done += size
        size *= 4
    return top


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two monotone polylines.

    Both polylines must be (k, 2) arrays of vertices with coordinates in
    [-1e150, 1e150] (InvalidPolyline otherwise), non-empty (EmptyPath) and
    non-decreasing in x and in y, as lattice paths and curve.discretize
    output are (NotMonotone).  Vertices of each path are tested against
    the segments of the other, so the result is exact whenever the
    directed maxima sit at vertices; densify beforehand when mid-segment
    excursions matter.  Each direction bounds every vertex's distance by
    three seed segments, then scans exactly only the vertices whose
    bound exceeds the largest exact distance found so far, largest
    bound first, and each of those only against the window of segments
    that can lie within its padded bound.  The second direction starts
    from the first one's maximum.  The result is bit-identical to
    checking every vertex against every segment.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptyPath("hausdorff needs two non-empty paths")
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    for name, poly in (("first", a), ("second", b)):
        if poly.ndim != 2 or poly.shape[1] != 2:
            raise InvalidPolyline(f"hausdorff needs (k, 2) vertex arrays; "
                                  f"the {name} one has shape {poly.shape}")
        if not np.all(np.abs(poly) <= _MAX_COORD):
            raise InvalidPolyline(f"hausdorff needs vertices within +-{_MAX_COORD:g}; the "
                                  f"{name} polyline has a nan, infinite or larger one")
        if not np.all(np.diff(poly, axis=0) >= 0.0):
            raise NotMonotone(f"hausdorff needs polylines non-decreasing in x and y; "
                              f"the {name} one is not")
    return _directed_hausdorff(b, a, floor=_directed_hausdorff(a, b))


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
    sup holds from the last knot on.  A scale that is negative, not
    finite, or so large that the scaled profile or vertices overflow
    raises ParameterOutOfRange.
    """
    if not 0.0 <= scale < math.inf:
        raise ParameterOutOfRange(f"scale must be finite and nonnegative, got {scale!r}")
    taus, before, after = _sampler.profile_knots(line)
    with np.errstate(over="ignore"):
        before = scale * before
        after = scale * after
        vertices = line.vertices.astype(float) * scale
    if not all(np.all(np.isfinite(a)) for a in (before, after, vertices)):
        raise ParameterOutOfRange(f"scale {scale!r} overflows the scaled path")
    d_length, argmax_t = _measure.profile_gap(curve, taus, before, after)
    d_h = hausdorff(vertices, _curve_polyline(curve))
    return PathDistanceReport(d_hausdorff=d_h, d_length=d_length, argmax_t=argmax_t)
