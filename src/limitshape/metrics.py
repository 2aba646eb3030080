"""Path distances between scaled lattice paths and the target arc.

Two metrics: the Hausdorff distance between point sets, and the
sup-distance between arc-length profiles in the tangent-slope
coordinate.

One Hausdorff kernel serves a block of paths against one shared
polyline; hausdorff(a, b) is its block of one.  The paths are
concatenated, every vertex carrying its path's index (its owner), and
each direction keeps one running maximum per owner.  Per direction the
kernel bounds each vertex's distance to the other polyline by three
seed segments, then takes the exact minimum only of the vertices whose
bound exceeds their owner's largest exact minimum so far, largest
bound first, in rounds of growing size; a vertex left out cannot raise
its owner's maximum.  An exact minimum scans only the one index range
of segments whose bounding box meets a square around the vertex, sized
by its padded bound.  The paths' segments are searched as one sorted
array: each path's keys are shifted by a power of two times its owner,
which keeps them sorted across paths; the shift enters only the
searches, and rounding it is monotone, so each window only grows and
is clamped to the owner's own segments.  The shared polyline's
vertices are bounded in runs first: distance to a polyline is
1-Lipschitz, so a run lies no farther than its centre's bound plus its
radius, and only runs whose padded bound exceeds the owner's maximum
from the other direction get per-vertex seeds.  The per-pair formula
is that of a scan of every (vertex, segment) pair, so every distance
is bit-identical to that scan.

The path profile is a step function and the curve profile is
continuous and monotone between knots, so the profile distance is
exact on both sides of the jump slopes plus +inf.  distance_reports
measures a block of paths as one: their scaled profiles and vertices
are checked together, the checked vertices go to one kernel call, and
every profile distance comes from one measure.profile_gaps pass over
the block's padded knot rows (sampler.profile_rows), bit for bit what
measure.profile_gap gives each path alone.
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
# points per owner given the exact window scan in the first round of the
# early break; each later round takes four times as many
_FIRST_ROUND = 16
# consecutive shared-polyline vertices bounded together before any gets a
# seed: of 4-128 on blocks of 32 paths against the 2048-vertex curve, 8
# and 16 were fastest, conditioned and free alike
_VERTEX_BLOCK = 16


@dataclass(frozen=True)
class PathDistanceReport:
    """The two distances between a scaled path and the target arc:
    d_hausdorff, the Hausdorff distance to the arc's polyline; d_length,
    the sup over slopes t of the length-profile gap; and argmax_t, the
    slope where that sup is first reached, +inf when it holds from the
    last knot on."""

    d_hausdorff: float
    d_length: float
    argmax_t: float


@dataclass(frozen=True, eq=False)
class _Polylines:
    """Validated polylines concatenated: vertex coordinates x, y and
    owner (the polyline's index), and each polyline's largest coordinate
    magnitude.  The segments of polyline g, between its consecutive
    vertices, are first[g] .. last[g] of ax, ay, vx, vy, vv (none for a
    one-vertex polyline); keys holds their start and end coordinates
    (ax, ay, bx, by) shifted by width * g for the searches."""

    x: np.ndarray
    y: np.ndarray
    owner: np.ndarray
    magnitude: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    vv: np.ndarray
    keys: tuple
    first: np.ndarray
    last: np.ndarray
    width: float


def _polylines(v: np.ndarray, sizes) -> _Polylines:
    """The polylines of sizes[g] consecutive vertices each of the
    validated (n, 2) vertex array v."""
    sizes = np.asarray(sizes)
    x = np.ascontiguousarray(v[:, 0])
    y = np.ascontiguousarray(v[:, 1])
    owner = np.repeat(np.arange(sizes.size), sizes)
    magnitude = np.maximum.reduceat(np.maximum(np.abs(x), np.abs(y)),
                                    np.cumsum(sizes) - sizes)
    inside = owner[:-1] == owner[1:]
    ax, ay, bx, by = x[:-1][inside], y[:-1][inside], x[1:][inside], y[1:][inside]
    vx = bx - ax
    vy = by - ay
    # width >= 2 (1 + every magnitude), a power of two so width * g is exact:
    # the shifted keys of polyline g lie below those of g + 1
    width = math.ldexp(1.0, math.frexp(2.0 * (1.0 + float(magnitude.max())))[1])
    shift = width * owner[:-1][inside]
    last = np.cumsum(sizes - 1) - 1
    return _Polylines(x=x, y=y, owner=owner, magnitude=magnitude, ax=ax, ay=ay, vx=vx, vy=vy,
                      vv=np.maximum(vx * vx + vy * vy, 1e-300),
                      keys=(ax + shift, ay + shift, bx + shift, by + shift),
                      first=last - sizes + 2, last=last, width=width)


@dataclass(frozen=True, eq=False)
class _Shared:
    """The shared polyline of a block, and its vertices in runs of
    _VERTEX_BLOCK: run r is vertices start[r] .. start[r] + size[r] - 1,
    all within radius[r] of (cx[r], cy[r]), the midpoint of its ends."""

    poly: _Polylines
    start: np.ndarray
    size: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray


def _shared(poly: np.ndarray) -> _Shared:
    p = _polylines(poly, [len(poly)])
    n = p.x.size
    start = np.arange(0, n, _VERTEX_BLOCK)
    size = np.diff(np.append(start, n))
    end = start + size - 1
    cx = (p.x[start] + p.x[end]) * 0.5
    cy = (p.y[start] + p.y[end]) * 0.5
    radius = np.maximum.reduceat(np.hypot(p.x - np.repeat(cx, size), p.y - np.repeat(cy, size)),
                                 start)
    return _Shared(poly=p, start=start, size=size, cx=cx, cy=cy, radius=radius)


def _checked(poly, name: str) -> np.ndarray:
    """poly as a (k, 2) float array of a valid polyline for hausdorff."""
    poly = np.asarray(poly, dtype=float)
    if poly.size == 0:
        raise EmptyPath(f"hausdorff needs non-empty paths; the {name} one is empty")
    poly = np.atleast_2d(poly)
    if poly.ndim != 2 or poly.shape[1] != 2:
        raise InvalidPolyline(f"hausdorff needs (k, 2) vertex arrays; "
                              f"the {name} one has shape {poly.shape}")
    if not np.all(np.abs(poly) <= _MAX_COORD):
        raise InvalidPolyline(f"hausdorff needs vertices within +-{_MAX_COORD:g}; the "
                              f"{name} polyline has a nan, infinite or larger one")
    if not np.all(np.diff(poly, axis=0) >= 0.0):
        raise NotMonotone(f"hausdorff needs polylines non-decreasing in x and y; "
                          f"the {name} one is not")
    return poly


def _pair_d2(s: _Polylines, x: np.ndarray, y: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The point-to-segment formula t = min(max(w.v / v.v, 0), 1),
    d2 = |w - t v|^2, on x and y columns."""
    wx = x - s.ax[seg]
    wy = y - s.ay[seg]
    sx = s.vx[seg]
    sy = s.vy[seg]
    t = np.minimum(np.maximum((wx * sx + wy * sy) / s.vv[seg], 0.0), 1.0)
    rx = wx - t * sx
    ry = wy - t * sy
    return rx * rx + ry * ry


def _seed_d2(s: _Polylines, x: np.ndarray, y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The smallest d2 of each point to three seed segments of polyline
    g of s: the ones at its x and its y among the sorted segment ends."""
    shift = s.width * g
    lo, hi = s.first[g], s.last[g]
    near_x = np.clip(np.searchsorted(s.keys[2], x + shift), lo, hi)
    near_y = np.clip(np.searchsorted(s.keys[3], y + shift), lo, hi)
    return np.minimum(np.minimum(_pair_d2(s, x, y, near_x),
                                 _pair_d2(s, x, y, np.minimum(near_x + 1, hi))),
                      _pair_d2(s, x, y, near_y))


def _window_d2(s: _Polylines, x, y, g, best, d) -> np.ndarray:
    """min(best, d2 to every segment of polyline g of s whose box meets
    the square [p - d, p + d]^2) per point p = (x, y).  Polylines are
    non-decreasing in x and y, so the segments' shifted starts and ends
    are sorted in each coordinate and the window is one index range
    [lo, hi), clamped to polyline g's segments."""
    shift = s.width * g
    kax, kay, kbx, kby = s.keys
    lo = np.maximum(np.maximum(np.searchsorted(kbx, (x - d) + shift),
                               np.searchsorted(kby, (y - d) + shift)), s.first[g])
    hi = np.minimum(np.minimum(np.searchsorted(kax, (x + d) + shift, "right"),
                               np.searchsorted(kay, (y + d) + shift, "right")), s.last[g] + 1)
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
        np.minimum.at(best, pt, _pair_d2(s, x[pt], y[pt], seg))
    return best


def _raise_to_exact(s: _Polylines, x, y, g, owner, top, pad) -> None:
    """Raise top[owner[p]] to the distance of each point p from polyline
    g[p] of s, wherever that can change top.

    A point's seed distance bounds its distance from above.  Its exact
    minimum is over its seeds and the window of segments whose box meets
    the square [p - d, p + d]^2, d = bound * (1 + _REL_PAD) + pad[owner]:
    a segment whose box misses that square lies farther than d.  Only
    points whose bound exceeds their owner's running maximum get their
    exact minimum, largest bound first, in rounds of _FIRST_ROUND points
    per owner, four times as many the next round, and so on.  A point
    left out lies no farther than its bound, which is no larger than its
    owner's maximum, so each owner's result is bit-identical to taking
    every point's exact minimum.
    """
    seed = _seed_d2(s, x, y, g)
    bound = np.sqrt(seed)
    order = np.flatnonzero(bound > top[owner])
    order = order[np.lexsort((-bound[order], owner[order]))]
    own = owner[order]
    rank = np.arange(order.size) - np.searchsorted(own, own)
    size = reach = _FIRST_ROUND
    # each round takes every point of rank below reach, which grows, so
    # there are at most len(x) rounds
    while order.size:
        now = rank < reach
        pick = order[now]
        pick = pick[bound[pick] > top[owner[pick]]]
        if pick.size:
            d = bound[pick] * (1.0 + _REL_PAD) + pad[owner[pick]]
            best = _window_d2(s, x[pick], y[pick], g[pick], seed[pick], d)
            np.maximum.at(top, owner[pick], np.sqrt(best))
        order, rank = order[~now], rank[~now]
        keep = bound[order] > top[owner[order]]
        order, rank = order[keep], rank[keep]
        size *= 4
        reach += size


def _pads(lines: _Polylines, shared: _Shared) -> np.ndarray:
    """Per line, _ABS_PAD * (1 + the largest magnitude of it and the
    shared polyline)."""
    return _ABS_PAD * (1.0 + np.maximum(lines.magnitude, shared.poly.magnitude[0]))


def _to_shared(lines: _Polylines, shared: _Shared) -> np.ndarray:
    """Per line, the largest distance of its vertices to the shared
    polyline."""
    top = np.zeros(lines.magnitude.size)
    s = shared.poly
    if s.x.size == 1:
        np.maximum.at(top, lines.owner, np.hypot(lines.x - s.x[0], lines.y - s.y[0]))
    else:
        _raise_to_exact(s, lines.x, lines.y, np.zeros_like(lines.owner), lines.owner, top,
                        _pads(lines, shared))
    return top


def _from_shared(lines: _Polylines, shared: _Shared, floor: np.ndarray) -> np.ndarray:
    """Per line, the larger of floor and the largest distance of the
    shared polyline's vertices to the line.

    Distance to a line is 1-Lipschitz, so a vertex within r of a point c
    lies no farther from the line than c's seed distance plus r.  A run
    of vertices whose padded bound (c's seed + radius) * (1 + _REL_PAD)
    + _ABS_PAD * (1 + magnitude) is no larger than floor is left out.
    The pads cover the few ulps by which the computed seed and radius
    fall short of the true distance and radius, and by which a vertex's
    computed minimum exceeds its true distance, so no vertex left out
    could have raised the computed maximum.  The runs left in go to
    _raise_to_exact vertex by vertex.
    """
    top = np.array(floor, dtype=float)
    v = shared.poly
    sizes = np.bincount(lines.owner, minlength=top.size)
    # a one-vertex line has no segments: the oracle's hypot
    single = np.flatnonzero(sizes == 1)
    step = max(1, _PAIR_CHUNK // v.x.size)
    for i in range(0, single.size, step):
        own = single[i:i + step]
        at = np.searchsorted(lines.owner, own)
        d = np.hypot(v.x[:, None] - lines.x[at], v.y[:, None] - lines.y[at])
        top[own] = np.maximum(top[own], d.max(axis=0))
    multi = np.flatnonzero(sizes > 1)
    if multi.size == 0:
        return top
    pad = _pads(lines, shared)
    runs = shared.start.size
    owner = np.repeat(multi, runs)
    run = np.tile(np.arange(runs), multi.size)
    seed = _seed_d2(lines, shared.cx[run], shared.cy[run], owner)
    bound = (np.sqrt(seed) + shared.radius[run]) * (1.0 + _REL_PAD) + pad[owner]
    keep = bound > top[owner]
    owner, run = owner[keep], run[keep]
    size = shared.size[run]
    owner = np.repeat(owner, size)
    vert = np.repeat(shared.start[run] - (np.cumsum(size) - size), size) + np.arange(owner.size)
    _raise_to_exact(lines, v.x[vert], v.y[vert], owner, owner, top, pad)
    return top


def _hausdorff_block(v: np.ndarray, sizes, shared: _Shared) -> np.ndarray:
    """Per path of the block (_polylines(v, sizes)), the Hausdorff
    distance to the shared polyline; the second direction starts from
    the first one's maxima."""
    lines = _polylines(v, sizes)
    return _from_shared(lines, shared, _to_shared(lines, shared))


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two monotone polylines.

    Both polylines must be (k, 2) arrays of vertices with coordinates in
    [-1e150, 1e150] (InvalidPolyline otherwise), non-empty (EmptyPath) and
    non-decreasing in x and in y, as lattice paths and curve.discretize
    output are (NotMonotone).  Vertices of each path are tested against
    the segments of the other, so the result is exact whenever the
    directed maxima sit at vertices; densify beforehand when mid-segment
    excursions matter.  It is the block kernel's block of one path, a,
    against the shared polyline b; the result is bit-identical to
    checking every vertex against every segment.
    """
    a = _checked(a, "first")
    b = _checked(b, "second")
    return float(_hausdorff_block(a, [len(a)], _shared(b))[0])


@lru_cache(maxsize=32)
def _curve_polyline(curve: ConvexCurve) -> np.ndarray:
    """Read-only arc-length-uniform polyline of the curve, built once."""
    poly = _curve.discretize(curve, _CURVE_POINTS)
    poly.flags.writeable = False
    return poly


@lru_cache(maxsize=32)
def _curve_shared(curve: ConvexCurve) -> _Shared:
    """The curve's polyline, validated once, with its vertex runs."""
    return _shared(_checked(_curve_polyline(curve), "curve"))


def distance_reports(lines, scale: float, curve: ConvexCurve) -> list:
    """distance_report of each line, in order, measured as one block:
    the scaled profiles and vertices are checked together, one
    measure.profile_gaps call takes every profile (sampler.profile_rows)
    and one Hausdorff kernel call every path against the curve's
    polyline.

    A line whose scaled profile or vertices overflow, or whose scaled
    vertices are empty, malformed or decreasing, raises the error
    distance_report and hausdorff would, naming its index in lines.
    """
    if not 0.0 <= scale < math.inf:
        raise ParameterOutOfRange(f"scale must be finite and nonnegative, got {scale!r}")
    lines = list(lines)
    if not lines:
        return []
    taus, before, after, knots = _sampler.profile_rows(lines)
    with np.errstate(over="ignore"):
        before = scale * before
        after = scale * after
    profile_ok = np.isfinite(before).all(axis=1) & np.isfinite(after).all(axis=1)
    polys = [np.atleast_2d(line.vertices) for line in lines]
    if not all(p.size and p.ndim == 2 and p.shape[1] == 2 for p in polys):
        _raise_first_bad(lines, profile_ok, scale)
    sizes = np.array([len(p) for p in polys])
    with np.errstate(over="ignore"):
        vertices = np.concatenate(polys).astype(float) * scale
    # _checked's other tests on every path at once; the magnitude test
    # also fails a nan or infinite vertex
    owner = np.repeat(np.arange(sizes.size), sizes)
    bad = ~profile_ok
    bad[owner[~np.all(np.abs(vertices) <= _MAX_COORD, axis=1)]] = True
    rising = np.all(np.diff(vertices, axis=0) >= 0.0, axis=1)
    bad[owner[1:][(owner[:-1] == owner[1:]) & ~rising]] = True
    if bad.any():
        _raise_first_bad(lines, profile_ok, scale)
    d_h = _hausdorff_block(vertices, sizes, _curve_shared(curve))
    d_l, argmax_t = _measure.profile_gaps(curve, taus, before, after, knots)
    return [PathDistanceReport(d_hausdorff=h, d_length=g, argmax_t=t)
            for h, g, t in zip(d_h.tolist(), d_l.tolist(), argmax_t.tolist())]


def _raise_first_bad(lines: list, profile_ok: np.ndarray, scale: float) -> None:
    """Raise the error of the first line whose scaled profile (profile_ok
    False) or vertices fail distance_reports' checks, taken path by
    path: an overflow of either, then _checked's tests on its scaled
    vertices."""
    for i, (line, fine) in enumerate(zip(lines, profile_ok)):
        with np.errstate(over="ignore"):
            vertices = line.vertices.astype(float) * scale
        if not (fine and np.all(np.isfinite(vertices))):
            raise ParameterOutOfRange(f"scale {scale!r} overflows the scaled path {i}")
        _checked(vertices, f"path {i} of the block")


def distance_report(line: PolygonalLine, scale: float,
                    curve: ConvexCurve) -> PathDistanceReport:
    """Both path distances between the scaled line and the target arc.

    The profile distance is the sup over slopes of
    |scale * path_profile(t) - curve_profile(t)|, taken by
    measure.profile_gaps on both sides of the path's jump slopes and at
    +inf; argmax_t is the slope of its first occurrence, +inf when the
    sup holds from the last knot on.  A scale that is negative, not
    finite, or so large that the scaled profile or vertices overflow
    raises ParameterOutOfRange.  The Hausdorff distance is to the
    curve's 2048-vertex arc-length-uniform polyline.
    """
    return distance_reports([line], scale, curve)[0]
