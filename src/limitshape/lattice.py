"""Coprime lattice directions and Moebius-inverted lattice sums.

Every possible edge direction of a convex lattice path is a coprime
pair x = (x1, x2) in Z+^2 with slope tau = x2/x1.  direction_arrays is
the one enumeration route: a vectorized gcd sieve over a slope window
of the ball, optionally capped by a linear form per slope sector, sorted
by slope.  mobius_inverted_sum is the independent
route for sums over the coprime set: it combines full-lattice sums with
mu weights, which is exact for any function on the lattice, and
coprime_sum is the direct sum it is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LimitTooLarge

_SIEVE_BUDGET = 1 << 27  # int8 table, ~134 MB
_DIRECTION_CHUNK = 1 << 21  # candidate pairs per pass of direction_arrays
_LATTICE_CHUNK = 1 << 18  # lattice points per call of f in _full_lattice_sum


def direction_arrays(t_lo: float, t_hi: float, radius: float, *,
                     cuts=(), caps=(math.inf,), weights=(1.0, 1.0)):
    """Coprime directions with t_lo <= tau <= t_hi and x1 + x2 <= radius.

    Returns (x1, x2) int64 arrays in strictly increasing slope, each
    direction once: (1, 0) opens them when t_lo <= 0 and (0, 1) closes
    them when t_hi is infinite.  A vectorized gcd sieve over the ball,
    in chunks of about _DIRECTION_CHUNK candidate pairs.

    cuts (increasing) split the slope window into len(cuts) + 1
    sectors, sector k holding the slopes in (cuts[k-1], cuts[k]]; a
    direction in sector k is kept only when
    weights[0]*x1 + weights[1]*x2 <= caps[k].  The default, one sector
    with an infinite cap, is the plain ball.  Sector membership is
    decided on floor(x1 * cut), so a direction within rounding of a cut
    may be held to the cap of its neighbour.
    """
    r = int(math.floor(radius))
    cuts = np.asarray(cuts, dtype=float)
    caps = np.asarray(caps, dtype=float)
    w1, w2 = (float(w) for w in weights)
    if caps.shape != (cuts.size + 1,):
        raise ValueError("caps needs one entry per sector, len(cuts) + 1")

    def under_cap(x1, x2):
        k = np.searchsorted(cuts, x2 / x1 if x1 else math.inf)
        return w1 * x1 + w2 * x2 <= caps[k]

    xs1, xs2 = [], []
    if r >= 1 and t_lo <= 0.0 and under_cap(1, 0):
        xs1.append(np.array([1], dtype=np.int64))
        xs2.append(np.array([0], dtype=np.int64))
    cols = max(1, _DIRECTION_CHUNK // max(1, r))
    for a_start in range(1, r + 1, cols):
        a = np.arange(a_start, min(r, a_start + cols - 1) + 1, dtype=np.int64)
        af = a[:, None].astype(float)
        # x2 range of each (column, sector): sector k ends at floor(a*cuts[k])
        # and sector k+1 starts one above it, so the sectors partition the
        # column; the window ends are padded by one and filtered exactly below
        ends = np.floor(af * cuts)
        lo = np.concatenate([np.ceil(af * t_lo) - 1.0, ends + 1.0], axis=1)
        hi = np.concatenate([ends, np.floor(af * t_hi) + 1.0
                             if math.isfinite(t_hi) else np.full_like(af, r)], axis=1)
        hi = np.minimum(hi, np.floor((caps - w1 * af) / w2))
        lo = np.clip(lo, 1.0, r + 1.0).astype(np.int64)
        hi = np.clip(hi, 0.0, (r - a)[:, None]).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0).ravel()
        total = int(counts.sum())
        if total == 0:
            continue
        starts = np.cumsum(counts) - counts
        x1 = np.repeat(np.broadcast_to(a[:, None], lo.shape).ravel(), counts)
        b = np.repeat(lo.ravel() - starts, counts) + np.arange(total, dtype=np.int64)
        tau = b / x1
        keep = (tau >= t_lo) & (tau <= t_hi)
        x1, b = x1[keep], b[keep]
        if x1.size:
            cop = np.gcd(x1, b) == 1
            xs1.append(x1[cop])
            xs2.append(b[cop])
    if r >= 1 and t_hi == math.inf and under_cap(0, 1):
        xs1.append(np.array([0], dtype=np.int64))
        xs2.append(np.array([1], dtype=np.int64))
    if not xs1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    x1 = np.concatenate(xs1)
    x2 = np.concatenate(xs2)
    with np.errstate(divide="ignore"):
        tau = np.where(x1 > 0, x2 / np.maximum(x1, 1), np.inf)
    order = np.argsort(tau, kind="stable")
    return x1[order], x2[order]


def mobius_sieve(limit: int) -> np.ndarray:
    """Sieve mu(0..limit) as an int8 array: mu(m) = (-1)^d for squarefree
    m with d prime factors, 0 otherwise (and mu(0) = 0)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit + 1 > _SIEVE_BUDGET:
        raise LimitTooLarge(f"sieve limit {limit} exceeds memory budget")
    mu = np.ones(limit + 1, dtype=np.int8)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, limit + 1):
        if is_prime[p]:
            mu[p::p] *= -1
            p2 = p * p
            if p2 <= limit:
                is_prime[p2::p] = False
                mu[p2::p2] = 0
    mu[0] = 0
    return mu


def _full_lattice_sum(f, radius: int) -> float:
    """Sum of f(x) over the full lattice Z+^2 \\ {0} with x1 + x2 <= radius.

    f is called once per chunk of rows x1, each chunk holding at most
    _LATTICE_CHUNK points.
    """
    total = 0.0
    x2 = np.arange(radius + 1)
    rows = max(1, _LATTICE_CHUNK // (radius + 1))
    for start in range(0, radius + 1, rows):
        x1 = np.arange(start, min(start + rows, radius + 1))
        i, j = np.nonzero(x1[:, None] + x2 <= radius)
        a, b = x1[i], x2[j]
        if start == 0:
            a, b = a[1:], b[1:]  # drop the origin
        total += float(np.sum(f(a.astype(float), b.astype(float))))
    return total


def coprime_sum(f, radius: int) -> float:
    """Direct summation of f(x) over coprime x with x1 + x2 <= radius."""
    x1, x2 = direction_arrays(0.0, math.inf, radius)
    if x1.size == 0:
        return 0.0
    return float(np.sum(f(x1.astype(float), x2.astype(float))))


def mobius_inverted_sum(f, radius: float, *, table: np.ndarray | None = None) -> float:
    """Sum of f(x) over coprime x with x1 + x2 <= radius, by Moebius inversion.

    Every nonzero lattice point is m*x for one m >= 1 and one coprime x,
    so the coprime sum is the sum over m of mu(m) times the full-lattice
    sum of f(m*y) over y with y1 + y2 <= radius/m.  This is exact for any
    f on the lattice and reproduces coprime_sum up to rounding.  f must
    accept (x1, x2) float arrays; table is a mobius_sieve of at least
    floor(radius).
    """
    r = int(math.floor(radius))
    if r < 1:
        return 0.0
    if table is None or len(table) <= r:
        table = mobius_sieve(r)
    total = 0.0
    for m in range(1, r + 1):
        if table[m]:
            total += int(table[m]) * _full_lattice_sum(
                lambda a, b, m=m: f(m * a, m * b), r // m)
    return total
