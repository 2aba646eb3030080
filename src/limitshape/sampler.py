"""Drawing random convex paths from the tilted product measure.

A configuration assigns an independent geometric multiplicity nu(x) to
every enumerated coprime direction.  A path has one format, shared by
Configuration.support and PolygonalLine.edges: an int64 (k, 3) array
of (x1, x2, nu) rows, nu >= 1, in strictly increasing slope, the order
of the direction field.  Draws take their rows straight from the field,
so assembly is a prefix sum, and the length profile is a step function
(profile_knots, evaluated by measure.step_at).  Endpoint conditioning
is exact rejection: resample until the path ends at the target.
conditioned_configurations is the one rejection loop: it draws batched
endpoints under an attempt budget, hands out a batch's hits in
replicate order as edge arrays by configurations_of (one stable sort
of the hits' rows and one gather per batch), and raises Exhausted with
the closest miss once the budget is spent; condition_on_endpoint is its
first hit, validated as a Configuration and assembled into a path.

Two equivalent sampling routes are provided.  sample_configuration
draws one uniform per enumerated direction (inverse transform).  The
batched endpoint machinery embeds the per-direction Bernoulli field in
a unit-rate Poisson process on the cumulative-hazard axis and skips
straight to the next active direction, which costs O(active) instead
of O(enumerated) per replicate; the joint law is identical and the
equivalence is pinned by tests against the direct route and against
exhaustive enumeration.  Each skip lands on a later direction, so
configurations_of reads a replicate's rows in order, with no repeats
to merge.  A skip finds its direction through a guide table of the
cumulative hazard (Chen & Asau 1974; Devroye 1986, III.2.4): 4 buckets
per direction, each holding the count of cumulative hazards at or below
its left edge.  The bucket's count is the answer for about 95% of the
skips; the rest take a binary search, so the index is the one
searchsorted(cum, pos, "right") returns, and no scan is unbounded.
Lookups run in blocks of 32768 queries, so their temporaries stay
small next to the batch's own arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Exhausted
from .measure import MeasureParams, _field, covariance_matrix, step_knots

_CONDITION_BATCH = 8192  # endpoint draws per batch of condition_on_endpoint
_LOOKUP_BLOCK = 32768  # skip-lookup queries per block of _skip_index


@dataclass(frozen=True, eq=False)
class Configuration:
    """A convex path as its edges: an int64 (k, 3) array of (x1, x2, nu)
    rows with nu >= 1, the directions in strictly increasing slope."""

    support: np.ndarray

    def __post_init__(self):
        s = self.support
        if not (isinstance(s, np.ndarray) and s.dtype == np.int64 and s.ndim == 2
                and s.shape[1] == 3):
            raise ValueError(f"support must be an int64 (k, 3) array, got {s!r}")
        if (s[:, 2] < 1).any():
            raise ValueError("multiplicities must be >= 1")
        x1, x2 = s[:, 0], s[:, 1]
        # tau_i < tau_{i+1}, exactly on the integers
        if (x2[:-1] * x1[1:] >= x2[1:] * x1[:-1]).any():
            raise ValueError("directions must be distinct and in increasing slope")


@dataclass(frozen=True)
class PolygonalLine:
    """Convex lattice path from the origin.

    edges is the configuration's support, (x1, x2, nu) rows in
    increasing slope; vertices are their prefix sums.
    """

    vertices: np.ndarray
    edges: np.ndarray
    endpoint: np.ndarray


def assemble(config: Configuration) -> PolygonalLine:
    """Assemble the unique convex path realizing a configuration."""
    edges = config.support
    vertices = np.zeros((len(edges) + 1, 2), dtype=np.int64)
    np.cumsum(edges[:, :2] * edges[:, 2:], axis=0, out=vertices[1:])
    return PolygonalLine(vertices=vertices, edges=edges, endpoint=vertices[-1].copy())


def _rows(f, idx, nu) -> np.ndarray:
    """The (x1, x2, nu) rows of field directions idx, one gather per column."""
    rows = np.empty((idx.size, 3), dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 2] = f.x1[idx], f.x2[idx], nu
    return rows


def sample_configuration(params: MeasureParams, rng: np.random.Generator) -> Configuration:
    """One draw from the tilted measure: independent geometric nu per
    enumerated direction via inverse transform nu = floor(ln U / ln z)."""
    f = _field(params)
    u = rng.random(f.x1.size)
    idx = np.nonzero(u < f.zpow)[0]
    # ln z = -neg_log_z up to the exp/log round trip
    nu = np.floor(np.log(u[idx]) / -f.neg_log_z[idx]).astype(np.int64)
    nu = np.maximum(nu, 1)  # guard the one-ulp boundary of the hit test
    return Configuration(support=_rows(f, idx, nu))


def _skip_index(cum, guide, pos) -> np.ndarray:
    """np.searchsorted(cum, pos, side="right") through the guide table of
    cum (measure._guide_table), for queries pos >= 0.

    A query's bucket is b = floor(pos / h), lowered by one where rounding
    put b*h above pos, so that g[b] = #{cum <= b*h} is at most the
    answer.  g[b] is the answer unless cum[g[b]] <= pos, and the few
    queries where that holds take a binary search instead, so every
    index equals the plain search's, ties included.  The queries run in
    blocks of _LOOKUP_BLOCK, which bounds the temporaries.
    """
    m = guide.size
    h = cum[-1] / m
    out = np.empty(pos.size, dtype=np.int64)
    for lo in range(0, pos.size, _LOOKUP_BLOCK):
        p = pos[lo:lo + _LOOKUP_BLOCK]
        b = np.minimum(p / h, m - 1).astype(np.int64)
        b -= b * h > p
        j = guide[b]  # guide values are below cum.size, so cum[j] is valid
        short = np.flatnonzero(cum[j] <= p)
        j[short] = np.searchsorted(cum, p[short], side="right")
        out[lo:lo + p.size] = j
    return out


def sample_endpoints(params: MeasureParams, count: int,
                     rng: np.random.Generator,
                     collect_support: bool = False):
    """Batched endpoint draws (count, 2) via Poisson-embedding skips.

    When collect_support is set, also returns (rep, dir_index, nu)
    arrays from which configurations_of rebuilds any replicate's
    edge array.
    """
    f = _field(params)
    cum = f.cum_hazard
    x1, x2 = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
    collected = ([np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.int64)])
    # without hazard no direction is ever active
    alive = np.arange(count) if cum.size and cum[-1] > 0.0 else np.empty(0, np.int64)
    pos = np.zeros(alive.size)  # consumed hazard of each alive replicate
    while alive.size:
        pos = pos + rng.standard_exponential(alive.size)
        # direction j owns [cum[j-1], cum[j]); side="right" keeps j above
        # the replicate's previous direction even when the step rounds to 0
        j = _skip_index(cum, f.hazard_guide, pos)
        live = j < cum.size
        alive = alive[live]
        if not alive.size:
            break
        j = j[live]
        # conditional on activity, multiplicity is 1 + geometric
        u = rng.random(alive.size)
        nu = 1 + np.floor(np.log(u) / -f.neg_log_z[j]).astype(np.int64)
        x1[alive] += f.x1[j] * nu  # alive indices are unique per round
        x2[alive] += f.x2[j] * nu
        if collect_support:  # alive, j and nu are fresh arrays every round
            for out, new in zip(collected, (alive, j, nu)):
                out.append(new)
        pos = cum[j]
    xi = np.column_stack([x1, x2])
    if collect_support:
        return xi, tuple(np.concatenate(out) for out in collected)
    return xi


def configurations_of(params: MeasureParams, support, reps) -> list:
    """Edge arrays of replicates reps, in that order, from the
    (rep, dir_index, nu) arrays of sample_endpoints.

    One stable sort of the rows that belong to reps groups them by
    replicate and keeps each replicate's rows in draw order, where
    dir_index rises; the rows are gathered into one (k, 3) array, and
    each replicate is one searchsorted slice of it, in the format of
    Configuration.support (not validated here).
    """
    rows_rep, idx, nu = support
    reps = np.asarray(reps, dtype=np.int64)
    rows = np.flatnonzero(np.isin(rows_rep, reps, kind="table"))
    rows = rows[np.argsort(rows_rep[rows], kind="stable")]
    keys = rows_rep[rows]
    lo = np.searchsorted(keys, reps, side="left")
    hi = np.searchsorted(keys, reps, side="right")
    edges = _rows(_field(params), idx[rows], nu[rows])
    return [edges[a:b] for a, b in zip(lo, hi)]


def conditioned_configurations(params: MeasureParams, n, count: int, batch: int,
                               max_attempts: int, rng: np.random.Generator):
    """The edge arrays of the first count configurations with endpoint
    n, in replicate order.

    Draws batches of min(batch, max_attempts - attempts) endpoints and
    returns (edge arrays, attempts), where attempts counts the draws up
    to and including the last accepted one.  Once max_attempts draws
    are spent short of count, raises Exhausted with the closest miss
    over every draw in the covariance-adapted (Mahalanobis) norm.
    """
    target = np.asarray(n, dtype=np.int64)
    k_inv = np.linalg.inv(covariance_matrix(params))
    out: list = []
    attempts = 0
    best_d2, best_xi = math.inf, (0, 0)
    while attempts < max_attempts:
        size = min(batch, max_attempts - attempts)
        xi, support = sample_endpoints(params, size, rng, collect_support=True)
        hits = np.nonzero((xi[:, 0] == target[0]) & (xi[:, 1] == target[1]))[0]
        hits = hits[:count - len(out)]
        if hits.size:
            out.extend(configurations_of(params, support, hits))
        if len(out) == count:
            return out, attempts + int(hits[-1]) + 1
        attempts += size
        diff = (xi - target).astype(float)
        d2 = np.einsum("ij,jk,ik->i", diff, k_inv, diff)
        i_best = int(np.argmin(d2))
        if d2[i_best] < best_d2:
            best_d2, best_xi = float(d2[i_best]), (int(xi[i_best, 0]), int(xi[i_best, 1]))
    raise Exhausted(attempts, len(out), count, best_xi, math.sqrt(best_d2))


@dataclass(frozen=True)
class ConditionedSample:
    line: PolygonalLine
    attempts: int


def condition_on_endpoint(params: MeasureParams, n, max_attempts: int,
                          rng: np.random.Generator) -> ConditionedSample:
    """Exact draw from the endpoint-conditioned law: the first hit of
    conditioned_configurations, validated and assembled into its path."""
    (edges,), attempts = conditioned_configurations(params, n, 1, _CONDITION_BATCH,
                                                    max_attempts, rng)
    return ConditionedSample(line=assemble(Configuration(support=edges)), attempts=attempts)


def _edge_lengths(edges) -> np.ndarray:
    x1, x2, nu = edges.T
    return np.sqrt(x1 * x1 + x2 * x2) * nu


def profile_knots(line: PolygonalLine):
    """Step-profile knots (tau, before, after) of the line's length
    profile: its edges are already in increasing slope order."""
    x1, x2 = line.edges[:, 0], line.edges[:, 1]
    taus = np.where(x1 > 0, x2 / np.maximum(x1, 1), np.inf)
    return step_knots(taus, _edge_lengths(line.edges))


def total_length(line: PolygonalLine) -> float:
    """Sum of the edge lengths, added in slope order."""
    lengths = _edge_lengths(line.edges)
    return float(np.cumsum(lengths)[-1]) if lengths.size else 0.0

