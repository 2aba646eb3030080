"""Drawing random convex paths from the tilted product measure.

A configuration assigns an independent geometric multiplicity nu(x) to
every enumerated coprime direction.  A path has one format, shared by
Configuration.support and PolygonalLine.edges: an int64 (k, 3) array
of (x1, x2, nu) rows, nu >= 1, in strictly increasing slope, the order
of the direction field.  Draws take their rows straight from the field,
so assembly is a prefix sum, one per block of paths (assemble_block,
which checks the block's format once and names the first bad path),
and the length profile is a step function (profile_rows gives a
block's knots to measure.profile_gaps).  Endpoint conditioning
is exact probabilistic divide-and-conquer (Arratia & DeSalvo 2016)
through a completing set S (measure.completing_set): the field's
completing pair {a, b} and up to 14 more of its likeliest directions,
with the exact law P_S of their part of the endpoint tabulated on the
box [0, n].  A free draw has its rows in S dropped, which leaves the
residual r = n - xi_A; it is kept with probability P_S(r) / max P_S,
and a kept draw gets S's multiplicities from their law given r, the
non-pair directions one by one from the tables and the pair solved
exactly on the integers.  That leaves the conditioned law itself with
no tolerance involved.  A box too large for the table budget keeps the
pair alone, whose test is U < z_a^s * z_b^t.
conditioned_configurations is that one loop: it draws batched
endpoints under an attempt budget, hands out a batch's accepted draws
in replicate order as edge arrays with each path's own attempts, and
raises Exhausted with the closest miss once the budget is spent.  S
is picked from the dense head (below; measure's pair_pool), so xi_S
is read from S's rows of a batch's head array, which are then zeroed
to drop S's free rows.  The accepted replicates' head rows are read
from their columns of that array and their tail rows picked out of
the flat tail in one pass; only their rows are sorted and gathered.
Its batches hold the predicted draws (predicted_attempts) of the paths
a call is for (condition_batch): studies.draw_block asks it for a
block of paths in one call.  condition_on_endpoint, its first accepted
draw checked and assembled into a path (assemble_block), has no
package caller.

Every path and endpoint is drawn by one batched route,
sample_endpoints, a chunk of _LOOKUP_BLOCK replicates at a time.  The
field's dense head (measure's dense_head: its 32 likeliest
directions, more on a tie) gets its multiplicities as one (head,
chunk) array by inverse transform, nu = floor(log U / log z).  The
rest, the tail, is drawn by Poisson-embedding skips: the
per-direction Bernoulli field is embedded in a unit-rate Poisson
process on the tail's cumulative-hazard axis, where each head
direction owns an empty interval, and a replicate skips straight to
its next active direction, which costs O(active) instead of
O(enumerated).  Every uniform is taken as U = 1 - random, in (0, 1],
so log U is finite.  A free block of paths is one such batch, read
out by configurations_of.  sample_configuration, one uniform per
enumerated direction (inverse transform), is the direct reference: no
package route calls it, and tests pin the batched route's law to it
and to exhaustive enumeration.  A batch's support is the head's
float64 (head, count) array, the chunks' arrays side by side, and the
tail's rows as three flat int64 arrays (rep, dir_index, nu), the skip
rounds joined once per batch.  Each skip lands on a later direction,
never on a head direction's empty interval, so a replicate holds at
most one row per direction, with no repeats to merge, and its tail
rows come in slope order.
A skip finds its direction through a guide table of the tail's
cumulative hazard (Chen & Asau 1974; Devroye 1986, III.2.4): 4
buckets per direction, each holding the count of cumulative hazards
at or below its left edge.  The bucket's count is the answer for
92-98% of the skips; the rest take a binary search, so the index is
the one searchsorted(cum, pos, "right") returns, and no scan is
unbounded.  A chunk keeps the head's array and the skips' temporaries
near the size of the L2 cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Exhausted
from .measure import (MeasureParams, _field, completing_set, covariance_matrix, endpoint_density,
                      step_knots)

_CONDITION_BATCH = 8192  # the largest batch condition_batch gives
_LOOKUP_BLOCK = 16384  # replicates per chunk of sample_endpoints


@dataclass(frozen=True, eq=False)
class Configuration:
    """A convex path as its edges: an int64 (k, 3) array of (x1, x2, nu)
    rows with nu >= 1, the directions in strictly increasing slope."""

    support: np.ndarray

    def __post_init__(self):
        _check_format(self.support)


def _check_format(edges, owner=None, where: str = "") -> None:
    """Raise ValueError unless edges, an int64 (k, 3) array, holds paths
    in the Configuration format: the rows of owner p (ascending; one
    path when owner is None) are path p, every nu is >= 1, and the slope
    strictly increases inside each path, never tested across a boundary.
    The message names the first bad path as where.format(p), its
    multiplicities before its order."""
    if not (isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.ndim == 2
            and edges.shape[1] == 3):
        raise ValueError(f"support must be an int64 (k, 3) array, got {edges!r}")
    if owner is None:
        owner = np.zeros(edges.shape[0], dtype=np.int64)
    x1, x2 = edges[:, 0], edges[:, 1]
    low_nu = owner[edges[:, 2] < 1]
    # tau_i < tau_{i+1}, exactly on the integers
    unordered = owner[:-1][(x2[:-1] * x1[1:] >= x2[1:] * x1[:-1]) & (owner[:-1] == owner[1:])]
    if low_nu.size and not (unordered.size and unordered[0] < low_nu[0]):
        raise ValueError(where.format(low_nu[0]) + "multiplicities must be >= 1")
    if unordered.size:
        raise ValueError(where.format(unordered[0])
                         + "directions must be distinct and in increasing slope")


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
    """Assemble the unique convex path realizing a configuration: its
    block of one (assemble_block)."""
    return assemble_block([config.support])[0]


def assemble_block(edges: list) -> list:
    """The paths of a block of edge arrays, in order, each checked as a
    Configuration's support: the arrays are joined into one, whose
    format is checked once (a ValueError names the first bad path of the
    block), and every path's vertices come from one int64 prefix sum of
    the joined steps, each path's rows starting with a zero step.  A
    path's vertices are its rows of that sum less its first one; int64
    wraps modulo 2^64, so the difference is exact whatever the block's
    total."""
    sizes = np.array([len(e) for e in edges], dtype=np.int64)
    joined = np.concatenate([np.empty((0, 3), dtype=np.int64), *edges])
    owner = np.repeat(np.arange(sizes.size), sizes)
    _check_format(joined, owner, "path {} of the block: ")
    ends = np.cumsum(sizes + 1)
    starts = ends - sizes - 1
    steps = np.zeros((joined.shape[0] + sizes.size, 2), dtype=np.int64)
    steps[np.arange(joined.shape[0]) + owner + 1] = joined[:, :2] * joined[:, 2:]
    vertices = np.cumsum(steps, axis=0)
    vertices -= np.repeat(vertices[starts], sizes + 1, axis=0)
    return [PolygonalLine(vertices=vertices[a:b], edges=e, endpoint=vertices[b - 1].copy())
            for e, a, b in zip(edges, starts.tolist(), ends.tolist())]


def _rows(f, idx, nu) -> np.ndarray:
    """The (x1, x2, nu) rows of field directions idx, one gather per column."""
    rows = np.empty((idx.size, 3), dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 2] = f.x1[idx], f.x2[idx], nu
    return rows


def sample_configuration(params: MeasureParams, rng: np.random.Generator) -> Configuration:
    """One draw from the tilted measure, the direct reference for the
    skip route's law: independent geometric nu per enumerated direction
    via inverse transform nu = floor(ln U / ln z)."""
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
    index equals the plain search's, ties included.
    """
    m = guide.size
    h = cum[-1] / m
    b = np.minimum(pos / h, m - 1).astype(np.int64)
    b -= b * h > pos
    j = guide[b]  # guide values are below cum.size, so cum[j] is valid
    short = np.flatnonzero(cum[j] <= pos)
    j[short] = np.searchsorted(cum, pos[short], side="right")
    return j


def sample_endpoints(params: MeasureParams, count: int,
                     rng: np.random.Generator,
                     collect_support: bool = False):
    """Batched endpoint draws (count, 2) in chunks of _LOOKUP_BLOCK
    replicates, each chunk's random numbers after the previous chunk's:
    the field's dense head drawn as one array (_draw_head), then its
    tail by Poisson-embedding skips (_skip_tail).

    When collect_support is set, also returns the support as
    (head, tail).  head is the float64 (dense_head.size, count) array
    of the head's multiplicities, row k for direction dense_head[k];
    tail is three flat int64 arrays (rep, dir_index, nu), the tail's
    rows in chunk and skip-round order.  A replicate holds each
    direction at most once, so configurations_of rebuilds any
    replicate's edge array with one sort of its own rows.
    """
    f = _field(params)
    x1, x2 = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
    head = np.empty((f.dense_head.size, count)) if collect_support else None
    rounds = ([], [], []) if collect_support else None
    for first in range(0, count, _LOOKUP_BLOCK):
        chunk = slice(first, first + _LOOKUP_BLOCK)
        _draw_head(f, x1[chunk], x2[chunk], rng, None if head is None else head[:, chunk])
        _skip_tail(f, x1[chunk], x2[chunk], first, rng, rounds)
    xi = np.column_stack([x1, x2])
    if not collect_support:
        return xi
    tail = []
    for part in rounds:  # each column's rounds are freed once joined
        tail.append(np.concatenate([np.empty(0, np.int64), *part]))
        part.clear()
    return xi, (head, tuple(tail))


def _draw_head(f, x1, x2, rng, out=None) -> None:
    """Add the dense head's part to the endpoints x1, x2 of a chunk of
    replicates, its (head, chunk) multiplicity array written to out
    unless out is None.  The array is computed in place from one uniform
    array, nu = floor(log U / log z) with U = 1 - random in (0, 1], so
    nu >= 0 with P(nu >= k) = z^k.  The multiplicities and their
    endpoint sums are integers held exactly in float64 (below 2^53)."""
    head = f.dense_head
    nu = rng.random((head.size, x1.size))
    nu = np.subtract(1.0, nu, out=nu if out is None else out)
    np.log(nu, out=nu)
    nu /= -f.neg_log_z[head, None]
    np.floor(nu, out=nu)
    x1 += np.einsum("ij,i->j", nu, f.x1[head].astype(float)).astype(np.int64)
    x2 += np.einsum("ij,i->j", nu, f.x2[head].astype(float)).astype(np.int64)


def _skip_tail(f, x1, x2, first, rng, rounds) -> None:
    """Add the tail's part to the endpoints x1, x2 of the chunk of
    replicates first .. first + x1.size - 1, and unless rounds is None
    append one round per skip: each alive replicate skips along
    cum_hazard to its next active direction.  A head direction owns an
    empty interval there and is never landed on, so skip indices are
    field indices."""
    cum = f.cum_hazard
    # without tail hazard no tail direction is ever active
    alive = np.arange(x1.size) if cum.size and cum[-1] > 0.0 else np.empty(0, np.int64)
    pos = np.zeros(alive.size)  # consumed hazard of each alive replicate
    while alive.size:
        pos = pos + rng.standard_exponential(alive.size)
        # direction j owns [cum[j-1], cum[j]); side="right" keeps j above
        # the replicate's previous direction even when the step rounds to
        # 0, and off every empty interval
        j = _skip_index(cum, f.hazard_guide, pos)
        live = j < cum.size
        alive = alive[live]  # a subsequence of an ascending array
        if not alive.size:
            break
        j = j[live]
        # conditional on activity, multiplicity is 1 + geometric; the
        # ratio is >= 0, so truncation is floor
        nu = 1 + (np.log(1.0 - rng.random(alive.size)) / -f.neg_log_z[j]).astype(np.int64)
        x1[alive] += f.x1[j] * nu  # alive indices are unique per round
        x2[alive] += f.x2[j] * nu
        if rounds is not None:  # alive, j and nu are fresh arrays every round
            for out, new in zip(rounds, (alive + first, j, nu)):
                out.append(new)
        pos = cum[j]


def _replicate_rows(f, support, reps):
    """(owner, dir_index, nu) of the rows of distinct replicates reps in
    a support (head, tail) of sample_endpoints, where owner is the
    position in reps: one nonzero over the head's columns reps, then one
    pass over the tail, an isin mask of reps' rows and an owner map
    gathered on them."""
    head, (rep, idx, nu) = support
    cols = head[:, reps]
    pos, got = np.nonzero(cols)
    keep = np.flatnonzero(np.isin(rep, reps, kind="table"))
    owner = np.empty(head.shape[1], dtype=np.int64)
    owner[reps] = np.arange(reps.size)
    return (np.concatenate([got, owner[rep[keep]]]),
            np.concatenate([f.dense_head[pos], idx[keep]]),
            np.concatenate([cols[pos, got].astype(np.int64), nu[keep]]))


def _edge_arrays(params: MeasureParams, owner, idx, nu, count: int) -> list:
    """The edge arrays of owners 0 .. count - 1 from their rows, in any
    order: one sort of these rows by owner and then by dir_index puts
    each owner's rows in slope order, the rows are gathered into one
    (k, 3) array, and each owner is one slice of it, in the format of
    Configuration.support (not validated here)."""
    order = np.lexsort((idx, owner))
    edges = _rows(_field(params), idx[order], nu[order])
    sizes = np.bincount(owner, minlength=count)
    ends = np.cumsum(sizes)
    return [edges[a:b] for a, b in zip((ends - sizes).tolist(), ends.tolist())]


def configurations_of(params: MeasureParams, support, reps) -> list:
    """Edge arrays of replicates reps, in that order, repeats allowed,
    from a support (head, tail) such as sample_endpoints collects: the
    distinct replicates' head columns and tail rows (_replicate_rows)
    are sorted and gathered once (_edge_arrays), and each replicate
    asked for is handed its array."""
    uniq, at = np.unique(np.asarray(reps, dtype=np.int64), return_inverse=True)
    edges = _edge_arrays(params, *_replicate_rows(_field(params), support, uniq), uniq.size)
    return [edges[i] for i in at.tolist()]


def _complete(cs, r1, r2, v) -> np.ndarray:
    """The multiplicities (one column per direction of the completing set
    cs, in cs.index order) of accepted draws whose S part must sum to
    r = (r1, r2): nu_j for levels j = m .. 3 from
    P(nu_j = k | r) proportional to z_j^k * weight_{j-1}(r - k*x_j), by
    inverse transform of the uniforms v[:, j - 3], r losing nu_j * x_j
    after each, then the pair's (s, t) by its exact solve."""
    nus = np.empty((r1.size, cs.index.size), dtype=np.int64)
    for level in range(cs.index.size, 2, -1):
        p, q = int(cs.x1[level - 1]), int(cs.x2[level - 1])
        top = min(int(r1.max()) // p if p else math.inf, int(r2.max()) // q if q else math.inf)
        k = np.arange(top + 1)
        w = cs.z[level - 1] ** k * cs.weight(level - 1, r1[:, None] - k * p,
                                             r2[:, None] - k * q)
        cum = np.cumsum(w, axis=1)
        total = cum[:, -1]
        # the first k whose cumulative weight exceeds U * total, which the
        # cap keeps below total, so the chosen k has positive weight
        below = np.minimum(v[:, level - 3] * total, np.nextafter(total, 0.0))
        nu = np.count_nonzero(cum <= below[:, None], axis=1)
        nus[:, level - 1] = nu
        r1, r2 = r1 - nu * p, r2 - nu * q
    nus[:, 0], nus[:, 1], _ = cs.pair_solve(r1, r2)
    return nus


def conditioned_configurations(params: MeasureParams, n, count: int, batch: int,
                               max_attempts: int, rng: np.random.Generator):
    """The edge arrays of the first count accepted draws, exact draws
    of the configuration conditioned on endpoint n, in replicate order.

    Probabilistic divide-and-conquer with the completing set S of n
    (measure.completing_set: the field's completing pair {a, b} and up
    to 14 more of the likeliest directions, with the exact law P_S of
    xi_S on the box [0, n] as tables, and M its largest value there).
    Each draw is a free configuration (sample_endpoints) whose rows in S
    are dropped, leaving xi_A and r = n - xi_A, and then one uniform U
    (drawn after the batch's endpoints, one per draw).  The draw is
    accepted when U * M < P_S(r); then (m - 2) more uniforms are drawn
    for every accepted draw of the batch, in draw order, before the
    batch is cut to count, and only the kept draws use theirs: S's
    multiplicities are drawn from their law given xi_S = r, the non-pair
    directions one by one (_complete) and the pair's (s, t) solved
    exactly.  The accepted law is proportional to
    P(config_A) P(config_S | xi_S = r) P_S(r) 1[xi = n], which is the
    conditioned law itself with no tolerance, and a draw is accepted
    with probability P(xi = n) / M.  With the pair alone (a box larger
    than the table budget) M is (1 - z_a)(1 - z_b), the test is
    U < z_a^s * z_b^t and no further uniform is drawn.  S is picked from
    the dense head, so xi_S is read from S's rows of the batch's head
    array (cs.head_rows) in one product, and those rows are zeroed
    there, which drops them from the kept draws' rows; the kept draws'
    edge arrays get S's drawn rows with nu >= 1 in their slope places.

    Draws batches of min(batch, max_attempts - attempts) and returns
    (edge arrays, attempts), where attempts is an int64 array with one
    entry per path: the draws after the previous accepted one, up to and
    including its own, so they sum to the draws up to the last accepted
    one.  The first k paths depend on count only through the budget.
    Once max_attempts draws are spent short of count, raises Exhausted
    with the closest miss: the free endpoint of any draw nearest n in
    the covariance-adapted (Mahalanobis) norm.  A count of 0 returns
    ([], an empty attempts array) without a draw; a negative count
    raises ValueError.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        return [], np.empty(0, dtype=np.int64)
    f = _field(params)
    n = (int(n[0]), int(n[1]))
    cs = completing_set(params, n)
    s_x1, s_x2 = cs.x1.astype(float), cs.x2.astype(float)
    levels = cs.index.size
    target = np.asarray(n, dtype=np.int64)
    k_inv = np.linalg.inv(covariance_matrix(params))
    out: list = []
    accepted_at = []  # the index of each accepted draw among all draws
    attempts = 0
    best_d2, best_xi = math.inf, (0, 0)
    while attempts < max_attempts:
        size = min(batch, max_attempts - attempts)
        xi, support = sample_endpoints(params, size, rng, collect_support=True)
        u = rng.random(size)
        head = support[0]
        s_nu = head[cs.head_rows]
        head[cs.head_rows] = 0.0  # S's rows drop out of the accepted draws' rows
        # xi_S is exact in float64, as the head's own endpoint sums are
        r1 = target[0] - xi[:, 0] + np.einsum("ij,i->j", s_nu, s_x1).astype(np.int64)
        r2 = target[1] - xi[:, 1] + np.einsum("ij,i->j", s_nu, s_x2).astype(np.int64)
        ok = u * cs.peak < cs.weight(levels, r1, r2)
        v = rng.random((np.count_nonzero(ok), levels - 2))
        hits = np.flatnonzero(ok)[:count - len(out)]
        if hits.size:
            nus = _complete(cs, r1[hits], r2[hits], v[:hits.size])
            owner, idx, nu = _replicate_rows(f, support, hits)
            own_s, pos_s = np.nonzero(nus > 0)
            out.extend(_edge_arrays(
                params, np.concatenate([owner, own_s]),
                np.concatenate([idx, cs.index[pos_s]]),
                np.concatenate([nu, nus[own_s, pos_s]]), hits.size))
            accepted_at.append(attempts + hits)
        del support, head, s_nu  # the next batch draws its support without this one's beside it
        if len(out) == count:
            return out, np.diff(np.concatenate(accepted_at), prepend=-1)
        attempts += size
        diff = (xi - target).astype(float)
        d2 = np.einsum("ij,jk,ik->i", diff, k_inv, diff)
        i_best = int(np.argmin(d2))
        if d2[i_best] < best_d2:
            best_d2, best_xi = float(d2[i_best]), (int(xi[i_best, 0]), int(xi[i_best, 1]))
    raise Exhausted(attempts, len(out), count, best_xi, math.sqrt(best_d2))


@lru_cache(maxsize=4)
def predicted_attempts(params: MeasureParams, n: tuple) -> float:
    """Predicted draws per path accepted by conditioned_configurations:
    M / p(n), with M the largest value of the completing set's law on
    the box (measure.completing_set; (1 - z_a)(1 - z_b) for the pair
    alone) and p(n) the Gaussian local-CLT density of the endpoint at n
    (measure.endpoint_density, no quadrature).  The completing set is
    built first, so a field without a pair raises ParameterOutOfRange
    before the density is evaluated."""
    cs = completing_set(params, n)
    return float(cs.mass * cs.peak / endpoint_density(params, n))


@dataclass(frozen=True)
class ConditionedSample:
    line: PolygonalLine
    attempts: int


def condition_batch(params: MeasureParams, n: tuple, paths: int) -> int:
    """Draws per batch of conditioned_configurations when it is asked
    for paths paths: their predicted draws (predicted_attempts), rounded
    up, at most _CONDITION_BATCH."""
    return math.ceil(min(_CONDITION_BATCH, paths * predicted_attempts(params, n)))


def condition_on_endpoint(params: MeasureParams, n, max_attempts: int,
                          rng: np.random.Generator) -> ConditionedSample:
    """Exact draw from the endpoint-conditioned law: the first accepted
    draw of conditioned_configurations, in batches sized for one path,
    validated and assembled into its path."""
    n = (int(n[0]), int(n[1]))
    paths, attempts = conditioned_configurations(params, n, 1, condition_batch(params, n, 1),
                                                 max_attempts, rng)
    return ConditionedSample(line=assemble_block(paths)[0], attempts=int(attempts[0]))


def _edge_lengths(edges) -> np.ndarray:
    x1, x2, nu = edges.T
    return np.sqrt(x1 * x1 + x2 * x2) * nu


def profile_rows(lines: list):
    """The step-profile knots of a block of lines as (rows, width) arrays
    (taus, before, after) and the knot count of each row, for
    measure.profile_gaps.  Row i holds the knots of line i's edges, in
    their slope order, then a closing knot at +inf, padded to the
    block's width with +inf slopes and zero jumps; it holds
    len(edges) + 1 knots.  Each row's prefix sum adds the same jumps in
    the same order as step_knots on the line alone (the tests'
    reference, oracles.profile_knots), so its knots are that line's bit
    for bit, and the closing knot and padding hold the final value on
    both sides."""
    edges = [line.edges for line in lines]
    sizes = np.array([len(e) for e in edges], dtype=np.int64)
    joined = np.concatenate([np.empty((0, 3), dtype=np.int64), *edges])
    row = np.repeat(np.arange(sizes.size), sizes)
    col = np.arange(joined.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    taus = np.full((sizes.size, int(sizes.max(initial=0)) + 1), np.inf)
    jumps = np.zeros(taus.shape)
    x1, x2 = joined[:, 0], joined[:, 1]
    taus[row, col] = np.where(x1 > 0, x2 / np.maximum(x1, 1), np.inf)
    jumps[row, col] = _edge_lengths(joined)
    return (*step_knots(taus, jumps), sizes + 1)


def total_length(line: PolygonalLine) -> float:
    """Sum of the edge lengths, added in slope order."""
    lengths = _edge_lengths(line.edges)
    return float(np.cumsum(lengths)[-1]) if lengths.size else 0.0

