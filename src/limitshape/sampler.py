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
endpoints under an attempt budget, rebuilds each hit by support_of in
replicate order, and raises Exhausted with closest-miss diagnostics
once the budget is spent; condition_on_endpoint is its first hit,
assembled into a path.

Two equivalent sampling routes are provided.  sample_configuration
draws one uniform per enumerated direction (inverse transform).  The
batched endpoint machinery embeds the per-direction Bernoulli field in
a unit-rate Poisson process on the cumulative-hazard axis and skips
straight to the next active direction, which costs O(active) instead
of O(enumerated) per replicate; the joint law is identical and the
equivalence is pinned by tests against the direct route and against
exhaustive enumeration.  Each skip lands on a later direction, so
support_of reads a replicate's rows in order, with no repeats to merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Exhausted
from .measure import MeasureParams, _field, covariance_matrix, step_knots


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
        if np.any(s[:, 2] < 1):
            raise ValueError("multiplicities must be >= 1")
        x1, x2 = s[:, 0], s[:, 1]
        # tau_i < tau_{i+1}, exactly on the integers
        if np.any(x2[:-1] * x1[1:] >= x2[1:] * x1[:-1]):
            raise ValueError("directions must be distinct and in increasing slope")

    def endpoint(self) -> np.ndarray:
        return self.support[:, 2] @ self.support[:, :2]


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


def _from_field(f, idx, nu) -> Configuration:
    return Configuration(support=np.column_stack([f.x1[idx], f.x2[idx], nu]))


def sample_configuration(params: MeasureParams, rng: np.random.Generator) -> Configuration:
    """One draw from the tilted measure: independent geometric nu per
    enumerated direction via inverse transform nu = floor(ln U / ln z)."""
    f = _field(params)
    u = rng.random(f.x1.size)
    idx = np.nonzero(u < f.zpow)[0]
    # ln z = -neg_log_z up to the exp/log round trip
    nu = np.floor(np.log(u[idx]) / -f.neg_log_z[idx]).astype(np.int64)
    nu = np.maximum(nu, 1)  # guard the one-ulp boundary of the hit test
    return _from_field(f, idx, nu)


def sample_endpoints(params: MeasureParams, count: int,
                     rng: np.random.Generator,
                     collect_support: bool = False):
    """Batched endpoint draws (count, 2) via Poisson-embedding skips.

    When collect_support is set, also returns (rep, dir_index, nu)
    arrays from which any replicate's configuration can be rebuilt.
    """
    f = _field(params)
    cum = f.cum_hazard
    xi = np.zeros((count, 2), dtype=np.int64)
    reps_out, idx_out, nu_out = [], [], []
    if not cum.size or cum[-1] <= 0.0:
        if collect_support:
            return xi, (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
        return xi
    alive = np.arange(count)
    pos = np.zeros(count)  # consumed hazard per replicate
    while alive.size:
        pos_alive = pos[alive] + rng.standard_exponential(alive.size)
        # direction j owns [cum[j-1], cum[j]); side="right" keeps j above
        # the replicate's previous direction even when the step rounds to 0
        j = np.searchsorted(cum, pos_alive, side="right")
        live = j < cum.size
        alive = alive[live]
        if not alive.size:
            break
        j = j[live]
        # conditional on activity, multiplicity is 1 + geometric
        u = rng.random(alive.size)
        nu = 1 + np.floor(np.log(u) / -f.neg_log_z[j]).astype(np.int64)
        xi[alive, 0] += f.x1[j] * nu  # alive indices are unique per round
        xi[alive, 1] += f.x2[j] * nu
        if collect_support:
            reps_out.append(alive.copy())
            idx_out.append(j.copy())
            nu_out.append(nu)
        pos[alive] = cum[j]
    if collect_support:
        cat = (np.concatenate(reps_out) if reps_out else np.empty(0, np.int64),
               np.concatenate(idx_out) if idx_out else np.empty(0, np.int64),
               np.concatenate(nu_out) if nu_out else np.empty(0, np.int64))
        return xi, cat
    return xi


def support_of(params: MeasureParams, support, rep: int) -> Configuration:
    """Configuration of replicate rep from the (rep, dir_index, nu)
    arrays of sample_endpoints, whose dir_index rises within a replicate."""
    reps, idx, nu = support
    mask = reps == rep
    return _from_field(_field(params), idx[mask], nu[mask])


@dataclass(frozen=True)
class MissDiagnostics:
    """Closest-miss summary of a failed conditioning run, in the
    covariance-adapted (Mahalanobis) norm."""

    attempts: int
    best_endpoint: tuple
    best_distance: float
    distance_quantiles: dict


def conditioned_configurations(params: MeasureParams, n, count: int, batch: int,
                               max_attempts: int, rng: np.random.Generator):
    """The first count configurations with endpoint n, in replicate order.

    Draws batches of min(batch, max_attempts - attempts) endpoints and
    returns (configs, attempts), where attempts counts the draws up to
    and including the last accepted one.  Once max_attempts draws are
    spent short of count, raises Exhausted with closest-miss
    diagnostics over every draw.
    """
    target = np.asarray(n, dtype=np.int64)
    k_inv = np.linalg.inv(covariance_matrix(params))
    out: list = []
    attempts = 0
    best_d, best_xi = math.inf, (0, 0)
    sq_dists = []
    while attempts < max_attempts:
        size = min(batch, max_attempts - attempts)
        xi, support = sample_endpoints(params, size, rng, collect_support=True)
        hits = np.nonzero((xi[:, 0] == target[0]) & (xi[:, 1] == target[1]))[0]
        hits = hits[:count - len(out)]
        out.extend(support_of(params, support, int(w)) for w in hits)
        if len(out) == count:
            return out, attempts + int(hits[-1]) + 1
        attempts += size
        diff = (xi - target).astype(float)
        d2 = np.einsum("ij,jk,ik->i", diff, k_inv, diff)
        sq_dists.append(d2)
        i_best = int(np.argmin(d2))
        if d2[i_best] < best_d:
            best_d, best_xi = float(d2[i_best]), (int(xi[i_best, 0]), int(xi[i_best, 1]))
    pooled = np.sqrt(np.concatenate(sq_dists)) if sq_dists else np.empty(0)
    quantiles = {q: float(np.quantile(pooled, q)) for q in (0.01, 0.1, 0.5)} if pooled.size else {}
    raise Exhausted(attempts, MissDiagnostics(
        attempts=attempts, best_endpoint=best_xi, best_distance=math.sqrt(best_d),
        distance_quantiles=quantiles))


@dataclass(frozen=True)
class ConditionedSample:
    line: PolygonalLine
    attempts: int


def condition_on_endpoint(params: MeasureParams, n, max_attempts: int,
                          rng: np.random.Generator,
                          batch: int = 8192) -> ConditionedSample:
    """Exact draw from the endpoint-conditioned law: the first hit of
    conditioned_configurations, assembled into its path."""
    (config,), attempts = conditioned_configurations(params, n, 1, batch, max_attempts, rng)
    return ConditionedSample(line=assemble(config), attempts=attempts)


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


def scale(line: PolygonalLine, factor: float) -> np.ndarray:
    """Scaled copy of the vertex chain as float coordinates."""
    if factor <= 0.0:
        raise ValueError("scale factor must be positive")
    return line.vertices.astype(float) * factor
