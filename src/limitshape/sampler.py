"""Drawing random convex paths from the tilted product measure.

A configuration assigns an independent geometric multiplicity nu(x) to
every enumerated coprime direction; assembling the nonzero edges in
slope order yields the convex polygonal line, whose length profile is
a step function (profile_knots, evaluated by measure.step_at).
Endpoint conditioning is exact rejection: resample until the path ends
at the target.  conditioned_configurations is the one rejection loop:
it draws batched endpoints under an attempt budget, rebuilds each hit
by support_of in replicate order, and raises Exhausted with
closest-miss diagnostics once the budget is spent;
condition_on_endpoint is its first hit, assembled into a path.

Two equivalent sampling routes are provided.  sample_configuration
draws one uniform per enumerated direction (inverse transform).  The
batched endpoint machinery embeds the per-direction Bernoulli field in
a unit-rate Poisson process on the cumulative-hazard axis and skips
straight to the next active direction, which costs O(active) instead
of O(enumerated) per replicate; the joint law is identical and the
equivalence is pinned by tests against the direct route and against
exhaustive enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Exhausted
from .measure import MeasureParams, _field, covariance_matrix, step_knots


@dataclass(frozen=True)
class Configuration:
    """Finite-support multiplicity map direction -> count (all >= 1)."""

    support: dict

    def __post_init__(self):
        for x, nu in self.support.items():
            if nu < 1:
                raise ValueError(f"multiplicity {nu} < 1 at {x}")

    def endpoint(self) -> np.ndarray:
        e = np.zeros(2, dtype=np.int64)
        for (x1, x2), nu in self.support.items():
            e[0] += x1 * nu
            e[1] += x2 * nu
        return e


@dataclass(frozen=True)
class PolygonalLine:
    """Convex lattice path from the origin.

    vertices are prefix sums of the slope-sorted edges; edges hold
    (direction, multiplicity) pairs with strictly increasing slope.
    """

    vertices: np.ndarray
    edges: tuple
    endpoint: np.ndarray


def _edge_tau(x):
    return x[1] / x[0] if x[0] else math.inf


def assemble(config: Configuration) -> PolygonalLine:
    """Assemble the unique convex path realizing a configuration."""
    items = sorted(config.support.items(), key=lambda kv: _edge_tau(kv[0]))
    vertices = np.zeros((len(items) + 1, 2), dtype=np.int64)
    for i, ((x1, x2), nu) in enumerate(items):
        vertices[i + 1, 0] = vertices[i, 0] + x1 * nu
        vertices[i + 1, 1] = vertices[i, 1] + x2 * nu
    return PolygonalLine(vertices=vertices, edges=tuple(items),
                         endpoint=vertices[-1].copy())


def disassemble(line: PolygonalLine) -> Configuration:
    """Inverse of assemble (the path <-> configuration bijection)."""
    return Configuration(support=dict(line.edges))


def sample_configuration(params: MeasureParams, rng: np.random.Generator) -> Configuration:
    """One draw from the tilted measure: independent geometric nu per
    enumerated direction via inverse transform nu = floor(ln U / ln z)."""
    f = _field(params)
    n = f.x1.size
    if n == 0:
        return Configuration(support={})
    u = rng.random(n)
    idx = np.nonzero(u < f.zpow)[0]
    # ln z = -neg_log_z up to the exp/log round trip
    nu = np.floor(np.log(u[idx]) / -f.neg_log_z[idx]).astype(np.int64)
    nu = np.maximum(nu, 1)  # guard the one-ulp boundary of the hit test
    support = {(int(f.x1[i]), int(f.x2[i])): int(k) for i, k in zip(idx, nu)}
    return Configuration(support=support)


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
        j = np.searchsorted(cum, pos_alive, side="left")
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
    arrays of sample_endpoints; repeated directions add up."""
    reps, idx, nu = support
    f = _field(params)
    mask = reps == rep
    out: dict = {}
    for i, k in zip(idx[mask], nu[mask]):
        key = (int(f.x1[i]), int(f.x2[i]))
        out[key] = out.get(key, 0) + int(k)
    return Configuration(support=out)


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


def profile_knots(line: PolygonalLine):
    """Step-profile knots (tau, before, after) of the line's length
    profile: its edges are already in increasing slope order."""
    taus = np.array([_edge_tau(x) for x, _ in line.edges])
    lens = np.array([math.hypot(*x) * nu for x, nu in line.edges])
    return step_knots(taus, lens)


def total_length(line: PolygonalLine) -> float:
    return float(sum(math.hypot(*x) * nu for x, nu in line.edges))


def scale(line: PolygonalLine, factor: float) -> np.ndarray:
    """Scaled copy of the vertex chain as float coordinates."""
    if factor <= 0.0:
        raise ValueError("scale factor must be positive")
    return line.vertices.astype(float) * factor
