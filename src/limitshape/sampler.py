"""Drawing random convex paths from the tilted product measure.

A configuration assigns an independent geometric multiplicity nu(x) to
every enumerated coprime direction; assembling the nonzero edges in
slope order yields the convex polygonal line, whose length profile is
a step function (profile_knots, evaluated by measure.step_at).
Endpoint conditioning is exact rejection: resample until the path ends
at the target.  Every accepted configuration is rebuilt from the
batched draws by support_of; conditioned_configurations keeps all hits
in replicate order, condition_on_endpoint the first one together with
closest-miss diagnostics.

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
from functools import lru_cache

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


class _HazardTable:
    """Cumulative hazard of the active-direction Bernoulli field."""

    def __init__(self, params: MeasureParams):
        f = _field(params)
        lam = -np.log1p(-f.zpow)
        self.cum = np.cumsum(lam)
        self.total = float(self.cum[-1]) if lam.size else 0.0
        self.neg_log_z = f.neg_log_z
        self.x1 = f.x1
        self.x2 = f.x2


@lru_cache(maxsize=2)
def _hazard(params: MeasureParams) -> _HazardTable:
    return _HazardTable(params)


def sample_endpoints(params: MeasureParams, count: int,
                     rng: np.random.Generator,
                     collect_support: bool = False):
    """Batched endpoint draws (count, 2) via Poisson-embedding skips.

    When collect_support is set, also returns (rep, dir_index, nu)
    arrays from which any replicate's configuration can be rebuilt.
    """
    h = _hazard(params)
    xi = np.zeros((count, 2), dtype=np.int64)
    reps_out, idx_out, nu_out = [], [], []
    if h.total <= 0.0:
        if collect_support:
            return xi, (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
        return xi
    alive = np.arange(count)
    pos = np.zeros(count)  # consumed hazard per replicate
    while alive.size:
        pos_alive = pos[alive] + rng.standard_exponential(alive.size)
        j = np.searchsorted(h.cum, pos_alive, side="left")
        live = j < h.cum.size
        alive = alive[live]
        if not alive.size:
            break
        j = j[live]
        # conditional on activity, multiplicity is 1 + geometric
        u = rng.random(alive.size)
        nu = 1 + np.floor(np.log(u) / -h.neg_log_z[j]).astype(np.int64)
        xi[alive, 0] += h.x1[j] * nu  # alive indices are unique per round
        xi[alive, 1] += h.x2[j] * nu
        if collect_support:
            reps_out.append(alive.copy())
            idx_out.append(j.copy())
            nu_out.append(nu)
        pos[alive] = h.cum[j]
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
    h = _hazard(params)
    mask = reps == rep
    out: dict = {}
    for i, k in zip(idx[mask], nu[mask]):
        key = (int(h.x1[i]), int(h.x2[i]))
        out[key] = out.get(key, 0) + int(k)
    return Configuration(support=out)


def conditioned_configurations(params: MeasureParams, n, count: int, batch: int,
                               max_attempts: int,
                               rng: np.random.Generator) -> list:
    """The first count configurations with endpoint n, in replicate order.

    Draws batches of min(batch, max_attempts - attempts) endpoints and
    raises Exhausted once max_attempts draws are spent short of count.
    """
    out: list = []
    attempts = 0
    while len(out) < count:
        if attempts >= max_attempts:
            raise Exhausted(attempts)
        size = min(batch, max_attempts - attempts)
        attempts += size
        xi, support = sample_endpoints(params, size, rng, collect_support=True)
        hits = np.nonzero((xi[:, 0] == n[0]) & (xi[:, 1] == n[1]))[0]
        out.extend(support_of(params, support, int(w)) for w in hits[:count - len(out)])
    return out


@dataclass(frozen=True)
class MissDiagnostics:
    """Closest-miss summary of a failed conditioning run, in the
    covariance-adapted (Mahalanobis) norm."""

    attempts: int
    best_endpoint: tuple
    best_distance: float
    distance_quantiles: dict


@dataclass(frozen=True)
class ConditionedSample:
    line: PolygonalLine
    attempts: int

    @property
    def acceptance_rate(self) -> float:
        return 1.0 / self.attempts if self.attempts else 0.0


def condition_on_endpoint(params: MeasureParams, n, max_attempts: int,
                          rng: np.random.Generator,
                          batch: int = 8192) -> ConditionedSample:
    """Exact draw from the endpoint-conditioned law by rejection.

    Samples in batches until the path endpoint equals n; the first hit
    in replicate order is returned, so the draw is exact.  Raises
    Exhausted with closest-miss diagnostics after max_attempts.
    """
    target = np.asarray(n, dtype=np.int64)
    k_inv = np.linalg.inv(covariance_matrix(params))
    attempts = 0
    best_d = math.inf
    best_xi = (0, 0)
    sq_dists = []
    while attempts < max_attempts:
        size = min(batch, max_attempts - attempts)
        xi, support = sample_endpoints(params, size, rng, collect_support=True)
        hits = np.nonzero((xi[:, 0] == target[0]) & (xi[:, 1] == target[1]))[0]
        diff = xi.astype(float) - target.astype(float)
        d2 = np.einsum("ij,jk,ik->i", diff, k_inv, diff)
        sq_dists.append(d2)
        if hits.size:
            winner = int(hits[0])
            line = assemble(support_of(params, support, winner))
            return ConditionedSample(line=line, attempts=attempts + winner + 1)
        attempts += size
        i_best = int(np.argmin(d2))
        if d2[i_best] < best_d:
            best_d = float(d2[i_best])
            best_xi = (int(xi[i_best, 0]), int(xi[i_best, 1]))
    pooled = np.sqrt(np.concatenate(sq_dists)) if sq_dists else np.empty(0)
    quantiles = {q: float(np.quantile(pooled, q)) for q in (0.01, 0.1, 0.5)} if pooled.size else {}
    raise Exhausted(attempts, MissDiagnostics(
        attempts=attempts, best_endpoint=best_xi,
        best_distance=math.sqrt(best_d) if math.isfinite(best_d) else math.inf,
        distance_quantiles=quantiles))


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
