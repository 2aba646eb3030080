"""Exhaustive micro-lattice ground truth for the conditioned sampler.

On a capped direction set (x1 + x2 <= cap_radius, multiplicities
<= nu_cap) every configuration can be enumerated and weighted exactly,
giving the conditional law on {endpoint = n} in closed form.  When
cap_radius >= n1 + n2 and nu_cap >= max(n), the caps are not binding
for paths ending at n, so the enumeration equals the sampler's
conditional law with no auxiliary conditioning.

check_sampler is the one route that pairs the enumeration with
conditioned draws, on the fixed INSTANCES: the CLI oracle mode and the
c09 acceptance check both run it.  It counts the edge arrays the
conditioned loop (sampler.conditioned_configurations) hands out
directly, keyed like the enumeration by their sorted rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import sampler as _sampler
from .curve import ConvexCurve
from .errors import StateSpaceTooLarge, UnreachableEndpoint
from .lattice import direction_arrays
from .measure import MeasureParams, direction_exponent

_STATE_BUDGET = 2_000_000

# The micro-lattice instances (n, cap_radius, nu_cap) of check_sampler.
# Each has cap_radius >= n1 + n2 and nu_cap >= max(n): no path ending at
# n uses a direction with x1 + x2 > n1 + n2 or a multiplicity above
# max(n), so the caps do not bind and the enumeration is the sampler's
# conditional law itself.
INSTANCES = (((1, 1), 2, 4), ((2, 1), 3, 4), ((1, 2), 3, 4), ((3, 1), 4, 4),
             ((2, 2), 4, 4))


@dataclass(frozen=True)
class OracleDistribution:
    """Exact conditional law over capped configurations with endpoint n."""

    entries: tuple  # of (key, probability), probability descending

    def as_dict(self) -> dict:
        return dict(self.entries)


def exact_conditional_oracle(params: MeasureParams, cap_radius: int,
                             nu_cap: int, n) -> OracleDistribution:
    """Enumerate all capped configurations with endpoint n and weight
    them by the tilted measure (common normalization cancels).

    Raises UnreachableEndpoint when no capped configuration ends at n.
    """
    n1, n2 = int(n[0]), int(n[1])
    curve = params.curve
    rho = params.rho_n
    t_lo = curve.t0 / rho
    t_hi = curve.t1 / rho if math.isfinite(curve.t1) else math.inf
    x1s, x2s = direction_arrays(t_lo, t_hi, cap_radius)
    dirs = list(zip(x1s.tolist(), x2s.tolist()))
    if (nu_cap + 1) ** len(dirs) > _STATE_BUDGET * 64:
        raise StateSpaceTooLarge(
            f"{len(dirs)} directions with nu <= {nu_cap} exceeds the budget")
    exps = direction_exponent(curve, rho, x1s.astype(float), x2s.astype(float))
    alpha = params.alpha_n

    found: list[tuple[tuple, float]] = []

    def rec(i: int, rem1: int, rem2: int, log_w: float, support: list):
        if i == len(dirs):
            if rem1 == 0 and rem2 == 0:
                found.append((tuple(sorted(support)), log_w))
            return
        x1, x2 = dirs[i]
        # nu = 0 branch
        rec(i + 1, rem1, rem2, log_w, support)
        nu_max = nu_cap
        if x1:
            nu_max = min(nu_max, rem1 // x1)
        if x2:
            nu_max = min(nu_max, rem2 // x2)
        for nu in range(1, nu_max + 1):
            support.append((x1, x2, nu))
            rec(i + 1, rem1 - nu * x1, rem2 - nu * x2,
                log_w - alpha * nu * float(exps[i]), support)
            support.pop()

    rec(0, n1, n2, 0.0, [])
    if not found:
        raise UnreachableEndpoint(f"no configuration with x1 + x2 <= {cap_radius} and "
                                  f"nu <= {nu_cap} ends at {(n1, n2)} on this curve")
    log_ws = np.array([w for _, w in found])
    log_ws -= log_ws.max()
    ws = np.exp(log_ws)
    ws /= ws.sum()
    order = np.argsort(-ws, kind="stable")
    entries = tuple((found[i][0], float(ws[i])) for i in order)
    return OracleDistribution(entries=entries)


@dataclass(frozen=True)
class OracleCheck:
    """Sampled frequencies against the exact law, over all instances.

    rows holds (instance, line, exact p, observed frequency, |z|) for
    every oracle entry, where z compares the line's count among the
    draws with its binomial mean and standard deviation; missing holds
    (instance, line) for every sampled line outside the oracle's support.
    """

    rows: list
    worst_z: float
    missing: list


def check_sampler(curve: ConvexCurve, draws: int, max_attempts: int,
                  seed: int) -> OracleCheck:
    """Enumerate the exact conditional law of each of INSTANCES and
    compare it with draws endpoint-conditioned paths, counted by their
    sorted (x1, x2, nu) rows, the key of the enumeration's entries.

    Instance idx draws from SeedSequence(seed, spawn_key=(9, idx)) in
    batches sized for draws paths (sampler.condition_batch) under
    max_attempts.  An unreachable endpoint raises UnreachableEndpoint
    from the enumeration, before any draw.
    """
    rows, missing = [], []
    worst_z = 0.0
    for idx, (n, cap_radius, nu_cap) in enumerate(INSTANCES):
        params = MeasureParams.for_endpoint(curve, n[0], n[1])
        dist = exact_conditional_oracle(params, cap_radius, nu_cap, n)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9, idx)))
        paths, _ = _sampler.conditioned_configurations(
            params, n, draws, _sampler.condition_batch(params, n, draws), max_attempts, rng)
        counts = Counter(tuple(sorted(map(tuple, edges.tolist()))) for edges in paths)
        missing.extend((n, key) for key in sorted(counts.keys() - dist.as_dict().keys()))
        for key, p in dist.entries:
            se = math.sqrt(max(p * (1 - p) * draws, 1e-300))
            z = abs(counts[key] - p * draws) / se
            worst_z = max(worst_z, z)
            rows.append((f"{n}", "|".join(map(str, key)), p, counts[key] / draws, z))
    return OracleCheck(rows=rows, worst_z=worst_z, missing=missing)
