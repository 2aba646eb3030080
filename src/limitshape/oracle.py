"""Exhaustive micro-lattice ground truth for the conditioned sampler.

On a capped direction set (x1 + x2 <= cap_radius, multiplicities
<= nu_cap) every configuration can be enumerated and weighted exactly,
giving the conditional law on {endpoint = n} in closed form.  When
cap_radius >= n1 + n2 and nu_cap >= max(n), the caps are not binding
for paths ending at n, so the enumeration equals the sampler's
conditional law with no auxiliary conditioning.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import StateSpaceTooLarge
from .lattice import direction_arrays
from .measure import MeasureParams, direction_exponent
from .sampler import Configuration

_STATE_BUDGET = 2_000_000


def configuration_key(config: Configuration) -> tuple:
    """Canonical hashable identity of a configuration (and its path)."""
    return tuple(sorted(map(tuple, config.support.tolist())))


@dataclass(frozen=True)
class OracleDistribution:
    """Exact conditional law over capped configurations with endpoint n."""

    endpoint: tuple
    entries: tuple  # of (key, probability), probability descending
    reachable: bool

    def as_dict(self) -> dict:
        return dict(self.entries)


def exact_conditional_oracle(params: MeasureParams, cap_radius: int,
                             nu_cap: int, n) -> OracleDistribution:
    """Enumerate all capped configurations with endpoint n and weight
    them by the tilted measure (common normalization cancels)."""
    n1, n2 = int(n[0]), int(n[1])
    curve = params.curve
    rho = params.rho_n
    t_lo = curve.t0 / rho
    t_hi = curve.t1 / rho if math.isfinite(curve.t1) else math.inf
    x1s, x2s = direction_arrays(t_lo, t_hi, cap_radius)
    dirs = list(zip(x1s.tolist(), x2s.tolist()))
    if not dirs:
        return OracleDistribution(endpoint=(n1, n2), entries=(), reachable=False)
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
        return OracleDistribution(endpoint=(n1, n2), entries=(), reachable=False)
    log_ws = np.array([w for _, w in found])
    log_ws -= log_ws.max()
    ws = np.exp(log_ws)
    ws /= ws.sum()
    order = np.argsort(-ws, kind="stable")
    entries = tuple((found[i][0], float(ws[i])) for i in order)
    return OracleDistribution(endpoint=(n1, n2), entries=entries, reachable=True)


def z_scores(dist: OracleDistribution, configs) -> list:
    """(key, exact p, observed count, |z|) for every oracle entry, where
    z compares the count among the sampled configurations with its
    binomial mean and standard deviation."""
    counts = Counter(configuration_key(c) for c in configs)
    total = len(configs)
    rows = []
    for key, p in dist.entries:
        obs = counts[key]
        se = math.sqrt(max(p * (1 - p) * total, 1e-300))
        rows.append((key, p, obs, abs(obs - p * total) / se))
    return rows
