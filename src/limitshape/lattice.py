"""Coprime lattice directions and Moebius-inverted lattice sums.

Every possible edge direction of a convex lattice path is a coprime
pair x = (x1, x2) in Z+^2 with slope tau = x2/x1.  direction_arrays is
the one enumeration route: a vectorized gcd sieve over a slope window
of the ball, sorted by slope.  Sums over the coprime set are
cross-checked against full-lattice sums through Moebius inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LimitTooLarge, TailBoundViolated

_SIEVE_BUDGET = 1 << 27  # int8 table, ~134 MB
_LATTICE_CHUNK = 1 << 18  # lattice points per call of f in _full_lattice_sum


def direction_arrays(t_lo: float, t_hi: float, radius: float,
                     chunk: int = 1 << 21):
    """Coprime directions with t_lo <= tau <= t_hi and x1 + x2 <= radius.

    Returns (x1, x2) int64 arrays in strictly increasing slope, each
    direction once: (1, 0) opens them when t_lo <= 0 and (0, 1) closes
    them when t_hi is infinite.  A vectorized gcd sieve over the ball,
    in chunks of about `chunk` candidate pairs.
    """
    r = int(math.floor(radius))
    xs1, xs2 = [], []
    if r >= 1 and t_lo <= 0.0:
        xs1.append(np.array([1], dtype=np.int64))
        xs2.append(np.array([0], dtype=np.int64))
    for a_start in range(1, r + 1, max(1, chunk // max(1, r))):
        a_stop = min(r, a_start + max(1, chunk // max(1, r)) - 1)
        a = np.arange(a_start, a_stop + 1, dtype=np.int64)
        # all pairs (a_i, b) with 1 <= b <= r - a_i, slope filtered first
        reps = r - a + 1  # b in 0..r-a, but b >= 1 here
        reps = np.maximum(reps - 1, 0)
        if reps.sum() == 0:
            continue
        x1 = np.repeat(a, reps)
        b = np.concatenate([np.arange(1, n + 1, dtype=np.int64) for n in reps if n > 0])
        tau = b / x1
        keep = (tau >= t_lo) & (tau <= t_hi)
        x1, b = x1[keep], b[keep]
        if x1.size:
            cop = np.gcd(x1, b) == 1
            xs1.append(x1[cop])
            xs2.append(b[cop])
    if r >= 1 and t_hi == math.inf:
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


@dataclass(frozen=True)
class MobiusTable:
    limit: int
    values: np.ndarray  # int8, index m in 1..limit

    def __getitem__(self, m: int) -> int:
        return int(self.values[m])


def mobius_sieve(limit: int) -> MobiusTable:
    """Sieve mu(1..limit): mu(m) = (-1)^d for squarefree m with d prime
    factors, 0 otherwise."""
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
    return MobiusTable(limit=limit, values=mu)


def _full_lattice_sum(f, h: float, radius: int) -> tuple[float, float]:
    """Sum of f(h*x) over the full lattice Z+^2 \\ {0} with x1 + x2 <= radius.

    Returns (sum, last_shell_mass) where the shell mass is the absolute
    contribution of the outermost diagonal, a cheap tail indicator.
    f is called once per chunk of rows x1, each chunk holding at most
    _LATTICE_CHUNK points.
    """
    total = 0.0
    shell_mass = 0.0
    x2 = np.arange(radius + 1)
    rows = max(1, _LATTICE_CHUNK // (radius + 1))
    for start in range(0, radius + 1, rows):
        x1 = np.arange(start, min(start + rows, radius + 1))
        i, j = np.nonzero(x1[:, None] + x2 <= radius)
        a, b = x1[i], x2[j]
        if start == 0:
            a, b = a[1:], b[1:]  # drop the origin
        vals = np.asarray(f(h * a.astype(float), h * b.astype(float)), dtype=float)
        total += float(np.sum(vals))
        shell_mass += float(np.sum(np.abs(vals[a + b == radius])))
    return total, shell_mass


def coprime_sum(f, h: float, radius: int) -> float:
    """Direct summation of f(h*x) over coprime x with x1 + x2 <= radius."""
    x1, x2 = direction_arrays(0.0, math.inf, radius)
    if x1.size == 0:
        return 0.0
    vals = np.asarray(f(h * x1.astype(float), h * x2.astype(float)), dtype=float)
    return float(np.sum(vals))


def mobius_inverted_sum(f, h: float, radius: float, *,
                        table: MobiusTable | None = None,
                        tail_bound: float | None = None) -> float:
    """Evaluate sum of f(h*x) over coprime x via Moebius inversion.

    Sums full-lattice blocks F(h*m) with the ball x1 + x2 <= radius/m
    and combines them with mu(m) weights; with consistent truncation
    this reproduces the direct coprime sum over the same ball exactly.
    f must accept (x1, x2) float arrays.  When tail_bound is given, the
    outermost-shell mass is checked against it.
    """
    r = int(math.floor(radius))
    if r < 1:
        return 0.0
    if table is None or table.limit < r:
        table = mobius_sieve(r)
    total = 0.0
    shell = 0.0
    for m in range(1, r + 1):
        mu = table[m]
        inner_radius = r // m
        if inner_radius < 1:
            break
        if mu == 0:
            continue
        block, block_shell = _full_lattice_sum(f, h * m, inner_radius)
        total += mu * block
        if m == 1:
            shell = block_shell
    if tail_bound is not None and shell > tail_bound:
        raise TailBoundViolated(
            f"outermost shell mass {shell!r} exceeds certified tail bound {tail_bound!r}")
    return total
