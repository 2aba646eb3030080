"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own computational
paths: quadratures use different integrands/substitutions, counts use
gcd sieves, probabilities use direct enumeration.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import integrate

# (2*zeta(3)/zeta(2))**(1/3) evaluated with 40-digit arithmetic offline;
# reproduced below from rapidly converging series before being trusted.
KAPPA_PINNED = 1.1348422840496904
DELTA1_PARABOLA1 = 0.9007249177592364  # KAPPA * (1/2)**(1/3)
ZPOW_11_AT_N1000 = 0.8351491197476313  # exp(-0.2 * DELTA1_PARABOLA1)

# total length of the parabola arc with c = 1, frozen from the
# slope-domain quadrature oracle below
L_STAR_PARABOLA1 = 1.6232252401402305

B_PARABOLA1 = np.array([[0.8399473665965821, 0.4199736832982911],
                        [0.4199736832982911, 0.8399473665965821]])
B_POWER2 = np.array([[2.0 ** (-1.0 / 3.0), 2.0 ** (-1.0 / 3.0)],
                     [2.0 ** (-1.0 / 3.0), 2.0 ** (-1.0 / 3.0) * 4.0 / 3.0]])
B_CIRCLE = np.array([[math.pi / 4.0, 0.5], [0.5, math.pi / 4.0]])

COPRIME_COUNT_R1000 = 304193  # brute gcd sieve, reproduced in tests


def kappa_from_series(terms: int = 2_000_000) -> float:
    """kappa recomputed from the defining zeta series (independent of scipy)."""
    k = np.arange(1, terms + 1, dtype=float)
    zeta3 = float(np.sum(1.0 / k[::-1] ** 3)) + 1.0 / (2.0 * terms ** 2)
    zeta2 = math.pi ** 2 / 6.0
    return (2.0 * zeta3 / zeta2) ** (1.0 / 3.0)


def parabola_inverse(t, c=1.0):
    """Closed-form slope inverse of the parabola preset."""
    if t == math.inf:
        return 1.0
    return 1.0 - (c / (t + c)) ** 2


def bisect_slope_inverse(g1, t, steps: int = 64):
    """Root of g1(u) = t on [0, 1] by plain vectorized bisection.

    No table, no Newton step and no polish: 64 halvings of [0, 1] run
    past the float resolution, so lo and hi end as neighbouring floats
    around the sign change of g1(u) - t.
    """
    t = np.asarray(t, dtype=float)
    lo = np.zeros_like(t)
    hi = np.ones_like(t)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = g1(mid) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def arc_length_profile(curve, t) -> float:
    """Length of the sub-arc whose tangent slope does not exceed t.

    Adaptive quadrature of sqrt(1 + g1(u)^2) in the abscissa over
    [0, u(t)], with u(t) from bisect_slope_inverse rather than the
    package's inverse; the reference for curve.length_profile.
    """
    t = float(t)
    if t <= curve.t0:
        return 0.0
    u_end = 1.0 if t >= curve.t1 else float(bisect_slope_inverse(curve.g1, t))

    def integrand(u):
        with np.errstate(divide="ignore", over="ignore"):
            return math.hypot(1.0, float(curve.g1(u)))

    val, _ = integrate.quad(integrand, 0.0, u_end, epsabs=0.0, epsrel=1e-10, limit=200)
    return val


def parabola_arc_length(t_hi: float) -> float:
    """Arc length of the c=1 parabola up to slope t via the slope-domain
    integrand 2*sqrt(1+s^2)/(1+s)^3 with a tangent substitution."""
    theta_hi = math.atan(t_hi) if math.isfinite(t_hi) else math.pi / 2.0

    def integrand(theta):
        s = math.tan(theta)
        return 2.0 * math.sqrt(1.0 + s * s) / (1.0 + s) ** 3 * (1.0 + s * s)

    val, _ = integrate.quad(integrand, 0.0, theta_hi, epsabs=1e-14, epsrel=1e-12)
    return val


def brute_coprime(t_lo, t_hi, radius):
    """All coprime directions in the window, sorted by slope."""
    out = []
    for x1 in range(0, int(radius) + 1):
        for x2 in range(0, int(radius) - x1 + 1):
            if (x1, x2) == (0, 0) or math.gcd(x1, x2) != 1:
                continue
            tau = x2 / x1 if x1 else math.inf
            if t_lo <= tau <= t_hi:
                out.append((tau, x1, x2))
    out.sort(key=lambda r: (r[0], r[1]))
    return [(x1, x2) for _, x1, x2 in out]


def edge_rows(support: dict) -> np.ndarray:
    """A {direction: multiplicity} map as the package's path format: an
    int64 (k, 3) array of (x1, x2, nu) rows sorted by exact slope."""
    rows = sorted(((x1, x2, nu) for (x1, x2), nu in support.items()),
                  key=lambda r: Fraction(r[1], r[0]) if r[0] else math.inf)
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def edge_length_profile(edges, t, side="right"):
    """Length profile of a path given as (x1, x2, nu) rows: a plain sum
    over the edges with slope <= t, or < t for side="left"."""
    total = 0.0
    for x1, x2, nu in edges.tolist():
        slope = x2 / x1 if x1 else math.inf
        counted = slope <= t if side == "right" else slope < t
        if counted:
            total += math.hypot(x1, x2) * nu
    return total


def brute_mobius(m: int) -> int:
    """mu(m) by trial-division factorization."""
    if m == 1:
        return 1
    count = 0
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        else:
            p += 1
    if m > 1:
        count += 1
    return (-1) ** count


def geometric_pmf(z: float, k: int) -> float:
    return (1.0 - z) * z ** k


def rational_rho(c_gamma: float, n1: int, n2: int) -> float:
    return c_gamma * n1 / n2


def exact_aspect(n1: int, n2: int) -> Fraction:
    return Fraction(n2, n1)


_POINT_CHUNK = 1024


def _dense_directed_hausdorff(points: np.ndarray, poly: np.ndarray) -> float:
    """max over points of the distance to the polyline poly."""
    if poly.shape[0] == 1:
        d = np.hypot(points[:, 0] - poly[0, 0], points[:, 1] - poly[0, 1])
        return float(d.max())
    a = poly[:-1]
    v = poly[1:] - a
    vv = np.maximum(np.einsum("ij,ij->i", v, v), 1e-300)
    best = np.full(points.shape[0], math.inf)
    for start in range(0, points.shape[0], _POINT_CHUNK):
        p = points[start:start + _POINT_CHUNK]
        w = p[:, None, :] - a[None, :, :]
        t = np.clip(np.einsum("pij,ij->pi", w, v) / vv, 0.0, 1.0)
        d2 = np.einsum("pij,pij->pi", w - t[:, :, None] * v[None, :, :],
                       w - t[:, :, None] * v[None, :, :])
        best[start:start + _POINT_CHUNK] = np.sqrt(d2.min(axis=1))
    return float(best.max())


def dense_hausdorff(a, b) -> float:
    """Symmetric vertex-to-segment Hausdorff distance by a dense scan of
    every (vertex, segment) pair, in chunks of 1024 vertices; the
    reference for the windowed kernel in metrics.hausdorff."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return max(_dense_directed_hausdorff(a, b), _dense_directed_hausdorff(b, a))
