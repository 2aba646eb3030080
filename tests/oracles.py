"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own computational
paths: quadratures use different integrands/substitutions, counts use
gcd sieves, probabilities use direct enumeration.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import integrate
from scipy.interpolate import make_interp_spline

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


def z_pair(alpha: float, rho: float, delta1: float, delta2: float) -> tuple:
    """Per-direction pair (z1, z2) from the tilt pair at t = rho*x2/x1,
    with the aspect correction rho on the second component, so that
    z1**x1 * z2**x2 = z^x = exp(-alpha * e(x))."""
    return math.exp(-alpha * delta1), math.exp(-alpha * rho * delta2)


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


def bspline_tabulated(samples):
    """A tabulated arc as the quintic not-a-knot interpolating B-spline
    through its (u, g) samples, evaluated by scipy's B-spline routine:
    the reference for curve.make_tabulated, which evaluates the same
    interpolant in piecewise-polynomial form.  A ConvexCurve with g, g1,
    g2 from the B-spline and its derivatives, built without the
    package's validation."""
    from limitshape.curve import ConvexCurve

    pts = np.asarray(samples, dtype=float)
    spline = make_interp_spline(pts[:, 0], pts[:, 1], k=5)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)
    return ConvexCurve(g=lambda x: spline(np.asarray(x, float)),
                       g1=lambda x: d1(np.asarray(x, float)),
                       g2=lambda x: d2(np.asarray(x, float)),
                       c_gamma=float(pts[-1, 1]), t0=float(d1(0.0)), t1=float(d1(1.0)),
                       K0=0.0, name="tabulated")


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


def coprime_sum(f, radius: int) -> float:
    """Direct summation of f(x) over coprime x with x1 + x2 <= radius,
    the reference for lattice.mobius_inverted_sum."""
    from limitshape.lattice import direction_arrays

    x1, x2 = direction_arrays(0.0, math.inf, radius)
    if x1.size == 0:
        return 0.0
    return float(np.sum(f(x1.astype(float), x2.astype(float))))


def profile_knots(line):
    """Step-profile knots (tau, before, after) of one line's length
    profile, its edges already in increasing slope order: the reference
    for sampler.profile_rows, which must give these knots bit for bit."""
    from limitshape.measure import step_knots

    x1, x2, nu = line.edges.T
    slopes = np.where(x1 > 0, x2 / np.maximum(x1, 1), np.inf)
    return step_knots(slopes, np.sqrt(x1 * x1 + x2 * x2) * nu)


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


def searchsorted_endpoints(field, count: int, rng, chunk: int):
    """The draw of sampler.sample_endpoints on the same random numbers in
    the same order, by a route of its own: chunks of chunk replicates,
    each a dense head and then a tail skip.  The head is every direction
    whose z is at least the 32nd largest, found by a stable sort; its
    multiplicities are floor(log U / log z), one direction at a time,
    from one (head, chunk) uniform array, U = 1 - random.  The tail
    skips along its own cumulative hazard, the head's hazards zeroed,
    with a plain binary search for each skip's direction.

    field is the measure's direction field (x1, x2, zpow, neg_log_z);
    returns (xi, (head, tail)) in sample_endpoints' support format:
    the head's float64 (head, count) multiplicities and the tail's rows
    as three int64 arrays (rep, dir_index, nu), its skip rounds joined
    in chunk and round order.
    """
    z = field.zpow
    top = np.sort(z, kind="stable")[::-1]
    head = np.flatnonzero(z >= top[31]) if z.size > 32 else np.arange(z.size)
    hazard = -np.log1p(-z)
    hazard[head] = 0.0
    cum = np.cumsum(hazard)
    xi = np.zeros((count, 2), dtype=np.int64)
    head_nu = np.zeros((head.size, count))
    rounds = ([], [], [])
    for first in range(0, count, chunk):
        size = min(chunk, count - first)
        u = 1.0 - rng.random((head.size, size))
        for k, (j, u_j) in enumerate(zip(head.tolist(), u)):
            nu = np.floor(np.log(u_j) / -field.neg_log_z[j])
            head_nu[k, first:first + size] = nu
            xi[first:first + size, 0] += field.x1[j] * nu.astype(np.int64)
            xi[first:first + size, 1] += field.x2[j] * nu.astype(np.int64)
        alive = np.arange(size) if cum.size and cum[-1] > 0.0 else np.empty(0, np.int64)
        pos = np.zeros(size)
        while alive.size:
            pos_alive = pos[alive] + rng.standard_exponential(alive.size)
            j = np.searchsorted(cum, pos_alive, side="right")
            live = j < cum.size
            alive = alive[live]
            if not alive.size:
                break
            j = j[live]
            u = 1.0 - rng.random(alive.size)
            nu = 1 + np.floor(np.log(u) / -field.neg_log_z[j]).astype(np.int64)
            xi[first + alive, 0] += field.x1[j] * nu
            xi[first + alive, 1] += field.x2[j] * nu
            for out, new in zip(rounds, (first + alive, j, nu)):
                out.append(new)
            pos[alive] = cum[j]
    empty = np.empty(0, np.int64)
    return xi, (head_nu, tuple(np.concatenate([empty, *part]) for part in rounds))


def concatenated_support(head_index, support):
    """A support (head, tail) of sampler.sample_endpoints as the (rep,
    dir_index, nu) int64 arrays of all its rows: the head's nonzero
    entries (head row k is direction head_index[k]) and the tail's rows
    joined, sorted by replicate and then dir_index."""
    head, (tail_rep, tail_idx, tail_nu) = support
    pos, rep = np.nonzero(head)
    rows = (np.concatenate([rep, tail_rep]),
            np.concatenate([head_index[pos], tail_idx]),
            np.concatenate([head[pos, rep].astype(np.int64), tail_nu]))
    order = np.lexsort((rows[1], rows[0]))
    return tuple(part[order] for part in rows)


def concatenated_configurations_of(params, support, reps):
    """Edge arrays of replicates reps, in that order, by the concatenated
    route: join the support's rows (concatenated_support); the reference
    for sampler.configurations_of."""
    from limitshape.measure import _field

    f = _field(params)
    return rows_configurations(f, concatenated_support(f.dense_head, support), reps)


def rows_configurations(field, rows, reps):
    """Edge arrays of replicates reps, in that order, from the (rep,
    dir_index, nu) arrays of a batch's rows, in any order: select the
    rows of reps with isin, lexsort them by replicate and then
    dir_index, gather them and cut one searchsorted slice per
    replicate."""
    rows_rep, idx, nu = rows
    reps = np.asarray(reps, dtype=np.int64)
    rows = np.flatnonzero(np.isin(rows_rep, reps))
    rows = rows[np.lexsort((idx[rows], rows_rep[rows]))]
    keys = rows_rep[rows]
    lo = np.searchsorted(keys, reps, side="left")
    hi = np.searchsorted(keys, reps, side="right")
    edges = np.column_stack([field.x1[idx[rows]], field.x2[idx[rows]], nu[rows]]
                            ).astype(np.int64)
    return [edges[a:b] for a, b in zip(lo, hi)]


def concatenated_conditioned_configurations(params, n, count: int, batch: int,
                                            max_attempts: int, rng):
    """The conditioned loop of the completing pair alone, which is
    sampler.conditioned_configurations when no table of the completing
    set fits its budget, on the concatenated route: each batch's support
    joined into three arrays, the pair's multiplicities added from them,
    the test U < z_a^s * z_b^t, and the accepted draws' rows (the pair's
    dropped, (a, s) and (b, t) appended) rebuilt by
    rows_configurations; the same random numbers in the same
    order, the same attempts and the same Exhausted, closest miss
    included."""
    from limitshape import sampler
    from limitshape.errors import Exhausted
    from limitshape.measure import _field, covariance_matrix

    f = _field(params)
    ia, ib = f.completing_pair
    a1, a2, b1, b2 = (int(v) for v in (f.x1[ia], f.x2[ia], f.x1[ib], f.x2[ib]))
    det = a1 * b2 - a2 * b1
    target = np.asarray(n, dtype=np.int64)
    k_inv = np.linalg.inv(covariance_matrix(params))
    out, accepted_at, attempts = [], [], 0
    best_d2, best_xi = math.inf, (0, 0)
    while attempts < max_attempts:
        size = min(batch, max_attempts - attempts)
        xi, support = sampler.sample_endpoints(params, size, rng, collect_support=True)
        rep, idx, nu = concatenated_support(f.dense_head, support)
        u = rng.random(size)
        on_a, on_b = idx == ia, idx == ib
        r1, r2 = target[0] - xi[:, 0], target[1] - xi[:, 1]
        s, s_rem = np.divmod(r1 * b2 - r2 * b1, det)
        t, t_rem = np.divmod(a1 * r2 - a2 * r1, det)
        s[rep[on_a]] += nu[on_a]
        t[rep[on_b]] += nu[on_b]
        ok = (s_rem == 0) & (t_rem == 0) & (s >= 0) & (t >= 0)
        ok[ok] = u[ok] < np.exp(s[ok] * -f.neg_log_z[ia] + t[ok] * -f.neg_log_z[ib])
        hits = np.flatnonzero(ok)[:count - len(out)]
        if hits.size:
            keep = np.isin(rep, hits) & ~on_a & ~on_b
            with_a, with_b = hits[s[hits] > 0], hits[t[hits] > 0]
            rows = (np.concatenate([rep[keep], with_a, with_b]),
                    np.concatenate([idx[keep], np.full(with_a.size, ia),
                                    np.full(with_b.size, ib)]),
                    np.concatenate([nu[keep], s[with_a], t[with_b]]))
            out.extend(rows_configurations(f, rows, hits))
            accepted_at.append(attempts + hits)
        if len(out) == count:
            return out, np.diff(np.concatenate(accepted_at), prepend=-1)
        attempts += size
        diff = (xi - target).astype(float)
        d2 = np.einsum("ij,jk,ik->i", diff, k_inv, diff)
        i_best = int(np.argmin(d2))
        if d2[i_best] < best_d2:
            best_d2, best_xi = float(d2[i_best]), (int(xi[i_best, 0]), int(xi[i_best, 1]))
    raise Exhausted(attempts, len(out), count, best_xi, math.sqrt(best_d2))


def rejection_configurations(params, n, count: int, batch: int, rng):
    """Plain rejection, the reference route of the conditioned draws:
    free endpoint batches of sampler.sample_endpoints, keeping the draws
    that end at n, until count are kept.  Returns (edge arrays,
    attempts) like sampler.conditioned_configurations, with each path's
    attempts counting the draws after the previous kept one, up to and
    including its own; it has no budget, so call it only where
    1/P(xi = n) is known to be small.
    """
    from limitshape import sampler

    out, kept_at, attempts = [], [], 0
    while True:
        xi, support = sampler.sample_endpoints(params, batch, rng, collect_support=True)
        hits = np.flatnonzero((xi[:, 0] == n[0]) & (xi[:, 1] == n[1]))[:count - len(out)]
        if hits.size:
            out.extend(sampler.configurations_of(params, support, hits))
            kept_at.append(attempts + hits)
        if len(out) == count:
            return out, np.diff(np.concatenate(kept_at), prepend=-1)
        attempts += batch


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


def dense_directed_hausdorff(points: np.ndarray, poly: np.ndarray) -> float:
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
    return max(dense_directed_hausdorff(a, b), dense_directed_hausdorff(b, a))


def box_pmf(directions, zs, n):
    """The pmf on the box [0, n1] x [0, n2] of the sum of nu_x * x over
    the given directions, the nu_x independent geometric with parameter
    z_x: a direct convolution that adds, for each direction and each k
    with k*x in the box, the box shifted by k*x with weight
    (1 - z) * z^k.  Mass that leaves the box never returns, so the
    values inside it are exact."""
    p = np.zeros((n[0] + 1, n[1] + 1))
    p[0, 0] = 1.0
    for (x1, x2), z in zip(directions, zs):
        new = (1.0 - z) * p
        k = 1
        while k * x1 <= n[0] and k * x2 <= n[1]:
            new[k * x1:, k * x2:] += (1.0 - z) * z ** k * p[:n[0] + 1 - k * x1, :n[1] + 1 - k * x2]
            k += 1
        p = new
    return p


def endpoint_pmf_on_box(params, n):
    """p(m) = P(xi = m) of the free endpoint under the truncated measure,
    for m in the box [0, n]: box_pmf over the field's directions inside
    the box, times prod(1 - z) over the rest, each of which must have
    nu = 0 for xi to stay in the box."""
    from limitshape.measure import _field

    f = _field(params)
    inside = (f.x1 <= n[0]) & (f.x2 <= n[1])
    return (box_pmf(zip(f.x1[inside].tolist(), f.x2[inside].tolist()), f.zpow[inside], n)
            * float(np.prod(1.0 - f.zpow[~inside])))


def enumerated_box_pmf(directions, zs, n):
    """box_pmf by enumeration: every vector of multiplicities whose sum
    stays in the box, with its product of geometric probabilities."""
    p = np.zeros((n[0] + 1, n[1] + 1))

    def walk(j, r1, r2, prob):
        if j == len(directions):
            p[r1, r2] += prob
            return
        (x1, x2), z = directions[j], zs[j]
        k = 0
        while r1 + k * x1 <= n[0] and r2 + k * x2 <= n[1]:
            walk(j + 1, r1 + k * x1, r2 + k * x2, prob * (1.0 - z) * z ** k)
            k += 1

    walk(0, 0, 0, 1.0)
    return p
