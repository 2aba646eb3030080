"""The tilted product measure over coprime directions.

Each direction x gets an independent geometric multiplicity with
parameter z^x = exp(-alpha * e(x)), where the exponent field

    e(x) = base(tt) * (c*x1 + rho*x2),   tt = rho*x2/x1,
    base(t) = KAPPA * kappa(u(t))^(1/3) * w(t),   w(t) = sqrt(1+t^2)/(c+t),

encodes the tilt functions (delta1, delta2) = (c*base, base),
calibrated so that the expected length profile of the random path
reproduces the target arc.  KAPPA = (2 zeta(3)/zeta(2))^(1/3) is the
universal constant of the calibration identity
delta1(t) + t*delta2(t) = KAPPA * g2(u(t))^(1/3).  base is written once
(_tilt_base), and nu_moments is the one formula for the mean and
variance of a multiplicity.

Directions with slope outside the curve's tangent range get e = +inf
(z = 0) and are never enumerated.  The direction field is the tilt's
sublevel set {alpha*e(x) <= T} inside the L1 ball x1 + x2 <= R, so all
moment sums are finite truncations with a two-term certified tail:
certified_tail bounds the edges beyond the ball, in_ball_tail those
along the in-ball directions with z <= e^-T, and MeasureParams picks R
and T so that each term is at most half the tail tolerance.  Length
profiles of paths and of the mean path are step functions in the
slope; step_knots and step_at evaluate them, and profile_gaps is the
one place step profiles, a block of them row by row, are compared with
the arc-length profile l of the curve.
expected_length_profile_mobius is the independent route that
cross-checks the exact sums: one Moebius-inverted sum over the full
lattice.  completing_set tabulates the exact law, on the box
[0, n], of the part of the endpoint carried by the likeliest
directions, which endpoint conditioning draws from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import integrate
from scipy.special import zeta as _zeta

from . import curve as _curve
from . import lattice as _lattice
from .curve import ConvexCurve, curvature_profile, slope_inverse
from .errors import (
    ParameterOutOfRange,
    QuadratureFailure,
    SingularCovariance,
    SlopeOutOfRange,
    TailBoundViolated,
)

# Universal calibration constant, computed from high-precision zeta values
# at import and cross-checked against the pinned oracle evaluation.
KAPPA = float((2.0 * _zeta(3.0) / _zeta(2.0)) ** (1.0 / 3.0))
_KAPPA_PINNED = 1.1348422840496904
assert abs(KAPPA - _KAPPA_PINNED) < 1e-12, "zeta-based kappa drifted from pinned value"

_TAIL_BUDGET = 1e-9
_MAX_RADIUS = 200_000
_FLOOR_MARGIN = 0.99  # slope-table cell floor = 0.99 x the smaller tilt at its two ends
_SECTORS = 32  # enumeration sectors of the direction field, whole slope-table cells each
_PAIR_POOL = 16  # likeliest directions: the completing pair's pool and the completing set
_FIELD_CACHE = 4  # fields kept per process: a study's sizes, which forked workers inherit
_SET_TABLE_CELLS = 1 << 20  # float64 cells of a completing set's tables, 8 MB
_DENSE_HEAD = 32  # likeliest directions the batched draw takes densely (dense_head)


def _tilt_base(curve: ConvexCurve, t: np.ndarray) -> np.ndarray:
    """KAPPA * kappa(u(t))^(1/3) * w(t) with w(t) = sqrt(1+t^2)/(c+t) and
    w(inf) = 1; +inf outside [t0, t1].

    The curvature-in-u form keeps vertical tangents (t1 = inf) stable.
    """
    inside = (t >= curve.t0) & (t <= curve.t1)
    if not np.any(inside):
        return np.full(t.shape, math.inf)
    ti = t[inside]
    base = _base_at(curve, slope_inverse(curve, ti), ti)
    # made after the root solve, whose temporaries set the field build's peak
    out = np.full(t.shape, math.inf)
    out[inside] = base
    return out


def _base_at(curve: ConvexCurve, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The tilt formula at slopes t = g1(u) whose abscissae u are known."""
    k3 = curvature_profile(curve, u) ** (1.0 / 3.0)
    finite = ~np.isinf(t)
    w = np.ones_like(t)
    w[finite] = np.hypot(1.0, t[finite]) / (curve.c_gamma + t[finite])
    return KAPPA * k3 * w


def delta(curve: ConvexCurve, t):
    """Tilt pair (delta1, delta2) = (c * base, base) at slope t, with
    base = KAPPA * kappa(t)^(1/3) * sqrt(1+t^2)/(c+t); (+inf, +inf)
    outside [t0, t1]."""
    t_arr, scalar = _curve._as_float_array(t)
    d2 = _tilt_base(curve, t_arr)
    d1 = curve.c_gamma * d2
    if scalar:
        return float(d1), float(d2)
    return d1, d2


def calibration_residual(curve: ConvexCurve, t):
    """delta1(t) + t*delta2(t) - KAPPA*g2(u(t))^(1/3), zero for a correct tilt,
    from one solve of u(t); ParameterOutOfRange where the tilt is not finite."""
    t_arr, scalar = _curve._as_float_array(t)
    if np.any(t_arr <= curve.t0) or np.any(t_arr >= curve.t1):
        raise SlopeOutOfRange("calibration residual needs t strictly inside (t0, t1)")
    u = slope_inverse(curve, t_arr)
    d2 = _base_at(curve, u, t_arr)
    bad = int(np.count_nonzero(~np.isfinite(d2)))
    if bad:
        raise ParameterOutOfRange(
            f"the tilt (delta1, delta2) of {curve.name} is not finite at {bad} of "
            f"{t_arr.size} calibration slopes")
    rhs = KAPPA * np.asarray(curve.g2(u), dtype=float) ** (1.0 / 3.0)
    out = curve.c_gamma * d2 + t_arr * d2 - rhs
    return float(out) if scalar else out


@lru_cache(maxsize=32)
def _floor_table(curve: ConvexCurve) -> np.ndarray:
    """A tilt floor for each of the 4096 cells of the curve's slope table
    (curve._slope_table): _FLOOR_MARGIN times the smaller of the tilt
    bases at the cell's two ends (a read-only array).

    u is known at the table's slopes, so no root solve is needed.  It is
    a grid bound: over the six test-fixture curves the tilt at 7 interior
    points of every cell never fell below the smaller end value by more
    than 3.7e-6 relative, far inside the margin.
    """
    u, t = _curve._slope_table(curve)
    base = _base_at(curve, u, t)
    floors = _FLOOR_MARGIN * np.minimum(base[:-1], base[1:])
    floors.flags.writeable = False
    return floors


@lru_cache(maxsize=32)
def tilt_floor(curve: ConvexCurve) -> float:
    """Positive lower bound of min(delta1, delta2) over the slope range.

    The infimum is taken on 257 slopes uniform in tangent angle,
    endpoints included (curve._angle_grid); it feeds the truncation-tail
    certificate beyond the radius.
    """
    _, t = _curve._angle_grid(curve, 257)
    return float(min(curve.c_gamma, 1.0) * np.min(_tilt_base(curve, t)))


@dataclass(frozen=True, eq=False)
class MeasureParams:
    """Everything defining the tilted measure for one endpoint n.

    alpha_n = (rho_n * n1)^(-1/3) with rho_n = c_gamma * n1 / n2.  The
    direction field keeps the coprime x with x1 + x2 <= truncation_radius
    and alpha_n * e(x) <= neg_log_z_cap, the sublevel set of the tilt.
    tail_tolerance is the certified bound on the expected number of
    edges the truncation omits, in two halves: certified_tail covers
    the directions beyond the radius, and neg_log_z_cap = T is set so
    that N * e^-T / (1 - e^-T) <= tail_tolerance / 2, with
    N = (R+1)(R+2)/2 lattice points in the ball; that term covers the
    in-ball directions the cap drops (in_ball_tail).
    """

    n1: int
    n2: int
    curve: ConvexCurve
    truncation_radius: int
    tail_tolerance: float
    rho_n: float = field(init=False)
    alpha_n: float = field(init=False)
    neg_log_z_cap: float = field(init=False)

    def __post_init__(self):
        if self.n1 <= 0 or self.n2 <= 0:
            raise ParameterOutOfRange("endpoint components must be positive")
        if not 0.0 < self.tail_tolerance < math.inf:
            raise ParameterOutOfRange("tail tolerance must be positive and finite")
        rho = self.curve.c_gamma * self.n1 / self.n2
        object.__setattr__(self, "rho_n", rho)
        object.__setattr__(self, "alpha_n", (rho * self.n1) ** (-1.0 / 3.0))
        # N / expm1(T) = tol/2 at T = log1p(2N/tol); the relative 1e-12 keeps
        # the in-ball term below tol/2 through the rounding of both functions
        n_ball = _ball_points(self.truncation_radius)
        object.__setattr__(self, "neg_log_z_cap",
                           math.log1p(2.0 * n_ball / self.tail_tolerance) * (1.0 + 1e-12))

    @staticmethod
    def for_endpoint(curve: ConvexCurve, n1: int, n2: int | None = None) -> "MeasureParams":
        """Build params with the default aspect rule n2 = round(c_gamma*n1)
        and the smallest truncation radius meeting the tail budget."""
        if n2 is None:
            n2 = max(1, round(curve.c_gamma * n1))
        rho = curve.c_gamma * n1 / n2
        alpha = (rho * n1) ** (-1.0 / 3.0)
        radius, tail = _choose_radius(curve, rho, alpha)
        return MeasureParams(n1=n1, n2=n2, curve=curve,
                             truncation_radius=radius, tail_tolerance=tail)


def _ball_points(radius: int) -> float:
    """Lattice points x >= 0 with x1 + x2 <= radius, origin included."""
    return (radius + 1) * (radius + 2) / 2.0


def _geometric_tail(q: float, m: int) -> float:
    """Sum of (y+1) q^y over y >= m."""
    if q >= 1.0:
        return math.inf
    return q ** m * ((m + 1) / (1.0 - q) + q / (1.0 - q) ** 2)


def _tail_rate(curve: ConvexCurve, rho: float, alpha: float) -> float:
    # z^x <= exp(-alpha*dstar*(x1 + rho*x2)) <= exp(-alpha*dstar*(x1+x2)/2)
    # requires rho >= 1/2 for the crude halving to stay a bound.
    if rho < 0.5:
        raise TailBoundViolated(f"aspect ratio rho={rho!r} outside certificate range")
    dstar = tilt_floor(curve)
    return alpha * dstar / 2.0


def _beyond_radius(q: float, radius: int) -> float:
    """certified_tail at decay q = exp(-_tail_rate)."""
    if q >= 1.0:
        return math.inf
    # E[nu] = z/(1-z) <= z / (1 - q^(radius+1)) on the omitted set
    return _geometric_tail(q, radius + 1) / (1.0 - q ** (radius + 1))


def certified_tail(curve: ConvexCurve, rho: float, alpha: float, radius: int) -> float:
    """Closed-form bound on the expected number of edges beyond the radius."""
    return _beyond_radius(math.exp(-_tail_rate(curve, rho, alpha)), radius)


def in_ball_tail(params: MeasureParams) -> float:
    """Bound on the expected number of edges along the in-ball directions
    the cap drops: each has z <= e^-T, so E[nu] = z/(1-z) <= 1/expm1(T),
    and there are at most N = (R+1)(R+2)/2 of them."""
    return _ball_points(params.truncation_radius) / math.expm1(params.neg_log_z_cap)


def _choose_radius(curve: ConvexCurve, rho: float, alpha: float) -> tuple[int, float]:
    b = _tail_rate(curve, rho, alpha)
    q = math.exp(-b)  # certified_tail's decay, computed once for the bisection
    q1 = math.exp(-2.0 * b)  # un-halved decay, rough scale of the edge count
    anchor = max(1.0, _geometric_tail(q1, 1))
    target = _TAIL_BUDGET * anchor
    half = target / 2.0  # the other half is in_ball_tail's
    lo, hi = 1, 2
    while _beyond_radius(q, hi) > half:
        hi *= 2
        if hi > _MAX_RADIUS:
            raise TailBoundViolated(
                f"no radius below {_MAX_RADIUS} meets the tail budget {target!r}")
    while lo < hi:
        mid = (lo + hi) // 2
        if _beyond_radius(q, mid) <= half:
            hi = mid
        else:
            lo = mid + 1
    return hi, target


def validate_tail(params: MeasureParams) -> None:
    """Raise unless the two certified tail terms, beyond the radius and
    dropped in the ball, sum to at most tail_tolerance."""
    tail = certified_tail(params.curve, params.rho_n, params.alpha_n,
                          params.truncation_radius) + in_ball_tail(params)
    if tail > params.tail_tolerance:
        raise TailBoundViolated(
            f"certified tail {tail!r} exceeds tolerance {params.tail_tolerance!r} "
            f"at radius {params.truncation_radius}")


def direction_exponent(curve: ConvexCurve, rho: float, x1, x2):
    """Exponent field e(x) = base(tt) * (c*x1 + rho*x2), tt = rho*x2/x1,
    with z^x = exp(-alpha*e(x)); +inf outside the slope window.  Accepts
    real vectors (1-homogeneous in x)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = np.where(x1 > 0.0, rho * x2 / np.where(x1 > 0.0, x1, 1.0), math.inf)
    # the linear form first, so the float copies of x are not held through
    # the root solve in _tilt_base, whose temporaries set the field build's peak
    linear = curve.c_gamma * x1 + rho * x2
    del x1, x2
    base = _tilt_base(curve, tt)
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(base), math.inf, base * linear)


class _DirectionField:
    """Tau-sorted per-direction arrays for one parameter set: the coprime
    x in the ball with alpha * e(x) <= T (MeasureParams.neg_log_z_cap).
    candidates counts the directions the build enumerated, each of which
    gets the exact tilt."""

    def __init__(self, params: MeasureParams):
        validate_tail(params)
        c = params.curve
        rho = params.rho_n
        cap = params.neg_log_z_cap
        # enumerate only the slope window where z > 0: tau in [t0/rho, t1/rho].
        # In a cell of the slope table the tilt base is at least its floor
        # (_floor_table), so alpha*e(x) <= T needs c*x1 + rho*x2 <= T /
        # (alpha * floor) there.  The enumeration sectors are _SECTORS runs
        # of whole cells, each capped by its least cell floor; every
        # candidate then gets the exact tilt, whose level keeps the field.
        t_lo = c.t0 / rho
        t_hi = c.t1 / rho if math.isfinite(c.t1) else math.inf
        _, slopes = _curve._slope_table(c)
        floors = _floor_table(c).reshape(_SECTORS, -1)
        cells = floors.shape[1]
        x1, x2 = _lattice.direction_arrays(t_lo, t_hi, params.truncation_radius,
                                           cuts=slopes[cells:-1:cells] / rho,
                                           caps=cap / (params.alpha_n * floors.min(axis=1)),
                                           weights=(c.c_gamma, rho))
        self.candidates = x1.size
        neg_log_z = params.alpha_n * direction_exponent(c, rho, x1, x2)
        keep = neg_log_z <= cap
        x1, x2 = x1[keep], x2[keep]
        self.x1 = x1
        self.x2 = x2
        self.tau = np.where(x1 > 0, x2 / np.maximum(x1, 1), np.inf)
        self.norm = np.hypot(x1.astype(float), x2.astype(float))
        self.neg_log_z = neg_log_z[keep]
        self.zpow = np.exp(-self.neg_log_z)
        self.mean_nu, self.var_nu = nu_moments(self.zpow)

    @cached_property
    def dense_head(self) -> np.ndarray:
        """Ascending field indices of the directions the batched draw
        takes densely: every direction whose z is at least the
        _DENSE_HEAD-th largest, more than _DENSE_HEAD on a tie there and
        the whole field when it is no larger.  One partition finds that
        z, in O(directions); built on first use."""
        z = self.zpow
        if z.size <= _DENSE_HEAD:
            return np.arange(z.size)
        cut = np.partition(z, z.size - _DENSE_HEAD)[z.size - _DENSE_HEAD]
        return np.flatnonzero(z >= cut)

    @cached_property
    def cum_hazard(self) -> np.ndarray:
        """Cumulative hazard -log(1 - z^x) of the tail's activity events
        in slope order, with every dense_head direction's hazard set to
        zero: the axis of the batched skip draws, on which a head
        direction owns an empty interval; built on first use."""
        hazard = -np.log1p(-self.zpow)
        hazard[self.dense_head] = 0.0
        return np.cumsum(hazard)

    @cached_property
    def hazard_guide(self) -> np.ndarray:
        """Guide table of cum_hazard for the skip lookup; built on first
        use, so a field that never skips does not pay for it."""
        return _guide_table(self.cum_hazard)

    @cached_property
    def pair_pool(self) -> np.ndarray:
        """dense_head rows of the _PAIR_POOL likeliest directions, in
        stable order by -z: the completing pair's and set's pool."""
        return np.argsort(-self.zpow[self.dense_head], kind="stable")[:_PAIR_POOL]

    @cached_property
    def completing_pair(self) -> tuple[int, int]:
        """Field indices (i, j), i < j, of the pair that completes each
        conditioned draw; built on first use.

        Among the pool's directions (pair_pool), the pair with the
        largest 1/((1 - z_i)(1 - z_j)), taken among the pairs with
        |det| = 1 when there is one.  Distinct coprime directions in the
        quadrant are never parallel, so det != 0 always.
        """
        if self.zpow.size < 2:
            raise ParameterOutOfRange(
                f"endpoint conditioning needs two field directions, found {self.zpow.size}")
        pool = self.dense_head[np.sort(self.pair_pool)]
        i, j = (pool[k] for k in np.triu_indices(pool.size, 1))
        det = self.x1[i] * self.x2[j] - self.x2[i] * self.x1[j]
        log_mass = np.log1p(-self.zpow[i]) + np.log1p(-self.zpow[j])
        best = np.lexsort((log_mass, np.abs(det) != 1))[0]
        return int(i[best]), int(j[best])


def _guide_table(cum) -> np.ndarray:
    """Guide table (Chen & Asau 1974; Devroye 1986, III.2.4) of a
    nondecreasing cum whose total cum[-1] is a positive normal float:
    M = 4 * cum.size buckets of width h = cum[-1] / M and
    g[b] = #{cum <= b*h}, the float edges b*h as searchsorted(cum,
    arange(M) * h, "right") sees them.  The last edge (M-1)*h lies below
    cum[-1], so every g[b] is a valid index into cum.

    Built in linear time without the edges: k_i, the first bucket whose
    edge is at least cum[i], is nondecreasing in i, and g takes the
    value i on the buckets k_(i-1) <= b < k_i (k_(-1) = 0, k_n = M for n
    = cum.size, every k clipped to [0, M]), so one repeat writes it.
    k_i starts as ceil(cum[i] / h).  The quotient and every edge are
    within a relative 2^-53 of their exact values (an absolute 2^-1075,
    under a quarter bucket, for a subnormal edge), which is below one
    bucket while M < 2^50, so the start is at most one bucket off
    either way: one step down where the edge below still reaches
    cum[i], then one step up where its own edge does not, make it
    exact.
    """
    m = 4 * cum.size
    h = cum[-1] / m
    k = np.ceil(cum / h)
    k -= (k - 1.0) * h >= cum
    k += k * h < cum
    k = np.clip(k, 0, m).astype(np.int64)
    return np.repeat(np.arange(cum.size + 1), np.diff(k, prepend=0, append=m))


@lru_cache(maxsize=_FIELD_CACHE)
def _field(params: MeasureParams) -> _DirectionField:
    return _DirectionField(params)


def _knapsack(q: np.ndarray, x1: int, x2: int, z: float) -> np.ndarray:
    """(1 - z) * H with H[r] = q[r] + z * H[r - x] on q's box: the law q
    of a lattice point convolved with nu * x, nu geometric with
    parameter z, restricted to the box.  H is built in slices of x1 rows
    (of x2 columns when x1 = 0), each from the slice before it, so no
    Python loop runs per cell."""
    h = q.copy()
    rows, step, shift = (h, x1, x2) if x1 else (h.T, x2, 0)
    width = rows.shape[1]
    if shift < width:
        for i in range(step, rows.shape[0], step):
            dst = rows[i:i + step]
            dst[:, shift:] += z * rows[i - step:i - step + dst.shape[0], :width - shift]
    h *= 1.0 - z
    return h


class _CompletingSet:
    """The directions S whose multiplicities complete a conditioned draw
    to the endpoint n, with the law of xi_S = sum of nu_x * x over S on
    the box [0, n].

    S is the field's completing pair {a, b} (levels 1 and 2) and then
    index[2:], levels 3 .. m: the pool's other directions (pair_pool),
    likeliest first, as many as min(_PAIR_POOL - 2, _SET_TABLE_CELLS //
    box) with box = (n1 + 1)(n2 + 1) cells, so none on a box too large.
    head_rows are S's rows of the dense head: index = dense_head[head_rows].
    The level-j weight is the pmf of the sum over the set's first j
    directions divided by the pair's mass (1 - z_a)(1 - z_b): at level 2
    the pair's closed form z_a^s * z_b^t where r = s*a + t*b in integers
    s, t >= 0 (pair_solve), and at each level j >= 3 its table
    tables[j - 3] on the box.  The tables are one chain of _knapsack
    steps, one per direction of the set, from 1 / mass at r = 0; the
    chain's first two steps give the pair's level, which is kept only in
    closed form.  peak is the largest top-level weight, 1 (at r = 0) for
    the pair alone.
    """

    def __init__(self, params: MeasureParams, n: tuple):
        f = _field(params)
        ia, ib = f.completing_pair
        self.a1, self.a2, self.b1, self.b2 = (int(v) for v in (f.x1[ia], f.x2[ia],
                                                               f.x1[ib], f.x2[ib]))
        self.det = self.a1 * self.b2 - self.a2 * self.b1
        self.log_za, self.log_zb = -f.neg_log_z[ia], -f.neg_log_z[ib]
        self.mass = (1.0 - f.zpow[ia]) * (1.0 - f.zpow[ib])
        rows = f.pair_pool
        pair = np.isin(f.dense_head[rows], (ia, ib))
        extra = rows[~pair]
        box = (max(n[0], -1) + 1) * (max(n[1], -1) + 1)
        extra = extra[:min(extra.size, _SET_TABLE_CELLS // box) if box else 0]
        # dense_head is ascending, so the pair's rows are in (ia, ib) order
        self.head_rows = np.concatenate([np.sort(rows[pair]), extra])
        self.index = f.dense_head[self.head_rows]
        self.x1, self.x2 = f.x1[self.index], f.x2[self.index]
        self.z = f.zpow[self.index]
        self.tables = []
        if extra.size:
            weight = np.zeros((n[0] + 1, n[1] + 1))
            weight[0, 0] = 1.0 / self.mass
            for j in range(self.index.size):
                weight = _knapsack(weight, int(self.x1[j]), int(self.x2[j]), float(self.z[j]))
                if j >= 2:
                    self.tables.append(weight)
        self.peak = float(self.tables[-1].max()) if self.tables else 1.0

    def pair_solve(self, r1, r2):
        """(s, t, ok): r = s*a + t*b solved by the adjugate of (a, b),
        with ok where s and t are integers >= 0."""
        s, s_rem = np.divmod(r1 * self.b2 - r2 * self.b1, self.det)
        t, t_rem = np.divmod(self.a1 * r2 - self.a2 * r1, self.det)
        return s, t, (s_rem == 0) & (t_rem == 0) & (s >= 0) & (t >= 0)

    def weight(self, level: int, r1, r2) -> np.ndarray:
        """The level's weight at the integer points (r1, r2) <= n: the
        pair's closed form at level 2, else its table, 0 off the box."""
        out = np.zeros(np.shape(r1))
        if level == 2:
            s, t, ok = self.pair_solve(r1, r2)
            out[ok] = np.exp(s[ok] * self.log_za + t[ok] * self.log_zb)
        else:
            inside = (r1 >= 0) & (r2 >= 0)
            out[inside] = self.tables[level - 3][r1[inside], r2[inside]]
        return out


@lru_cache(maxsize=_FIELD_CACHE)
def completing_set(params: MeasureParams, n: tuple) -> _CompletingSet:
    """The completing set of endpoint n (a tuple of ints), tables built
    on first use."""
    return _CompletingSet(params, n)


def nu_moments(zp):
    """Exact mean and variance of a geometric multiplicity with parameter z."""
    z_arr, scalar = _curve._as_float_array(zp)
    if np.any(z_arr < 0.0) or np.any(z_arr >= 1.0):
        raise ParameterOutOfRange("geometric parameter must lie in [0, 1)")
    mean = z_arr / (1.0 - z_arr)
    var = z_arr / (1.0 - z_arr) ** 2
    if scalar:
        return float(mean), float(var)
    return mean, var


def step_knots(taus, jumps):
    """Knots of a step profile: the slope-sorted jump slopes with the
    profile value just before and just after each jump; row by row along
    the last axis for a block of profiles."""
    after = np.cumsum(jumps, axis=-1)
    return taus, after - jumps, after


def step_at(taus, after, t, side: str = "right"):
    """Step profile at slopes t: the sum of the jumps at slopes <= t,
    or < t with side="left" (the value just below t)."""
    idx = np.searchsorted(taus, np.asarray(t, dtype=float), side=side)
    return np.concatenate([[0.0], after])[idx]


def profile_gaps(curve: ConvexCurve, taus, before, after, knots):
    """Sup over slopes of |step profile - l| and the slope of its first
    occurrence, per row, as (gaps, argmax_t) arrays.

    Row i of the (rows, width) arrays taus, before and after holds the
    already-scaled profile values on either side of each jump at its
    sorted slopes, then a closing knot at +inf with before = after = the
    final value, knots[i] knots in all; the rest of the row is padding,
    whose gaps are set to -inf.  Between knots the profile is constant
    and l is continuous and monotone, so the sup sits on one side of a
    knot or at t = +inf, where l is the total arc length.  One
    curve.length_profile call takes every row.
    """
    ell = _curve.length_profile(curve, taus)
    gaps = np.maximum(np.abs(after - ell), np.abs(before - ell))
    gaps[np.arange(gaps.shape[1]) >= np.asarray(knots)[:, None]] = -np.inf
    at = np.argmax(gaps, axis=1)
    rows = np.arange(gaps.shape[0])
    return gaps[rows, at], taus[rows, at]


def profile_gap(curve: ConvexCurve, taus, before, after):
    """profile_gaps of one step profile, given by its knots alone, as
    (gap, argmax_t): the closing knot at +inf takes the final value, 0
    without knots."""
    end = after[-1] if len(after) else 0.0
    gaps, at = profile_gaps(curve, np.append(taus, math.inf)[None],
                            np.append(before, end)[None], np.append(after, end)[None],
                            [len(taus) + 1])
    return float(gaps[0]), float(at[0])


def mean_length_sup_gap(params: MeasureParams) -> float:
    """sup over t of |E[path length profile](t) / n1 - l(t)|."""
    f = _field(params)
    taus, before, after = step_knots(f.tau, f.norm * f.mean_nu)
    return profile_gap(params.curve, taus, before / params.n1, after / params.n1)[0]


def expected_endpoint(params: MeasureParams) -> np.ndarray:
    """Expected right endpoint: sum over directions of x * E[nu(x)]."""
    f = _field(params)
    return np.array([float(np.sum(f.x1 * f.mean_nu)),
                     float(np.sum(f.x2 * f.mean_nu))])


def covariance_matrix(params: MeasureParams) -> np.ndarray:
    """Covariance of the endpoint: sum of x_i x_j Var[nu(x)]."""
    f = _field(params)
    k11 = float(np.sum(f.x1.astype(float) ** 2 * f.var_nu))
    k12 = float(np.sum(f.x1.astype(float) * f.x2.astype(float) * f.var_nu))
    k22 = float(np.sum(f.x2.astype(float) ** 2 * f.var_nu))
    return np.array([[k11, k12], [k12, k22]])


def b_matrix(curve: ConvexCurve) -> np.ndarray:
    """Limit covariance profile: B_jk = integral of g1^(j+k-2) / g2^(1/3)."""
    entries = []
    for power in range(3):
        def integrand(u, power=power):
            with np.errstate(divide="ignore", over="ignore"):
                g1v = float(curve.g1(u))
                g2v = float(curve.g2(u))
            if not math.isfinite(g2v):
                return 0.0
            return g1v ** power / g2v ** (1.0 / 3.0)

        value, abserr = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13,
                                       epsrel=1e-10, limit=200)
        if not math.isfinite(value) or abserr > max(1e-8 * abs(value), 1e-12):
            raise QuadratureFailure(f"B integral (power {power}) did not converge")
        entries.append(value)
    b11, b12, b22 = entries
    return np.array([[b11, b12], [b12, b22]])


def endpoint_density(params: MeasureParams, m):
    """The local-CLT density of the endpoint: the bivariate normal
    density with mean expected_endpoint and covariance covariance_matrix,
    at the lattice point m (a float) or at each row of a (k, 2) array of
    points (an array).  Every point gets its own solve against K and its
    own dot product, so a row of an array has the bits of a single call.
    Raises SingularCovariance unless det K is positive and finite."""
    K = covariance_matrix(params)
    det_k = float(np.linalg.det(K))
    if not (det_k > 0.0 and math.isfinite(det_k)):
        raise SingularCovariance(
            f"endpoint covariance is not positive definite: det K = {det_k!r}")
    diff = np.asarray(m, dtype=float) - expected_endpoint(params)
    quad_form = (diff[..., None, :] @ np.linalg.solve(K, diff[..., None]))[..., 0, 0]
    density = np.exp(-0.5 * quad_form) / (2.0 * math.pi * math.sqrt(det_k))
    return float(density) if density.ndim == 0 else density


def expected_length_profile_mobius(params: MeasureParams, t) -> float:
    """Moebius-inverted evaluation of the expected length profile.

    Independent route for cross-checking the exact mean profile, the
    step profile of the field's jumps |x| * E[nu] at the slopes tau
    that mean_length_sup_gap reads: one mobius_inverted_sum of
    |v| * E[nu] * 1[tau_v <= t] * 1[alpha*e(v) <= T]
    over the full lattice in the truncation ball, with
    z_v = exp(-alpha * e(v)) taken from the exponent field at every
    lattice point v.  Both indicators are functions of the lattice
    point, so the inversion stays exact.  Cost grows with radius^2, so
    use test-sized parameter sets.
    """
    c = params.curve
    rho = params.rho_n
    t = float(t)

    def f(v1, v2):
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.where(v1 > 0.0, v2 / np.where(v1 > 0.0, v1, 1.0), math.inf)
        neg_log_z = params.alpha_n * direction_exponent(c, rho, v1, v2)
        mean, _ = nu_moments(np.exp(-neg_log_z))
        return np.where((tau <= t) & (neg_log_z <= params.neg_log_z_cap),
                        np.hypot(v1, v2) * mean, 0.0)

    return _lattice.mobius_inverted_sum(f, params.truncation_radius)
