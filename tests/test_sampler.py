import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitshape import curve as cv
from limitshape import measure as ms
from limitshape import sampler as sp
from limitshape.errors import Exhausted

import oracles


def _params(curve, n1, n2=None):
    return ms.MeasureParams.for_endpoint(curve, n1, n2)


def _config(support):
    return sp.Configuration(support=oracles.edge_rows(support))


def _taus(line):
    return [x2 / x1 if x1 else math.inf for x1, x2, _ in line.edges.tolist()]


# --- geometric inverse transform -----------------------------------------------

def test_geometric_mean_at_half():
    rng = np.random.default_rng(0)
    u = rng.random(100_000)
    nu = np.floor(np.log(u) / math.log(0.5))
    assert float(nu.mean()) == pytest.approx(1.0, abs=0.02)


def test_geometric_pmf_at_half():
    rng = np.random.default_rng(1)
    u = rng.random(100_000)
    nu = np.floor(np.log(u) / math.log(0.5))
    for k in (0, 1, 2):
        freq = float(np.mean(nu == k))
        assert freq == pytest.approx(oracles.geometric_pmf(0.5, k), abs=0.01)


# --- assembly -------------------------------------------------------------------

def test_assemble_example():
    config = _config({(1, 0): 2, (1, 1): 1, (0, 1): 3})
    line = sp.assemble(config)
    assert line.vertices.tolist() == [[0, 0], [2, 0], [3, 1], [3, 4]]
    assert line.endpoint.tolist() == [3, 4]


def test_assemble_empty():
    line = sp.assemble(_config({}))
    assert line.vertices.tolist() == [[0, 0]]
    assert line.endpoint.tolist() == [0, 0]


@settings(deadline=None, max_examples=40)
@given(st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
        lambda x: x != (0, 0) and math.gcd(*x) == 1),
    st.integers(1, 5), min_size=0, max_size=8))
def test_line_edges_are_the_support(support):
    """A line's edges are its configuration's rows, and its vertices
    are their prefix sums in slope order."""
    config = _config(support)
    line = sp.assemble(config)
    assert line.edges is config.support
    rows = line.edges.tolist()
    assert {(x1, x2): nu for x1, x2, nu in rows} == support
    taus = _taus(line)
    assert all(b > a for a, b in zip(taus, taus[1:]))
    vertex = [0, 0]
    for i, (x1, x2, nu) in enumerate(rows):
        vertex = [vertex[0] + x1 * nu, vertex[1] + x2 * nu]
        assert line.vertices[i + 1].tolist() == vertex
    end = [sum(x[0] * nu for x, nu in support.items()),
           sum(x[1] * nu for x, nu in support.items())]
    assert line.endpoint.tolist() == end == config.endpoint().tolist()
    assert sp.total_length(line) == sum(math.hypot(x1, x2) * nu for x1, x2, nu in rows)


@pytest.mark.parametrize("rows", [
    [[0, 1, 1], [1, 0, 1]],  # slope out of order
    [[1, 2, 1], [2, 1, 1]],  # slope out of order, both x1 > 0
    [[1, 1, 1], [1, 1, 2]],  # repeated direction
    [[1, 1, 1], [2, 2, 1]],  # same slope
    [[1, 0, 0]],  # nu < 1
    [[1, 0, 1], [0, 1, -2]],  # nu < 1
    np.zeros((2, 2), dtype=np.int64),  # wrong shape
    np.zeros(3, dtype=np.int64),  # wrong shape
    np.array([[1.0, 0.0, 1.0]]),  # not integer
], ids=["order", "order-interior", "repeat", "same-slope", "nu0", "nu-neg", "k2",
        "flat", "float"])
def test_configuration_rejects_malformed_support(rows):
    with pytest.raises(ValueError):
        sp.Configuration(support=np.asarray(rows))


def test_support_of_rebuilds_every_endpoint(parabola1):
    params = _params(parabola1, 100)
    xi, support = sp.sample_endpoints(params, 2000, np.random.default_rng(13),
                                      collect_support=True)
    for r in range(xi.shape[0]):
        config = sp.support_of(params, support, r)
        assert config.endpoint().tolist() == xi[r].tolist()


class _ZeroEveryOtherStep:
    """Generator stand-in whose every second exponential step is 0.0."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._calls = 0

    def standard_exponential(self, size):
        self._calls += 1
        steps = self._rng.standard_exponential(size)
        return steps * 0.0 if self._calls % 2 == 0 else steps

    def random(self, size):
        return self._rng.random(size)


def test_skip_moves_on_after_a_zero_step(parabola1):
    # a step of 0 leaves the consumed hazard at cum[j]; the next skip must
    # still land on a later direction, or support_of would see a repeat
    params = _params(parabola1, 100)
    xi, (reps, idx, nu) = sp.sample_endpoints(params, 50, _ZeroEveryOtherStep(3),
                                              collect_support=True)
    for r in range(50):
        assert np.all(np.diff(idx[reps == r]) > 0)
        config = sp.support_of(params, (reps, idx, nu), r)
        assert config.endpoint().tolist() == xi[r].tolist()


# --- sampling invariants ----------------------------------------------------------

def test_empty_slope_window_gives_trivial_line():
    # window [t0, t1] = [0.4, 0.5]; radius 4 holds no slope in it
    u = np.linspace(0, 1, 16)
    narrow = cv.make_tabulated(np.column_stack([u, 0.4 * u + 0.05 * u ** 2]), k0=0.01)
    params = ms.MeasureParams(n1=30, n2=13, curve=narrow,
                              truncation_radius=4, tail_tolerance=1e9)
    line = sp.assemble(sp.sample_configuration(params, np.random.default_rng(0)))
    assert line.endpoint.tolist() == [0, 0]


def test_convexity_and_endpoint_identity(parabola1):
    params = _params(parabola1, 60)
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        config = sp.sample_configuration(params, rng)
        line = sp.assemble(config)
        taus = _taus(line)
        assert all(b > a for a, b in zip(taus, taus[1:]))
        assert np.array_equal(line.endpoint, config.endpoint())


def test_empirical_mean_endpoint_matches_exact(parabola1):
    params = _params(parabola1, 150)
    xi = sp.sample_endpoints(params, 10_000, np.random.default_rng(11))
    a = ms.expected_endpoint(params)
    K = ms.covariance_matrix(params)
    for j in range(2):
        se = math.sqrt(K[j, j] / xi.shape[0])
        assert abs(float(xi[:, j].mean()) - a[j]) < 3.0 * se


def test_skip_route_matches_direct_route(parabola1):
    """The Poisson-embedding sampler and the one-uniform-per-direction
    sampler draw from the same law: per-direction activity frequencies
    and endpoint moments agree within Monte Carlo bands."""
    params = _params(parabola1, 40)
    f = ms._field(params)
    n_draws = 20_000
    rng = np.random.default_rng(17)
    active_direct = np.zeros(f.x1.size)
    xi_direct = np.zeros((n_draws, 2))
    for i in range(n_draws):
        config = sp.sample_configuration(params, rng)
        xi_direct[i] = config.endpoint()
        for x1, x2, _ in config.support:
            j = int(np.nonzero((f.x1 == x1) & (f.x2 == x2))[0][0])
            active_direct[j] += 1
    xi_skip, (reps, idx, nus) = sp.sample_endpoints(
        params, n_draws, np.random.default_rng(29), collect_support=True)
    active_skip = np.bincount(idx, minlength=f.x1.size).astype(float)

    p = f.zpow
    se = np.sqrt(np.maximum(p * (1 - p), 1e-12) * n_draws)
    assert np.all(np.abs(active_direct - p * n_draws) < 5 * se + 3)
    assert np.all(np.abs(active_skip - p * n_draws) < 5 * se + 3)
    for j in range(2):
        pooled_se = math.sqrt(2 * ms.covariance_matrix(params)[j, j] / n_draws)
        assert abs(xi_direct[:, j].mean() - xi_skip[:, j].mean()) < 4 * pooled_se


def test_variance_of_length_scales(parabola1):
    params = _params(parabola1, 500)
    rng = np.random.default_rng(23)
    totals = []
    for _ in range(400):
        line = sp.assemble(sp.sample_configuration(params, rng))
        totals.append(sp.total_length(line))
    ratio = float(np.var(totals)) / 500 ** (4.0 / 3.0)
    assert ratio < 5.0


def test_determinism_same_seed_same_line(parabola1):
    params = _params(parabola1, 90)
    seed = np.random.SeedSequence(42, spawn_key=(1, 90, 7))
    a = sp.assemble(sp.sample_configuration(params, np.random.default_rng(seed)))
    seed2 = np.random.SeedSequence(42, spawn_key=(1, 90, 7))
    b = sp.assemble(sp.sample_configuration(params, np.random.default_rng(seed2)))
    assert np.array_equal(a.vertices, b.vertices)


# --- conditioning ------------------------------------------------------------------

def test_conditioned_endpoint_exact(parabola1):
    params = _params(parabola1, 50)
    for seed in range(5):
        res = sp.condition_on_endpoint(params, (50, 50), 10 ** 6,
                                       np.random.default_rng(seed))
        assert res.line.endpoint.tolist() == [50, 50]
        assert res.attempts >= 1


def test_acceptance_rate_tracks_density(parabola1):
    params = _params(parabola1, 60)
    rep = ms.moment_report(params)
    rng = np.random.default_rng(101)
    attempts = [sp.condition_on_endpoint(params, (60, 60), 10 ** 7, rng).attempts
                for _ in range(60)]
    rate = 1.0 / float(np.mean(attempts))
    assert rate / rep.density_at_n < 3.0
    assert rep.density_at_n / rate < 3.0


def test_exhausted_carries_diagnostics(parabola1):
    params = _params(parabola1, 200)
    with pytest.raises(Exhausted) as err:
        sp.condition_on_endpoint(params, (200, 200), 16, np.random.default_rng(0))
    diag = err.value.diagnostics
    assert err.value.attempts == 16
    assert diag.best_distance >= 0.0
    assert diag.best_endpoint != (200, 200)


# --- profiles and scaling -----------------------------------------------------------

def _profile(line, t, side="right"):
    taus, _, after = sp.profile_knots(line)
    return ms.step_at(taus, after, t, side)


def test_length_profile_example():
    line = sp.assemble(_config({(1, 0): 2, (0, 1): 3}))
    assert _profile(line, [0.0, math.inf]).tolist() == [2.0, 5.0]
    assert _profile(line, [0.0, math.inf], "left").tolist() == [0.0, 2.0]


def test_length_profile_empty():
    line = sp.assemble(_config({}))
    assert _profile(line, [0.0, 1.0, math.inf]).tolist() == [0.0, 0.0, 0.0]
    assert _profile(line, [0.0, 1.0, math.inf], "left").tolist() == [0.0, 0.0, 0.0]


def test_length_profile_matches_edge_sum_oracle(parabola1):
    params = _params(parabola1, 40)
    rng = np.random.default_rng(7)
    lines = [sp.assemble(_config({})),
             sp.assemble(_config({(1, 0): 3, (2, 1): 1, (0, 1): 2}))]
    lines += [sp.assemble(sp.sample_configuration(params, rng)) for _ in range(20)]
    for line in lines:
        taus = _taus(line)
        grid = sorted(set(taus) | {0.0, 0.5, 1.0, 7.0, math.inf})
        for side in ("right", "left"):
            got = _profile(line, grid, side)
            want = [oracles.edge_length_profile(line.edges, t, side) for t in grid]
            assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_length_profile_monotone_on_samples(parabola1):
    params = _params(parabola1, 80)
    rng = np.random.default_rng(31)
    grid = np.concatenate([[0.0], cv.slope_grid(parabola1, 16), [math.inf]])
    for _ in range(1000):
        line = sp.assemble(sp.sample_configuration(params, rng))
        vals = _profile(line, grid)
        assert np.all(np.diff(vals) >= 0)


def test_scale_endpoint(parabola1):
    params = _params(parabola1, 70)
    line = sp.assemble(sp.sample_configuration(params, np.random.default_rng(1)))
    scaled = sp.scale(line, 1.0 / 70)
    assert scaled[-1][0] == pytest.approx(line.endpoint[0] / 70)
    assert np.array_equal(sp.scale(line, 1.0), line.vertices.astype(float))
    total = sp.total_length(line)
    scaled_total = np.sum(np.hypot(*np.diff(scaled, axis=0).T))
    assert scaled_total == pytest.approx(total / 70, rel=1e-12)
