import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from limitshape import config as cfgmod
from limitshape import curve as cv
from limitshape import measure as ms
from limitshape import oracle as oc
from limitshape import sampler as sp
from limitshape.config import load_thresholds
from limitshape.errors import Exhausted, ParameterOutOfRange

import oracles


def _params(curve, n1, n2=None):
    return ms.MeasureParams.for_endpoint(curve, n1, n2)


def _config(support):
    return sp.Configuration(support=oracles.edge_rows(support))


def _endpoint(edges):
    return edges[:, 2] @ edges[:, :2]


def _taus(line):
    return [x2 / x1 if x1 else math.inf for x1, x2, _ in line.edges.tolist()]


def _clear_set_caches():
    ms.completing_set.cache_clear()
    sp.predicted_attempts.cache_clear()


@pytest.fixture
def pair_only(monkeypatch):
    """No completing-set table fits the budget, so the set is the
    completing pair alone: the conditioned loop of the pair, which
    oracles.concatenated_conditioned_configurations replays.  The caches
    that hold completing sets are emptied before and after, so no set
    built under another budget is used here or outlives the test."""
    _clear_set_caches()
    monkeypatch.setattr(ms, "_SET_TABLE_CELLS", 0)
    yield
    _clear_set_caches()


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


def test_assemble_block_paths_are_their_own_prefix_sums():
    """Each path of a block is its own edges' prefix sum from the origin,
    and paths whose joined rows are not in slope order (the steep end of
    one before the flat start of the next) pass the block's check."""
    a = oracles.edge_rows({(1, 0): 2, (1, 1): 1, (0, 1): 3})
    b = oracles.edge_rows({(1, 0): 1, (2, 1): 4})
    empty = oracles.edge_rows({})
    for block in ([a, b], [a, empty, b], [empty, b, a, a]):
        lines = sp.assemble_block(block)
        assert len(lines) == len(block)
        for edges, line in zip(block, lines):
            steps = np.vstack([np.zeros((1, 2), dtype=np.int64), edges[:, :2] * edges[:, 2:]])
            assert line.edges is edges
            assert line.vertices.tolist() == np.cumsum(steps, axis=0).tolist()
            assert line.endpoint.tolist() == line.vertices[-1].tolist()
    assert sp.assemble_block([]) == []


@pytest.mark.parametrize("rows, reason", [
    ([[1, 0, 1], [1, 1, 0]], "multiplicities must be >= 1"),
    ([[1, 0, -1]], "multiplicities must be >= 1"),
    ([[1, 1, 1], [1, 0, 1]], "directions must be distinct and in increasing slope"),
    ([[1, 1, 1], [2, 2, 1]], "directions must be distinct and in increasing slope"),
    ([[1, 1, 1], [1, 0, 0]], "multiplicities must be >= 1"),  # both: nu first
], ids=["nu0", "nu-neg", "order", "same-slope", "both"])
def test_assemble_block_names_the_malformed_path(rows, reason):
    good = oracles.edge_rows({(1, 0): 1, (1, 1): 2})
    block = [good, oracles.edge_rows({}), np.array(rows, dtype=np.int64), good]
    with pytest.raises(ValueError, match=f"^path 2 of the block: {reason}$"):
        sp.assemble_block(block)
    # the first malformed path is named, whatever its fault
    block[1] = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="^path 1 of the block: directions must be"):
        sp.assemble_block(block)


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
    assert line.endpoint.tolist() == end == _endpoint(config.support).tolist()
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
    """Every rebuilt edge array is a valid configuration (int64 (k, 3),
    nu >= 1, strictly increasing slope) that ends at its endpoint."""
    params = _params(parabola1, 100)
    xi, support = sp.sample_endpoints(params, 2000, np.random.default_rng(13),
                                      collect_support=True)
    # any order of replicates: the rebuild returns them in the order asked
    reps = np.random.default_rng(3).permutation(xi.shape[0])
    paths = sp.configurations_of(params, support, reps)
    assert len(paths) == reps.size
    for r, edges in zip(reps, paths):
        sp.Configuration(support=edges)  # raises ValueError on a malformed array
        assert _endpoint(edges).tolist() == xi[r].tolist()


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


def _check_support(params, support, count):
    """A support (head, tail): the head is the float64
    (dense_head.size, count) array of whole multiplicities >= 0; the
    tail is three int64 arrays (rep, dir_index, nu) of one length; no
    tail row is on a head direction; and a replicate's tail rows, in
    skip-round order, visit its directions in strictly increasing slope
    (field index)."""
    head, tail = support
    assert head.dtype == np.float64 and head.shape == (ms._field(params).dense_head.size, count)
    assert head.min(initial=0.0) >= 0.0 and np.array_equal(head, np.floor(head))
    assert len(tail) == 3
    for part in tail:
        assert part.dtype == np.int64 and part.shape == tail[0].shape == (part.size,)
    reps, idx, _ = tail
    assert not np.isin(idx, ms._field(params).dense_head).any()
    order = np.argsort(reps, kind="stable")  # each replicate's rows in round order
    reps, idx = reps[order], idx[order]
    same = reps[1:] == reps[:-1]
    assert np.all(idx[1:][same] > idx[:-1][same])


def _same_support(got, want):
    """Two supports (head, tail) hold the same arrays, dtypes included."""
    assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1]) == 3
    for a, b in zip(got[1], want[1]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_skip_moves_on_after_a_zero_step(parabola1):
    # a step of 0 leaves the consumed hazard at cum[j]; the next skip must
    # still land on a later direction, past the head's empty intervals,
    # or the rebuild would see a repeat
    params = _params(parabola1, 100)
    xi, support = sp.sample_endpoints(params, 50, _ZeroEveryOtherStep(3),
                                      collect_support=True)
    _check_support(params, support, 50)
    for r, edges in enumerate(sp.configurations_of(params, support, range(50))):
        assert _endpoint(edges).tolist() == xi[r].tolist()


def _same_paths(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_support_rounds_are_ascending(parabola1):
    """The support is the head's (head, 3000) array and the flat tail,
    whose skip rounds, joined in order, visit each replicate's tail
    directions in slope order."""
    params = _params(parabola1, 100)
    _, support = sp.sample_endpoints(params, 3000, np.random.default_rng(11),
                                     collect_support=True)
    # more tail rows than replicates: some replicate took two skip rounds
    assert support[1][0].size > 3000 and support[0].any()
    _check_support(params, support, 3000)


@pytest.mark.parametrize("n1", [20, 100])
def test_configurations_of_matches_concatenated_route(parabola1, n1):
    """The rebuild from the head's columns and the flat tail gives the
    concatenated route's edge arrays on random replicate orders, subsets
    and repeats, on a stream with zero steps, and with the tail's rows
    shuffled."""
    params = _params(parabola1, n1)
    pick = np.random.default_rng(n1)
    for rng in (np.random.default_rng(5), _ZeroEveryOtherStep(5)):
        _, support = sp.sample_endpoints(params, 1000, rng, collect_support=True)
        for reps in (pick.permutation(1000), pick.choice(1000, 37), np.arange(0),
                     np.array([999, 0, 999, 500])):
            _same_paths(sp.configurations_of(params, support, reps),
                        oracles.concatenated_configurations_of(params, support, reps))
        head, tail = support
        shuffle = pick.permutation(tail[0].size)
        shuffled = (head, tuple(part[shuffle] for part in tail))
        reps = pick.permutation(1000)
        _same_paths(sp.configurations_of(params, shuffled, reps),
                    oracles.concatenated_configurations_of(params, support, reps))
    # an all-zero head with an empty tail holds empty paths only
    zeros = np.zeros((ms._field(params).dense_head.size, 1000))
    support = (zeros, (np.empty(0, np.int64),) * 3)
    got = sp.configurations_of(params, support, [3, 1])
    _same_paths(got, oracles.concatenated_configurations_of(params, support, [3, 1]))
    assert [e.shape for e in got] == [(0, 3), (0, 3)]


@pytest.mark.parametrize("n1", [100, 200])
@pytest.mark.parametrize("batch, count", [(1, 2), (7, 2), (3000, 40), (8192, 40)])
def test_conditioned_configurations_match_concatenated_route(parabola1, n1, batch, count,
                                                             pair_only):
    """The conditioned loop hands out the same paths and attempts as the
    concatenated reference loop on the same stream."""
    params = _params(parabola1, n1)
    n = (params.n1, params.n2)
    assert ms.completing_set(params, n).tables == []
    got = sp.conditioned_configurations(params, n, count, batch, 10 ** 6,
                                        np.random.default_rng(batch + n1))
    want = oracles.concatenated_conditioned_configurations(params, n, count, batch, 10 ** 6,
                                                           np.random.default_rng(batch + n1))
    _same_paths(got[0], want[0])
    assert got[1].dtype == want[1].dtype and got[1].tolist() == want[1].tolist()


def test_conditioned_exhausted_matches_concatenated_route(parabola1, pair_only):
    params = _params(parabola1, 200)
    assert ms.completing_set(params, (200, 200)).tables == []
    errors = []
    for draw in (sp.conditioned_configurations, oracles.concatenated_conditioned_configurations):
        with pytest.raises(Exhausted) as err:
            draw(params, (200, 200), 10_000, 3000, 10_000, np.random.default_rng(53))
        errors.append(err.value)
    got, want = errors
    assert 0 < got.accepted < got.count
    assert ((got.attempts, got.accepted, got.count, got.closest_endpoint, got.closest_distance)
            == (want.attempts, want.accepted, want.count, want.closest_endpoint,
                want.closest_distance))


def test_conditioned_zero_count_draws_nothing(parabola1):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    paths, attempts = sp.conditioned_configurations(_params(parabola1, 50), (50, 50), 0,
                                                    200, 5000, rng)
    assert paths == [] and attempts.dtype == np.int64 and attempts.shape == (0,)
    assert rng.bit_generator.state == state


def test_conditioned_negative_count_rejected(parabola1):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="count must be non-negative, got -1"):
        sp.conditioned_configurations(_params(parabola1, 50), (50, 50), -1, 200, 5000, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("batch", [0, -1])
def test_conditioned_batch_below_one_rejected(parabola1, batch):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"batch must be positive, got {batch}"):
        sp.conditioned_configurations(_params(parabola1, 50), (50, 50), 3, batch, 5000, rng)
    assert rng.bit_generator.state == state


def test_sample_endpoints_negative_count_rejected(parabola1):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="count must be non-negative, got -1"):
        sp.sample_endpoints(_params(parabola1, 50), -1, rng, collect_support=True)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [1, 2])  # one batch, then two
def test_conditioned_block_memory(parabola1, seed):
    """One 32-path block at n1 = 200 in batches of 8192 peaks under 8 MB
    of Python allocations: the head stays a float64 array, the tail's
    skip rounds are joined once into three flat arrays, each column's
    rounds freed as it is joined, the accepted draws' tail rows are
    picked out by one isin mask, and a batch's support is released
    before the next batch is drawn (joining the head's rows in too
    peaks near 11 MB in one batch and 17 MB in two).  The call peaks at
    6.76 MB on both seeds, against 6.50 MB when the tail was kept as one
    array per skip round and searched round by round, and 7.79 MB when
    the rounds were joined without freeing them and the owner map was
    gathered over every tail row.  The set has its 14 tables, so this
    is the table route's memory."""
    params = _params(parabola1, 200)
    n = (200, 200)
    assert len(ms.completing_set(params, n).tables) == 14
    sp.conditioned_configurations(params, n, 1, 1, 10 ** 6, np.random.default_rng(0))
    tracemalloc.start()
    try:
        sp.conditioned_configurations(params, n, 32, 8192, 10 ** 6,
                                      np.random.default_rng(seed))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# --- guide-table skip lookup -----------------------------------------------------

# per-direction hazards: exact zeros (an underflowed -log1p(-z)), tiny
# values that tie in the cumulative sum, and ordinary ones
_HAZARDS = st.one_of(st.sampled_from([0.0, 1e-300, 1e-17]),
                     st.floats(1e-6, 10.0))


@settings(deadline=None, max_examples=200)
@given(st.lists(_HAZARDS, min_size=1, max_size=40),
       st.lists(st.floats(0.0, 1.5), max_size=20))
@example([3.0], [0.0, 0.5, 1.0])  # a single direction
@example([0.0, 0.0, 2.0, 0.0, 0.0], [])  # zero-width intervals on both sides
@example([1e-300, 1e-300, 1e-300], [0.5])  # every interval tiny
# cum values on bucket edges where pos / h rounds up into the next bucket
@example([1.0, 1.0, 0.0], [])
@example([0.1, 0.1, 0.2], [])
def test_skip_index_is_searchsorted_right(hazards, fractions):
    """The guide-table lookup returns searchsorted(cum, pos, "right") on
    every nondecreasing cum, at bucket edges, on each cum[j] and its
    neighbours, and at and beyond cum[-1]."""
    cum = np.cumsum(hazards)
    assume(cum[-1] > 0.0)
    guide = ms._guide_table(cum)
    assert guide.size == 4 * cum.size
    h = cum[-1] / guide.size
    edges = np.arange(guide.size) * h
    marks = np.concatenate([edges, cum, [0.0, 2.0 * cum[-1], cum[-1] + 50.0]])
    pos = np.concatenate([marks, np.nextafter(marks, np.inf),
                          np.nextafter(marks, 0.0), np.asarray(fractions) * cum[-1]])
    # as many queries as two chunks of sample_endpoints make at most
    pos = np.tile(pos, 1 + 2 * sp._LOOKUP_BLOCK // pos.size)
    assert np.array_equal(sp._skip_index(cum, guide, pos),
                          np.searchsorted(cum, pos, side="right"))


@settings(deadline=None, max_examples=200)
@given(st.lists(_HAZARDS, min_size=1, max_size=40))
@example([3.0])  # a single direction
@example([0.0, 0.0, 2.0, 0.0, 0.0])  # zero-width intervals on both sides
@example([1e-300, 1e-300, 1e-300])  # every interval tiny
# cum values exactly on bucket edges, which count in the edge's own bucket
@example([1.0, 1.0, 0.0])
@example([0.1, 0.1, 0.2])
# ceil(cum / h) one bucket too high, then one too low
@example([2.1, 0.3])
@example([0.9, 0.3])
def test_guide_table_is_searchsorted_right(hazards):
    """The linear-time guide table equals the binary search of cum at
    every float bucket edge b * h, dtype included."""
    cum = np.cumsum(hazards)
    assume(cum[-1] > 0.0)
    m = 4 * cum.size
    want = np.searchsorted(cum, np.arange(m) * (cum[-1] / m), side="right")
    got = ms._guide_table(cum)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n1", [20, 200])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_endpoints_matches_searchsorted_route(parabola1, n1, seed):
    """Every endpoint, the head's array and the tail's three arrays are
    identical to the binary-search reference route on the same random
    numbers."""
    params = _params(parabola1, n1)
    f = ms._field(params)
    want = oracles.searchsorted_endpoints(f, 3000, np.random.default_rng(seed),
                                          sp._LOOKUP_BLOCK)
    got = sp.sample_endpoints(params, 3000, np.random.default_rng(seed), collect_support=True)
    assert np.array_equal(got[0], want[0])
    _same_support(got[1], want[1])
    assert np.array_equal(sp.sample_endpoints(params, 3000, np.random.default_rng(seed)),
                          want[0])


def test_hazard_guide_is_built_on_first_use(parabola1):
    f = ms._DirectionField(_params(parabola1, 50))
    assert not {"hazard_guide", "cum_hazard", "dense_head"} & set(vars(f))
    assert np.array_equal(f.hazard_guide, ms._guide_table(f.cum_hazard))


# --- dense head and chunks ---------------------------------------------------------

@pytest.mark.parametrize("curve_name, boundary_ties, head_size", [
    ("tabulated_mixed", 1, 32), ("parabola1", 3, 33), ("power2", 8, 36)])
def test_head_and_tail_multiplicities_match_mean_nu(curve_name, boundary_ties, head_size,
                                                    request):
    """The dense head is every direction whose z is at least the 32nd
    largest: 32 directions when that z is unique (the tabulated curve),
    more when it is tied (parabola(1): 3 directions share it and the
    head holds 33, power(2): 8 and 36).  Over 20 000 draws at n1 = 100
    each direction's summed multiplicity lies within
    5 sqrt(n Var nu) + 3 of n E[nu] and its activity count within
    5 sqrt(n z (1 - z)) + 3 of n z, checked over the head and over the
    skipped tail separately.  Pooled over each
    part's rows, sum(nu - 1) lies within 5 standard deviations + 3 of
    its mean given the rows: nu - 1 given nu >= 1 is geometric with
    parameter z, mean z / (1 - z) and variance z / (1 - z)^2."""
    params = _params(request.getfixturevalue(curve_name), 100)
    f = ms._field(params)
    head = np.zeros(f.x1.size, dtype=bool)
    head[f.dense_head] = True
    cut = np.sort(f.zpow)[::-1][31]
    assert np.count_nonzero(f.zpow == cut) == boundary_ties
    assert np.array_equal(head, f.zpow >= cut)
    assert f.dense_head.size == head_size and np.all(np.diff(f.dense_head) > 0)
    n_draws = 20_000
    _, support = sp.sample_endpoints(params, n_draws, np.random.default_rng(37),
                                     collect_support=True)
    _, idx, nu = oracles.concatenated_support(f.dense_head, support)
    active = np.bincount(idx, minlength=f.x1.size)
    nu_sum = np.bincount(idx, weights=nu, minlength=f.x1.size)
    p = f.zpow
    active_ok = np.abs(active - p * n_draws) < 5 * np.sqrt(p * (1 - p) * n_draws) + 3
    nu_ok = np.abs(nu_sum - f.mean_nu * n_draws) < 5 * np.sqrt(f.var_nu * n_draws) + 3
    for part, name in ((head, "head"), (~head, "tail")):
        assert np.all(active_ok[part]), name
        assert np.all(nu_ok[part]), name
        rows = part[idx]
        z = p[idx[rows]]
        excess = float(np.sum(nu[rows] - 1))
        sd = math.sqrt(np.sum(z / (1 - z) ** 2))
        assert abs(excess - np.sum(z / (1 - z))) < 5 * sd + 3, name
    # the tail's skips never land on a head direction, whose interval is empty
    assert np.all(np.diff(f.cum_hazard)[f.dense_head[f.dense_head > 0] - 1] == 0.0)


@pytest.mark.parametrize("count_of", [
    lambda b: 1, lambda b: 64, lambda b: b, lambda b: b + 1, lambda b: 2 * b + 3],
    ids=["1", "64", "chunk", "chunk+1", "2chunk+3"])
def test_chunk_boundaries(parabola1, count_of):
    """Across chunk boundaries every replicate's configurations_of rows
    sum to its endpoint, every nu is >= 1, no replicate holds a
    direction twice, and the batch is the reference route's
    (oracles.searchsorted_endpoints) on the same random numbers."""
    params = _params(parabola1, 100)
    f = ms._field(params)
    count = count_of(sp._LOOKUP_BLOCK)
    xi, support = sp.sample_endpoints(params, count, np.random.default_rng(count),
                                      collect_support=True)
    reps, idx, nu = oracles.concatenated_support(f.dense_head, support)
    assert xi.shape == (count, 2) and nu.min() >= 1
    assert np.unique(reps * f.x1.size + idx).size == reps.size
    edges = sp.configurations_of(params, support, np.arange(count))
    joined = np.concatenate(edges)
    owner = np.repeat(np.arange(count), [len(e) for e in edges])
    assert joined.shape[0] == reps.size and joined[:, 2].min() >= 1
    for col in range(2):
        ends = np.zeros(count, dtype=np.int64)
        np.add.at(ends, owner, joined[:, col] * joined[:, 2])
        assert np.array_equal(ends, xi[:, col])
    want = oracles.searchsorted_endpoints(f, count, np.random.default_rng(count),
                                          sp._LOOKUP_BLOCK)
    assert np.array_equal(xi, want[0])
    _same_support(support, want[1])


class _NoSkips:
    """Generator stand-in for a draw that must take no skip step."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        return self._rng.random(size)

    def standard_exponential(self, size):
        raise AssertionError("a skip step was drawn")


def test_small_field_is_all_head(parabola1):
    """A field of at most 32 directions (n1 = 20 under a coarse tail
    tolerance: 29 directions) is all head, with an empty tail: its
    cumulative hazard is all zero, so the skip ends at once, with no
    exponential drawn, no guide table built and no division by zero;
    the empty field draws empty paths the same way."""
    params = ms.MeasureParams(n1=20, n2=20, curve=parabola1, truncation_radius=18,
                              tail_tolerance=20.0)
    f = ms._field(params)
    assert f.x1.size == 29 and f.dense_head.tolist() == list(range(29))
    assert not f.cum_hazard.any()
    with np.errstate(all="raise"):
        xi, support = sp.sample_endpoints(params, 2 * sp._LOOKUP_BLOCK + 3, _NoSkips(1),
                                          collect_support=True)
    assert "hazard_guide" not in vars(f)
    # three chunks' heads joined, an empty tail
    assert support[0].shape == (29, 2 * sp._LOOKUP_BLOCK + 3)
    assert all(part.dtype == np.int64 and part.shape == (0,) for part in support[1])
    reps, idx, nu = oracles.concatenated_support(f.dense_head, support)
    assert nu.min() >= 1 and np.unique(reps * 29 + idx).size == reps.size
    lines = sp.assemble_block(sp.configurations_of(params, support, np.arange(100)))
    assert [line.endpoint.tolist() for line in lines] == xi[:100].tolist()
    u = np.linspace(0, 1, 16)
    narrow = cv.make_tabulated(np.column_stack([u, 0.4 * u + 0.05 * u ** 2]), k0=0.01)
    empty = ms.MeasureParams(n1=30, n2=13, curve=narrow, truncation_radius=4,
                             tail_tolerance=1e9)
    with np.errstate(all="raise"):
        xi, support = sp.sample_endpoints(empty, 50, _NoSkips(2), collect_support=True)
    assert ms._field(empty).x1.size == 0 and not xi.any()
    assert [e.shape for e in sp.configurations_of(empty, support, [0, 49])] == [(0, 3)] * 2


class _ZeroUniforms:
    """Generator stand-in whose every uniform is exactly 0.0."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        return np.zeros(size)

    def standard_exponential(self, size):
        return self._rng.standard_exponential(size)


def test_zero_uniforms_give_valid_paths(parabola1):
    """random() may return exactly 0.0.  The draw takes U = 1 - random in
    (0, 1], so such a uniform gives a head direction nu = 0 and a tail
    direction nu = 1, never log(0): every nu is >= 1, and free and
    conditioned paths assemble."""
    params = _params(parabola1, 100)
    xi, support = sp.sample_endpoints(params, 200, _ZeroUniforms(7), collect_support=True)
    _, idx, nu = oracles.concatenated_support(ms._field(params).dense_head, support)
    assert nu.size and nu.min() >= 1
    assert not np.isin(idx, ms._field(params).dense_head).any()
    lines = sp.assemble_block(sp.configurations_of(params, support, np.arange(200)))
    assert [line.endpoint.tolist() for line in lines] == xi.tolist()
    n = (100, 100)
    paths, _ = sp.conditioned_configurations(params, n, 3, 64, 10 ** 5, _ZeroUniforms(7))
    assert [line.endpoint.tolist() for line in sp.assemble_block(paths)] == [list(n)] * 3


# --- sampling invariants ----------------------------------------------------------

def test_empty_slope_window_gives_trivial_line():
    # window [t0, t1] = [0.4, 0.5]; radius 4 holds no slope in it
    u = np.linspace(0, 1, 16)
    narrow = cv.make_tabulated(np.column_stack([u, 0.4 * u + 0.05 * u ** 2]), k0=0.01)
    params = ms.MeasureParams(n1=30, n2=13, curve=narrow,
                              truncation_radius=4, tail_tolerance=1e9)
    line = sp.assemble(sp.sample_configuration(params, np.random.default_rng(0)))
    assert line.endpoint.tolist() == [0, 0]


def test_conditioning_needs_two_directions():
    # the empty window above: no pair can complete a draw
    u = np.linspace(0, 1, 16)
    narrow = cv.make_tabulated(np.column_stack([u, 0.4 * u + 0.05 * u ** 2]), k0=0.01)
    params = ms.MeasureParams(n1=30, n2=13, curve=narrow,
                              truncation_radius=4, tail_tolerance=1e9)
    with pytest.raises(ParameterOutOfRange, match="two field directions"):
        sp.condition_on_endpoint(params, (30, 13), 100, np.random.default_rng(0))


def test_convexity_and_endpoint_identity(parabola1):
    params = _params(parabola1, 60)
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        config = sp.sample_configuration(params, rng)
        line = sp.assemble(config)
        taus = _taus(line)
        assert all(b > a for a, b in zip(taus, taus[1:]))
        assert np.array_equal(line.endpoint, _endpoint(config.support))


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
    sampler draw from the same law: per-direction activity frequencies,
    per-direction mean multiplicities and endpoint moments agree within
    Monte Carlo bands."""
    params = _params(parabola1, 40)
    f = ms._field(params)
    n_draws = 20_000
    rng = np.random.default_rng(17)
    active_direct = np.zeros(f.x1.size)
    nu_direct = np.zeros(f.x1.size)
    xi_direct = np.zeros((n_draws, 2))
    for i in range(n_draws):
        config = sp.sample_configuration(params, rng)
        xi_direct[i] = _endpoint(config.support)
        for x1, x2, nu in config.support:
            j = int(np.nonzero((f.x1 == x1) & (f.x2 == x2))[0][0])
            active_direct[j] += 1
            nu_direct[j] += nu
    xi_skip, support = sp.sample_endpoints(
        params, n_draws, np.random.default_rng(29), collect_support=True)
    _, idx, nu = oracles.concatenated_support(f.dense_head, support)
    active_skip = np.bincount(idx, minlength=f.x1.size).astype(float)
    nu_skip = np.bincount(idx, weights=nu, minlength=f.x1.size)

    p = f.zpow
    se = np.sqrt(np.maximum(p * (1 - p), 1e-12) * n_draws)
    assert np.all(np.abs(active_direct - p * n_draws) < 5 * se + 3)
    assert np.all(np.abs(active_skip - p * n_draws) < 5 * se + 3)
    # the sum of n_draws multiplicities per direction: mean n E[nu], sd
    # sqrt(n Var[nu]), with the same slack as the activity counts
    se_nu = np.sqrt(f.var_nu * n_draws)
    assert np.all(np.abs(nu_direct - f.mean_nu * n_draws) < 5 * se_nu + 3)
    assert np.all(np.abs(nu_skip - f.mean_nu * n_draws) < 5 * se_nu + 3)
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
    """A draw is accepted with probability P(xi = n) / M_S, M_S the
    largest value of the completing set's law on the box; the Gaussian
    density stands in for P(xi = n)."""
    params = _params(parabola1, 60)
    cs = ms.completing_set(params, (60, 60))
    predicted = ms.endpoint_density(params, (60, 60)) / (cs.mass * cs.peak)
    assert 1.0 / sp.predicted_attempts(params, (60, 60)) == pytest.approx(predicted,
                                                                          rel=1e-12)
    rng = np.random.default_rng(101)
    attempts = [sp.condition_on_endpoint(params, (60, 60), 10 ** 7, rng).attempts
                for _ in range(60)]
    rate = 1.0 / float(np.mean(attempts))
    assert rate / predicted < 3.0
    assert predicted / rate < 3.0


def test_completing_pair(parabola1, power2):
    """The likeliest unimodular pair: the two axes on parabola(1), and
    (1, 0) with (1, 1) or (2, 1) on power(2), whose window excludes (0, 1)."""
    f = ms._field(_params(parabola1, 100))
    pair = [(int(f.x1[i]), int(f.x2[i])) for i in f.completing_pair]
    assert pair == [(1, 0), (0, 1)]
    f = ms._field(_params(power2, 100))
    pair = [(int(f.x1[i]), int(f.x2[i])) for i in f.completing_pair]
    assert pair[0] == (1, 0) and pair[1] in ((1, 1), (2, 1))


def test_completing_set_lies_in_the_dense_head(parabola1, power2, tabulated_mixed):
    """The conditioned loop reads S's free multiplicities from the head's
    array, so every direction of the completing set is a dense_head
    direction: S is at most the _PAIR_POOL = 16 likeliest and the head
    every direction at least as likely as the 32nd, ties included.
    Checked on parabola(1) (three directions tie at the head's boundary),
    power(2) (eight tie) and the tabulated curve at n1 = 100 and 1000, on
    a field of 29 directions, which is all head, and on the oracle's
    micro-lattice instances of parabola(1)."""
    assert ms._PAIR_POOL <= ms._DENSE_HEAD
    cases = [_params(c, n1) for c in (parabola1, power2, tabulated_mixed) for n1 in (100, 1000)]
    cases.append(ms.MeasureParams(n1=20, n2=20, curve=parabola1, truncation_radius=18,
                                  tail_tolerance=20.0))
    cases += [_params(parabola1, *n) for n, _, _ in oc.INSTANCES]
    sizes = []
    for params in cases:
        f = ms._field(params)
        cs = ms.completing_set(params, (params.n1, params.n2))
        assert np.isin(cs.index, f.dense_head).all(), (params.n1, params.n2)
        sizes.append((f.x1.size <= ms._DENSE_HEAD, cs.index.size))
    assert (False, 16) in sizes and (True, 16) in sizes


def _set_directions(cs):
    return list(zip(cs.x1.tolist(), cs.x2.tolist()))


@pytest.mark.parametrize("curve_name", ["parabola1", "power2"])
def test_completing_set_tables_match_enumeration(curve_name, request):
    """On a small box the completing set's law at level 2 is the pair's
    closed form (1 - z_a)(1 - z_b) z_a^s z_b^t at r = s*a + t*b, and at
    each level j >= 3 its table is the enumeration of every multiplicity
    vector of the set's first j directions."""
    params = _params(request.getfixturevalue(curve_name), 50)
    box = (7, 6)
    cs = ms.completing_set(params, box)
    assert len(cs.tables) == cs.index.size - 2 == 14
    grid = np.indices((box[0] + 1, box[1] + 1))
    (a1, a2), (b1, b2) = _set_directions(cs)[:2]
    za, zb = cs.z[:2].tolist()
    closed = np.zeros(grid.shape[1:])
    for s in range(box[0] + box[1] + 1):
        for t in range(box[0] + box[1] + 1):
            r1, r2 = s * a1 + t * b1, s * a2 + t * b2
            if r1 <= box[0] and r2 <= box[1]:
                closed[r1, r2] = (1.0 - za) * (1.0 - zb) * za ** s * zb ** t
    np.testing.assert_allclose(cs.mass * cs.weight(2, *grid), closed, rtol=1e-13, atol=0)
    for level in range(3, cs.index.size + 1):
        want = oracles.enumerated_box_pmf(_set_directions(cs)[:level], cs.z[:level].tolist(), box)
        np.testing.assert_allclose(cs.mass * cs.weight(level, *grid), want, rtol=1e-13, atol=0)


def test_conditioned_means_are_exact(parabola1):
    """At n1 = 50 the mean multiplicity of a direction x over 4000
    conditioned paths lies within 4 standard errors of the exact
    E[nu_x | xi = n] = sum over k >= 1 of z^k p(n - k*x) / p(n), with p
    the endpoint pmf on the box (oracles.endpoint_pmf_on_box), for every
    direction of the completing set and the three likeliest in-box
    directions outside it."""
    params = _params(parabola1, 50)
    n = (50, 50)
    f = ms._field(params)
    cs = ms.completing_set(params, n)
    p = oracles.endpoint_pmf_on_box(params, n)
    outside = [i for i in np.argsort(-f.zpow, kind="stable") if i not in cs.index][:3]
    paths, _ = sp.conditioned_configurations(params, n, 4000, 8192, 10 ** 6,
                                             np.random.default_rng(61))
    rows = np.concatenate(paths)
    owner = np.repeat(np.arange(len(paths)), [len(e) for e in paths])
    for i in cs.index.tolist() + outside:
        x1, x2, z = int(f.x1[i]), int(f.x2[i]), float(f.zpow[i])
        assert x1 <= n[0] and x2 <= n[1]
        exact, k = 0.0, 1
        while k * x1 <= n[0] and k * x2 <= n[1]:
            exact += z ** k * p[n[0] - k * x1, n[1] - k * x2] / p[n]
            k += 1
        on = (rows[:, 0] == x1) & (rows[:, 1] == x2)
        nu = np.bincount(owner[on], weights=rows[on, 2], minlength=len(paths))
        se = nu.std(ddof=1) / math.sqrt(nu.size)
        assert abs(nu.mean() - exact) < 4.0 * se, (x1, x2, nu.mean(), exact, se)


@pytest.mark.parametrize("n1", [50, 100])
def test_mean_attempts_are_exact(parabola1, n1):
    """A draw is accepted with probability p(n) / M, so the draws per path
    are geometric with mean M / p(n): M is the largest value on the box
    of the completing set's law (oracles.box_pmf over its directions),
    p(n) the exact endpoint pmf (oracles.endpoint_pmf_on_box).  The mean
    over 3000 paths lies within 4 standard errors of it."""
    params = _params(parabola1, n1)
    n = (n1, n1)
    cs = ms.completing_set(params, n)
    big_m = oracles.box_pmf(_set_directions(cs), cs.z.tolist(), n).max()
    assert cs.mass * cs.peak == pytest.approx(big_m, rel=1e-12)
    want = big_m / oracles.endpoint_pmf_on_box(params, n)[n]
    _, attempts = sp.conditioned_configurations(params, n, 3000, 8192, 10 ** 6,
                                                np.random.default_rng(67))
    se = attempts.std(ddof=1) / math.sqrt(attempts.size)
    assert abs(attempts.mean() - want) < 4.0 * se


def test_completing_set_budget_edges(parabola1):
    """The box of n1 = 1000 (1001^2 cells) leaves room for one table and
    that of n1 = 1100 for none; there the set is the pair, and the loop
    hands out the paths and attempts of the pair's loop
    (oracles.concatenated_conditioned_configurations) on one stream."""
    cs = ms.completing_set(_params(parabola1, 1000), (1000, 1000))
    assert len(cs.tables) == 1 and cs.index.size == 3
    params = _params(parabola1, 1100)
    n = (1100, 1100)
    assert ms.completing_set(params, n).tables == []
    got = sp.conditioned_configurations(params, n, 2, 2048, 10 ** 5, np.random.default_rng(3))
    want = oracles.concatenated_conditioned_configurations(params, n, 2, 2048, 10 ** 5,
                                                           np.random.default_rng(3))
    _same_paths(got[0], want[0])
    assert got[1].tolist() == want[1].tolist()


def test_steep_curve_beyond_the_budget_draws():
    """parabola(12) at n1 = 300 ends at (300, 3600), a box of 1.08e6
    cells that holds no table: the pair alone still draws exact paths."""
    params = _params(cv.make_preset("parabola", c=12.0), 300)
    n = (params.n1, params.n2)
    assert n == (300, 3600) and ms.completing_set(params, n).tables == []
    paths, attempts = sp.conditioned_configurations(params, n, 2, 2048, 10 ** 5,
                                                    np.random.default_rng(5))
    for edges in paths:
        sp.Configuration(support=edges)
        assert _endpoint(edges).tolist() == list(n)
    assert attempts.min() >= 1


def test_conditioned_draws_match_rejection(parabola1):
    """Two-sample check at n1 = 100: 400 paths by the completing pair
    against 400 by plain rejection (about 2.2e6 free draws), compared in
    mean edge count and mean total length."""
    params = _params(parabola1, 100)
    n = (100, 100)
    pdc, _ = sp.conditioned_configurations(params, n, 400, 8192, 10 ** 6,
                                           np.random.default_rng(41))
    ref, _ = oracles.rejection_configurations(params, n, 400, 50_000,
                                              np.random.default_rng(43))
    for edges in pdc:
        sp.Configuration(support=edges)
        assert _endpoint(edges).tolist() == list(n)

    def stats(paths):
        return (np.array([len(e) for e in paths], dtype=float),
                np.array([sp.total_length(sp.assemble(sp.Configuration(support=e)))
                          for e in paths]))

    for a, b in zip(stats(pdc), stats(ref)):
        z = (a.mean() - b.mean()) / math.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(z) <= 4.0


def test_conditioned_draws_exact_off_the_parabola(power2, monkeypatch):
    """On power(2) the c09 oracle check holds with c09's instances, draws
    and sigma band, and every edge array the loop hands out is a valid
    Configuration: the oracle keys lines by sorted rows, so it would not
    see pair rows out of slope order."""
    draw = sp.conditioned_configurations
    checked = []

    def validated(*args):
        paths, attempts = draw(*args)
        for edges in paths:
            sp.Configuration(support=edges)
        checked.append(len(paths))
        return paths, attempts

    monkeypatch.setattr(sp, "conditioned_configurations", validated)
    cfg = cfgmod.ExperimentConfig(mode="oracle", curve_spec={"preset": {"name": "power",
                                                                       "p": 2.0}})
    check = oc.check_sampler(power2, cfg.oracle_draws, cfg.max_attempts, cfg.seed)
    assert checked == [cfg.oracle_draws] * len(oc.INSTANCES)
    assert not check.missing
    assert check.worst_z <= load_thresholds()["oracle_sigma_band"]


def test_attempts_are_per_path(parabola1):
    """attempts[j] counts the draws after path j - 1 was accepted, up to
    and including path j: with one draw per batch the stream does not
    depend on the budget, so the loop finds its first j paths within
    sum(attempts[:j]) draws and not within one draw fewer."""
    params = _params(parabola1, 20)
    n = (20, 20)
    paths, attempts = sp.conditioned_configurations(params, n, 4, 1, 10 ** 5,
                                                    np.random.default_rng(7))
    assert attempts.dtype == np.int64 and attempts.shape == (4,)
    assert attempts.min() >= 1
    for j in range(1, 5):
        spent = int(attempts[:j].sum())
        got, got_attempts = sp.conditioned_configurations(params, n, j, 1, spent,
                                                          np.random.default_rng(7))
        assert all(np.array_equal(a, b) for a, b in zip(got, paths[:j]))
        assert got_attempts.tolist() == attempts[:j].tolist()
        with pytest.raises(Exhausted) as err:
            sp.conditioned_configurations(params, n, j, 1, spent - 1,
                                          np.random.default_rng(7))
        assert err.value.accepted == j - 1


def test_condition_reaches_n1_1000(parabola1):
    # about 360 draws per path are predicted (the pair and one table);
    # plain rejection would need about 1.2e5 and exhaust this budget
    # about 85% of the time
    params = _params(parabola1, 1000)
    res = sp.condition_on_endpoint(params, (1000, 1000), 20_000, np.random.default_rng(0))
    assert res.line.endpoint.tolist() == [1000, 1000]
    assert res.attempts <= 20_000


def test_exhausted_carries_diagnostics(parabola1):
    # 4 draws, well below the 15 a path takes at n1 = 200, accept none on this seed
    params = _params(parabola1, 200)
    with pytest.raises(Exhausted) as err:
        sp.condition_on_endpoint(params, (200, 200), 4, np.random.default_rng(0))
    assert err.value.attempts == 4
    assert (err.value.accepted, err.value.count) == (0, 1)
    assert str(err.value) == "accepted 0 of 1 within 4 attempts"
    assert err.value.closest_distance > 0.0
    assert err.value.closest_endpoint != (200, 200)
    # a larger target accepts some draws before the budget runs out
    params = _params(parabola1, 20)
    with pytest.raises(Exhausted) as err:
        sp.conditioned_configurations(params, (20, 20), 10_000, 4096, 20_000,
                                      np.random.default_rng(0))
    accepted = err.value.accepted
    assert 0 < accepted < 10_000
    assert (err.value.closest_endpoint, err.value.closest_distance) == ((20, 20), 0.0)
    assert str(err.value) == f"accepted {accepted} of 10000 within 20000 attempts"


def test_exhausted_closest_miss_is_the_minimum(parabola1, pair_only, monkeypatch):
    """closest_endpoint and closest_distance are the argmin and the
    minimum of the Mahalanobis distance over the free endpoint of every
    draw of every batch, recomputed from the endpoints the loop was
    handed.  So that the minimum does not hang on one stream, each free
    endpoint is moved to at least target + (2, 2) in both coordinates,
    and one draw of the second batch and one of the fourth are put at
    target + (1, 1) and target - (1, 1): the same smallest distance in
    two batches, of which the first must be reported."""
    params = _params(parabola1, 200)
    target, batch, budget = (200, 200), 3000, 10_000  # four batches, the last short
    assert ms.completing_set(params, target).tables == []
    draw = sp.sample_endpoints
    seen = []

    def moved(params, count, rng, collect_support=False):
        xi, support = draw(params, count, rng, collect_support)
        xi = np.maximum(xi, target) + 2
        if len(seen) in (1, 3):
            xi[17] = (201, 201) if len(seen) == 1 else (199, 199)
        seen.append(xi)
        return xi, support

    monkeypatch.setattr(sp, "sample_endpoints", moved)
    # a target count the budget cannot reach: the loop accepts some draws
    # and still scans every batch for the closest miss
    with pytest.raises(Exhausted) as err:
        sp.conditioned_configurations(params, target, budget, batch, budget,
                                      np.random.default_rng(53))
    assert 0 < err.value.accepted < budget
    assert [len(x) for x in seen] == [batch, batch, batch, budget - 3 * batch]
    xi = np.concatenate(seen)
    diff = (xi - target).astype(float)
    d2 = np.einsum("ij,jk,ik->i", diff, np.linalg.inv(ms.covariance_matrix(params)), diff)
    best = int(np.argmin(d2))
    ties = np.flatnonzero(d2 == d2[best])
    assert ties.tolist() == [batch + 17, 3 * batch + 17]
    assert err.value.closest_endpoint == tuple(xi[best].tolist()) == (201, 201)
    assert err.value.closest_distance == math.sqrt(d2[best])


# --- profiles and scaling -----------------------------------------------------------

def _profile(line, t, side="right"):
    taus, _, after = oracles.profile_knots(line)
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
    scaled = line.vertices / 70
    total = sp.total_length(line)
    scaled_total = np.sum(np.hypot(*np.diff(scaled, axis=0).T))
    assert scaled_total == pytest.approx(total / 70, rel=1e-12)
