import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitshape import curve as cv
from limitshape import measure as ms
from limitshape import metrics as mt
from limitshape import sampler as sp
from limitshape import studies as stu
from limitshape.errors import EmptyPath, InvalidPolyline, NotMonotone, ParameterOutOfRange

import oracles


def test_hausdorff_identical_polylines():
    poly = [[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]]
    assert mt.hausdorff(poly, poly) == 0.0


def test_hausdorff_single_points():
    assert mt.hausdorff([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0


def test_hausdorff_parallel_offset():
    eps = 1e-3
    assert mt.hausdorff([[0, 0], [1, 0]], [[0, eps], [1, eps]]) == pytest.approx(eps)


def test_hausdorff_empty_path():
    with pytest.raises(EmptyPath):
        mt.hausdorff([], [[0, 0]])


@pytest.mark.parametrize("bad", [
    [[0.0, 0.0], [0.5, math.inf]],
    [[0.0, 0.0], [math.nan, 1.0]],
    [[0.0, 0.0], [1e200, 1e200]],
    [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
    [0.0, 0.5, 1.0],
    [[[0.0, 0.0]], [[1.0, 1.0]]],
], ids=["inf", "nan", "huge", "k-by-3", "three-vector", "3-d"])
@pytest.mark.parametrize("which", [0, 1])
def test_hausdorff_rejects_malformed_polyline(bad, which):
    args = [[[0.0, 0.0], [1.0, 1.0]]] * 2
    args[which] = bad
    with pytest.raises(InvalidPolyline):
        mt.hausdorff(*args)


@pytest.mark.parametrize("scale", [-0.5, math.nan, math.inf, 1e308])
def test_distance_report_rejects_bad_scale(parabola1, scale):
    line = sp.assemble(sp.Configuration(support=oracles.edge_rows({(1, 0): 1, (0, 1): 1})))
    with pytest.raises(ParameterOutOfRange):
        mt.distance_report(line, scale, parabola1)


_RUN_STEP = st.one_of(st.tuples(st.integers(0, 4), st.just(0)),
                      st.tuples(st.just(0), st.integers(0, 4)),
                      st.tuples(st.integers(0, 4), st.integers(0, 4)))


@st.composite
def monotone_polylines(draw):
    """Polylines non-decreasing in x and y: lattice steps scaled by 1/n1
    (zero steps repeat a vertex; no steps give a one-point line) or float
    steps, from an origin up to three units out, with an optional
    vertical last edge."""
    n1 = draw(st.integers(1, 60))
    if draw(st.booleans()):
        steps = draw(st.lists(_RUN_STEP, max_size=40))
        origin = draw(st.tuples(st.integers(0, 3 * n1), st.integers(0, 3 * n1)))
        tail = (0, draw(st.integers(1, 4 * n1)))
    else:
        unit = st.floats(0.0, 1.0, allow_subnormal=False)
        steps = draw(st.lists(st.tuples(unit, unit), max_size=40))
        origin = draw(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)))
        tail = (0.0, draw(st.floats(0.01, 4.0)))
    if draw(st.booleans()):
        steps.append(tail)
    return np.cumsum([origin] + steps, axis=0) * (1.0 / n1)


def _joined(paths):
    """The block kernel's input: the paths' vertices joined, and their sizes."""
    return np.concatenate(paths), [len(p) for p in paths]


def _block(paths, poly):
    """Per path, the block kernel's Hausdorff distance to poly."""
    return mt._hausdorff_block(*_joined(paths), mt._shared(poly)).tolist()


def _directed(paths, poly):
    """The kernel's two halves, each from a floor of 0: per path, its
    distance to poly, then poly's distance to it."""
    lines, shared = mt._polylines(*_joined(paths)), mt._shared(poly)
    return (mt._to_shared(lines, shared).tolist(),
            mt._from_shared(lines, shared, np.zeros(len(paths))).tolist())


def _dense_directed(paths, poly):
    return ([oracles.dense_directed_hausdorff(p, poly) for p in paths],
            [oracles.dense_directed_hausdorff(poly, p) for p in paths])


@settings(max_examples=300, deadline=None)
@given(st.lists(monotone_polylines(), min_size=1, max_size=8), monotone_polylines(),
       st.sampled_from([1, 7, 64, None]), st.sampled_from([1, 2, None]),
       st.sampled_from([1, 2, None, 1 << 20]))
def test_hausdorff_equals_dense_oracle(paths, poly, chunk, first_round, vertex_block):
    # small pair chunks make the block loop, small first rounds the
    # early-break loop, and short vertex runs the run expansion run
    # several times on small inputs; a run longer than poly takes it whole
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(mt, "_PAIR_CHUNK", chunk)
        if first_round is not None:
            mp.setattr(mt, "_FIRST_ROUND", first_round)
        if vertex_block is not None:
            mp.setattr(mt, "_VERTEX_BLOCK", vertex_block)
        assert mt.hausdorff(paths[0], poly) == oracles.dense_hausdorff(paths[0], poly)
        assert _block(paths, poly) == [oracles.dense_hausdorff(p, poly) for p in paths]
        assert _directed(paths, poly) == _dense_directed(paths, poly)


def _parallel_offset(parabola1):
    # every vertex of each line lies 0.25 from the other line, up to rounding
    a = np.column_stack([np.linspace(0.0, 2.0, 101), np.linspace(0.0, 1.0, 101)])
    return a, a + [0.0, 0.25]


def _steep_segment(parabola1):
    # a long steep path edge beside the curve: the y-seed of most curve
    # vertices, and the x-seed of those left of it
    path = np.array([[0.0, 0.0], [0.05, 0.01], [0.3, 0.05], [0.32, 0.9], [1.0, 1.1]])
    return path, mt._curve_polyline(parabola1)


def _loose_seeds(parabola1):
    # the staircase's nearest corner to (0.9, 0.1) is neither at its x nor
    # at its y, so that vertex has the largest seed (0.8) but a smaller
    # distance (0.4 * sqrt(2)) than (-0.7, 0), whose seed 0.7 is exact: the
    # first round of one vertex does not hold the maximum
    stair = np.repeat(np.arange(11) / 10.0, 2)
    return np.array([[-0.7, 0.0], [0.9, 0.1]]), np.column_stack([stair[:-1], stair[1:]])


def _one_point(parabola1):
    return np.array([[0.4, 0.3]]), mt._curve_polyline(parabola1)


@pytest.mark.parametrize("case", [_parallel_offset, _steep_segment, _loose_seeds, _one_point],
                         ids=["ties", "steep-segment", "loose-seeds", "one-point"])
@pytest.mark.parametrize("first_round", [1, 2, None])
def test_hausdorff_early_break_cases(parabola1, case, first_round, monkeypatch):
    if first_round is not None:
        monkeypatch.setattr(mt, "_FIRST_ROUND", first_round)
    pair = case(parabola1)
    for a, b in (pair, pair[::-1]):
        assert mt.hausdorff(a, b) == oracles.dense_hausdorff(a, b)
        assert _directed([a], b) == _dense_directed([a], b)


def _scaled_block(params, max_attempts=None):
    """Vertices of block 0 of draw_block (8 free paths or BLOCK
    conditioned ones), scaled by 1 / n1."""
    count = 8 if max_attempts is None else stu.BLOCK
    return [line.vertices.astype(float) * (1.0 / params.n1)
            for line, _ in stu.draw_block(params, 3, 0, count, max_attempts)]


def _assert_block_bit_identical(block, curve):
    poly = mt._curve_polyline(curve)
    # shifted three units right, every window spans the whole curve
    for paths in (block, [x + [3.0, 0.0] for x in block]):
        assert (mt._hausdorff_block(*_joined(paths), mt._curve_shared(curve)).tolist()
                == [oracles.dense_hausdorff(x, poly) for x in paths])


@pytest.mark.parametrize("curve_name", ["tabulated_mixed", "parabola1"])
@pytest.mark.parametrize("n1", [1000, 10000])
def test_hausdorff_bit_identical_on_sampled_paths(request, curve_name, n1):
    curve = request.getfixturevalue(curve_name)
    _assert_block_bit_identical(_scaled_block(ms.MeasureParams.for_endpoint(curve, n1)), curve)


@pytest.mark.parametrize("n1", [100, 200])
def test_hausdorff_bit_identical_on_conditioned_paths(parabola1, n1):
    params = ms.MeasureParams.for_endpoint(parabola1, n1)
    _assert_block_bit_identical(_scaled_block(params, 10 ** 6), parabola1)


def test_hausdorff_block_mixes_huge_and_ordinary_paths(parabola1):
    # a path near 1e140 makes the owner shift so large that the other
    # paths' shifted keys collapse to one value each: their windows span
    # all of their own segments and no other path's
    block = _scaled_block(ms.MeasureParams.for_endpoint(parabola1, 100), 10 ** 6)[:6]
    paths = block[:2] + [block[2] * 1e140, block[3] + 1e140] + block[4:]
    poly = mt._curve_polyline(parabola1)
    expected = [oracles.dense_hausdorff(x, poly) for x in paths]
    assert _block(paths, poly) == expected
    assert expected[2] > 1e139 and expected[0] < 1.0
    assert _directed(paths, poly) == _dense_directed(paths, poly)


def test_hausdorff_block_windows_stay_in_their_path():
    # coordinates within +-126 give owner shifts of 256, less than the
    # 355 from the shared vertex (-126, -126) to the far path: that
    # vertex's window runs past the far path's shifted keys into the near
    # path's, before them or after them, and only the clamp to the far
    # path's own segments keeps the near one out
    near = np.array([[-126.0, -126.0], [126.0, 126.0]])
    far = np.array([[125.0, 125.0], [126.0, 126.0]])
    poly = np.array([[-126.0, -126.0], [-125.0, -125.0]])
    for paths in ([near, far], [far, near]):
        assert _block(paths, poly) == [oracles.dense_hausdorff(x, poly) for x in paths]
        assert _directed(paths, poly) == _dense_directed(paths, poly)


def test_hausdorff_symmetric_and_transpose_invariant(parabola1, tabulated_mixed):
    # swapping x and y keeps both polylines monotone, and each per-pair
    # sum of two products is commutative, so all three agree bit for bit
    for curve in (parabola1, tabulated_mixed):
        params = ms.MeasureParams.for_endpoint(curve, 500)
        rng = np.random.default_rng(21)
        lines = [sp.assemble(sp.sample_configuration(params, rng)).vertices * (1.0 / 500)
                 for _ in range(10)]
        for a, b in zip(lines, lines[1:] + [mt._curve_polyline(curve)]):
            h = mt.hausdorff(a, b)
            assert h == mt.hausdorff(b, a) == mt.hausdorff(a[:, ::-1], b[:, ::-1])


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("axis", [0, 1])
def test_hausdorff_rejects_decreasing_polyline(which, axis):
    good = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]])
    bad = good.copy()
    bad[2, axis] = bad[1, axis] - 0.1
    args = [good, good]
    args[which] = bad
    with pytest.raises(NotMonotone):
        mt.hausdorff(*args)


@pytest.mark.parametrize("name", ["parabola1", "parabola2", "power2", "circle",
                                  "tabulated_parabola", "tabulated_mixed"])
def test_discretize_output_is_monotone(request, name):
    poly = cv.discretize(request.getfixturevalue(name), mt._CURVE_POINTS)
    assert mt.hausdorff(poly, poly) == 0.0


def _line(support):
    return sp.assemble(sp.Configuration(support=oracles.edge_rows(support)))


def test_length_distance_empty_line(parabola1):
    line = _line({})
    total = oracles.arc_length_profile(parabola1, math.inf)
    assert mt.distance_report(line, 1.0, parabola1).d_length == pytest.approx(total, abs=1e-9)


def test_length_distance_zero_scale(parabola1):
    line = _line({(1, 0): 3, (1, 1): 2, (0, 1): 1})
    total = oracles.arc_length_profile(parabola1, math.inf)
    assert mt.distance_report(line, 0.0, parabola1).d_length == pytest.approx(total, abs=1e-9)


def _brute_length_sup(line, scale, curve):
    """sup of |scale * edge profile - l| over a fine angle grid, both
    sides of every knot slope and +inf, by plain edge sums."""
    knots = [x2 / x1 if x1 else math.inf for x1, x2, _ in line.edges.tolist()]
    ts = np.concatenate([cv.slope_grid(curve, 4096), knots, [math.inf]])
    best = 0.0
    for t in ts:
        ell = cv.length_profile(curve, t)
        for side in ("left", "right"):
            best = max(best, abs(scale * oracles.edge_length_profile(line.edges, t, side)
                                 - ell))
    return best


def test_grid_refinement_already_exact(parabola1, tabulated_mixed):
    params = ms.MeasureParams.for_endpoint(parabola1, 300)
    drawn = sp.assemble(sp.sample_configuration(params, np.random.default_rng(2)))
    cases = [
        (drawn, 1.0 / 300, parabola1),
        (_line({}), 1.0, parabola1),
        (_line({(0, 1): 2}), 0.25, parabola1),
        (_line({(1, 0): 3, (1, 1): 2}), 0.1, tabulated_mixed),
    ]
    for line, scale, curve in cases:
        rep = mt.distance_report(line, scale, curve)
        assert rep.d_length == pytest.approx(_brute_length_sup(line, scale, curve), abs=1e-12)
    # the last line ends at slope 1 < t1 = 2.5: the sup holds from there on
    assert rep.argmax_t == math.inf


def test_distances_co_converge(parabola1):
    rng_noise = np.random.default_rng(12)
    med = {"h": [], "l": []}
    for n1 in (300, 3000):
        params = ms.MeasureParams.for_endpoint(parabola1, n1)
        hs, ls = [], []
        for r in range(15):
            line = sp.assemble(sp.sample_configuration(
                params, np.random.default_rng((n1, r))))
            rep = mt.distance_report(line, 1.0 / n1, parabola1)
            hs.append(rep.d_hausdorff)
            ls.append(rep.d_length)
        med["h"].append(float(np.median(hs)))
        med["l"].append(float(np.median(ls)))
    assert med["h"][1] < med["h"][0]
    assert med["l"][1] < med["l"][0]
    del rng_noise


def test_argmax_reported(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 200)
    line = sp.assemble(sp.sample_configuration(params, np.random.default_rng(4)))
    rep = mt.distance_report(line, 1.0 / 200, parabola1)
    assert rep.d_length >= 0 and rep.d_hausdorff >= 0
    assert rep.argmax_t >= 0


def test_line_on_curve_small_distances(parabola1):
    # polygonal chord approximation of the curve itself
    pts = cv.discretize(parabola1, 64) * 640
    verts = np.rint(pts).astype(np.int64)
    report_scale = 1.0 / 640
    d_h = mt.hausdorff(verts * report_scale, cv.discretize(parabola1, 2048))
    assert d_h < 0.01


def test_distance_report_reuses_curve_polyline(tabulated_mixed, monkeypatch):
    params = ms.MeasureParams.for_endpoint(tabulated_mixed, 200)
    line = sp.assemble(sp.sample_configuration(params, np.random.default_rng(6)))
    mt._curve_polyline.cache_clear()
    mt._curve_shared.cache_clear()
    first = mt.distance_report(line, 1.0 / 200, tabulated_mixed)
    poly = mt._curve_polyline(tabulated_mixed)
    assert not poly.flags.writeable
    assert np.array_equal(poly, cv.discretize(tabulated_mixed, mt._CURVE_POINTS))

    def rebuilt(*args, **kwargs):
        raise AssertionError("polyline rebuilt")

    monkeypatch.setattr(cv, "discretize", rebuilt)
    assert mt.distance_report(line, 1.0 / 200, tabulated_mixed) == first


def _lines_at(params, count):
    return [line for line, _ in stu.draw_block(params, 0, 0, count)]


@pytest.mark.parametrize("curve_name", ["parabola1", "tabulated_mixed"])
def test_distance_reports_equal_per_line_reports(request, curve_name):
    curve = request.getfixturevalue(curve_name)
    lines = _lines_at(ms.MeasureParams.for_endpoint(curve, 300), 12)
    lines.insert(5, _line({}))
    assert (mt.distance_reports(lines, 1.0 / 300, curve)
            == [mt.distance_report(line, 1.0 / 300, curve) for line in lines])


def test_distance_reports_one_vertex_path_in_a_block(parabola1):
    # the empty configuration's line is one vertex: it has no segments on
    # the curve -> path side
    lines = _lines_at(ms.MeasureParams.for_endpoint(parabola1, 100), 6)
    lines[3] = _line({})
    poly = mt._curve_polyline(parabola1)
    assert ([r.d_hausdorff for r in mt.distance_reports(lines, 0.01, parabola1)]
            == [oracles.dense_hausdorff(line.vertices * 0.01, poly) for line in lines])


def test_distance_reports_empty_block(parabola1):
    assert mt.distance_reports([], 0.01, parabola1) == []


@pytest.mark.parametrize("vertices, error", [
    (np.zeros((0, 2), dtype=np.int64), EmptyPath),
    (np.zeros((3, 3), dtype=np.int64), InvalidPolyline),
    (np.array([[0, 0], [2, 1], [1, 2]]), NotMonotone),
], ids=["empty", "k-by-3", "decreasing"])
def test_distance_reports_name_the_bad_path(parabola1, vertices, error):
    lines = _lines_at(ms.MeasureParams.for_endpoint(parabola1, 100), 4)
    lines[2] = sp.PolygonalLine(vertices=vertices, edges=lines[2].edges,
                                endpoint=lines[2].endpoint)
    with pytest.raises(error, match="path 2 of the block"):
        mt.distance_reports(lines, 0.01, parabola1)


def _alone(line, scale, curve):
    """(d_L, argmax_t) of one line: measure.profile_gap on its own knots."""
    taus, before, after = oracles.profile_knots(line)
    return ms.profile_gap(curve, taus, scale * before, scale * after)


@pytest.mark.parametrize("curve_name", ["parabola1", "tabulated_mixed"])
def test_block_profile_distance_equals_profile_gap(request, curve_name):
    """Every (d_L, argmax_t) of distance_reports equals measure.profile_gap
    on the path alone, bit for bit, on random blocks (blocks of one
    among them) of free paths of mixed sizes, a one-vertex path, a path
    ending in a vertical edge (x1 = 0, slope +inf) and _tied."""
    curve = request.getfixturevalue(curve_name)
    rng = np.random.default_rng(17)
    for n1 in (100, 1000):
        pool = _lines_at(ms.MeasureParams.for_endpoint(curve, n1), 24)
        pool += [_line({}), _line({(1, 0): 2, (1, 1): 1, (0, 1): 3}), _tied()]
        for scale in (1.0 / n1, 0.1):
            for size in (1, 1, 2, 7, len(pool)):
                block = [pool[i] for i in rng.choice(len(pool), size, replace=False)]
                got = [(r.d_length, r.argmax_t)
                       for r in mt.distance_reports(block, scale, curve)]
                assert got == [_alone(line, scale, curve) for line in block]


def _tied():
    """Edges of slopes 24/7 and 40/9 and lengths 25 and 41."""
    return _line({(7, 24): 1, (9, 40): 1})


def test_profile_gap_ties_take_the_first_knot(tabulated_mixed):
    """Past the curve's last slope 2.5, l is the total length T, so at
    scale 0.1 the gap |6.6 - T| of _tied's final value is reached on the
    after side of slope 40/9 and again at +inf; the first occurrence
    wins, in a block as alone."""
    curve = tabulated_mixed
    total = cv.length_profile(curve, math.inf)
    assert cv.length_profile(curve, 24 / 7) == total
    block = _lines_at(ms.MeasureParams.for_endpoint(curve, 100), 3) + [_tied()]
    report = mt.distance_reports(block, 0.1, curve)[-1]
    assert (report.d_length, report.argmax_t) == _alone(_tied(), 0.1, curve)
    assert report.argmax_t == 40 / 9
    assert report.d_length == abs(0.1 * 66.0 - total)


def test_distance_reports_name_the_overflowing_path(parabola1):
    # path 2's vertex (2e308, 0) overflows; the one-vertex paths before it
    # stay at the origin
    lines = [_line({}), _line({}), _line({(1, 0): 2}), _line({(1, 0): 1})]
    with pytest.raises(ParameterOutOfRange, match="overflows the scaled path 2$"):
        mt.distance_reports(lines, 1e308, parabola1)
    # (1, 1) has length sqrt(2): its profile overflows, its vertices do not
    lines[2] = _line({(1, 1): 1})
    with pytest.raises(ParameterOutOfRange, match="overflows the scaled path 2$"):
        mt.distance_reports(lines, 1.5e308, parabola1)
    # the profile is checked on its own: here the vertices stay at the origin
    lines[2] = sp.PolygonalLine(vertices=lines[0].vertices, edges=lines[2].edges,
                                endpoint=lines[0].endpoint)
    with pytest.raises(ParameterOutOfRange, match="overflows the scaled path 2$"):
        mt.distance_reports(lines[:3], 1.5e308, parabola1)
