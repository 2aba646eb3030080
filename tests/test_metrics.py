import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitshape import curve as cv
from limitshape import measure as ms
from limitshape import metrics as mt
from limitshape import sampler as sp
from limitshape.errors import EmptyPath, NotMonotone

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


@settings(max_examples=300, deadline=None)
@given(monotone_polylines(), monotone_polylines(), st.sampled_from([1, 7, 64, None]))
def test_hausdorff_equals_dense_oracle(a, b, chunk):
    # small pair chunks make the block loop run on small inputs
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(mt, "_PAIR_CHUNK", chunk)
        assert mt.hausdorff(a, b) == oracles.dense_hausdorff(a, b)


@pytest.mark.parametrize("curve_name", ["tabulated_mixed", "parabola1"])
@pytest.mark.parametrize("n1", [1000, 10000])
def test_hausdorff_bit_identical_on_sampled_paths(request, curve_name, n1):
    curve = request.getfixturevalue(curve_name)
    params = ms.MeasureParams.for_endpoint(curve, n1)
    poly = mt._curve_polyline(curve)
    for r in range(3):
        line = sp.assemble(sp.sample_configuration(params, np.random.default_rng((n1, r))))
        x = line.vertices.astype(float) * (1.0 / n1)
        # shifted three units right, every window spans the whole curve,
        # which at n1 = 1e4 takes more than one pair chunk
        for y in (x, x + [3.0, 0.0]):
            assert mt.hausdorff(y, poly) == oracles.dense_hausdorff(y, poly)


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
    assert mt.length_distance(line, 1.0, parabola1) == pytest.approx(total, abs=1e-9)


def test_length_distance_zero_scale(parabola1):
    line = _line({(1, 0): 3, (1, 1): 2, (0, 1): 1})
    total = oracles.arc_length_profile(parabola1, math.inf)
    assert mt.length_distance(line, 0.0, parabola1) == pytest.approx(total, abs=1e-9)


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


def test_profile_distance_axioms(parabola1):
    params = ms.MeasureParams.for_endpoint(parabola1, 120)
    rng = np.random.default_rng(8)
    lines = [sp.assemble(sp.sample_configuration(params, rng)) for _ in range(30)]
    s = 1.0 / 120
    picked = np.random.default_rng(9).integers(0, len(lines), size=(100, 3))
    for i, j, k in picked:
        a, b, c = lines[i], lines[j], lines[k]
        dab = mt.profile_distance(a, s, b, s)
        dba = mt.profile_distance(b, s, a, s)
        assert dab == pytest.approx(dba, rel=1e-12)
        dac = mt.profile_distance(a, s, c, s)
        dcb = mt.profile_distance(c, s, b, s)
        assert dab <= dac + dcb + 1e-12
        assert mt.profile_distance(a, s, a, s) == 0.0


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
    first = mt.distance_report(line, 1.0 / 200, tabulated_mixed)
    poly = mt._curve_polyline(tabulated_mixed)
    assert not poly.flags.writeable
    assert np.array_equal(poly, cv.discretize(tabulated_mixed, mt._CURVE_POINTS))

    def rebuilt(*args, **kwargs):
        raise AssertionError("polyline rebuilt")

    monkeypatch.setattr(cv, "discretize", rebuilt)
    assert mt.distance_report(line, 1.0 / 200, tabulated_mixed) == first
