import math

import numpy as np
import pytest

from limitshape import curve as cv
from limitshape import measure as ms
from limitshape import metrics as mt
from limitshape import sampler as sp
from limitshape.errors import EmptyPath

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


def test_length_distance_empty_line(parabola1):
    line = sp.assemble(sp.Configuration(support={}))
    total = oracles.arc_length_profile(parabola1, math.inf)
    assert mt.length_distance(line, 1.0, parabola1) == pytest.approx(total, abs=1e-9)


def test_length_distance_zero_scale(parabola1):
    line = sp.assemble(sp.Configuration(support={(1, 0): 3, (1, 1): 2, (0, 1): 1}))
    total = oracles.arc_length_profile(parabola1, math.inf)
    assert mt.length_distance(line, 0.0, parabola1) == pytest.approx(total, abs=1e-9)


def _brute_length_sup(line, scale, curve):
    """sup of |scale * edge profile - l| over a fine angle grid, both
    sides of every knot slope and +inf, by plain edge sums."""
    knots = [x[1] / x[0] if x[0] else math.inf for x, _ in line.edges]
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
        (sp.assemble(sp.Configuration(support={})), 1.0, parabola1),
        (sp.assemble(sp.Configuration(support={(0, 1): 2})), 0.25, parabola1),
        (sp.assemble(sp.Configuration(support={(1, 0): 3, (1, 1): 2})), 0.1, tabulated_mixed),
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
