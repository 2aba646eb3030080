import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitshape import lattice as lt
from limitshape.errors import LimitTooLarge

import oracles


def _pairs(t_lo, t_hi, radius):
    x1, x2 = lt.direction_arrays(t_lo, t_hi, radius)
    return list(zip(x1.tolist(), x2.tolist()))


def test_enumerate_radius_2():
    assert _pairs(0, math.inf, 2) == [(1, 0), (1, 1), (0, 1)]


def test_enumerate_radius_3_adds_mediants():
    assert _pairs(0, math.inf, 3) == [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)]


def test_enumerate_matches_brute_force_windows():
    windows = [(0.0, math.inf, 1), (0.0, math.inf, 25), (0.3, 2.5, 40),
               (1.0, 1.0, 12), (0.0, 0.0, 6), (2.0, math.inf, 15),
               (0.7, 0.8, 60), (0.1, 3.0, 120)]
    for t_lo, t_hi, radius in windows:
        assert _pairs(t_lo, t_hi, radius) == oracles.brute_coprime(t_lo, t_hi, radius)


def test_coprime_count_at_1000():
    x1, _ = lt.direction_arrays(0.0, math.inf, 1000)
    assert x1.size == oracles.COPRIME_COUNT_R1000
    # asymptotic density (3/pi^2) R^2 within 2%
    assert x1.size == pytest.approx(3.0 / math.pi ** 2 * 1000 ** 2, rel=0.02)


@settings(deadline=None, max_examples=30)
@given(radius=st.integers(min_value=1, max_value=50),
       lo=st.floats(min_value=0.0, max_value=3.0),
       span=st.floats(min_value=0.0, max_value=4.0))
def test_enumeration_sorted_and_distinct(radius, lo, span):
    got = _pairs(lo, lo + span, radius)
    taus = [x2 / x1 if x1 else math.inf for x1, x2 in got]
    assert taus == sorted(taus)
    assert len(set(taus)) == len(taus)
    assert got == oracles.brute_coprime(lo, lo + span, radius)


def test_ball_slopes_have_no_float_ties():
    # direction_arrays sorts with the default (unstable) argsort, which
    # gives the one increasing order only when no two slopes tie in float64
    x1, x2 = lt.direction_arrays(0.0, math.inf, 2000)
    assert x1.size > 1_200_000
    with np.errstate(divide="ignore"):
        tau = np.where(x1 > 0, x2 / np.maximum(x1, 1), np.inf)
    assert np.all(np.diff(tau) > 0.0)


def test_largest_field_slopes_have_no_float_ties(tabulated_mixed):
    # the c08 field at n1 = 1e4, the largest field the tests build
    from limitshape import measure as ms

    f = ms._field(ms.MeasureParams.for_endpoint(tabulated_mixed, 10_000))
    assert f.tau.dtype == np.float64 and f.tau.size > 100_000
    assert np.all(np.diff(f.tau) > 0.0)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), radius=st.integers(min_value=1, max_value=60),
       lo=st.integers(min_value=0, max_value=128),
       steps=st.lists(st.integers(min_value=1, max_value=64), max_size=5),
       span=st.one_of(st.none(), st.integers(min_value=0, max_value=128)),
       weights=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_sector_caps_match_brute_force(data, radius, lo, steps, span, weights):
    # dyadic cuts and half-integer caps keep every comparison away from a tie
    t_lo = lo / 64
    cuts = [t_lo + s / 64 for s in np.cumsum(steps)]
    t_hi = math.inf if span is None else t_lo + span / 64
    caps = data.draw(st.lists(st.one_of(st.just(math.inf),
                                        st.integers(0, 150).map(lambda m: m + 0.5)),
                              min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    x1, x2 = lt.direction_arrays(t_lo, t_hi, radius, cuts=cuts, caps=caps,
                                 weights=weights)
    want = [(a, b) for a, b in oracles.brute_coprime(t_lo, t_hi, radius)
            if weights[0] * a + weights[1] * b
            <= caps[bisect.bisect_left(cuts, b / a if a else math.inf)]]
    assert list(zip(x1.tolist(), x2.tolist())) == want


def test_partition_property_exhaustive():
    # every nonzero lattice point in the ball is m * d for exactly one
    # integer m >= 1 and coprime d
    radius = 200
    x1, x2 = lt.direction_arrays(0.0, math.inf, radius)
    coprime = set(zip(x1.tolist(), x2.tolist()))
    seen = set()
    for a in range(0, radius + 1):
        for b in range(0 if a else 1, radius - a + 1):
            if (a, b) == (0, 0):
                continue
            m = math.gcd(a, b)
            d = (a // m, b // m)
            assert d in coprime
            assert (a, b) not in seen
            seen.add((a, b))
    assert len(seen) == (radius + 1) * (radius + 2) // 2 - 1


def test_mobius_small_values():
    table = lt.mobius_sieve(20)
    assert table[1] == 1
    assert table[2] == -1
    assert table[6] == 1
    assert table[12] == 0


def test_mobius_matches_factorization_oracle():
    table = lt.mobius_sieve(500)
    for m in range(1, 501):
        assert table[m] == oracles.brute_mobius(m)


def test_mobius_dirichlet_identity():
    limit = 10_000
    table = lt.mobius_sieve(limit)
    mu = table.astype(np.int64)
    sums = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sums[d::d] += mu[d]
    assert sums[1] == 1
    assert np.all(sums[2:] == 0)


def test_mobius_zeta_sum():
    table = lt.mobius_sieve(10 ** 5)
    m = np.arange(1, 10 ** 5 + 1, dtype=float)
    s = float(np.sum(table[1:].astype(float) / m ** 2))
    assert abs(s - 6.0 / math.pi ** 2) < 1e-5


def test_mobius_limit_too_large():
    with pytest.raises(LimitTooLarge):
        lt.mobius_sieve(1 << 30)


# --- Moebius-inverted sums ----------------------------------------------------

def test_inverted_sum_exponential():
    def f(x1, x2):
        return np.exp(-(np.abs(x1) + np.abs(x2)))

    direct = oracles.coprime_sum(f, 60)
    inverted = lt.mobius_inverted_sum(f, 60)
    assert inverted == pytest.approx(direct, rel=1e-8)


def test_inverted_sum_zero_function():
    assert lt.mobius_inverted_sum(lambda a, b: np.zeros_like(a), 40) == 0.0


def test_inverted_sum_weighted_half_scale():
    def f(x1, x2):
        x1, x2 = 0.5 * x1, 0.5 * x2
        return x1 * np.exp(-(x1 + x2))

    direct = oracles.coprime_sum(f, 80)
    inverted = lt.mobius_inverted_sum(f, 80)
    assert inverted == pytest.approx(direct, rel=1e-8)


# --- chunking -----------------------------------------------------------------

def _field_call(curve, n1):
    """The direction_arrays arguments of the direction field of curve at n1."""
    from limitshape import measure

    calls = []
    real = lt.direction_arrays

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lt, "direction_arrays", spy)
        measure._DirectionField(measure.MeasureParams.for_endpoint(curve, n1))
    (call,) = calls
    return call


@pytest.mark.parametrize("curve_name, n1", [("tabulated_mixed", 1000), ("parabola1", 100),
                                            (None, 300)], ids=["c08", "parabola", "ball"])
def test_direction_chunking_is_byte_identical(curve_name, n1, request, monkeypatch):
    # the (column, sector) cell budget sets only how the columns are cut
    # into passes: one column per pass, three, the default, all at once
    if curve_name is None:
        args, kwargs = (0.0, math.inf, n1), {}
    else:
        args, kwargs = _field_call(request.getfixturevalue(curve_name), n1)
    outs = []
    for budget in (1, 1000, lt._SECTOR_CELLS, 1 << 62):
        monkeypatch.setattr(lt, "_SECTOR_CELLS", budget)
        outs.append(lt.direction_arrays(*args, **kwargs))
    for x1, x2 in outs:
        assert x1.dtype == x2.dtype == np.int64
        assert x1.tobytes() == outs[0][0].tobytes() and x2.tobytes() == outs[0][1].tobytes()


def test_field_build_peak_memory():
    # a fresh parabola(1) field at n1 = 100 (6515 directions, 32 sectors)
    # peaks at 0.69 MB; one pass over all 267 columns peaks at 1.12 MB
    import tracemalloc

    from limitshape import curve, measure

    params = measure.MeasureParams.for_endpoint(curve.make_preset("parabola", c=1.0), 100)
    tracemalloc.start()
    try:
        measure._DirectionField(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0e6
