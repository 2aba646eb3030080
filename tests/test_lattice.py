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

    direct = lt.coprime_sum(f, 60)
    inverted = lt.mobius_inverted_sum(f, 60)
    assert inverted == pytest.approx(direct, rel=1e-8)


def test_inverted_sum_zero_function():
    assert lt.mobius_inverted_sum(lambda a, b: np.zeros_like(a), 40) == 0.0


def test_inverted_sum_weighted_half_scale():
    def f(x1, x2):
        x1, x2 = 0.5 * x1, 0.5 * x2
        return x1 * np.exp(-(x1 + x2))

    direct = lt.coprime_sum(f, 80)
    inverted = lt.mobius_inverted_sum(f, 80)
    assert inverted == pytest.approx(direct, rel=1e-8)

