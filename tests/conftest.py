import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from limitshape import curve as cv


@pytest.fixture(scope="session")
def parabola1():
    return cv.make_preset("parabola", c=1.0)


@pytest.fixture(scope="session")
def parabola2():
    return cv.make_preset("parabola", c=2.0)


@pytest.fixture(scope="session")
def power2():
    return cv.make_preset("power", p=2.0)


@pytest.fixture(scope="session")
def circle():
    return cv.make_preset("circle_arc")


def parabola_points(n=64):
    """Samples of the parabola(1) preset, the data of tabulated_parabola."""
    u = np.linspace(0.0, 1.0, n)
    return np.column_stack([u, cv.make_preset("parabola", c=1.0).g(u)])


@pytest.fixture(scope="session")
def tabulated_parabola():
    return cv.make_tabulated(parabola_points(), k0=0.05)


def mixed_cubic_points(n=64):
    """Strictly convex analytic non-parabolic test curve (u^2 + u^3)/2."""
    u = np.linspace(0.0, 1.0, n)
    return np.column_stack([u, (u ** 2 + u ** 3) / 2.0])


@pytest.fixture(scope="session")
def tabulated_mixed():
    return cv.make_tabulated(mixed_cubic_points(), k0=0.1)
