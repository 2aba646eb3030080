#!/usr/bin/env python3
"""One sha256 per (curve, n1) over every array of a direction field.

Builds measure._DirectionField for the six test-fixture curves (the
c08 curve is tabulated_mixed) at n1 in {5, 20, 100, 1e3, 1e4} and
hashes, per field, every ndarray attribute and every cached property
(dense_head, cum_hazard, hazard_guide, pair_pool, completing_pair),
each with its name, dtype and shape.  Scalars that describe the build
rather than the field (candidate counts) are left out, so two
checkouts whose fields agree bit for bit print the same lines.  Each
line also gives the repr of the parameters the field is built from:
tilt_floor(curve), truncation_radius, tail_tolerance and neg_log_z_cap.

    python3 scripts/field_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

It imports the package from ./src of the checkout it lives in.
"""

import hashlib
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from conftest import mixed_cubic_points, parabola_points  # noqa: E402
from limitshape import curve as cv  # noqa: E402
from limitshape import measure as ms  # noqa: E402
from limitshape.errors import LimitShapeError  # noqa: E402

SIZES = (5, 20, 100, 1_000, 10_000)


def curves():
    """The fixture curves of tests/conftest.py, by fixture name."""
    return {
        "parabola1": cv.make_preset("parabola", c=1.0),
        "parabola2": cv.make_preset("parabola", c=2.0),
        "power2": cv.make_preset("power", p=2.0),
        "circle": cv.make_preset("circle_arc"),
        "tabulated_parabola": cv.make_tabulated(parabola_points(), k0=0.05),
        "tabulated_mixed": cv.make_tabulated(mixed_cubic_points(), k0=0.1),
    }


def field_digest(field) -> str:
    """sha256 over the field's arrays and cached properties, in name order."""
    h = hashlib.sha256()
    values = {k: v for k, v in vars(field).items() if isinstance(v, np.ndarray)}
    for name, attr in vars(type(field)).items():
        if isinstance(attr, cached_property):
            try:
                values[name] = np.asarray(getattr(field, name))
            except LimitShapeError as exc:  # a field too small for the property
                values[name] = np.asarray(type(exc).__name__)
    for name in sorted(values):
        a = np.ascontiguousarray(values[name])
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def main() -> None:
    for label, curve in curves().items():
        for n1 in SIZES:
            params = ms.MeasureParams.for_endpoint(curve, n1)
            field = ms._DirectionField(params)
            print(f"{label:<20} {n1:>6} {field.x1.size:>8} {field_digest(field)} "
                  f"{ms.tilt_floor(curve)!r} {params.truncation_radius!r} "
                  f"{params.tail_tolerance!r} {params.neg_log_z_cap!r}")


if __name__ == "__main__":
    main()
