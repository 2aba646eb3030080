"""Random convex lattice paths with a prescribed limit shape.

Build a tilted product measure over coprime edge directions so that
scaled random convex polygonal lines concentrate around a chosen
strictly convex arc; sample from it (free or endpoint-conditioned) and
verify the calibration, moment and local-CLT asymptotics numerically.
"""

from .curve import (
    ConvexCurve,
    length_profile,
    make_preset,
    make_tabulated,
    slope_grid,
    slope_inverse,
)
from .lattice import (
    mobius_inverted_sum,
    mobius_sieve,
)
from .measure import (
    KAPPA,
    MeasureParams,
    b_matrix,
    calibration_residual,
    covariance_matrix,
    delta,
    endpoint_density,
    expected_endpoint,
    nu_moments,
)
from .metrics import PathDistanceReport, distance_report, distance_reports, hausdorff
from .oracle import OracleDistribution, exact_conditional_oracle
from .sampler import (
    Configuration,
    PolygonalLine,
    assemble,
    sample_endpoints,
)

__all__ = [
    "KAPPA",
    "Configuration",
    "ConvexCurve",
    "MeasureParams",
    "OracleDistribution",
    "PathDistanceReport",
    "PolygonalLine",
    "assemble",
    "b_matrix",
    "calibration_residual",
    "covariance_matrix",
    "delta",
    "distance_report",
    "distance_reports",
    "endpoint_density",
    "exact_conditional_oracle",
    "expected_endpoint",
    "hausdorff",
    "length_profile",
    "make_preset",
    "make_tabulated",
    "mobius_inverted_sum",
    "mobius_sieve",
    "nu_moments",
    "sample_endpoints",
    "slope_grid",
    "slope_inverse",
]
