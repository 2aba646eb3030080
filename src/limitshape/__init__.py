"""Random convex lattice paths with a prescribed limit shape.

Build a tilted product measure over coprime edge directions so that
scaled random convex polygonal lines concentrate around a chosen
strictly convex arc; sample from it (free or endpoint-conditioned) and
verify the calibration, moment and local-CLT asymptotics numerically.
"""

from .curve import (
    ConvexCurve,
    curvature_at_slope,
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
    MomentReport,
    b_matrix,
    calibration_residual,
    covariance_matrix,
    delta,
    expected_endpoint,
    expected_length_profile,
    gaussian_density_at,
    moment_report,
    nu_moments,
    z_of,
    z_pow,
)
from .metrics import PathDistanceReport, distance_report, hausdorff, length_distance
from .oracle import OracleDistribution, configuration_key, exact_conditional_oracle
from .sampler import (
    Configuration,
    PolygonalLine,
    assemble,
    condition_on_endpoint,
    sample_configuration,
    sample_endpoints,
    scale,
)

__all__ = [
    "KAPPA",
    "Configuration",
    "ConvexCurve",
    "MeasureParams",
    "MomentReport",
    "OracleDistribution",
    "PathDistanceReport",
    "PolygonalLine",
    "assemble",
    "b_matrix",
    "calibration_residual",
    "condition_on_endpoint",
    "configuration_key",
    "covariance_matrix",
    "curvature_at_slope",
    "delta",
    "distance_report",
    "exact_conditional_oracle",
    "expected_endpoint",
    "expected_length_profile",
    "gaussian_density_at",
    "hausdorff",
    "length_distance",
    "length_profile",
    "make_preset",
    "make_tabulated",
    "mobius_inverted_sum",
    "mobius_sieve",
    "moment_report",
    "nu_moments",
    "sample_configuration",
    "sample_endpoints",
    "scale",
    "slope_grid",
    "slope_inverse",
    "z_of",
    "z_pow",
]
