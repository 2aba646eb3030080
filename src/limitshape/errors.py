"""Exception hierarchy shared across the package."""


class LimitShapeError(Exception):
    """Base class for all package errors."""


class NonMonotoneDerivative(LimitShapeError):
    """Root bracketing failed: the supplied derivative is not monotone."""


class QuadratureFailure(LimitShapeError):
    """Adaptive quadrature did not reach the requested tolerance."""


class SlopeOutOfRange(LimitShapeError):
    """A slope argument lies outside the curve's tangent-slope range."""


class InvalidPresetParameter(LimitShapeError):
    """Preset curve parameters outside their valid range."""


class NotMonotone(LimitShapeError):
    """Tabulated curve data is not strictly increasing, or a polyline given
    to metrics.hausdorff decreases in x or y."""


class NotConvex(LimitShapeError):
    """Tabulated curve data (or its interpolant) is not strictly convex."""


class CurvatureFloorViolated(LimitShapeError):
    """Curvature drops below the required positive floor."""


class LimitTooLarge(LimitShapeError):
    """Sieve limit exceeds the configured memory budget."""


class TailBoundViolated(LimitShapeError):
    """A truncated lattice sum cannot certify its tail tolerance."""


class ParameterOutOfRange(LimitShapeError):
    """A distribution parameter lies outside its admissible range."""


class SingularCovariance(LimitShapeError):
    """Covariance matrix is singular or not positive definite."""


class EmptyPath(LimitShapeError):
    """A path metric received an empty polyline."""


class InvalidPolyline(LimitShapeError):
    """A path metric received a polyline that is not a (k, 2) array of
    vertices with coordinates in [-1e150, 1e150]."""


class Exhausted(LimitShapeError):
    """Conditioned sampling spent its attempt budget short of its target.

    Carries the attempt count, the accepted count next to the target
    count, and the closest miss: the free endpoint of any draw nearest
    the target and its distance in the covariance-adapted (Mahalanobis)
    norm.
    """

    def __init__(self, attempts, accepted, count, closest_endpoint, closest_distance):
        super().__init__(f"accepted {accepted} of {count} within {attempts} attempts")
        self.attempts = attempts
        self.accepted = accepted
        self.count = count
        self.closest_endpoint = closest_endpoint
        self.closest_distance = closest_distance


class StateSpaceTooLarge(LimitShapeError):
    """Exhaustive enumeration would exceed the state-space budget."""


class UnreachableEndpoint(LimitShapeError):
    """No configuration on the capped direction set ends at the endpoint."""


class InsufficientReplicates(LimitShapeError):
    """Too few replicates for the requested empirical comparison."""


class IoFailure(LimitShapeError):
    """Report emission failed at the filesystem level."""
