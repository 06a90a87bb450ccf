"""Exception types shared across the package."""


class PlantrecError(ValueError):
    """Base class for all input-contract violations."""


class NonDivisibleError(PlantrecError):
    """Cluster size does not divide the vertex count."""


class ZeroSizeError(PlantrecError):
    """A size parameter that must be positive was zero."""


class NonFiniteError(PlantrecError):
    """Matrix input contains NaN or infinity."""


class RankOutOfRangeError(PlantrecError):
    """Requested projector rank is outside 1..dim."""


class SizeOutOfRangeError(PlantrecError):
    """Requested candidate-set size is outside 1..dim."""


class GraphTooSmallError(PlantrecError):
    """Graph has fewer vertices than the requested cluster size."""


class DimensionMismatchError(PlantrecError):
    """Two matrices that must share a shape do not."""


class DegenerateGapError(PlantrecError):
    """p = q leaves no signal to separate clusters."""


class EpsilonOutOfRangeError(PlantrecError):
    """Deviation parameter outside the range the thresholds are valid for."""


class EmptyFamilyError(PlantrecError):
    """A family of vertex sets that must be nonempty was empty."""


class InvariantViolationError(RuntimeError):
    """An internal post-condition failed; indicates a bug, not bad input."""
