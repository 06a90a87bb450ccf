"""Exception types shared across the package, and the check of a set of
vertex ids that raises one of them."""

import numpy as np


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


class VertexIdError(PlantrecError):
    """A vertex id is not an integer in 0..n-1, or a set holds one id twice."""


class InvariantViolationError(RuntimeError):
    """An internal post-condition failed; indicates a bug, not bad input."""


def vertex_ids(ids, n: int) -> np.ndarray:
    """`ids` as a 1-D int64 array of distinct vertex ids, each in 0..n-1.

    Numpy's indexing would read -1 as vertex n - 1, count a repeated id
    twice, and a cast would read 0.5 as vertex 0 and a bool mask as ids 0
    and 1, so each raises VertexIdError here, as does a set that is not 1-D.
    """
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise VertexIdError("vertex ids must form a 1-D array")
    if ids.size and ids.dtype.kind not in "iu":
        raise VertexIdError(f"vertex ids must be integers, got {ids.dtype}")
    ids = ids.astype(np.int64)
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise VertexIdError(f"vertex ids must lie in 0..{n - 1}")
    if np.unique(ids).size < ids.size:
        raise VertexIdError("vertex ids must be distinct")
    return ids
