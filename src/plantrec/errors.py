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
    return vertex_id_rows(ids[None, :], n)[0]


def vertex_id_rows(sets, n: int) -> np.ndarray:
    """`sets` as a 2-D int64 array, each row checked as :func:`vertex_ids`
    checks one set.

    Rows that are already strictly increasing, as recovery's candidate sets
    are, are settled by one comparison of neighbouring entries; only
    otherwise is a sorted copy made.
    """
    sets = np.asarray(sets)
    if sets.ndim != 2:
        raise VertexIdError("vertex id sets must form a 2-D array, one set per row")
    if sets.size and sets.dtype.kind not in "iu":
        raise VertexIdError(f"vertex ids must be integers, got {sets.dtype}")
    sets = sets.astype(np.int64, copy=False)
    if not sets.size:
        return sets
    ordered = sets if _increasing(sets) else np.sort(sets, axis=1)
    if not (0 <= ordered[:, 0].min() and ordered[:, -1].max() < n):
        raise VertexIdError(f"vertex ids must lie in 0..{n - 1}")
    if ordered is not sets and not _increasing(ordered):
        raise VertexIdError("vertex ids must be distinct")
    return sets


def _increasing(sets: np.ndarray) -> bool:
    """Whether every row of `sets` is strictly increasing (compared, not
    subtracted, so no difference can wrap)."""
    return bool((sets[:, 1:] > sets[:, :-1]).all())
