"""Dense reference forms the tests compare the library against.  No pipeline
forms these m x m matrices; the library works from partitions and bases."""

import numpy as np

from plantrec.spectral import as_symmetric


def cluster_matrix(part) -> np.ndarray:
    """0-1 co-membership matrix: entry (i, j) is 1 iff i and j share a cluster."""
    return (part.assignment[:, None] == part.assignment[None, :]).astype(np.float64)


def dense_projector(p) -> np.ndarray:
    """The m x m projector V V^T of a Projector, exactly symmetric."""
    return as_symmetric(p.basis @ p.basis.T)
