"""Greedy common-neighbor clustering, used as a comparison point.

The recursion's cleanup applied to the smallest remaining vertex's
neighborhood: each round takes the s remaining vertices with the most
neighbors in it, which are those sharing the most neighbors with that
vertex, itself first.  Ties go to the smaller index, and vertices left when
fewer than s remain are leftover.  A simple interpretation of the
common-neighbor counting idea, not a tuned algorithm.
"""

from __future__ import annotations

import numpy as np

from .model import Graph
from .recovery import RecoveryResult, _peel

__all__ = ["baseline_common_neighbors"]


def baseline_common_neighbors(g: Graph, s: int) -> RecoveryResult:
    return _peel(g, s, lambda adj, active: np.flatnonzero(adj[0]))
