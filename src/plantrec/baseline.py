"""Greedy common-neighbor clustering, used as a comparison point.

Repeatedly takes the smallest unassigned vertex, ranks the other unassigned
vertices by how many neighbors they share with it inside the remaining graph,
and groups it with the top s-1.  Ties go to the smaller index, and vertices
left when fewer than s remain are reported as leftover, mirroring the
spectral recovery conventions.  This is a simple interpretation of the
common-neighbor counting idea, not a tuned algorithm.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroSizeError
from .model import Graph
from .recovery import RecoveryResult

__all__ = ["baseline_common_neighbors"]


def baseline_common_neighbors(g: Graph, s: int) -> RecoveryResult:
    if s <= 0:
        raise ZeroSizeError("cluster size must be positive")
    active = np.arange(g.n, dtype=np.int64)
    adj = g.adj
    clusters: list[np.ndarray] = []
    while active.size >= s:
        common = adj[:, adj[:, 0] == 1].sum(axis=1, dtype=np.int64)
        common[0] = -1  # seed vertex joins unconditionally
        order = np.argsort(-common, kind="stable")
        members = np.sort(np.append(order[: s - 1], 0))
        clusters.append(active[members])
        keep = np.setdiff1d(np.arange(active.size), members)
        active = active[keep]
        adj = adj[np.ix_(keep, keep)]
    return RecoveryResult(clusters=clusters, leftover=active)
