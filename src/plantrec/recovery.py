"""Recursive spectral cluster identification.

One round works on the current graph with n vertices and target size s:
project the adjacency matrix onto its top floor(n/s) eigenvectors, read off a
size-s candidate set from every projector column, keep the candidate set whose
indicator vector the projector preserves best, and clean it up by taking the s
vertices with the most neighbors inside it.  That cluster is removed and the
round repeats on the rest.

A round on m vertices with rank r = floor(m/s) costs one dense
eigendecomposition plus O(m^2 r) ranking: the projector is kept as its m x r
eigenvector basis V, its columns are formed a block at a time, each column's
s-1 largest entries are found by partial selection, and a set's mass
||P 1_W|| is computed as ||V^T 1_W||.

All tie-breaks (column-entry ranking, pivot choice, neighbor counts) prefer
the smaller vertex index, so runs are reproducible.  Masses within a relative
1e-12 of the largest count as tied for the pivot choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GraphTooSmallError,
    InvariantViolationError,
    SizeOutOfRangeError,
    ZeroSizeError,
)
from .model import Graph, PlantedPartition
from .spectral import projector_operand, top_projector

__all__ = [
    "CandidateSet",
    "RecoveryResult",
    "PivotTrace",
    "candidate_set",
    "all_candidate_sets",
    "select_pivot",
    "extract_cluster",
    "identify_clusters",
    "recover_with_trace",
    "same_partition",
]


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """A pivot vertex, its size-s candidate set, and the set's projector mass."""

    pivot: int
    members: np.ndarray
    mass: float


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered clusters in recovery order plus vertices never assigned."""

    clusters: list
    leftover: np.ndarray

    def as_dict(self, s: int) -> dict:
        """JSON-ready form: {"s", "clusters", "leftover"}, 0-based ids."""
        return {
            "s": int(s),
            "clusters": [[int(v) for v in c] for c in self.clusters],
            "leftover": [int(v) for v in self.leftover],
        }


@dataclass(frozen=True)
class PivotTrace:
    """Per-round diagnostics: rank used, chosen pivot (original id), its mass."""

    level: int
    rank: int
    pivot: int
    mass: float


# Entries of one block of b projector columns (b x m) ranked at a time; the
# ranking temporaries scale with it, and the m x m projector never exists.
BLOCK_ENTRIES = 1 << 20

# Relative difference below which two candidate-set masses count as tied.
MASS_TIE_REL = 1e-12


def _check_size(m: int, s: int) -> None:
    if not 1 <= s <= m:
        raise SizeOutOfRangeError(f"size must be in 1..{m}, got {s}")


def _candidate_members(op, pivots: np.ndarray, s: int) -> np.ndarray:
    """Sorted candidate sets of the columns `pivots`, one row each.

    A row is the pivot plus the s-1 largest other entries of its column, ties
    going to the smaller row index: the first s-1 positions of a stable
    argsort of the negated column with the pivot's own entry ranked last.
    """
    k = s - 1
    b = pivots.size
    if k == 0:
        return pivots[:, None]
    neg = op.columns(pivots)
    np.negative(neg, out=neg)
    neg[np.arange(b), pivots] = np.inf
    top = np.argpartition(neg, k - 1, axis=1)[:, :k]
    picked = np.take_along_axis(neg, top, axis=1)
    cut = picked[:, k - 1 : k]  # the k-th smallest value of each column
    # argpartition keeps an arbitrary subset of the entries equal to the cut;
    # where some were left out, redo those columns in the stable order.
    split = (neg == cut).sum(axis=1) > (picked == cut).sum(axis=1)
    if split.any():
        top[split] = np.argsort(neg[split], axis=1, kind="stable")[:, :k]
    return np.sort(np.concatenate([top, pivots[:, None]], axis=1), axis=1)


def candidate_set(p_hat, j: int, s: int) -> CandidateSet:
    """Column j's candidate set: j plus the s-1 largest other entries of column j."""
    op = projector_operand(p_hat)
    _check_size(op.dim, s)
    if not 0 <= j < op.dim:
        raise ValueError(f"vertex {j} out of range")
    members = _candidate_members(op, np.array([j], dtype=np.int64), s)
    return CandidateSet(pivot=j, members=members[0], mass=float(op.masses(members)[0]))


def all_candidate_sets(p_hat, s: int) -> list[CandidateSet]:
    """Candidate sets for every column, ranked and weighed block by block.

    `p_hat` is a Projector, whose mass of a set W is ||V^T 1_W||, or a square
    matrix, whose mass of W is the norm of its column sum over W.
    """
    op = projector_operand(p_hat)
    m = op.dim
    _check_size(m, s)
    step = max(1, BLOCK_ENTRIES // m)
    sets = []
    for start in range(0, m, step):
        pivots = np.arange(start, min(start + step, m), dtype=np.int64)
        members = _candidate_members(op, pivots, s)
        masses = op.masses(members)
        sets.extend(
            CandidateSet(pivot=int(j), members=w, mass=float(x))
            for j, w, x in zip(pivots, members, masses)
        )
    return sets


def select_pivot(p_hat, sets: list[CandidateSet]) -> int:
    """Pivot with the largest candidate-set mass; ties go to the smaller vertex.

    Masses within MASS_TIE_REL (relative) of the largest count as tied, so
    the choice does not hang on the summation order of the masses.
    """
    dim = projector_operand(p_hat).dim
    if {c.pivot for c in sets} != set(range(dim)):
        raise ValueError("candidate sets must cover every vertex exactly once")
    best = max(c.mass for c in sets)
    floor = best - MASS_TIE_REL * abs(best)
    return min(c.pivot for c in sets if c.mass >= floor)


def extract_cluster(g: Graph, w: np.ndarray, s: int) -> np.ndarray:
    """The s vertices of g (not only of w) with the most neighbors in w."""
    w = np.asarray(w, dtype=np.int64)
    if w.size != s:
        raise SizeOutOfRangeError(f"candidate set must have exactly {s} vertices")
    if g.n < s:
        raise GraphTooSmallError(f"graph has {g.n} vertices, needs at least {s}")
    return _extract(g.adj, w, s)


def _extract(adj: np.ndarray, w: np.ndarray, s: int) -> np.ndarray:
    counts = adj[:, w].sum(axis=1, dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    return np.sort(order[:s])


def recover_with_trace(g: Graph, s: int) -> tuple[RecoveryResult, list[PivotTrace]]:
    """Run the full recursion and keep per-round pivot diagnostics."""
    if s <= 0:
        raise ZeroSizeError("cluster size must be positive")
    active = np.arange(g.n, dtype=np.int64)
    adj = g.adj
    clusters: list[np.ndarray] = []
    traces: list[PivotTrace] = []
    level = 0
    while active.size // s >= 1:
        rank = active.size // s
        p_hat = top_projector(adj.astype(np.float64), rank)
        sets = all_candidate_sets(p_hat, s)
        j_star = select_pivot(p_hat, sets)
        members = _extract(adj, sets[j_star].members, s)
        clusters.append(active[members])
        traces.append(
            PivotTrace(level=level, rank=rank, pivot=int(active[j_star]), mass=sets[j_star].mass)
        )
        keep = np.setdiff1d(np.arange(active.size), members)
        active = active[keep]
        adj = adj[np.ix_(keep, keep)]
        level += 1
    result = RecoveryResult(clusters=clusters, leftover=active)
    _check_result(result, g.n, s)
    return result, traces


def identify_clusters(g: Graph, s: int) -> RecoveryResult:
    """Recover all size-s clusters; vertices left when fewer than s remain are leftover."""
    result, _ = recover_with_trace(g, s)
    return result


def _check_result(result: RecoveryResult, n: int, s: int) -> None:
    seen = np.concatenate([np.asarray(c) for c in result.clusters] + [result.leftover])
    if any(len(c) != s for c in result.clusters):
        raise InvariantViolationError("recovered cluster of wrong size")
    if seen.size != n or np.unique(seen).size != n:
        raise InvariantViolationError("clusters and leftover do not partition the vertex set")


def same_partition(result: RecoveryResult, truth: PlantedPartition) -> bool:
    """True iff recovered clusters equal the planted ones as sets and nothing is left over."""
    if result.leftover.size != 0:
        return False
    recovered = {frozenset(int(v) for v in c) for c in result.clusters}
    planted = {frozenset(int(v) for v in c) for c in truth.clusters()}
    return recovered == planted
