"""Recursive spectral cluster identification.

One round works on the current graph with n vertices and target size s:
project the adjacency matrix onto its top floor(n/s) eigenvectors, read off a
size-s candidate set from every projector column, keep the candidate set whose
indicator vector the projector preserves best, and clean it up by taking the s
vertices with the most neighbors inside it.  That cluster is removed and the
round repeats on the rest, in :func:`_peel`, which the common-neighbor
baseline runs with another candidate set.

A round on m vertices with rank r = floor(m/s) costs one solve for the top r
eigenpairs on a float64 copy of the remaining uint8 adjacency, in a memory
mapping of its own (see :func:`~plantrec.spectral.eigh_descending`), plus
O(m^2 r) ranking.  Where m >= 1500 and sqrt(m)/r >= 4, the solve first
tries a block subspace iteration, O(m^2 r) per step, on a copy of its own
that holds the upper triangle as row panels of 128 rows packed back to
back (4m^2 + 512m bytes), and keeps its basis only when a Cholesky
factorization (m^3 / 3 flops) certifies it within sin theta <= 1e-10 of
the top-r eigenspace; otherwise, and in every other round, LAPACK dsyevr
solves a new copy of the triangle it reads (a tridiagonal reduction,
O(m^3)), with bit for bit the result it gives alone.  Either way the round's clusters and pivots are the same on every
tested instance, and the masses move in their last digits (at most 2e-15
relative, measured at n = 1600 to 3000).  The
projector is kept as its m x r eigenvector basis V, its columns are formed a
block at a time, each column's s-1 largest entries are found by partial
selection, and a set's mass ||P 1_W|| is computed as ||V^T 1_W||, once
per distinct set of the block: columns whose sets are equal member for
member share the mass (3 sets among 3000 columns in round 0 at n = 3000,
s = 1000).  A round keeps only its pivot's candidate set: the m x s array of
every column's set is gone before the next round's solve.

All tie-breaks (column-entry ranking, pivot choice, neighbor counts) prefer
the smaller vertex index, so runs are reproducible.  Masses within a relative
1e-12 of the largest count as tied for the pivot choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GraphTooSmallError,
    InvariantViolationError,
    SizeOutOfRangeError,
    ZeroSizeError,
    vertex_ids,
)
from .model import Graph, PlantedPartition
from .spectral import Projector, SolveRecord, projector_operand, top_projector

__all__ = [
    "RecoveryResult",
    "PivotTrace",
    "all_candidate_sets",
    "select_pivot",
    "extract_cluster",
    "identify_clusters",
    "recover_with_trace",
    "same_partition",
]


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
    """Per-round diagnostics: rank used, chosen pivot (original id), its mass.

    `candidate` is the pivot column's candidate set before cleanup (s
    original ids, ascending), and `projector` the round's rank-`rank`
    projector of the remaining graph's adjacency (round 0: of the whole
    graph); both are kept so the bound checks need not solve or rank the
    graph again.  Equality and hashing ignore them, and so the projector's
    `solve` record, which no output file holds.
    """

    level: int
    rank: int
    pivot: int
    mass: float
    candidate: np.ndarray = field(compare=False, repr=False)
    projector: Projector = field(compare=False, repr=False)

    @property
    def solve(self) -> SolveRecord | None:
        """How the round's basis was found: solver, steps, certified sin theta bound."""
        return self.projector.solve


# Entries of one block of b projector columns (b x m) ranked at a time; the
# ranking temporaries scale with it, and the m x m projector never exists.
# They come from the malloc heap, which keeps its high-water resident (the
# solves' copies do not): sampling and recovering n = 2000, s = 100 peaks
# at 87.5 MB of RSS with blocks of 2^20 entries, at 82.5 MB with 2^18.
BLOCK_ENTRIES = 1 << 18

# Relative difference below which two candidate-set masses count as tied.
MASS_TIE_REL = 1e-12


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


def all_candidate_sets(p_hat, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate sets and their masses for every column, ranked and weighed
    block by block.

    Returns `members` (m x s), whose row j is vertex j plus the s-1 largest
    other entries of column j, ascending, and `masses` (m), whose entry j is
    the mass of row j's set.  `p_hat` is a Projector, whose mass of a set W
    is ||V^T 1_W||, or a square matrix, whose mass of W is the norm of its
    column sum over W.
    """
    op = projector_operand(p_hat)
    m = op.dim
    if not 1 <= s <= m:
        raise SizeOutOfRangeError(f"size must be in 1..{m}, got {s}")
    step = max(1, BLOCK_ENTRIES // m)
    # written a block at a time into arrays allocated before the blocks (a
    # join after them would hold every block and the joined copy at once);
    # the solves' copies are mappings of their own, outside the heap these
    # arrays may split
    members = np.empty((m, s), dtype=np.int64)
    masses = np.empty(m, dtype=np.float64)
    for start in range(0, m, step):
        stop = min(start + step, m)
        members[start:stop] = _candidate_members(op, np.arange(start, stop, dtype=np.int64), s)
        masses[start:stop] = op.masses(members[start:stop])
    return members, masses


def select_pivot(masses: np.ndarray) -> int:
    """Index of the largest mass; ties go to the smaller index.

    Masses within MASS_TIE_REL (relative) of the largest count as tied, so
    the choice does not hang on the summation order of the masses.
    """
    masses = np.asarray(masses, dtype=np.float64)
    best = masses.max()
    return int(np.argmax(masses >= best - MASS_TIE_REL * abs(best)))


def extract_cluster(g: Graph, w: np.ndarray, s: int) -> np.ndarray:
    """The s vertices of g (not only of w) with the most neighbors in w."""
    w = np.asarray(w)
    if w.size != s:
        raise SizeOutOfRangeError(f"candidate set must have exactly {s} vertices")
    if g.n < s:
        raise GraphTooSmallError(f"graph has {g.n} vertices, needs at least {s}")
    return _extract(g.adj, vertex_ids(w, g.n), s)


def _extract(adj: np.ndarray, w: np.ndarray, s: int) -> np.ndarray:
    counts = adj[:, w].sum(axis=1, dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    return np.sort(order[:s])


def _peel(g: Graph, s: int, candidate) -> RecoveryResult:
    """Remove size-s clusters from g until fewer than s vertices remain: each
    round's cluster is the s vertices with the most neighbors in the set
    ``candidate(adj, active)`` (positions in `adj`) of the remaining graph's
    adjacency `adj` and original vertex ids `active`."""
    if s <= 0:
        raise ZeroSizeError("cluster size must be positive")
    active = np.arange(g.n, dtype=np.int64)
    adj = g.adj
    clusters: list[np.ndarray] = []
    while active.size >= s:
        members = _extract(adj, candidate(adj, active), s)
        clusters.append(active[members])
        keep = np.ones(active.size, dtype=bool)
        keep[members] = False
        active = active[keep]
        adj = np.compress(keep, np.compress(keep, adj, axis=0), axis=1)
    result = RecoveryResult(clusters=clusters, leftover=active)
    _check_result(result, g.n, s)
    return result


def recover_with_trace(g: Graph, s: int) -> tuple[RecoveryResult, list[PivotTrace]]:
    """Run the full recursion and keep per-round pivot diagnostics."""
    traces: list[PivotTrace] = []

    def pivot_candidate(adj: np.ndarray, active: np.ndarray) -> np.ndarray:
        rank = active.size // s
        p_hat = top_projector(adj, rank)
        candidates, masses = all_candidate_sets(p_hat, s)
        j = select_pivot(masses)
        # only the pivot's row is kept: the m x s array is gone before the
        # next round's solve (24 MB in round 0 at n = 3000, s = 1000)
        candidate = candidates[j].copy()
        traces.append(PivotTrace(level=len(traces), rank=rank, pivot=int(active[j]), mass=float(masses[j]),
                                 candidate=active[candidate], projector=p_hat))
        return candidate

    return _peel(g, s, pivot_candidate), traces


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
