"""Planted partition model: ground-truth clusterings and random graph sampling.

A model instance places n = k*s vertices into k hidden clusters of size s and
draws each edge independently: probability p inside a cluster, q across.
Sampling is counter-based (Philox), with the draw for a vertex pair addressed
purely by (seed, i, j).  The sampler builds the adjacency one column at a
time and holds only the n x n bytes plus O(n); an n whose adjacency exceeds
physical memory is rejected before anything is allocated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonDivisibleError,
    ZeroSizeError,
)
from .spectral import _is_symmetric

__all__ = [
    "PlantedPartition",
    "ModelParams",
    "Graph",
    "make_partition",
    "sample_graph",
    "expectation_matrix",
    "permute_partition",
    "require_adjacency_memory",
    "require_edge_probabilities",
    "require_vertex_count",
]

_SEED_MAX = 2**64


@dataclass(frozen=True, eq=False)
class PlantedPartition:
    """Ground-truth clustering of vertices 0..n-1 into k clusters of size s.

    `assignment[v]` is the cluster id (0-based) of vertex v.  Treat instances
    as immutable; the arrays they hold are never written after construction.
    """

    assignment: np.ndarray
    k: int
    s: int

    def __post_init__(self) -> None:
        ids = np.asarray(self.assignment)
        if ids.dtype.kind not in "iu":  # a cast would read 0.4 as 0 and 1.9 as 1
            raise ValueError(f"cluster ids must be integers, got {ids.dtype}")
        assignment = ids.astype(np.int64)
        object.__setattr__(self, "assignment", assignment)
        if self.s <= 0:
            raise ZeroSizeError("cluster size must be positive")
        if assignment.size != self.k * self.s:
            raise NonDivisibleError(
                f"assignment length {assignment.size} != k*s = {self.k * self.s}"
            )
        counts = np.bincount(assignment, minlength=self.k)
        if counts.size != self.k or not (counts == self.s).all():
            raise NonDivisibleError("every cluster id in 0..k-1 must occur exactly s times")

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    def clusters(self) -> list[np.ndarray]:
        """Vertex ids of each cluster, ascending within a cluster."""
        return [np.flatnonzero(self.assignment == i) for i in range(self.k)]


@dataclass(frozen=True)
class ModelParams:
    """Edge probabilities and the 64-bit seed driving all pair draws."""

    p: float
    q: float
    seed: int

    def __post_init__(self) -> None:
        require_edge_probabilities(self.p, self.q)
        # a bool is an int, and a float seed would sample as its integer part
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not (0 <= self.seed < _SEED_MAX):
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph stored as a dense symmetric 0-1 matrix."""

    adj: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency matrix must be square")
        # in its own dtype, as a cast reads 0.5 and NaN as 0 and 257 as 1
        in_range = adj.min(initial=0) >= 0 and adj.max(initial=0) <= 1
        if not (in_range and (adj.dtype.kind in "biu" or ((adj == 0) | (adj == 1)).all())):
            raise ValueError("adjacency entries must be 0 or 1")
        adj = adj.astype(np.uint8, copy=False)
        object.__setattr__(self, "adj", adj)
        if (np.diag(adj) != 0).any():
            raise ValueError("diagonal must be zero")
        if not _is_symmetric(adj):
            raise ValueError("adjacency matrix must be symmetric")

    @property
    def n(self) -> int:
        return int(self.adj.shape[0])

    @property
    def edge_count(self) -> int:
        # each edge sets two entries of a symmetric 0-1 matrix
        return int(np.count_nonzero(self.adj)) // 2


def make_partition(n: int, s: int) -> PlantedPartition:
    """Canonical contiguous partition: vertices i*s..(i+1)*s-1 form cluster i."""
    if s <= 0:
        raise ZeroSizeError("cluster size must be positive")
    if n % s != 0:
        raise NonDivisibleError(f"cluster size {s} does not divide n={n}")
    k = n // s
    return PlantedPartition(assignment=np.repeat(np.arange(k, dtype=np.int64), s), k=k, s=s)


def permute_partition(part: PlantedPartition, perm: np.ndarray) -> PlantedPartition:
    """Relabel vertices so that old vertex v becomes perm[v]."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.size != part.n or not np.array_equal(np.sort(perm), np.arange(part.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    assignment = np.empty(part.n, dtype=np.int64)
    assignment[perm] = part.assignment
    return PlantedPartition(assignment=assignment, k=part.k, s=part.s)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def require_edge_probabilities(p: float, q: float) -> None:
    """Raise ValueError unless 0 <= q < p <= 1: a model's edge probability
    inside a cluster, p, above the one across, q.  A bool, which compares as
    0 or 1 but would be written as true or false, is refused."""
    if isinstance(p, (bool, np.bool_)) or isinstance(q, (bool, np.bool_)):
        raise ValueError(f"p and q must be numbers, got p={p!r}, q={q!r}")
    if not (0.0 <= q < p <= 1.0):
        raise ValueError(f"need 0 <= q < p <= 1, got p={p}, q={q}")


def require_vertex_count(n: int, where: str) -> None:
    """Raise ValueError, naming `where`, unless a model's vertex count `n`
    is at least 1."""
    if n < 1:
        raise ValueError(f"{where} must be at least 1, got {n}")


def require_adjacency_memory(n: int, where: str) -> None:
    """Raise ValueError, naming `where`, if an n x n byte adjacency would not
    fit in physical memory; call it before anything of size n is allocated."""
    memory = _physical_memory()
    if memory is not None and n * n > memory:
        raise ValueError(
            f"{where}: the {n} x {n} adjacency needs {n * n} bytes, over the {memory} of physical memory"
        )


def sample_graph(part: PlantedPartition, params: ModelParams) -> Graph:
    """Draw one random graph from the model; a pure function of (part, params).

    The draw for the pair i < j is number j(j-1)/2 + i of the Philox stream
    keyed by the seed (column-major upper-triangle order, which does not
    depend on n), so column j reads the next j draws of one stream and
    writes row j and column j; memory is the n x n bytes plus O(n).
    """
    n = part.n
    require_adjacency_memory(n, "sample")
    adj = np.zeros((n, n), dtype=np.uint8)
    labels = part.assignment
    stream = np.random.Philox(key=np.uint64(params.seed))
    for j in range(1, n):
        u = (stream.random_raw(j) >> np.uint64(11)) * 2.0**-53
        edge = u < np.where(labels[:j] == labels[j], params.p, params.q)
        adj[j, :j] = edge
        adj[:j, j] = edge
    return Graph(adj=adj)


def expectation_matrix(part: PlantedPartition, params: ModelParams) -> np.ndarray:
    """Rank-k matrix with p on same-cluster entries (diagonal included), q elsewhere."""
    same = part.assignment[:, None] == part.assignment[None, :]
    return np.where(same, params.p, params.q)

