"""Numerical checks of the model's spectral and counting bounds.

Every checker returns :class:`BoundReport` rows with the convention
``satisfied == (lhs <= rhs)``; for lower-bound claims the threshold therefore
sits on the lhs.  Probabilistic bounds are reported, never asserted: callers
aggregate satisfaction rates over seeds.

The public checkers take plain matrices and solve what they need.  The
projector-deviation reports are built by one private core from their inputs
(the two rank-l projectors, the expected l-th eigenvalue and ||A - E||_2);
:func:`check_projector_deviation` and :func:`empirical_epsilon` solve both
matrices numerically and call it, while
:func:`plantrec.experiment.run_checks` calls it with recovery's round-0
projector and the expected side in closed form.  ||P_A - P_E|| is read from
the principal angles between the two m x l bases (Davis-Kahan's sin theta),
in O(m l^2); no m x m projector is formed.  The norm report has a private
core too, :func:`_norm_deviation`, and so has the FK report,
:func:`_fk_report`, which ``run_checks`` uses for the union of every
cluster, read from the two ends of its one solve of A - E, and so has the
good-column report, :func:`_good_column`, which ``run_checks`` calls with
recovery's round-0 pivot.  :func:`check_fk_submatrices` solves its other
sets in one :func:`~plantrec.spectral.submatrix_norms` batch, each for the
two ends of its spectrum.  The noise matrix A - E is never held whole:
:class:`NoiseView` gathers it, 32 rows at a time, from the uint8 adjacency
and the cluster labels, with the diagonal of a caller's choosing, and each
solve copy the checks read is gathered from such a view.
:func:`centered_adjacency` is the view's dense form, which no pipeline
builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import (
    DegenerateGapError,
    DimensionMismatchError,
    EmptyFamilyError,
    EpsilonOutOfRangeError,
    SizeOutOfRangeError,
    vertex_ids,
)
from .model import Graph, ModelParams, PlantedPartition, require_edge_probabilities
from .recovery import all_candidate_sets, select_pivot
from .spectral import (
    Projector,
    eigh_descending,
    eigvals_descending,
    projector_operand,
    spectral_norm,
    submatrix_norms,
    top_projector,
)

__all__ = [
    "Constants",
    "BoundReport",
    "admissible_c",
    "theoretical_spectrum",
    "check_norm_deviation",
    "check_separation",
    "check_projector_deviation",
    "check_good_column",
    "check_purity",
    "check_concentration",
    "check_fk_submatrices",
    "check_weyl",
    "cluster_unions",
    "NoiseView",
    "centered_adjacency",
    "empirical_epsilon",
]

VIOLATION_CAP = 10**6
# cluster_unions lists every union for k up to MAX_ENUMERATE_K clusters, and
# samples UNION_SAMPLE_LIMIT of them beyond that
MAX_ENUMERATE_K = 12
UNION_SAMPLE_LIMIT = 4096


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: satisfied iff lhs <= rhs."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    context: dict

    @staticmethod
    def of(name: str, lhs: float, rhs: float, **context) -> "BoundReport":
        lhs = float(lhs)
        rhs = float(rhs)
        return BoundReport(name=name, lhs=lhs, rhs=rhs, satisfied=bool(lhs <= rhs), context=context)


@dataclass(frozen=True)
class Constants:
    """Derived per-instance constants: cluster-size constant c, its gap-scaled
    form c_prime = (p-q)c, the deviation parameter epsilon = 8/(c_prime - 8)
    (defined only once c_prime > 16) and the entry standard-deviation bound
    sigma."""

    c: float
    c_prime: float
    epsilon: float | None
    sigma: float

    @classmethod
    def from_params(cls, p: float, q: float, c: float) -> "Constants":
        require_edge_probabilities(p, q)
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"c must be finite and positive, got {c}")
        c_prime = (p - q) * c
        epsilon = 8.0 / (c_prime - 8.0) if c_prime > 16.0 else None
        sigma = max(math.sqrt(p * (1.0 - p)), math.sqrt(q * (1.0 - q)))
        return cls(c=float(c), c_prime=c_prime, epsilon=epsilon, sigma=sigma)


def admissible_c(p: float, q: float) -> float:
    """Smallest cluster-size constant the recovery guarantee asks for."""
    if not (0.0 <= q <= 1.0 and 0.0 <= p <= 1.0):
        raise ValueError("probabilities must be in [0, 1]")
    if p == q:
        raise DegenerateGapError("p = q admits no constant")
    if q > p:
        raise ValueError(f"need q < p, got p={p}, q={q}")
    gap = p - q
    return max(88.0 / gap, 72.0 / gap**2)


def theoretical_spectrum(l: int, s: int, p: float, q: float) -> np.ndarray:
    """Closed-form eigenvalues of the expectation matrix on l clusters of size s.

    Descending: (p-q)s + q*l*s once, (p-q)s with multiplicity l-1, then zeros.
    """
    if l < 1 or s < 1:
        raise ValueError("need l >= 1 and s >= 1")
    m = l * s
    spectrum = np.zeros(m, dtype=np.float64)
    spectrum[0] = (p - q) * s + q * m
    spectrum[1:l] = (p - q) * s
    return spectrum


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    return a, b


def check_norm_deviation(sampled: np.ndarray, expected: np.ndarray, **context) -> BoundReport:
    """Spectral norm of (sampled - expected) against 8*sqrt(m)."""
    sampled, expected = _require_same_shape(sampled, expected)
    return _norm_deviation(spectral_norm(sampled - expected), sampled.shape[0], **context)


def _norm_deviation(dev: float, m: int, **context) -> BoundReport:
    """The report of :func:`check_norm_deviation` from ||sampled - expected||_2."""
    return BoundReport.of("norm_deviation", dev, 8.0 * math.sqrt(m), **context)


def check_separation(
    sampled: np.ndarray,
    l: int,
    constants: Constants,
    **context,
) -> tuple[BoundReport, BoundReport]:
    """Eigenvalue separation of the sampled matrix at rank l.

    First report: the top l eigenvalues lie in [(c'-8)sqrt(m), m], encoded as
    the worst signed violation against 0.  Second report: every remaining
    eigenvalue has magnitude at most 8*sqrt(m).
    """
    sampled = np.asarray(sampled, dtype=np.float64)
    m = sampled.shape[0]
    if not 1 <= l <= m:
        raise DimensionMismatchError(f"l must be in 1..{m}, got {l}")
    w = eigvals_descending(sampled)
    root_m = math.sqrt(m)
    lower = (constants.c_prime - 8.0) * root_m
    ctx = dict(context)
    ctx["lambda_1"] = float(w[0])
    ctx["lambda_l"] = float(w[l - 1])
    top = BoundReport.of(
        "separation_top_interval",
        max(lower - w[l - 1], w[0] - m),
        0.0,
        **ctx,
    )
    bulk_mag = float(max(abs(w[l]), abs(w[-1]))) if l < m else 0.0
    bulk = BoundReport.of("separation_bulk", bulk_mag, 8.0 * root_m, **context)
    return top, bulk


def check_projector_deviation(
    sampled: np.ndarray, expected: np.ndarray, l: int, **context
) -> tuple[BoundReport, BoundReport]:
    """Spectral and Frobenius deviation between the rank-l projectors.

    The spectral report compares against 8*sqrt(m) / gap, where the gap is the
    l-th eigenvalue of the expected matrix minus the measured norm deviation
    (infinite rhs when that gap closes).  The Frobenius report checks the
    deterministic rank inequality ||D||_F^2 <= 2l * ||D||_2^2.  Both norms of
    D = P_A - P_E come from the sines of the principal angles between the
    two rank-l eigenspaces: ||D||_2 is the largest, ||D||_F^2 is twice the sum
    of their squares.  Both matrices are solved numerically here; a caller
    that has the sampled projector, or the expected side in closed form, gets
    the same reports from the same arithmetic without these solves.
    """
    sampled, expected = _require_same_shape(sampled, expected)
    m = sampled.shape[0]
    if not 1 <= l <= m:
        raise DimensionMismatchError(f"l must be in 1..{m}, got {l}")
    expected_eig = eigh_descending(expected, l)
    return _projector_deviation(
        _projector_distance(top_projector(sampled, l), Projector(basis=expected_eig.eigenvectors)),
        m,
        float(expected_eig.eigenvalues[l - 1]),
        spectral_norm(sampled - expected),
        **context,
    )


def _projector_distance(p_a: Projector, p_e: Projector) -> np.ndarray:
    """Sines of the principal angles between the ranges of two projectors of
    equal rank l, descending: the singular values of V_a - V_e (V_e^T V_a).

    ||P_a - P_e||_2 is the first and ||P_a - P_e||_F^2 twice the sum of their
    squares.  This form keeps tiny angles accurate, where sqrt(1 - cos^2)
    from the singular values of V_e^T V_a would cancel to zero; only m x l
    arrays are formed.
    """
    a, e = p_a.basis, p_e.basis
    return np.linalg.svd(a - e @ (e.T @ a), compute_uv=False)


def _projector_deviation(
    sines: np.ndarray, m: int, lambda_l: float, instance_dev: float, **context
) -> tuple[BoundReport, BoundReport]:
    """The reports of :func:`check_projector_deviation` from their inputs:
    the l sines of :func:`_projector_distance` between the rank-l projectors
    of the m x m sampled and expected matrices, the expected matrix's l-th
    eigenvalue and ||sampled - expected||_2."""
    l = sines.size
    gap = float(lambda_l) - instance_dev
    rhs = 8.0 * math.sqrt(m) / gap if gap > 0 else math.inf
    spec_report = BoundReport.of(
        "projector_deviation", sines[0], rhs, gap=gap, instance_deviation=instance_dev, **context
    )
    # both sides from the same squares, so at l = 1 they are one expression
    squares = sines**2
    frob_report = BoundReport.of(
        "projector_frobenius_rank", 2.0 * squares.sum(), 2.0 * l * squares[0], **context
    )
    return spec_report, frob_report


def check_good_column(p_hat, part: PlantedPartition, epsilon: float, **context) -> BoundReport:
    """Existence of a column whose candidate set keeps mass (1 - 8e^2 - e)sqrt(s).

    `p_hat` is a Projector or a square matrix on the vertices of `part`; the
    best column is the one :func:`~plantrec.recovery.select_pivot` picks, and
    its candidate set's largest single-cluster overlap is reported as
    `best_overlap`.  s is recorded in the report context.
    """
    if not 0.0 < epsilon <= 0.1:
        raise EpsilonOutOfRangeError(f"epsilon must be in (0, 0.1], got {epsilon}")
    op = projector_operand(p_hat)
    if part.n != op.dim:
        raise DimensionMismatchError(f"partition has {part.n} vertices, projector {op.dim}")
    members, masses = all_candidate_sets(op, part.s)
    best = select_pivot(masses)
    return _good_column(best, members[best], masses[best], part, epsilon, **context)


def _good_column(pivot: int, members: np.ndarray, mass: float, part, epsilon: float, **context) -> BoundReport:
    """The report of :func:`check_good_column` from the best column, its
    candidate set and that set's mass, such as recovery's round-0 pivot."""
    context = {**context, "s": int(part.s)}
    overlap = np.bincount(part.assignment[members], minlength=part.k).max()
    threshold = (1.0 - 8.0 * epsilon**2 - epsilon) * math.sqrt(part.s)
    return BoundReport.of(
        "good_column",
        threshold,
        mass,
        best_pivot=pivot,
        best_overlap=float(overlap),
        epsilon=float(epsilon),
        **context,
    )


def check_purity(w, part: PlantedPartition, epsilon: float, **context) -> BoundReport:
    """Largest single-cluster overlap of a size-s set against (1 - 3e)s."""
    w = vertex_ids(w, part.n)
    if w.size != part.s:
        raise SizeOutOfRangeError(f"set must have exactly s={part.s} vertices")
    overlap = int(np.bincount(part.assignment[w], minlength=part.k).max())
    return BoundReport.of(
        "purity", (1.0 - 3.0 * epsilon) * part.s, float(overlap), epsilon=float(epsilon), **context
    )


def check_concentration(
    g: Graph, part: PlantedPartition, p: float, q: float, epsilon: float, **context
) -> list[BoundReport]:
    """Neighbor counts into every cluster against (p - e)s - p and (q + e)s.

    Returns the gap precondition (q + 4e <= p - 4e), an aggregate report whose
    lhs is the violation count, then one report per violating (vertex, cluster)
    pair, capped at VIOLATION_CAP rows.  p and q are recorded in the report
    context, so callers must not pass them there as well.  The paper's
    concentration lemma bounds the rows of E, whose own cluster's block
    carries p on the diagonal too, so a vertex's expected own count there is
    ps; the adjacency has a zero diagonal, and its own count runs over the
    s - 1 other members, whose expectation is ps - p.  The floor is
    therefore (p - e)s - p, the lemma's slack of es below that expectation
    (else a noiseless instance, own count s - 1 at p = 1, would fall below
    (1 - e)s at every vertex for any e < 1/s).  No entry of E off its
    cluster's block is on the diagonal, so the out-count ceiling is (q + e)s.
    """
    if epsilon <= 0:
        raise EpsilonOutOfRangeError("epsilon must be positive")
    context = {"p": p, "q": q, **context}
    s = part.s
    counts = np.stack([g.adj[:, c].sum(axis=1, dtype=np.int64) for c in part.clusters()], axis=1)
    own = counts[np.arange(part.n), part.assignment]
    in_floor = (p - epsilon) * s - p
    out_ceil = (q + epsilon) * s
    in_bad = np.flatnonzero(own < in_floor)
    other = counts.copy()
    other[np.arange(part.n), part.assignment] = -1
    out_bad_j, out_bad_i = np.nonzero(other > out_ceil)

    reports = [
        BoundReport.of(
            "concentration_gap", q + 4.0 * epsilon, p - 4.0 * epsilon, epsilon=float(epsilon), **context
        )
    ]
    n_violations = int(in_bad.size + out_bad_j.size)
    overflow = n_violations > VIOLATION_CAP
    reports.append(
        BoundReport.of(
            "concentration",
            float(n_violations),
            0.0,
            epsilon=float(epsilon),
            overflow=overflow,
            **context,
        )
    )
    # (name, lhs, rhs, vertex, cluster): every in-row, then the out-rows
    in_rows = (("concentration_in", in_floor, float(own[j]), j, part.assignment[j]) for j in in_bad)
    out_rows = (
        ("concentration_out", float(counts[j, i]), out_ceil, j, i) for j, i in zip(out_bad_j, out_bad_i)
    )
    for name, lhs, rhs, vertex, cluster in islice(chain(in_rows, out_rows), VIOLATION_CAP):
        reports.append(
            BoundReport.of(
                name, lhs, rhs, vertex=int(vertex), cluster=int(cluster), epsilon=float(epsilon), **context
            )
        )
    return reports


def check_fk_submatrices(
    x: np.ndarray,
    family,
    sigma: float,
    labels=None,
    **context,
) -> list[BoundReport]:
    """Spectral norm of every principal submatrix x[S] against 2(sigma + 3K)sqrt(|S|),
    with the entry bound K = 1 of 0-1 noise.

    `x` is a square matrix or a :class:`NoiseView`.  `labels`, when given,
    supplies a cluster bitmask per set for reporting.  The norms come from
    one :func:`~plantrec.spectral.submatrix_norms` batch, which gathers a
    copy of each x[S], never writes to x, and raises VertexIdError for a set
    that is not distinct integer ids in 0..n-1.
    """
    family = [np.asarray(vertices) for vertices in family]
    if not family:
        raise EmptyFamilyError("family of vertex sets is empty")
    if any(vertices.size == 0 for vertices in family):
        raise EmptyFamilyError("vertex sets must be nonempty")
    norms = submatrix_norms(x if isinstance(x, NoiseView) else np.asarray(x, dtype=np.float64), family)
    reports = []
    for idx, (vertices, norm) in enumerate(zip(family, norms)):
        ctx = dict(context)
        if labels is not None:
            ctx["mask"] = int(labels[idx])
        reports.append(_fk_report(norm, vertices.size, sigma, **ctx))
    return reports


def _fk_report(norm: float, size: int, sigma: float, **context) -> BoundReport:
    """The report of :func:`check_fk_submatrices` for one set of `size`
    vertices from the norm of its submatrix."""
    return BoundReport.of("fk_submatrix", norm, 2.0 * (sigma + 3.0) * math.sqrt(size), **context)


def check_weyl(a: np.ndarray, b: np.ndarray, **context) -> BoundReport:
    """Worst eigenvalue displacement between a and b against ||a - b||_2."""
    a, b = _require_same_shape(a, b)
    wa = eigvals_descending(a)
    wb = eigvals_descending(b)
    return BoundReport.of(
        "weyl", float(np.abs(wa - wb).max()), spectral_norm(a - b), **context
    )


def cluster_unions(
    part: PlantedPartition,
    seed: int = 0,
) -> list[tuple[int, np.ndarray]]:
    """All nonempty unions of clusters as (bitmask, vertex ids) pairs.

    Exhaustive for k <= MAX_ENUMERATE_K; beyond that, a seeded uniform sample
    of at most UNION_SAMPLE_LIMIT distinct masks, ascending.  Masks are
    Python ints, so any k works.
    """
    k = part.k
    if k <= MAX_ENUMERATE_K:
        masks = range(1, 2**k)
    else:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
        target = min(UNION_SAMPLE_LIMIT, 2**k - 1)
        chosen: set[int] = set()
        while len(chosen) < target:
            # each mask is k fair bits; the empty mask is redrawn
            bits = rng.integers(0, 2, size=(UNION_SAMPLE_LIMIT, k), dtype=np.uint8)
            for row in np.packbits(bits, axis=1, bitorder="little"):
                mask = int.from_bytes(row.tobytes(), "little")
                if mask:
                    chosen.add(mask)
                    if len(chosen) == target:
                        break
        masks = sorted(chosen)
    out = []
    for mask in masks:
        in_union = np.array([(mask >> c) & 1 for c in range(k)], dtype=bool)
        out.append((int(mask), np.flatnonzero(in_union[part.assignment])))
    return out


class NoiseView:
    """Read-only view of the noise matrix A - E of a sampled graph, with
    `diagonal` in place of its diagonal, gathered 32 rows at a time.

    The entry in row u and column v != u is float64(a_uv) - e_uv, one
    subtraction, where e_uv is p if u and v share a cluster and q if not:
    off the diagonal, the bits of the float64 adjacency minus
    `expectation_matrix`.  A - E itself has -p on its diagonal (the
    adjacency has 0, E has p); diagonal 0 gives A - E + pI, which the FK
    check solves on the cluster unions.  The view holds only the uint8
    adjacency, the labels and three numbers, so it is finite, and it is
    exactly symmetric because :class:`Graph` validates the adjacency.  The
    norm solvers of :mod:`plantrec.spectral` read it beside a dense matrix,
    through `shape` and :meth:`row_blocks`.
    """

    def __init__(self, g: Graph, part: PlantedPartition, params: ModelParams, diagonal: float = 0.0):
        if part.n != g.n:
            raise DimensionMismatchError(f"partition has {part.n} vertices, graph {g.n}")
        self.shape = g.adj.shape
        self._adj = g.adj
        # the cluster ids in their smallest unsigned type, which compares fastest
        self._labels = part.assignment.astype(np.min_scalar_type(part.k - 1))
        self._p, self._q, self._diagonal = params.p, params.q, float(diagonal)

    def row_blocks(self, index: np.ndarray | None = None, rows: int = 32):
        """Yield (i, block) for each block of `rows` rows of the principal
        submatrix on the distinct vertex ids `index` (all of the matrix for
        None), from its diagonal on: `block` is a new float64 array of rows
        i..i+k-1 and columns i..m-1 of the m x m submatrix."""
        labels = self._labels if index is None else self._labels[index]
        for i in range(0, labels.size, rows):
            k = min(rows, labels.size - i)
            adj = self._adj[i : i + k, i:] if index is None else self._adj[index[i : i + k]][:, index[i:]]
            # e_uv, then a_uv - e_uv in its place
            block = np.where(labels[i : i + k, None] == labels[i:], self._p, self._q)
            np.subtract(adj, block, out=block)
            np.fill_diagonal(block, self._diagonal)
            yield i, block


def centered_adjacency(g: Graph, part: PlantedPartition, params: ModelParams) -> np.ndarray:
    """Sampled adjacency minus its entrywise expectation (zero diagonal kept).

    The dense form of :class:`NoiseView` with diagonal 0: one n x n float64
    array, each row block written where it lies and, transposed, where its
    mirror image lies.  Each entry is one subtraction, so the bits equal
    those of the float64 adjacency minus (E - p I), with E from
    `expectation_matrix`.  Setting the diagonal to -p gives A - E exactly.
    The checks never build it: they solve copies gathered from the view.
    """
    noise = np.empty(g.adj.shape, dtype=np.float64)
    for i, block in NoiseView(g, part, params).row_blocks():
        k = block.shape[0]
        noise[i : i + k, i:] = block
        noise[i:, i : i + k] = block.T
    return noise


def empirical_epsilon(sampled: np.ndarray, expected: np.ndarray, l: int) -> float:
    """Measured projector deviation ||P_l(sampled) - P_l(expected)||_2."""
    sampled, expected = _require_same_shape(sampled, expected)
    return float(_projector_distance(top_projector(sampled, l), top_projector(expected, l))[0])
