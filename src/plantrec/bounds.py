"""Numerical checks of the model's spectral and counting bounds.

Every checker returns :class:`BoundReport` rows with the convention
``satisfied == (lhs <= rhs)``; for lower-bound claims the threshold therefore
sits on the lhs.  Probabilistic bounds are reported, never asserted: callers
aggregate satisfaction rates over seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGapError,
    DimensionMismatchError,
    EmptyFamilyError,
    EpsilonOutOfRangeError,
    SizeOutOfRangeError,
)
from .model import Graph, ModelParams, PlantedPartition, expectation_matrix
from .recovery import all_candidate_sets, select_pivot
from .spectral import (
    eigh_descending,
    frobenius_norm,
    projector_operand,
    spectral_norm,
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
    "centered_adjacency",
    "empirical_epsilon",
]

VIOLATION_CAP = 10**6


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
    (defined only once c_prime > 16), the entry standard-deviation bound sigma,
    and the absolute entry bound (1 for 0-1 noise)."""

    c: float
    c_prime: float
    epsilon: float | None
    sigma: float
    entry_bound: float = 1.0

    @classmethod
    def from_params(cls, p: float, q: float, c: float) -> "Constants":
        if not (0.0 <= q < p <= 1.0):
            raise ValueError(f"need 0 <= q < p <= 1, got p={p}, q={q}")
        if c <= 0:
            raise ValueError("c must be positive")
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
    m = sampled.shape[0]
    return BoundReport.of(
        "norm_deviation", spectral_norm(sampled - expected), 8.0 * math.sqrt(m), **context
    )


def check_separation(
    sampled: np.ndarray,
    l: int,
    constants: Constants,
    expected: np.ndarray | None = None,
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
    w = eigh_descending(sampled).eigenvalues
    root_m = math.sqrt(m)
    lower = (constants.c_prime - 8.0) * root_m
    ctx = dict(context)
    ctx["lambda_1"] = float(w[0])
    ctx["lambda_l"] = float(w[l - 1])
    if expected is not None:
        _, expected = _require_same_shape(sampled, expected)
        ctx["norm_bound_held"] = bool(
            spectral_norm(sampled - expected) <= 8.0 * root_m
        )
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
    deterministic rank inequality ||D||_F^2 <= 2l * ||D||_2^2.
    """
    sampled, expected = _require_same_shape(sampled, expected)
    m = sampled.shape[0]
    if not 1 <= l <= m:
        raise DimensionMismatchError(f"l must be in 1..{m}, got {l}")
    diff = top_projector(sampled, l).matrix - top_projector(expected, l).matrix
    dev_spec = spectral_norm(diff)
    dev_frob = frobenius_norm(diff)
    instance_dev = spectral_norm(sampled - expected)
    gap = float(eigh_descending(expected).eigenvalues[l - 1]) - instance_dev
    rhs = 8.0 * math.sqrt(m) / gap if gap > 0 else math.inf
    spec_report = BoundReport.of(
        "projector_deviation", dev_spec, rhs, gap=gap, instance_deviation=instance_dev, **context
    )
    frob_report = BoundReport.of(
        "projector_frobenius_rank", dev_frob**2, 2.0 * l * dev_spec**2, **context
    )
    return spec_report, frob_report


def check_good_column(p_hat, coassign: np.ndarray, s: int, epsilon: float, **context) -> BoundReport:
    """Existence of a column whose candidate set keeps mass (1 - 8e^2 - e)sqrt(s).

    `p_hat` is a Projector or a square matrix; the best column is the one
    :func:`~plantrec.recovery.select_pivot` picks.  `coassign` is the 0-1 co-membership matrix on the same vertices; it is
    used to report how concentrated the best candidate set is on one cluster.
    s is recorded in the report context, so callers must not pass it there.
    """
    if not 0.0 < epsilon <= 0.1:
        raise EpsilonOutOfRangeError(f"epsilon must be in (0, 0.1], got {epsilon}")
    context = {"s": int(s), **context}
    op = projector_operand(p_hat)
    coassign = np.asarray(coassign, dtype=np.float64)
    if coassign.shape != (op.dim, op.dim):
        raise DimensionMismatchError("co-membership matrix shape differs from projector")
    sets = all_candidate_sets(op, s)
    best = sets[select_pivot(op, sets)]
    overlap = coassign[np.ix_(best.members, best.members)].sum(axis=1).max()
    threshold = (1.0 - 8.0 * epsilon**2 - epsilon) * math.sqrt(s)
    return BoundReport.of(
        "good_column",
        threshold,
        best.mass,
        best_pivot=int(best.pivot),
        best_overlap=float(overlap),
        epsilon=float(epsilon),
        **context,
    )


def check_purity(w, part: PlantedPartition, epsilon: float, **context) -> BoundReport:
    """Largest single-cluster overlap of a size-s set against (1 - 3e)s."""
    w = np.asarray(w, dtype=np.int64)
    if w.size != part.s:
        raise SizeOutOfRangeError(f"set must have exactly s={part.s} vertices")
    overlap = int(np.bincount(part.assignment[w], minlength=part.k).max())
    return BoundReport.of(
        "purity", (1.0 - 3.0 * epsilon) * part.s, float(overlap), epsilon=float(epsilon), **context
    )


def check_concentration(
    g: Graph, part: PlantedPartition, p: float, q: float, epsilon: float, **context
) -> list[BoundReport]:
    """Neighbor counts into every cluster against (p - e)s and (q + e)s.

    Returns the gap precondition (q + 4e <= p - 4e), an aggregate report whose
    lhs is the violation count, then one report per violating (vertex, cluster)
    pair, capped at VIOLATION_CAP rows.  p and q are recorded in the report
    context, so callers must not pass them there as well.
    """
    if epsilon <= 0:
        raise EpsilonOutOfRangeError("epsilon must be positive")
    context = {"p": p, "q": q, **context}
    s = part.s
    onehot = np.zeros((part.n, part.k), dtype=np.int64)
    onehot[np.arange(part.n), part.assignment] = 1
    counts = g.adj.astype(np.int64) @ onehot
    own = counts[np.arange(part.n), part.assignment]
    in_floor = (p - epsilon) * s
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
    budget = VIOLATION_CAP
    for j in in_bad[:budget]:
        reports.append(
            BoundReport.of(
                "concentration_in",
                in_floor,
                float(own[j]),
                vertex=int(j),
                cluster=int(part.assignment[j]),
                epsilon=float(epsilon),
                **context,
            )
        )
    budget -= min(int(in_bad.size), budget)
    for j, i in zip(out_bad_j[:budget], out_bad_i[:budget]):
        reports.append(
            BoundReport.of(
                "concentration_out",
                float(counts[j, i]),
                out_ceil,
                vertex=int(j),
                cluster=int(i),
                epsilon=float(epsilon),
                **context,
            )
        )
    return reports


def check_fk_submatrices(
    x: np.ndarray,
    family,
    sigma: float,
    entry_bound: float = 1.0,
    labels=None,
    **context,
) -> list[BoundReport]:
    """Spectral norm of every principal submatrix x[S] against 2(sigma + 3K)sqrt(|S|).

    `labels`, when given, supplies a cluster bitmask per set for reporting.
    """
    x = np.asarray(x, dtype=np.float64)
    family = list(family)
    if not family:
        raise EmptyFamilyError("family of vertex sets is empty")
    reports = []
    for idx, vertices in enumerate(family):
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            raise EmptyFamilyError("vertex sets must be nonempty")
        sub = x[np.ix_(vertices, vertices)]
        ctx = dict(context)
        if labels is not None:
            ctx["mask"] = int(labels[idx])
        reports.append(
            BoundReport.of(
                "fk_submatrix",
                spectral_norm(sub),
                2.0 * (sigma + 3.0 * entry_bound) * math.sqrt(vertices.size),
                **ctx,
            )
        )
    return reports


def check_weyl(a: np.ndarray, b: np.ndarray, **context) -> BoundReport:
    """Worst eigenvalue displacement between a and b against ||a - b||_2."""
    a, b = _require_same_shape(a, b)
    wa = eigh_descending(a).eigenvalues
    wb = eigh_descending(b).eigenvalues
    return BoundReport.of(
        "weyl", float(np.abs(wa - wb).max()), spectral_norm(a - b), **context
    )


def cluster_unions(
    part: PlantedPartition,
    max_enumerate_k: int = 12,
    sample_limit: int = 4096,
    seed: int = 0,
) -> list[tuple[int, np.ndarray]]:
    """All nonempty unions of clusters as (bitmask, vertex ids) pairs.

    Exhaustive for k <= max_enumerate_k; beyond that, a seeded uniform sample
    of at most sample_limit distinct masks, ascending.  Masks are Python
    ints, so any k works.
    """
    k = part.k
    if k <= max_enumerate_k:
        masks = range(1, 2**k)
    else:
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
        target = min(sample_limit, 2**k - 1)
        chosen: set[int] = set()
        while len(chosen) < target:
            # each mask is k fair bits; the empty mask is redrawn
            bits = rng.integers(0, 2, size=(sample_limit, k), dtype=np.uint8)
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


def centered_adjacency(g: Graph, part: PlantedPartition, params: ModelParams) -> np.ndarray:
    """Sampled adjacency minus its entrywise expectation (zero diagonal kept)."""
    expected_edges = expectation_matrix(part, params) - params.p * np.eye(part.n)
    return g.dense() - expected_edges


def empirical_epsilon(sampled: np.ndarray, expected: np.ndarray, l: int) -> float:
    """Measured projector deviation ||P_l(sampled) - P_l(expected)||_2."""
    sampled, expected = _require_same_shape(sampled, expected)
    diff = top_projector(sampled, l).matrix - top_projector(expected, l).matrix
    return spectral_norm(diff)
