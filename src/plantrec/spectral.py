"""Dense symmetric eigendecomposition, top-rank projectors, and matrix norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, RankOutOfRangeError

__all__ = [
    "SpectralDecomposition",
    "Projector",
    "as_symmetric",
    "eigh_descending",
    "top_projector",
    "spectral_norm",
    "frobenius_norm",
    "projector_column_mass",
    "projector_operand",
]


def as_symmetric(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric float64 copy of a square matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    out = a + a.T
    out /= 2.0
    return out


def _require_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix has non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in descending order with aligned orthonormal eigenvectors.

    `eigenvectors[:, i]` belongs to `eigenvalues[i]`; there may be fewer
    eigenvectors than eigenvalues (the leading ones only).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        if (np.diff(self.eigenvalues) > 0).any():
            raise ValueError("eigenvalues must be non-increasing")


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector V V^T onto the span of the columns of `basis`.

    `basis` (V, m x r) must have orthonormal columns, as the eigenvectors
    from :func:`top_projector` do; nothing checks this, and with any other
    V the masses below are not ||V V^T 1_W||.  The m x m matrix is never
    stored: columns and set masses are computed from V.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def rank(self) -> int:
        return int(self.basis.shape[1])

    @property
    def matrix(self) -> np.ndarray:
        """The m x m projector, exactly symmetric; built anew on each access."""
        return as_symmetric(self.basis @ self.basis.T)

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """New len(idx) x m array whose row i is the projector's column idx[i]."""
        return self.basis[idx] @ self.basis.T

    def masses(self, sets: np.ndarray) -> np.ndarray:
        """||P 1_W|| for each row W of the 2-D index array `sets`.

        Computed as ||V^T 1_W||, the norm of the sum of W's rows of V, which
        is equal because V has orthonormal columns.
        """
        return _row_sum_norms(self.basis, sets)

    def idempotency_defect(self) -> float:
        """Frobenius norm of P@P - P; near zero for a true projector."""
        p = self.matrix
        return float(np.linalg.norm(p @ p - p, "fro"))


@dataclass(frozen=True, eq=False)
class _DenseOperator:
    """A square matrix read where a projector is expected: its columns are
    read as stored, and the mass of a set is the norm of its column sum.

    `transposed` is A^T in C order, so a column of A is a contiguous row.
    """

    transposed: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.transposed.shape[0])

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """New len(idx) x m array whose row i is the matrix's column idx[i]."""
        return self.transposed[idx]

    def masses(self, sets: np.ndarray) -> np.ndarray:
        """||A 1_W|| for each row W of the 2-D index array `sets`.

        Summing s rows of width m per set would cost more than one BLAS
        product of the sets' indicator rows with A^T, so that is used here;
        a repeated member counts twice.
        """
        sets = np.asarray(sets, dtype=np.int64)
        counts = np.zeros((sets.shape[0], self.dim), dtype=np.float64)
        np.add.at(counts, (np.arange(sets.shape[0])[:, None], sets), 1.0)
        return np.linalg.norm(counts @ self.transposed, axis=1)


def _row_sum_norms(factor: np.ndarray, sets: np.ndarray) -> np.ndarray:
    # One len(sets) x width accumulator, added to once per set position, so
    # the temporary never holds a row of `factor` per member, and each mass
    # depends on its own set only.
    sets = np.asarray(sets, dtype=np.int64)
    acc = np.zeros((sets.shape[0], factor.shape[1]), dtype=np.float64)
    for position in sets.T:
        acc += factor[position]
    return np.linalg.norm(acc, axis=1)


def projector_operand(p) -> Projector | _DenseOperator:
    """`p` as an operand with `dim`, `columns` and `masses`.

    A Projector, or an operand this function returned, passes through;
    anything else is read as a dense square float64 matrix.
    """
    if isinstance(p, (Projector, _DenseOperator)):
        return p
    matrix = np.asarray(p, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    return _DenseOperator(np.ascontiguousarray(matrix.T))


def eigh_descending(a: np.ndarray, rank: int | None = None) -> SpectralDecomposition:
    """Full symmetric eigendecomposition, eigenvalues sorted descending.

    Deterministic for a fixed input: the order is the exact reverse of the
    LAPACK ascending output, so degenerate eigenvalues keep a stable layout.
    With `rank`, every eigenvalue is kept but only the top `rank`
    eigenvectors are copied out of the solve.
    """
    a = np.asarray(a)
    m = a.shape[0]
    if rank is None:
        rank = m
    elif not 1 <= rank <= m:
        raise RankOutOfRangeError(f"rank must be in 1..{m}, got {rank}")
    w, v = np.linalg.eigh(as_symmetric(_require_finite(a)))
    return SpectralDecomposition(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1][:, :rank].copy())


def top_projector(a: np.ndarray, rank: int) -> Projector:
    """Projector onto the eigenspace of the `rank` largest eigenvalues of `a`."""
    return Projector(basis=eigh_descending(a, rank).eigenvectors)


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    a = _require_finite(a)
    if a.shape[0] == 0:
        return 0.0
    w = np.linalg.eigvalsh(as_symmetric(a))
    return float(max(abs(w[0]), abs(w[-1])))


def frobenius_norm(a: np.ndarray) -> float:
    """Entrywise 2-norm."""
    return float(np.linalg.norm(_require_finite(a), "fro"))


def projector_column_mass(p, members) -> float:
    """2-norm of P applied to the indicator vector of `members`.

    `p` is a Projector or a square matrix (see :func:`projector_operand`).
    """
    members = np.asarray(members, dtype=np.int64)
    return float(projector_operand(p).masses(members[None, :])[0])
