"""Dense symmetric eigendecomposition, top-rank projectors, and matrix norms.

Every solve goes through one driver (workspace query, call, INFO check) into
LAPACK ``dsyevr`` of the LAPACK that numpy itself links, looked up once, at
import, with ctypes: the top r eigenpairs, or all eigenvalues only (the same
bits as numpy's ``eigvalsh``).  Where it is not exported under a known name,
numpy's full ``eigh`` (keeping the top r) or ``eigvalsh`` runs in its place.

Every matrix input passes one check: square, finite, and read as
(a + a^T) / 2 unless exactly symmetric, compared one tile pair at a time.  A
solve makes one m x m float64 copy of its input, which LAPACK overwrites: an
integer or bool matrix (a graph's uint8 adjacency) is converted straight
into it.

The norms of many principal submatrices of one matrix
(:func:`submatrix_norms`) are solved on a thread pool, one solve per core at
once with OpenBLAS held at one thread (through its
``openblas_set_num_threads``, looked up the same way), or one at a time where
``dsyevr`` or the thread controls do not resolve.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, RankOutOfRangeError

__all__ = [
    "SpectralDecomposition",
    "Projector",
    "as_symmetric",
    "eigh_descending",
    "eigvals_descending",
    "top_projector",
    "spectral_norm",
    "submatrix_norms",
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


# Side of the square tiles the symmetry check compares with their mirror
# images: the temporary stays small beside the m x m matrix, and a tile's
# transpose is read from cache.
_SYMMETRY_TILE = 512


def _is_symmetric(a: np.ndarray) -> bool:
    """Whether the square `a` equals its transpose, one tile pair at a time."""
    b, m = _SYMMETRY_TILE, a.shape[0]
    return all(
        (a[i : i + b, j : j + b] == a[j : j + b, i : i + b].T).all()
        for i in range(0, m, b)
        for j in range(i, m, b)
    )


def _finite_symmetric(a: np.ndarray, private: bool) -> np.ndarray:
    """Square `a` as a finite, exactly symmetric C-order float64 matrix.

    With `private` the result is a new array, which the caller may
    overwrite; otherwise it may be `a` itself.  An integer or bool `a` equal
    to its transpose (compared in its own dtype) cannot be non-finite, so
    its conversion is the result.  Any other `a` is checked finite and, if
    not exactly symmetric, replaced by :func:`as_symmetric` of it; as
    (x + x) / 2 = x, the values are as_symmetric's either way.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.dtype.kind in "biu" and _is_symmetric(a):
        return a.astype(np.float64, order="C")
    a = (np.array if private else np.asarray)(a, dtype=np.float64, order="C")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix has non-finite entries")
    return a if _is_symmetric(a) else as_symmetric(a)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in descending order with aligned orthonormal eigenvectors.

    `eigenvectors[:, i]` belongs to `eigenvalues[i]`: all m pairs of a full
    solve, or the leading r of a rank-r one.
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
    formed: columns and set masses are computed from V.
    """

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def rank(self) -> int:
        return int(self.basis.shape[1])

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """New len(idx) x m array whose row i is the projector's column idx[i]."""
        return self.basis[idx] @ self.basis.T

    def masses(self, sets: np.ndarray) -> np.ndarray:
        """||P 1_W|| for each row W of the 2-D index array `sets`.

        Computed as ||V^T 1_W||, the norm of the sum of W's rows of V, which
        is equal because V has orthonormal columns.
        """
        return _row_sum_norms(self.basis, sets)


@dataclass(frozen=True, eq=False)
class _DenseOperator:
    """A symmetric matrix read where a projector is expected: column j is
    row j, and the mass of a set is the norm of its column sum."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """New len(idx) x m array whose row i is the matrix's column idx[i]."""
        return self.matrix[idx]

    def masses(self, sets: np.ndarray) -> np.ndarray:
        """||A 1_W|| for each row W of the 2-D index array `sets`."""
        return _row_sum_norms(self.matrix, sets)


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
    anything else is read as every solve reads its input: a square finite
    matrix (a NaN entry would make NaN masses, and the pivot choice would
    fall to vertex 0 without a word), taken as (a + a^T) / 2 unless exactly
    symmetric.  The operand may hold `p` itself and never writes to it.
    """
    if isinstance(p, (Projector, _DenseOperator)):
        return p
    return _DenseOperator(_finite_symmetric(p, private=False))


def eigh_descending(a: np.ndarray, rank: int | None = None) -> SpectralDecomposition:
    """Symmetric eigendecomposition, eigenvalues sorted descending.

    The top `rank` eigenvalues and their eigenvectors, or every eigenpair
    without `rank`, from LAPACK ``dsyevr`` (or numpy's full ``eigh``,
    sliced, where numpy's LAPACK has no ``dsyevr``), on one float64 copy of
    `a`, which may be an integer or bool matrix such as a graph's adjacency.
    The result is deterministic for a fixed input, LAPACK and BLAS thread
    count.
    """
    a = np.asarray(a)
    m = a.shape[0]
    if rank is not None and not 1 <= rank <= m:
        raise RankOutOfRangeError(f"rank must be in 1..{m}, got {rank}")
    w, v = _solve_top(_finite_symmetric(a, private=True), m if rank is None else rank)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def eigvals_descending(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending, with no eigenvectors
    (one values-only solve of a float64 copy, bit for bit numpy's
    ``eigvalsh``); validated as :func:`eigh_descending` validates."""
    return _solve_values(_finite_symmetric(a, private=True))[::-1]


# Name templates of numpy's LAPACK routines and OpenBLAS thread controls,
# each with its integer type, tried in order: numpy >= 2 wheels
# (scipy-openblas, 64-bit integers), numpy 1.2x wheels (64-bit), then a
# distribution or conda build (32-bit).  The integer type is LAPACK's Fortran
# integer; OpenBLAS takes its thread count as a C int under every name.
# dlsym on the handle of numpy's own extension module also searches the
# libraries it links.
_LAPACK_NAMES = (
    ("scipy_{}_64_", ctypes.c_int64),
    ("{}_64_", ctypes.c_int64),
    ("{}_", ctypes.c_int32),
)
_OPENBLAS_NAMES = (
    ("scipy_openblas_{}64_", ctypes.c_int),
    ("openblas_{}64_", ctypes.c_int),
    ("openblas_{}", ctypes.c_int),
)


def _dsyevr_argtypes(int_type) -> list:
    integer, double = ctypes.POINTER(int_type), ctypes.POINTER(ctypes.c_double)
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
    integers = np.ctypeslib.ndpointer(int_type, flags="C_CONTIGUOUS,WRITEABLE")
    return [
        *[ctypes.c_char_p] * 3,  # JOBZ, RANGE, UPLO
        integer, doubles, integer,  # N, A, LDA
        double, double, integer, integer, double,  # VL, VU, IL, IU, ABSTOL
        integer, doubles, doubles, integer, integers,  # M, W, Z, LDZ, ISUPPZ
        doubles, integer, integers, integer, integer,  # WORK, LWORK, IWORK, LIWORK, INFO
        *[ctypes.c_size_t] * 3,  # the hidden lengths of the three strings
    ]


def _resolve(routine: str, names, argtypes, restype=None):
    """(function, integer type) for the first of `names`, filled in with
    `routine`, that numpy's LAPACK exports, declared with
    `argtypes(int_type)`; None if none is."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name, int_type in names:
        func = getattr(lib, name.format(routine), None)
        if func is not None:
            func.argtypes = argtypes(int_type)
            func.restype = restype
            return func, int_type
    return None


_DSYEVR = _resolve("dsyevr", _LAPACK_NAMES, _dsyevr_argtypes)
_SET_THREADS = _resolve("set_num_threads", _OPENBLAS_NAMES, lambda int_type: [int_type])
_GET_THREADS = _resolve("get_num_threads", _OPENBLAS_NAMES, lambda int_type: [], restype=ctypes.c_int)

# Held while a batch of submatrix norms keeps OpenBLAS at one thread, so two
# batches in different threads cannot interleave the save and the restore.
_BLAS_THREADS_LOCK = threading.Lock()


def _lapack(routine: str, resolved, head: tuple, lengths: tuple, extra_work: int = 0) -> None:
    """Call the LAPACK `routine`, `resolved` as (function, integer type),
    with the arguments `head`, WORK, LWORK, IWORK, LIWORK, INFO and the
    hidden string `lengths`: once as the workspace query, then with the sizes
    it returned (WORK `extra_work` longer).  A nonzero INFO raises LinAlgError."""
    func, int_type = resolved
    info = int_type(0)

    def call(work: np.ndarray, lwork: int, iwork: np.ndarray, liwork: int) -> None:
        func(*head, work, int_type(lwork), iwork, int_type(liwork), info, *lengths)
        if info.value != 0:
            raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info.value})")

    work, iwork = np.empty(1, dtype=np.float64), np.empty(1, dtype=int_type)
    call(work, -1, iwork, -1)  # workspace query: the sizes come back in work[0], iwork[0]
    lwork, liwork = int(work[0]) + extra_work, int(iwork[0])
    call(np.empty(lwork, dtype=np.float64), lwork, np.empty(liwork, dtype=int_type), liwork)


def _solve_top(a: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Top `rank` eigenvalues (descending) and eigenvectors (m x rank, C
    order) of the exactly symmetric float64 C-order matrix `a`, which the
    solve may overwrite."""
    if _DSYEVR is None:
        w, v = np.linalg.eigh(a)
        return w[::-1][:rank].copy(), v[:, ::-1][:, :rank].copy()
    w, z = _dsyevr(a, rank, vectors=True)
    return w[::-1].copy(), np.ascontiguousarray(z[::-1].T)


def _solve_values(a: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the exactly symmetric float64 C-order
    matrix `a`, which the solve may overwrite: LAPACK dsyevr in place where
    numpy's LAPACK exports it, else numpy's ``eigvalsh`` of a copy; both
    give the same bits at the same BLAS thread count."""
    if _DSYEVR is None:
        return np.linalg.eigvalsh(a)
    return _dsyevr(a, a.shape[0], vectors=False)[0]


def _dsyevr(a: np.ndarray, count: int, vectors: bool) -> tuple[np.ndarray, np.ndarray]:
    """(w, z): the top `count` eigenvalues, ascending, by LAPACK dsyevr with
    RANGE='I', and with `vectors` their eigenvectors (else z is empty).

    `a` is symmetric, so its C-order buffer is also the column-major matrix
    LAPACK expects; LAPACK destroys it.  Eigenvector j comes back as row j of
    a count x m array, which is column j of a column-major m x count one.
    """
    int_type = _DSYEVR[1]
    m = a.shape[0]
    # LAPACK requires LDA, LDZ >= 1, also for the 0 x 0 matrix
    lead, found = int_type(max(m, 1)), int_type(0)
    # the most accurate bisection tolerance, 2 * LAPACK's safe minimum
    abstol = ctypes.c_double(2.0 * np.finfo(np.float64).tiny)
    unused = ctypes.c_double(0.0)  # VL, VU are not read with RANGE='I'
    w = np.empty(m, dtype=np.float64)
    z = np.empty((count if vectors else 0, m), dtype=np.float64)
    isuppz = np.empty(2 * count, dtype=int_type)
    head = (
        b"V" if vectors else b"N", b"I", b"L", int_type(m), a, lead, unused, unused,
        int_type(m - count + 1), int_type(m), abstol, found, w, z, lead, isuppz,
    )
    # dsyevr keeps 5m of WORK: 5m more than queried gives its dsytrd dsyevd's blocking, and eigvalsh's bits
    _lapack("dsyevr", _DSYEVR, head, (1, 1, 1), extra_work=0 if vectors else 5 * m)
    if found.value != count:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr found {found.value} of {count} eigenpairs")
    return w[:count], z


@contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread inside the block, its old count restored after.

    The count is process-wide: a BLAS call another thread makes meanwhile
    also runs on one thread.  Requires `_SET_THREADS` and `_GET_THREADS`.
    """
    with _BLAS_THREADS_LOCK:
        old = _GET_THREADS[0]()
        _SET_THREADS[0](1)
        try:
            yield
        finally:
            _SET_THREADS[0](old)


def _workers() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def submatrix_norms(a: np.ndarray, sets) -> np.ndarray:
    """Spectral norm of each principal submatrix a[S, S], S in `sets`.

    Equal to :func:`spectral_norm` of each gathered submatrix, but `a` is
    checked (finite, and symmetrized unless exactly symmetric) once.  The
    sets are solved largest first on a thread pool: one solve per core at
    once, with OpenBLAS at one thread for the batch, where numpy's LAPACK
    exports dsyevr and OpenBLAS's thread controls, else one at a time at
    the current BLAS thread count.  The calling thread gathers each copy,
    and starts a set only while the copies in flight fit in a.nbytes (or
    none is in flight).  An empty set has norm 0.
    """
    a = _finite_symmetric(a, private=False)
    sets = [np.asarray(v, dtype=np.int64) for v in sets]
    norms = np.zeros(len(sets), dtype=np.float64)
    pending = sorted((i for i, v in enumerate(sets) if v.size), key=lambda i: -sets[i].size)
    nbytes = [8 * v.size**2 for v in sets]  # of each set's float64 copy
    pinned = _DSYEVR is not None and _SET_THREADS is not None and _GET_THREADS is not None
    workers = _workers() if pinned else 1
    in_flight: dict = {}  # future -> set index
    with _one_blas_thread() if pinned else nullcontext(), ThreadPoolExecutor(max_workers=workers) as pool:
        while pending or in_flight:
            held = sum(nbytes[i] for i in in_flight.values())
            while pending and len(in_flight) < workers:
                # the largest pending set whose copy fits beside those in flight
                fits = (i for i in pending if held + nbytes[i] <= a.nbytes)
                i = next(fits, None if in_flight else pending[0])
                if i is None:
                    break
                pending.remove(i)
                in_flight[pool.submit(_solve_values, a[np.ix_(sets[i], sets[i])])] = i
                held += nbytes[i]
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                w = future.result()
                norms[in_flight.pop(future)] = max(abs(w[0]), abs(w[-1]))
    return norms


def top_projector(a: np.ndarray, rank: int) -> Projector:
    """Projector onto the eigenspace of the `rank` largest eigenvalues of `a`."""
    return Projector(basis=eigh_descending(a, rank).eigenvectors)


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    w = eigvals_descending(a)
    return float(max(abs(w[0]), abs(w[-1]))) if w.size else 0.0

