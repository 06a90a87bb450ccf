"""Dense symmetric eigendecomposition, top-rank projectors, and matrix norms.

Two capabilities are looked up once, at import, with ctypes in the libraries
numpy itself links, each as a whole or not at all.  LAPACK is the six
routines this module calls (``dsyevr``, ``dsytrd``, ``dstebz``, ``dpotrf``
and the BLAS ``dtrsm`` and ``dgemm``), all under one name template, so with
one integer type.  The thread controls are OpenBLAS's
``openblas_set_num_threads`` and ``openblas_get_num_threads``.  OpenBLAS
wheels export both, an MKL or reference LAPACK build only LAPACK, and
Accelerate or Windows wheels neither.  Each LAPACK routine's arguments are
declared once, and every call goes through one function (:func:`_call`)
that passes scalars by reference, every array as an address checked
against the declaration (:func:`_address`), and appends the hidden string
lengths.

Every dense eigenvector solve goes through one driver (workspace query,
call, INFO check) into LAPACK ``dsyevr`` for the top r eigenpairs.  A norm
needs only the two ends of the spectrum: one LAPACK ``dsytrd`` reduction to
the tridiagonal that ``eigvalsh`` also solves, then two ``dstebz``
bisections, for the lowest and the highest eigenvalue, each to within a
few ulps of itself.  All eigenvalues without eigenvectors are numpy's
``eigvalsh``.  Without LAPACK, numpy's full ``eigh`` (keeping the top r)
runs in place of a top-r solve and the two ends of ``eigvalsh`` in place of
a norm, each on the transpose of a triangle copy; no block iteration is
tried.

A top-r solve of a large matrix far from the spectral threshold (m >= 1500
and sqrt(m)/r >= 4) first tries a block iteration: r + 8 vectors from a fixed
Philox start, each step a QR (at one BLAS thread, where that can be set),
one product with the matrix and a Rayleigh-Ritz step that ranks the Ritz
pairs by value, until the residual ||A V - V Theta|| of the top r is small.
Its basis is kept only when a Cholesky factorization of
sigma' I - A + V Theta V^T succeeds in place (by row panels of 128 rows:
one ``dgemm`` forms a panel, one ``dgemm`` per panel above updates it,
LAPACK ``dpotrf`` factors its diagonal tile and one ``dtrsm`` solves the
rest), where sigma' is sigma lowered by a bound on the rounding of forming
and factoring that matrix; this proves lambda_{r+1} < sigma and so, by
Davis-Kahan, sin theta <= 1e-10 against the exact top-r eigenspace.  If the
factorization fails, the step budget runs out, or from the sixth step on
the Ritz gap or the residual's contraction shows the wanted part is not
separating, ``dsyevr`` solves a new copy of the input, bit for bit as it
would alone.  Either way the result is
deterministic for a fixed input, LAPACK build and BLAS thread count.  Where
a rank cuts a repeated eigenvalue and ``dsyevr`` finds fewer than the top r
pairs, another new copy is solved for all pairs.

Every matrix input passes one check: square, finite, and read as
(a + a^T) / 2 unless exactly symmetric, compared one tile pair at a time,
with no m x m temporary.  The solvers of norms (:func:`submatrix_norms`
and the two-ends solve behind it) also take a row-block gather in place of
a matrix: an object that holds no m x m array and yields any principal
submatrix 32 rows at a time, such as :class:`plantrec.bounds.NoiseView`,
which turns the uint8 blocks :func:`_row_blocks` gathers from a graph's
adjacency into A - E.  It is finite and exactly symmetric by construction
and is not checked.
The checked matrix is never written to: each attempt at a solve writes a
float64 copy of its own, converted straight from an integer or bool matrix
(a graph's uint8 adjacency) or gathered block by block, into a fresh
anonymous memory mapping that is unmapped when the copy dies, so no copy
enters (or stays in) the malloc heap.  A copy that LAPACK reads (``dsyevr``
and ``dsytrd`` with UPLO='L' read the lower triangle of the column-major
matrix, which is the upper triangle of the C-order one) holds only that
triangle: the pages of the other one are never written and never become
resident, about 4m^2 bytes plus a page per row of 8m^2.  The iteration
works on a copy of its own (:func:`_panel_copy`): the upper triangle as row
panels of 128 rows packed back to back in one mapping, panel k holding rows
k..k+127 from column k on, whole diagonal tile included, as a C-order block
whose leading dimension is m - k.  That is 4m^2 + 512m bytes, every page of
them written, and nothing below the diagonal tiles; a product reads each
panel once as it is and once transposed.

The norms of many principal submatrices of one matrix
(:func:`submatrix_norms`) are solved with OpenBLAS held at one thread
through its thread controls: on a thread pool, one solve per core at once,
where some set has more than 128 members, else one at a time.  Without
LAPACK or without the controls they are solved one at a time, at the
current BLAS thread count.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, RankOutOfRangeError, vertex_id_rows, vertex_ids

__all__ = [
    "SolveRecord",
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


def _finite_symmetric(a: np.ndarray) -> np.ndarray:
    """Square `a` as a finite, exactly symmetric matrix, which the caller
    must not write to: `a` itself where it can be.

    An integer or bool `a` equal to its transpose (compared in its own
    dtype) cannot be non-finite, so it is the result as it is; a solve's
    copy converts it.  Any other `a` is read as float64, checked finite and,
    if not exactly symmetric, replaced by :func:`as_symmetric` of it; as
    (x + x) / 2 = x, the values are as_symmetric's either way.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.dtype.kind in "biu" and _is_symmetric(a):
        return a
    a = np.asarray(a, dtype=np.float64)
    # min and max propagate NaN and reach +-inf, with no m x m temporary
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise NonFiniteError("matrix has non-finite entries")
    return a if _is_symmetric(a) else as_symmetric(a)


# Rows of one block of a triangle copy: the gather of a principal submatrix
# holds one block of rows at a time.
_COPY_ROWS = 32
_UPPER_TILE = np.triu(np.ones((_COPY_ROWS, _COPY_ROWS), dtype=bool))


def _solve_copy(a, index: np.ndarray | None = None) -> np.ndarray:
    """New m x m float64 C-order copy of the upper triangle of the symmetric
    `a`, or of its principal submatrix a[index, index], in an anonymous
    memory mapping of its own that is unmapped when the copy dies.

    `a` is a matrix or a row-block gather (:func:`_gathers`).  The upper
    triangle is the lower triangle of the column-major view, the one dsyevr
    and dsytrd with UPLO='L' read; the pages of the other triangle (which
    read as zeros) never become resident.
    """
    m = a.shape[0] if index is None else index.size
    if m == 0:
        return np.zeros((0, 0))
    out = _mapped(m * m).reshape(m, m)
    for i, block in a.row_blocks(index) if _gathers(a) else _row_blocks(a, index):
        k = block.shape[0]
        np.copyto(out[i : i + k, i : i + k], block[:, :k], where=_UPPER_TILE[:k, :k])
        out[i : i + k, i + k :] = block[:, k:]
    return out


def _mapped(count: int) -> np.ndarray:
    """New float64 array of `count` zeros in an anonymous memory mapping of
    its own, unmapped when the last view of it dies: no page of it enters the
    malloc heap, and a page becomes resident only when written."""
    buffer = mmap.mmap(-1, 8 * count, flags=mmap.MAP_PRIVATE)
    if hasattr(buffer, "madvise") and hasattr(mmap, "MADV_NOHUGEPAGE"):
        # a huge page would make unwritten pages resident too
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype=np.float64)


def _row_blocks(a: np.ndarray, index: np.ndarray | None):
    """Yield (i, block): rows i..i+k-1 of the matrix `a`, or of a[index, index],
    from column i on, `_COPY_ROWS` rows at a time, in `a`'s dtype: a slice, or
    gathered rows first, then columns (five times faster than both at once)."""
    m = a.shape[0] if index is None else index.size
    for i in range(0, m, _COPY_ROWS):
        k = min(_COPY_ROWS, m - i)
        yield i, (a[i : i + k, i:] if index is None else a[index[i : i + k]][:, index[i:]])


def _gathers(a) -> bool:
    """Whether `a` is a row-block gather rather than a matrix: a read-only
    symmetric matrix that holds no m x m array, such as
    :class:`plantrec.bounds.NoiseView`, with `shape` and ``row_blocks(index)``
    yielding what :func:`_row_blocks` yields for the matrix it stands for,
    as float64."""
    return hasattr(a, "row_blocks")


@dataclass(frozen=True)
class SolveRecord:
    """How a top-r solve was made.

    `solver` is "iterative" (the certified block iteration) or "dsyevr"
    (LAPACK, or numpy's ``eigh`` where LAPACK does not resolve).  `steps`
    counts the iteration's m x b block products with the matrix, also those
    of an iteration that gave way to dsyevr (0 where none ran).
    `sin_theta` is the certified bound on the sine of the largest principal
    angle between the returned basis and the exact top-r eigenspace, for an
    iterative solve; None for dsyevr.  `all_pairs` is True where dsyevr,
    asked for the top r pairs, found fewer (r cuts a repeated eigenvalue)
    and the top r were kept from its solve of all m pairs.
    """

    solver: str
    steps: int
    sin_theta: float | None
    all_pairs: bool = False


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in descending order with aligned orthonormal eigenvectors.

    `eigenvectors[:, i]` belongs to `eigenvalues[i]`: all m pairs of a full
    solve, or the leading r of a rank-r one.  `solve` records how a solve
    through :func:`eigh_descending` was made.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    solve: SolveRecord | None = None

    def __post_init__(self) -> None:
        if (np.diff(self.eigenvalues) > 0).any():
            raise ValueError("eigenvalues must be non-increasing")


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector V V^T onto the span of the columns of `basis`.

    `basis` (V, m x r) must have orthonormal columns, as the eigenvectors
    from :func:`top_projector` do; nothing checks this, and with any other
    V the masses below are not ||V V^T 1_W||.  The m x m matrix is never
    formed: columns and set masses are computed from V.  `solve` records
    how :func:`top_projector` found the basis.
    """

    basis: np.ndarray
    solve: SolveRecord | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    @property
    def rank(self) -> int:
        return int(self.basis.shape[1])

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """New len(idx) x m array whose row i is the projector's column idx[i]."""
        return self.basis[vertex_ids(idx, self.dim)] @ self.basis.T

    def masses(self, sets: np.ndarray) -> np.ndarray:
        """||P 1_W|| for each row W of the 2-D index array `sets`, each row a
        set of distinct vertex ids (:func:`~plantrec.errors.vertex_id_rows`).

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
        return self.matrix[vertex_ids(idx, self.dim)]

    def masses(self, sets: np.ndarray) -> np.ndarray:
        """||A 1_W|| for each row W of the 2-D index array `sets`, checked
        as :meth:`Projector.masses` checks them."""
        return _row_sum_norms(self.matrix, sets)


def _row_sum_norms(factor: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Norm of the sum of the rows of `factor` in each row of `sets`.

    Each distinct set is weighed once: rows are grouped by :func:`_set_key`,
    and a group shares its first row's mass only if every row in it equals
    that row; on any key collision every row is weighed.  A mass depends on
    its own set only, so it is the same bits either way.  Each row must be a
    set of distinct ids of rows of `factor`.
    """
    sets = vertex_id_rows(sets, factor.shape[0])
    _, first, group = np.unique(_set_key(sets), return_index=True, return_inverse=True)
    if first.size < len(sets) and np.array_equal(sets[first][group], sets):
        return _weigh(factor, sets[first])[group]
    return _weigh(factor, sets)


def _set_key(sets: np.ndarray) -> np.ndarray:
    """A cheap int64 key per row of `sets`, equal for equal rows: the sum of
    the squared members, wrapping on overflow."""
    return np.einsum("ij,ij->i", sets, sets)


# A block of sets is weighed in one gather while the gathered rows hold at
# most this many entries (2 MiB of float64).
_WEIGH_ENTRIES = 1 << 18


def _weigh(factor: np.ndarray, sets: np.ndarray) -> np.ndarray:
    # Each set's rows added in the order of its positions, so each mass
    # depends on its own set only: with a narrow `factor`, all at once from
    # one len(sets) x s x width gather, whose sum over the middle axis adds
    # the positions one after another (only a width of 1 would make numpy
    # add them pairwise); else into one accumulator, once per position, so
    # the temporary never holds a row of `factor` per member.
    width = factor.shape[1]
    if 1 < width and sets.size * width <= _WEIGH_ENTRIES:
        return np.linalg.norm(factor[sets].sum(axis=1), axis=1)
    acc = np.zeros((sets.shape[0], width), dtype=np.float64)
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
    return _DenseOperator(np.asarray(_finite_symmetric(p), dtype=np.float64))


def eigh_descending(a: np.ndarray, rank: int | None = None) -> SpectralDecomposition:
    """Symmetric eigendecomposition, eigenvalues sorted descending.

    The top `rank` eigenvalues and their eigenvectors, or every eigenpair
    without `rank`, from the certified block iteration where it applies and
    certifies its basis, else from LAPACK ``dsyevr`` (or numpy's full
    ``eigh``, sliced, where LAPACK does not resolve), each attempt on a
    float64 copy of its own of `a`, which may be an integer or bool matrix
    such as a graph's adjacency.  `solve` on the result records
    which.  The result is deterministic for a fixed input, LAPACK and BLAS
    thread count.
    """
    a = np.asarray(a)
    m = a.shape[0]
    if rank is not None and not 1 <= rank <= m:
        raise RankOutOfRangeError(f"rank must be in 1..{m}, got {rank}")
    w, v, record = _solve_top(_finite_symmetric(a), m if rank is None else rank)
    return SpectralDecomposition(w, v, record)


def eigvals_descending(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending, with no eigenvectors:
    numpy's ``eigvalsh`` of the input validated as :func:`eigh_descending`
    validates it."""
    return np.linalg.eigvalsh(_finite_symmetric(a))[::-1]


# Name templates of numpy's LAPACK routines and OpenBLAS thread controls,
# each with its integer type, tried in order: numpy >= 2 wheels
# (scipy-openblas, 64-bit integers), numpy 1.2x wheels (64-bit), then a
# distribution or conda build (32-bit).  A capability's routines all come
# from the first template that exports every one of them, so they share one
# integer type.  The integer type is LAPACK's Fortran integer; OpenBLAS takes
# its thread count as a C int under every name.  dlsym on the handle of
# numpy's own extension module also searches the libraries it links.
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


# Each routine's arguments in order, by LAPACK's names, with the kind of
# each that :func:`_call` passes: "char", "int" and "double" are Fortran
# scalars, "ints" and "doubles" arrays, and "c_int" a C int by value.
_LAPACK_ARGUMENTS = {
    "dsyevr": {
        "JOBZ": "char", "RANGE": "char", "UPLO": "char", "N": "int", "A": "doubles", "LDA": "int",
        "VL": "double", "VU": "double", "IL": "int", "IU": "int", "ABSTOL": "double", "M": "int",
        "W": "doubles", "Z": "doubles", "LDZ": "int", "ISUPPZ": "ints", "WORK": "doubles", "LWORK": "int",
        "IWORK": "ints", "LIWORK": "int", "INFO": "int",
    },
    "dsytrd": {
        "UPLO": "char", "N": "int", "A": "doubles", "LDA": "int", "D": "doubles", "E": "doubles",
        "TAU": "doubles", "WORK": "doubles", "LWORK": "int", "INFO": "int",
    },
    "dstebz": {
        "RANGE": "char", "ORDER": "char", "N": "int", "VL": "double", "VU": "double", "IL": "int",
        "IU": "int", "ABSTOL": "double", "D": "doubles", "E": "doubles", "M": "int", "NSPLIT": "int",
        "W": "doubles", "IBLOCK": "ints", "ISPLIT": "ints", "WORK": "doubles", "IWORK": "ints", "INFO": "int",
    },
    "dpotrf": {"UPLO": "char", "N": "int", "A": "doubles", "LDA": "int", "INFO": "int"},
    "dtrsm": {
        "SIDE": "char", "UPLO": "char", "TRANSA": "char", "DIAG": "char", "M": "int", "N": "int",
        "ALPHA": "double", "A": "doubles", "LDA": "int", "B": "doubles", "LDB": "int",
    },
    "dgemm": {
        "TRANSA": "char", "TRANSB": "char", "M": "int", "N": "int", "K": "int", "ALPHA": "double",
        "A": "doubles", "LDA": "int", "B": "doubles", "LDB": "int", "BETA": "double", "C": "doubles",
        "LDC": "int",
    },
}
_LAPACK_SIGNATURES = {routine: (arguments, None) for routine, arguments in _LAPACK_ARGUMENTS.items()}
_OPENBLAS_SIGNATURES = {
    "set_num_threads": ({"NUM_THREADS": "c_int"}, None),
    "get_num_threads": ({}, ctypes.c_int),
}


@dataclass(frozen=True)
class _Routines:
    """Routines resolved together from one name `template`: `functions`
    maps each routine's name to its ctypes function, declared with
    `int_type`, which is `dtype` in numpy."""

    template: str
    int_type: type
    dtype: np.dtype
    functions: dict


def _resolve(lib, names, signatures) -> _Routines | None:
    """Every routine of `signatures` (name -> (arguments, restype), the
    arguments a dict of name -> kind), all from the first of `names` under
    which `lib` exports each one, declared with that template's integer
    type and a size_t after the arguments for each CHARACTER one; None if no
    template exports them all."""
    for template, int_type in names:
        functions = {routine: getattr(lib, template.format(routine), None) for routine in signatures}
        if any(func is None for func in functions.values()):
            continue
        argtype = {
            "char": ctypes.c_char_p, "int": ctypes.POINTER(int_type), "c_int": int_type,
            "double": ctypes.POINTER(ctypes.c_double), "ints": ctypes.c_void_p, "doubles": ctypes.c_void_p,
        }
        for routine, (arguments, restype) in signatures.items():
            kinds = list(arguments.values())
            functions[routine].argtypes = [argtype[k] for k in kinds] + [ctypes.c_size_t] * kinds.count("char")
            functions[routine].restype = restype
        return _Routines(template, int_type, np.dtype(int_type), functions)
    return None


def _numpy_library():
    """A ctypes handle on numpy's own linalg extension module, or None where
    it cannot be opened."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


# The two capabilities every fork in this module asks about: numpy's LAPACK
# (with the BLAS routines of the certificate), and OpenBLAS's thread count.
_LIBRARY = _numpy_library()
_LAPACK = None if _LIBRARY is None else _resolve(_LIBRARY, _LAPACK_NAMES, _LAPACK_SIGNATURES)
_THREADS = None if _LIBRARY is None else _resolve(_LIBRARY, _OPENBLAS_NAMES, _OPENBLAS_SIGNATURES)

# Held while OpenBLAS is kept at one thread (a batch of submatrix norms, an
# iteration's QR), so two threads cannot interleave the save and the
# restore; re-entrant, so a solve inside such a block may pin again.
_BLAS_THREADS_LOCK = threading.RLock()


def _call(routine: str, *args) -> None:
    """Call the LAPACK or BLAS `routine` with `args`, one per declared
    argument, in Fortran's convention: a CHARACTER as bytes; a scalar by
    reference, made from a Python number or passed as the ctypes value
    given (an output from :func:`_output`); an array, or a block (x, i, j)
    from x[i, j] on, as the address :func:`_address` checks against the
    declared dtype; then the hidden length of each CHARACTER."""
    lapack, arguments = _LAPACK, _LAPACK_ARGUMENTS[routine]
    if len(args) != len(arguments):
        raise TypeError(f"{routine} takes {len(arguments)} arguments ({len(args)} given)")
    int_type, values, lengths = lapack.int_type, [], []
    for kind, arg in zip(arguments.values(), args):
        if kind == "int":
            arg = arg if isinstance(arg, int_type) else int_type(arg)
        elif kind == "double":
            arg = arg if isinstance(arg, ctypes.c_double) else ctypes.c_double(arg)
        elif kind == "char":
            lengths.append(len(arg))
        else:
            x, i, j = arg if isinstance(arg, tuple) else (arg, 0, 0)
            arg = _address(x, i, j, np.float64 if kind == "doubles" else lapack.dtype)
        values.append(arg)
    lapack.functions[routine](*values, *lengths)


_START = ctypes.c_char * 0  # laid over an array's buffer, also an empty one, gives its address


def _address(x: np.ndarray, i: int = 0, j: int = 0, dtype=np.float64) -> int:
    """Address of x[i, j] in the 2-D `x` (of entry i in any other), for LAPACK
    and BLAS; (0, 0) is the address of `x` itself, also where `x` is empty.
    Raises unless `x` is a writeable C-order array of `dtype` and the entry
    lies inside it."""
    if x.dtype != dtype or not (x.flags.c_contiguous and x.flags.writeable):
        raise TypeError(
            f"an array of {x.dtype} (C-contiguous: {x.flags.c_contiguous}, writeable: {x.flags.writeable})"
            f" where a writeable C-order array of {np.dtype(dtype)} is declared"
        )
    rows, columns = x.shape if x.ndim == 2 else (x.size, 1)
    if (i, j) != (0, 0) and not (0 <= i < rows and 0 <= j < columns):
        raise IndexError(f"block ({i}, {j}) outside an array of shape {x.shape}")
    return ctypes.addressof(_START.from_buffer(x)) + x.itemsize * (i * columns + j)


def _output():
    """A new LAPACK INTEGER, 0, for a routine to write (INFO, M, NSPLIT),
    which :func:`_call` passes as it is."""
    return _LAPACK.int_type(0)


def _lapack(routine: str, *head) -> None:
    """Call the LAPACK `routine` through :func:`_call` with the arguments
    `head`, WORK, LWORK, IWORK and LIWORK (where it declares them) and INFO:
    once as the workspace query, then with the sizes it returned.  A nonzero
    INFO raises LinAlgError."""
    iwork = "IWORK" in _LAPACK_ARGUMENTS[routine]
    info = _output()

    def call(work: np.ndarray, lwork: int, integers: np.ndarray, liwork: int) -> None:
        _call(routine, *head, work, lwork, *((integers, liwork) if iwork else ()), info)
        _check_info(routine, info)

    # workspace query: the sizes come back in work[0] and, with IWORK, integers[0]
    work, integers = np.empty(1), np.zeros(1, dtype=_LAPACK.dtype)
    call(work, -1, integers, -1)
    lwork, liwork = int(work[0]), int(integers[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=_LAPACK.dtype), liwork)


def _check_info(routine: str, info) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info = {info.value})")


def _solve_top(a: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, SolveRecord]:
    """Top `rank` eigenvalues (descending), eigenvectors (m x rank, C order)
    and the record of the solve, of the finite, exactly symmetric `a`,
    which is not written to.

    Each attempt works on a copy of its own, numpy's too: a triangle copy
    (:func:`_solve_copy`), or the iteration's row panels
    (:func:`_panel_copy`).  Where :func:`_iterative_applies`, the certified
    block iteration runs first; if it gives way, dsyevr solves a new copy,
    so the result is bit for bit dsyevr's alone, and the iteration's copy is
    gone before dsyevr's is made.
    """
    m, steps = a.shape[0], 0
    if _iterative_applies(m, rank):
        w, v, steps = _iterate_top(a, rank)
        if w is not None:
            return w, v, SolveRecord("iterative", steps, _SIN_THETA_TOL)
    record = SolveRecord("dsyevr", steps, None)
    if _LAPACK is None:
        # eigh reads the lower triangle, which holds the copy's upper one
        w, v = np.linalg.eigh(_solve_copy(a).T)
        return w[::-1][:rank].copy(), v[:, ::-1][:, :rank].copy(), record
    w, z = _dsyevr(_solve_copy(a), rank)
    if w.size < rank:
        # RANGE='I' can find fewer pairs than asked where IL cuts a repeated
        # eigenvalue (1 - I at m = 17, rank 3): solve a new copy for all m pairs
        w_all, z = _dsyevr(_solve_copy(a), m)
        if w_all.size < m:
            raise np.linalg.LinAlgError(
                f"LAPACK dsyevr found {w.size} of {rank} eigenpairs, and {w_all.size} of {m} solving for all"
            )
        w, z = w_all[m - rank :], z[m - rank :]
        record = SolveRecord("dsyevr", steps, None, all_pairs=True)
    return w[::-1].copy(), np.ascontiguousarray(z[::-1].T), record


# The certified block iteration.  It is tried where a round is large enough
# for the dense reduction to dominate (m >= _ITERATIVE_MIN_DIM) and far enough
# from the spectral threshold to separate within its budget: sqrt(m)/r, the
# paper's c = s/sqrt(m) for r clusters of size m/r, at least _ITERATIVE_MIN_C.
_ITERATIVE_MIN_DIM = 1500
_ITERATIVE_MIN_C = 4.0
# Guard vectors beyond the r wanted ones in the block.
_GUARD = 8
# The accepted basis is within this sine of the top-r eigenspace.
_SIN_THETA_TOL = 1e-10
# The iteration stops once the residual is below this times ||a||_inf and
# below a quarter of what the certificate allows, _SIN_THETA_TOL times the
# Ritz gap theta_r - theta_{r+1}.
_RESIDUAL_STOP = 1e-12
# The iteration gives way to dsyevr after m // _DIM_PER_PRODUCT products with
# the matrix: a product of an m x m matrix with a narrow block reads the whole
# matrix, and dsyevr costs about m / 20 of them (m = 2000..4000, 2 cores).
_DIM_PER_PRODUCT = 40
# Key of the Philox stream of the start block: the iteration is a pure
# function of its input at one BLAS thread count.
_START_KEY = 0x5EED_B10C
# Rows of a row panel of the iteration's copy, and the side of the diagonal
# tiles dpotrf factors.
_CERTIFICATE_TILE = 128


def _iterative_applies(m: int, rank: int) -> bool:
    return (
        _LAPACK is not None
        and m >= _ITERATIVE_MIN_DIM
        and math.sqrt(m) >= _ITERATIVE_MIN_C * rank
        and rank + 1 < m
    )


def _panel_copy(a: np.ndarray) -> list:
    """The upper triangle of the finite, exactly symmetric m x m matrix `a`
    (any dtype) as float64 row panels, packed back to back in one anonymous
    memory mapping of their own (:func:`_mapped`).

    The panel of rows k..e-1 (k = 0, _CERTIFICATE_TILE, ..., e the lesser
    of k + _CERTIFICATE_TILE and m) is a[k:e, k:] as a C-order block whose
    leading dimension is m - k, so k is m minus its width: its whole
    diagonal tile, copied from `a`, and the rows right of it.  Nothing below
    the diagonal tiles is stored, and every stored page is written.
    """
    m, tile = a.shape[0], _CERTIFICATE_TILE
    starts = range(0, m, tile)
    sizes = [min(tile, m - k) * (m - k) for k in starts]
    parts = np.split(_mapped(sum(sizes)), np.cumsum(sizes)[:-1])
    panels = [part.reshape(-1, m - k) for k, part in zip(starts, parts)]
    for k, panel in zip(starts, panels):
        np.copyto(panel, a[k : k + tile, k:])
    return panels


def _inf_norm(a: np.ndarray) -> float:
    """||a||_inf, the largest absolute row sum of the finite square `a` (any
    dtype), read _CERTIFICATE_TILE rows at a time and summed in float64:
    exact for a 0-1 matrix."""
    # a signed integer's minimum has no absolute value in its own dtype
    dtype = np.float64 if a.dtype.kind == "i" else None
    norm = 0.0
    for i in range(0, len(a), _CERTIFICATE_TILE):
        rows = np.abs(a[i : i + _CERTIFICATE_TILE], dtype=dtype).sum(axis=1, dtype=np.float64)
        norm = max(norm, float(rows.max()))
    return norm


def _product(q: np.ndarray, panels: list) -> np.ndarray:
    """New C-order q A, for the C-order b x m `q` and the symmetric A held
    in `panels` (:func:`_panel_copy`).

    Panel k:e adds q[:, k:e] A[k:e, k:] to columns k: of the result, and
    q[:, e:] A[k:e, e:]^T to columns k:e.  On the column-major views (m x b
    for q and the result, (m - k) x (e - k) for the panel) these are one
    dgemm each, accumulating in place.
    """
    b, m = q.shape
    out = np.empty((b, m), dtype=np.float64)
    for panel in panels:
        rows, columns = panel.shape
        k = m - columns
        # the first panel spans every column, so beta = 0 sets the whole result
        _call("dgemm", b"N", b"N", columns, b, rows, 1.0, panel, columns, (q, 0, k), m,
              1.0 if k else 0.0, (out, 0, k), m)
        if rows < columns:
            _call("dgemm", b"T", b"N", rows, b, columns - rows, 1.0, (panel, 0, rows), columns,
                  (q, 0, k + rows), m, 1.0, (out, 0, k), m)
    return out


def _iterate_top(a: np.ndarray, rank: int):
    """(w, v, steps): the top `rank` eigenpairs of the finite, exactly
    symmetric `a` by block subspace iteration, certified, and the products
    made; w and v are None where the iteration gives way.  The iteration
    reads the row panels of a copy of a's upper triangle (:func:`_panel_copy`),
    which the certificate writes over, and ||a||_inf from `a` itself.

    A block of b = rank + _GUARD vectors from a fixed Philox start goes
    through steps of a QR (at one BLAS thread where OpenBLAS's thread count
    can be set: the m x b factorization is slower on more), one product with
    A by row panels (:func:`_product`) and a Rayleigh-Ritz step that ranks the
    Ritz pairs by value, not magnitude; the product A V of the Ritz vectors,
    which the residual needs, is the next step's block.  The block converges
    to the b eigenvalues largest in magnitude, so the top `rank` by value
    are found where they are among those.

    The iteration stops once the residual R = A V - V Theta of the top
    `rank` Ritz pairs is small, and gives way after m // _DIM_PER_PRODUCT
    products.  From the sixth product on, when the Ritz values and the
    contraction no longer read the random start, it also gives way when the
    Ritz gap theta_r - theta_{r+1} is within rounding / _SIN_THETA_TOL,
    which no certificate can prove, or when the residual's contraction per
    product (residual / previous residual) is at least 1 or predicts that
    the target is not reached within the budget: the wanted part is not
    separating.  A basis is returned only if :func:`_certify` proves it;
    how it was found does not matter to the proof.
    """
    m = a.shape[0]
    b = min(rank + _GUARD, m - 1)
    norm = _inf_norm(a)
    panels = _panel_copy(a)
    # blocks are held transposed, b x m: a product is then X^T A = (A X)^T,
    # which OpenBLAS runs in about half the time of A X, and with a tenth of
    # the buffer memory (+1.7 MB against +9.4 MB of RSS at m = 3000, b = 11)
    x = np.random.Generator(np.random.Philox(key=_START_KEY)).standard_normal((b, m))
    budget = m // _DIM_PER_PRODUCT
    # the exact residual is within this of the computed one
    rounding = m * np.finfo(np.float64).eps * norm
    steps, previous = 0, math.inf
    while True:
        with _one_blas_thread():
            q = np.linalg.qr(x.T)[0]
        del x
        # the factor's transpose is F-ordered; a C-ordered block is faster to multiply
        q = np.ascontiguousarray(q.T)
        aq = _product(q, panels)
        steps += 1
        theta, y = np.linalg.eigh(aq @ q.T)
        theta, y = theta[::-1], y[:, ::-1].T
        v, x = y @ q, y @ aq
        del q, aq
        residual = float(np.linalg.norm(x[:rank] - theta[:rank, None] * v[:rank]))
        gap = float(theta[rank - 1] - theta[rank])
        target = min(_RESIDUAL_STOP * norm, _SIN_THETA_TOL * gap / 4)
        if residual <= target:
            del x
            if _certify(panels, theta, v[:rank].T, rank, residual + rounding, norm):
                return theta[:rank].copy(), np.ascontiguousarray(v[:rank].T), steps
            return None, None, steps
        contraction, previous = residual / previous, residual
        if steps >= budget:
            return None, None, steps
        if steps >= 6 and (
            gap <= rounding / _SIN_THETA_TOL
            or contraction >= 1
            or residual * contraction ** (budget - steps) > target
        ):
            return None, None, steps
        del v


def _certify(
    panels: list, theta: np.ndarray, v: np.ndarray, rank: int, residual: float, norm: float
) -> bool:
    """Whether the top `rank` Ritz pairs of the symmetric A held in the row
    panels of its upper triangle (:func:`_panel_copy`), theta[:rank] and the
    m x rank basis `v`, with residual ||A V - V Theta||_2 at most `residual`,
    are proved within _SIN_THETA_TOL of the top-`rank` eigenspace.  `norm`
    is at least ||A||_inf, and the panels are written over either way.

    Let sigma = theta_r - residual / _SIN_THETA_TOL.  If X = A - V Theta V^T
    has lambda_max(X) < sigma, then, V Theta V^T having at most r positive
    eigenvalues, lambda_{r+1}(A) <= lambda_max(X) < sigma (Weyl), and
    Davis-Kahan bounds the sine of the angle between V and the top-r
    eigenspace by residual / (theta_r - sigma) = _SIN_THETA_TOL.  The Ritz
    value theta_{r+1} is at most lambda_{r+1} (Cauchy interlacing), so sigma
    must exceed it, and V^T (sigma I - X) V = sigma I, so sigma must be
    positive: else nothing is tried.

    lambda_max(X) < sigma is proved by a floating-point Cholesky
    factorization of Mf, the computed M = t I - X at t = sigma - c, with the
    shift c of :func:`_rounding_shift` (after Rump, "Verification of
    positive definiteness", BIT 46, 2006).  With u = 2^-53 and
    gamma_k = k u / (1 - k u):

    1. Forming.  One dgemm (beta = -1) per row panel forms each entry of
       V Theta V^T - A in the panel as a sum of r + 1 terms, in any order:
       the r products of the rounded V Theta with V, and -a_ij.  It is off
       by at most gamma_{r+2} (P + |A|)_ij, where P = |V| |Theta| |V|^T, and
       adding t on the diagonal rounds once more.  So |Mf - M| <= gamma_{r+2} (P + |A|) +
       u diag|Mf|, and ||Mf - M||_2 <= f = gamma_{r+2} (max|theta| ||V||_F^2 +
       ||A||_inf) + u max_i |Mf_ii|.
    2. Factoring (Demmel; Higham, Accuracy and Stability of Numerical
       Algorithms, Thm 10.3).  If Cholesky in floating point runs to
       completion on Mf, in any order of the sums of products and with each
       division done directly or by a rounded reciprocal, as the blocked BLAS
       and LAPACK calls do, then R^T R = Mf + D with
       |D| <= gamma_{m+1} |R^T| |R|.  Column j of R has
       ||r_j||^2 <= Mf_jj / (1 - gamma_{m+1}), so by Cauchy-Schwarz
       ||D||_2 <= alpha tr(Mf), alpha = gamma_{m+1} / (1 - gamma_{m+1}).
       With gradual underflow, each product, quotient or reciprocal may
       also err by eta / 2 absolutely (eta = 2^-1074; sums do not), which
       adds at most m (m + 2 max_j R_jj) eta <= 4m (2(m + 1) + max_i Mf_ii) eta
       to ||D||_2.  As R^T R is positive semidefinite,
       lambda_min(Mf) >= -(alpha tr(Mf) + that).
    3. So lambda_min(M) >= -(alpha tr(Mf) + f + the underflow term), which
       the shift c exceeds: lambda_max(X) = t - lambda_min(M) < t + c = sigma.

    The shift also needs t > 0 and t > theta_{r+1}.  M is written over each
    panel, and the factorization reads its upper triangle.
    """
    sigma = theta[rank - 1] - residual / _SIN_THETA_TOL
    if not (sigma > 0 and sigma > theta[rank]):
        return False
    m = v.shape[0]
    # a C-order rank x m array is a column-major m x rank one: on those
    # views, the panel of rows k:e := S[k:e] V[k:]^T - panel with S = V Theta,
    # which is V Theta V^T - A there
    vt = np.ascontiguousarray(v.T)
    scaled = vt * theta[:rank, None]
    for panel in panels:
        rows, columns = panel.shape
        k = m - columns
        _call("dgemm", b"N", b"T", columns, rows, rank, 1.0, (scaled, 0, k), m, (vt, 0, k), m, -1.0,
              panel, columns)
    diagonal = np.concatenate([panel.diagonal() for panel in panels])
    t = sigma - _rounding_shift(diagonal, theta[:rank], v, norm, sigma)
    if not (t > 0 and t > theta[rank]):
        return False
    for panel in panels:
        panel.flat[:: panel.shape[1] + 1] += t
    return _cholesky_upper(panels)


_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2
_SMALLEST_SUBNORMAL = float(np.nextafter(0.0, 1.0))


def _gamma(k: int) -> float:
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _rounding_shift(
    diagonal: np.ndarray, theta: np.ndarray, v: np.ndarray, norm: float, sigma: float
) -> float:
    """The shift c of :func:`_certify`: twice alpha tr(Mf) + f, plus the
    underflow term, bounded from `diagonal`, the diagonal of
    V Theta V^T - A as formed, and from sigma >= t > 0.

    tr(Mf) and max_i |Mf_ii| are at most (1 + u) times the sum and the
    largest of |diagonal| + sigma.  The factor 2 covers the terms of second
    order in u left out above and the rounding in computing the shift
    itself, ||V||_F^2 and `norm`.
    """
    m, rank = v.shape
    absolute = np.abs(diagonal)
    trace = (1 + _UNIT_ROUNDOFF) * (float(absolute.sum()) + m * sigma)
    largest = (1 + _UNIT_ROUNDOFF) * (float(absolute.max()) + sigma)
    forming = _gamma(rank + 2) * (float(np.abs(theta).max()) * float(np.sum(v * v)) + norm)
    forming += _UNIT_ROUNDOFF * largest
    alpha = _gamma(m + 1) / (1 - _gamma(m + 1))
    underflow = 4 * m * (2 * (m + 1) + largest) * _SMALLEST_SUBNORMAL
    return 2 * (alpha * trace + forming) + underflow


def _cholesky_upper(panels: list) -> bool:
    """Whether the Cholesky factorization M = U^T U of the symmetric matrix
    M held in the row panels of its upper triangle (:func:`_panel_copy`)
    succeeds (M positive definite); U overwrites the panels' upper triangle,
    and the strict lower triangle of each diagonal tile, which U does not
    depend on, is written over.

    Left-looking by panels.  On the column-major view of a panel, where U^T
    is the lower triangle, the panel is a column block: one dgemm per panel
    above it updates it in place from that panel's rows (K =
    _CERTIFICATE_TILE, its diagonal tile included), LAPACK dpotrf factors
    the diagonal tile's triangle, and one dtrsm solves the rest of the panel
    against it.  Nothing is copied: a numpy product for the update would hold
    a temporary as large as the panel.  dpotrf sees one tile at a time: one
    dpotrf of a whole m = 3000 matrix makes OpenBLAS touch 9 MB more of its
    buffers, which then stay resident.
    """
    info = _output()
    for n, panel in enumerate(panels):
        rows, columns = panel.shape
        for above in panels[:n]:
            # M_kj -= U_ik^T U_ij over the rows i of the panel above, every
            # j >= k; column k is that panel's column width - columns
            width = above.shape[1]
            block = (above, 0, width - columns)
            _call("dgemm", b"N", b"T", columns, rows, len(above), -1.0, block, width, block, width, 1.0,
                  panel, columns)
        # the tile's upper triangle is the lower one of its column-major view
        _call("dpotrf", b"L", rows, panel, columns, info)
        if info.value != 0:
            return False
        if rows < columns:
            # U_kk^T X = M_kj, as X_cm L^T = M_cm on the column-major views
            _call("dtrsm", b"R", b"L", b"T", b"N", columns - rows, rows, 1.0, panel, columns,
                  (panel, 0, rows), columns)
    return True


_SAFE_MIN = float(np.finfo(np.float64).tiny)
# the most accurate bisection tolerance, twice LAPACK's safe minimum
_ABSTOL = 2.0 * _SAFE_MIN


def _dsyevr(a: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, z): the top `count` eigenvalues, ascending, and their
    eigenvectors, by LAPACK dsyevr with RANGE='I'; fewer where dsyevr finds
    fewer.  With count = m (IL = 1, IU = m) dsyevr takes its RANGE='A' path.

    `a` is symmetric, so its C-order buffer is also the column-major matrix
    LAPACK expects; LAPACK destroys it.  Eigenvector j comes back as row j of
    a count x m array, which is column j of a column-major m x count one.
    """
    m = a.shape[0]
    # LAPACK requires LDA, LDZ >= 1, also for the 0 x 0 matrix
    lead, found = max(m, 1), _output()
    w = np.empty(m, dtype=np.float64)
    z = np.empty((count, m), dtype=np.float64)
    isuppz = np.empty(2 * count, dtype=_LAPACK.dtype)
    # VL, VU (0.0) are not read with RANGE='I'
    _lapack("dsyevr", b"V", b"I", b"L", m, a, lead, 0.0, 0.0, m - count + 1, m, _ABSTOL, found, w, z, lead,
            isuppz)
    return w[: found.value], z[: found.value]


# dsyevr's scaling: a matrix whose largest entry lies outside
# [_SCALE_MIN, _SCALE_MAX] is scaled into it before the reduction, and its
# eigenvalues are scaled back after, so that the bisection's squares of
# off-diagonal entries neither overflow nor underflow
_SCALE_MIN = math.sqrt(_SAFE_MIN / float(np.finfo(np.float64).eps))
_SCALE_MAX = min(1.0 / _SCALE_MIN, 1.0 / math.sqrt(math.sqrt(_SAFE_MIN)))


def _solve_extremes(a, index: np.ndarray | None = None) -> tuple[float, float]:
    """(lowest, highest) eigenvalue of the finite, exactly symmetric `a` (a
    matrix or a row-block gather), or of its principal submatrix
    a[index, index], which is not written to; (0.0, 0.0) for m = 0.

    One LAPACK dsytrd reduction of a triangle copy to a tridiagonal T,
    blocked as inside eigvalsh (so T has the bits eigvalsh reduces to at the
    same BLAS thread count), then dstebz bisection on T
    for its first and its m-th eigenvalue, at the most accurate tolerance:
    each end to within a few ulps of itself, where a full solve would also
    sweep out the m - 2 eigenvalues between them.  The input is scaled as
    dsyevr scales it, by its largest entry, anrm.  T bounds anrm, as
    max|T| <= ||T||_2 = ||A||_2 <= m anrm and anrm <= ||A||_2 <= 3 max|T|;
    only where these bounds (each widened by 2 for the reduction's rounding)
    leave [_SCALE_MIN, _SCALE_MAX] is anrm read from a new copy, which is
    scaled and reduced again if anrm is out of range.  Where LAPACK does
    not resolve, the two ends of numpy's ``eigvalsh`` of the transpose of a
    triangle copy, whose lower triangle, the one eigvalsh reads, holds the
    entries of the lower triangle of the gathered matrix.
    """
    m = a.shape[0] if index is None else index.size
    if m == 0:
        return 0.0, 0.0
    if _LAPACK is None:
        w = np.linalg.eigvalsh(_solve_copy(a, index).T)
        return float(w[0]), float(w[-1])
    d, e = _tridiagonal(_solve_copy(a, index))
    # NaN or inf in T (an overflowing reduction) fails the test too
    top = float(np.abs(np.concatenate([d, e[: m - 1]])).max())
    scale = 1.0
    if not (_SCALE_MIN <= top / (2 * m) and 6 * top <= _SCALE_MAX):
        copy = _solve_copy(a, index)
        # the unwritten triangle reads as zeros, which change no largest |entry|
        largest = max(-float(copy.min()), float(copy.max()))
        if 0.0 < largest < _SCALE_MIN:
            scale = _SCALE_MIN / largest
        elif largest > _SCALE_MAX:
            scale = _SCALE_MAX / largest
        if scale != 1.0:
            copy *= scale
            d, e = _tridiagonal(copy)
    lowest, highest = (_dstebz(d, e, i) for i in (1, m))
    if scale != 1.0:
        lowest, highest = lowest * (1.0 / scale), highest * (1.0 / scale)
    return lowest, highest


def _tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e): the diagonal and the m - 1 off-diagonal entries (e has one
    more, unset) of LAPACK dsytrd's reduction of the float64 C-order `a`
    from its upper triangle, which it overwrites."""
    m = a.shape[0]
    # E and TAU hold m - 1 entries; one more keeps them non-empty at m = 1
    d, e, tau = np.empty(m), np.empty(m), np.empty(m)
    _lapack("dsytrd", b"L", m, a, m, d, e, tau)
    return d, e


def _dstebz(d: np.ndarray, e: np.ndarray, index: int) -> float:
    """Eigenvalue number `index` (1 = the lowest) of the tridiagonal matrix
    with diagonal `d` and off-diagonal `e`, by LAPACK dstebz bisection."""
    m = d.size
    found, blocks, info = _output(), _output(), _output()
    w, work = np.empty(m), np.empty(4 * m)
    block_of, block_ends, iwork = (np.empty(size, dtype=_LAPACK.dtype) for size in (m, m, 3 * m))
    # VL, VU (0.0) are not read with RANGE='I'
    _call("dstebz", b"I", b"E", m, 0.0, 0.0, index, index, _ABSTOL, d, e, found, blocks, w, block_of,
          block_ends, work, iwork, info)
    _check_info("dstebz", info)
    if found.value != 1:
        raise np.linalg.LinAlgError(f"LAPACK dstebz found {found.value} eigenvalues, asked for 1")
    return float(w[0])


@contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread inside the block, its old count restored after;
    nothing where the thread controls (`_THREADS`) do not resolve.

    The count is process-wide: a BLAS call another thread makes meanwhile
    also runs on one thread.
    """
    if _THREADS is None:
        yield
        return
    set_threads, get_threads = (_THREADS.functions[name] for name in ("set_num_threads", "get_num_threads"))
    with _BLAS_THREADS_LOCK:
        old = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(old)


def _workers() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def submatrix_norms(a, sets) -> np.ndarray:
    """Spectral norm of each principal submatrix a[S, S], S in `sets`.

    Equal to :func:`spectral_norm` of each gathered submatrix, but a matrix
    `a` is checked (finite, and symmetrized unless exactly symmetric) once;
    a row-block gather, such as :class:`plantrec.bounds.NoiseView`, is
    finite and exactly symmetric by construction and is read as it is.  Each
    norm is the larger end of one :func:`_solve_extremes` solve, which
    gathers the set's triangle copy from `a`.  Where both LAPACK and the
    thread controls resolve, OpenBLAS is at one thread for the batch, and a
    batch with a set of more than 128 members is solved largest first on a
    thread pool, one solve per core at once; a set starts only while the
    copies in flight, counted at 8|S|^2 bytes each, fit in 8m^2.  Any other
    batch is solved one set at a time on the calling thread: at one thread
    where the controls resolve, else at the current BLAS thread count.  An
    empty set has norm 0.  Each set must hold distinct indices in 0..m-1
    (:func:`~plantrec.errors.vertex_ids`), so it fits alone.
    """
    if not _gathers(a):
        a = _finite_symmetric(a)
    sets = [vertex_ids(v, a.shape[0]) for v in sets]
    norms = np.zeros(len(sets), dtype=np.float64)
    pending = sorted((i for i, v in enumerate(sets) if v.size), key=lambda i: -sets[i].size)
    pinned = _LAPACK is not None and _THREADS is not None
    with _one_blas_thread() if pinned else nullcontext():
        # the pool costs more than it wins while every set is small: one at
        # a time, sets of 5 to 100 members took 0.5-0.8 times as long as on
        # the pool, and sets of 145 to 400 members 1.2-2.1 times (2 cores)
        if pinned and pending and sets[pending[0]].size > 128:
            _pooled_norms(a, sets, pending, norms)
        else:
            for i in pending:
                lowest, highest = _solve_extremes(a, sets[i])
                norms[i] = max(abs(lowest), abs(highest))
    return norms


def _pooled_norms(a, sets: list, pending: list, norms: np.ndarray) -> None:
    """Solve the sets numbered in `pending` (largest first) on a thread pool
    for :func:`submatrix_norms`, writing each norm into `norms`."""
    nbytes = [8 * v.size**2 for v in sets]  # of each set's float64 copy
    budget = 8 * a.shape[0] ** 2
    workers = _workers()
    in_flight: dict = {}  # future -> set index
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while pending or in_flight:
            held = sum(nbytes[i] for i in in_flight.values())
            while pending and len(in_flight) < workers:
                # the largest pending set whose copy fits beside those in flight
                i = next((i for i in pending if held + nbytes[i] <= budget), None)
                if i is None:
                    break
                pending.remove(i)
                in_flight[pool.submit(_solve_extremes, a, sets[i])] = i
                held += nbytes[i]
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                lowest, highest = future.result()
                norms[in_flight.pop(future)] = max(abs(lowest), abs(highest))


def top_projector(a: np.ndarray, rank: int) -> Projector:
    """Projector onto the eigenspace of the `rank` largest eigenvalues of `a`."""
    dec = eigh_descending(a, rank)
    return Projector(basis=dec.eigenvectors, solve=dec.solve)


def spectral_norm(a: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix (0 for an empty one):
    the larger end of one :func:`_solve_extremes` solve of a float64 triangle
    copy, validated as :func:`eigh_descending` validates."""
    lowest, highest = _solve_extremes(_finite_symmetric(a))
    return max(abs(lowest), abs(highest))
