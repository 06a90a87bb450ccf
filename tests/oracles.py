"""Dense reference forms the tests compare the library against.  No pipeline
forms these m x m matrices; the library works from partitions and bases."""

import numpy as np

from plantrec.spectral import as_symmetric


def cluster_matrix(part) -> np.ndarray:
    """0-1 co-membership matrix: entry (i, j) is 1 iff i and j share a cluster."""
    return (part.assignment[:, None] == part.assignment[None, :]).astype(np.float64)


def dense_projector(p) -> np.ndarray:
    """The m x m projector V V^T of a Projector, exactly symmetric."""
    return as_symmetric(p.basis @ p.basis.T)


def extended_extremes(a) -> tuple[float, float]:
    """(lowest, highest) eigenvalue of the symmetric float64 matrix `a`,
    computed in numpy's long double: Householder reduction to a tridiagonal
    matrix, then bisection on Sturm counts; (0.0, 0.0) for m = 0.  With an
    80-bit long double both steps err by about m 2^-64 ||a||, well below one
    float64 ulp of the spectrum's ends at the sizes tested."""
    t = np.array(a, dtype=np.longdouble)
    m = len(t)
    if m == 0:
        return 0.0, 0.0
    for k in range(m - 2):
        v = t[k + 1 :, k].copy()
        norm = np.sqrt((v * v).sum())
        if norm == 0:
            continue
        alpha = -norm if v[0] >= 0 else norm
        v[0] -= alpha
        vv = (v * v).sum()
        # H T H on the trailing block, H = I - 2 v v^T / v^T v (Golub & Van Loan 8.3.1)
        rest = t[k + 1 :, k + 1 :]
        p = rest @ v * (2 / vv)
        w = p - (v @ p) / vv * v
        rest -= np.outer(v, w) + np.outer(w, v)
        t[k + 1 :, k] = t[k, k + 1 :] = 0
        t[k + 1, k] = t[k, k + 1] = alpha
    d, off = t.diagonal().copy(), t.diagonal(1) ** 2
    radius = np.abs(t).sum(axis=1) - np.abs(d)
    low, high = (d - radius).min(), (d + radius).max()
    tiny = np.finfo(np.longdouble).tiny

    def below(x) -> int:
        # eigenvalues below x: the negative pivots of the LDL^T of T - xI
        count, q = 0, np.longdouble(0)
        with np.errstate(over="ignore"):
            for i in range(m):
                q = d[i] - x - (off[i - 1] / (q if q != 0 else tiny) if i else 0)
                count += q < 0
        return count

    def nth(n: int) -> float:
        lo, hi = low, high
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (lo, mid) if below(mid) >= n else (mid, hi)
        return float(hi)

    return nth(1), nth(m)
