import contextlib
import ctypes
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantrec import spectral
from plantrec.errors import NonFiniteError, RankOutOfRangeError
from plantrec.model import ModelParams, make_partition, expectation_matrix, sample_graph
from plantrec.spectral import (
    as_symmetric,
    eigh_descending,
    eigvals_descending,
    projector_operand,
    spectral_norm,
    top_projector,
)

from oracles import cluster_matrix, dense_projector


def power_iteration_norm(a: np.ndarray, iters: int = 5000) -> float:
    """Independent oracle for the spectral norm: power iteration on a @ a."""
    b = a @ a
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(a.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = b @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    return float(np.sqrt(v @ b @ v))


def random_symmetric(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return as_symmetric(rng.standard_normal((n, n)))


class TestEighDescending:
    def test_identity(self):
        dec = eigh_descending(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1, 1, 1])

    def test_diagonal_sorted(self):
        dec = eigh_descending(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [3, 2, 1])

    def test_closed_form_two_cluster_spectrum(self):
        # oracle: dense eigensolve of the explicit 20x20 expectation matrix
        part = make_partition(20, 10)
        g = expectation_matrix(part, ModelParams(p=0.9, q=0.1, seed=0))
        dec = eigh_descending(g)
        expected = np.zeros(20)
        expected[0] = 10.0  # (p-q)s + q*m
        expected[1] = 8.0  # (p-q)s
        assert np.allclose(dec.eigenvalues, expected, atol=1e-9)

    def test_rejects_non_finite(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(NonFiniteError):
            eigh_descending(a)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_and_orthonormality(self, seed):
        a = random_symmetric(30, seed)
        dec = eigh_descending(a)
        q, lam = dec.eigenvectors, dec.eigenvalues
        assert np.linalg.norm(q.T @ q - np.eye(30), "fro") <= 30 * 1e-10
        recon = q @ np.diag(lam) @ q.T
        assert np.linalg.norm(recon - a, "fro") <= 30 * 1e-8 * (1 + np.linalg.norm(a, "fro"))

    def test_deterministic(self):
        a = random_symmetric(25, 7)
        d1, d2 = eigh_descending(a), eigh_descending(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rank_keeps_leading_eigenvectors_only(self):
        # the top 4 eigenpairs only, equal to the full solve's leading ones up
        # to rounding (eigenvalues) and sign (eigenvectors: distinct eigenvalues)
        a = random_symmetric(25, 3)
        full, top = eigh_descending(a), eigh_descending(a, 4)
        assert top.eigenvalues.shape == (4,) and top.eigenvectors.shape == (25, 4)
        assert np.abs(top.eigenvalues - full.eigenvalues[:4]).max() <= 1e-12
        overlaps = np.abs((top.eigenvectors * full.eigenvectors[:, :4]).sum(axis=0))
        assert np.abs(overlaps - 1.0).max() <= 1e-12
        with pytest.raises(RankOutOfRangeError):
            eigh_descending(a, 26)


class TestTopProjector:
    @pytest.mark.parametrize("m,rank", [(40, 3), (97, 12), (60, 60)])
    def test_matrix_is_symmetrized_outer_product_of_full_solve(self, m, rank):
        # the basis is the rank-r solve's eigenvectors, and its projector is
        # within rounding of the one built from the leading columns of
        # numpy's full eigendecomposition
        a = random_symmetric(m, rank)
        dec = eigh_descending(a, rank)
        v = dec.eigenvectors
        p = top_projector(a, rank)
        assert (p.dim, p.rank) == (m, rank)
        assert np.array_equal(p.basis, v)
        w_full, v_full = np.linalg.eigh(a)
        w_full, v_full = w_full[::-1][:rank], v_full[:, ::-1][:, :rank]
        assert np.abs(dec.eigenvalues - w_full).max() <= 1e-12
        assert np.abs(dense_projector(p) - v_full @ v_full.T).max() <= 1e-12

    def test_full_rank_is_identity(self):
        a = random_symmetric(6, 0)
        p = top_projector(a, 6)
        assert np.allclose(dense_projector(p), np.eye(6), atol=1e-10)

    def test_expectation_projector_is_scaled_cluster_matrix(self):
        part = make_partition(20, 10)
        g = expectation_matrix(part, ModelParams(p=0.9, q=0.1, seed=0))
        p = top_projector(g, 2)
        h = cluster_matrix(part)
        assert np.linalg.norm(dense_projector(p) - h / 10, "fro") <= 1e-8

    def test_cluster_matrix_projector_is_itself_scaled(self):
        # oracle: direct eigensolve of the 0-1 co-membership matrix
        part = make_partition(12, 4)
        h = cluster_matrix(part)
        p = top_projector(h, 3)
        assert np.linalg.norm(dense_projector(p) - h / 4, "fro") <= 1e-8

    def test_rank_out_of_range(self):
        a = np.eye(4)
        with pytest.raises(RankOutOfRangeError):
            top_projector(a, 0)
        with pytest.raises(RankOutOfRangeError):
            top_projector(a, 5)

    @pytest.mark.parametrize("seed,rank", [(0, 1), (1, 3), (2, 7), (3, 10)])
    def test_projector_algebra(self, seed, rank):
        a = random_symmetric(10, seed)
        p = dense_projector(top_projector(a, rank))
        assert np.array_equal(p, p.T)
        assert np.linalg.norm(p @ p - p, "fro") <= 10 * 1e-9
        assert abs(np.trace(p) - rank) <= 1e-6
        eigs = np.linalg.eigvalsh(p)
        assert (np.minimum(np.abs(eigs), np.abs(eigs - 1)) <= 1e-8).all()


@st.composite
def partial_solve_cases(draw):
    """A symmetric matrix and a rank: Gaussian, 0/1 adjacency, an expected
    matrix E (repeated eigenvalues; p = 1 with q = 0 among them), zero,
    identity or complete graph; the rank is 1, m - 1, m or any in between."""
    kind = draw(st.sampled_from(["gaussian", "adjacency", "expected", "zero", "identity", "complete"]))
    if kind == "expected":
        s, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
        p, q = draw(st.sampled_from([(1.0, 0.0), (0.7, 0.3), (0.5, 0.0), (0.9, 0.1)]))
        a = expectation_matrix(make_partition(s * k, s), ModelParams(p=p, q=q, seed=0))
    else:
        m = draw(st.integers(1, 24))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "gaussian":
            a = as_symmetric(rng.standard_normal((m, m)))
        elif kind == "adjacency":
            upper = np.triu(rng.random((m, m)) < draw(st.sampled_from([0.1, 0.5, 0.9])), 1)
            a = (upper | upper.T).astype(np.float64)
        else:
            a = {"zero": np.zeros((m, m)), "identity": np.eye(m), "complete": 1.0 - np.eye(m)}[kind]
    m = a.shape[0]
    rank = draw(st.sampled_from([1, max(1, m - 1), m]) | st.integers(1, m))
    return a, rank


def assert_matches_full_solve(dec, a, rank):
    """Eigenvalues within 1e-12 * max(1, ||a||) of numpy's full solve, an
    orthonormal basis, and the full solve's projector wherever the rank-th
    eigenvalue is separated from the next one."""
    m = a.shape[0]
    w_full, v_full = np.linalg.eigh(as_symmetric(a))
    w_full, v_full = w_full[::-1], v_full[:, ::-1]
    scale = max(1.0, float(np.abs(w_full).max()))
    assert dec.eigenvalues.shape == (rank,) and dec.eigenvectors.shape == (m, rank)
    assert np.abs(dec.eigenvalues - w_full[:rank]).max() <= 1e-12 * scale
    v = dec.eigenvectors
    assert np.abs(v.T @ v - np.eye(rank)).max() <= 1e-12
    # a gap within rounding of zero is a repeated eigenvalue: no unique projector
    gap = w_full[rank - 1] - w_full[rank] if rank < m else np.inf
    if gap > 1e-6 * scale:
        top = v_full[:, :rank]
        assert np.abs(v @ v.T - top @ top.T).max() <= 1e-12 * scale / min(gap, scale)


class TestPartialSolve:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(partial_solve_cases())
    def test_agrees_with_full_solve(self, case):
        a, rank = case
        assert_matches_full_solve(eigh_descending(a, rank), a, rank)

    def test_two_calls_give_identical_bases(self):
        part = make_partition(200, 40)
        a = sample_graph(part, ModelParams(p=0.7, q=0.3, seed=2)).adj
        d1, d2 = eigh_descending(a, 5), eigh_descending(a, 5)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_non_finite_rejected_before_the_solve(self, monkeypatch):
        def solve(a, rank):
            raise AssertionError("solver reached")

        monkeypatch.setattr(spectral, "_solve_top", solve)
        a = np.eye(3)
        a[2, 2] = np.nan
        with pytest.raises(NonFiniteError):
            eigh_descending(a, 2)

    @pytest.mark.parametrize("rank", [1, 7, 29, 30])
    def test_fallback_is_the_sliced_full_solve(self, monkeypatch, rank):
        # where no dsyevr resolves: numpy's full solve, sliced, which the
        # kernel matches within the property test's tolerance
        a = random_symmetric(30, rank)
        kernel = eigh_descending(a, rank)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda x: calls.append(len(x)) or eigh(x))
        monkeypatch.setattr(spectral, "_DSYEVR", None)
        fallback = eigh_descending(a, rank)
        assert calls == [30]
        w, v = eigh(a)
        assert np.array_equal(fallback.eigenvalues, w[::-1][:rank])
        assert np.array_equal(fallback.eigenvectors, v[:, ::-1][:, :rank])
        assert_matches_full_solve(kernel, a, rank)

    @pytest.mark.parametrize("info,found,message", [(2, 4, "info = 2"), (0, 3, "found 3 of 4")])
    def test_lapack_failure_raises_linalg_error(self, monkeypatch, info, found, message):
        # a stand-in for dsyevr, given JOBZ, RANGE, UPLO, N, A, LDA, VL, VU,
        # IL, IU, ABSTOL, M, W, Z, LDZ, ISUPPZ, WORK, LWORK, IWORK, LIWORK,
        # INFO and the three string lengths as the kernel passes them
        def fake(*args):
            args[16][0], args[18][0] = 1.0, 1  # workspace sizes
            args[11].value, args[20].value = found, info

        monkeypatch.setattr(spectral, "_DSYEVR", (fake, ctypes.c_int64))
        with pytest.raises(np.linalg.LinAlgError, match=message):
            eigh_descending(random_symmetric(10, 0), 4)

    def test_values_solve_failure_raises_linalg_error(self, monkeypatch):
        # a stand-in for dsyevd, given JOBZ, UPLO, N, A, LDA, W, WORK, LWORK,
        # IWORK, LIWORK, INFO and the two string lengths as the kernel passes
        # them; it fails the solve, after answering the workspace query
        def fake(*args):
            args[6][0], args[8][0] = 1.0, 1  # workspace sizes
            args[10].value = 0 if args[7].value == -1 else 2

        monkeypatch.setattr(spectral, "_DSYEVD", (fake, ctypes.c_int64))
        with pytest.raises(np.linalg.LinAlgError, match=r"dsyevd failed \(info = 2\)"):
            eigvals_descending(random_symmetric(10, 0))


def _graph_adjacency(m: int, seed: int) -> np.ndarray:
    upper = np.triu(np.random.default_rng(seed).random((m, m)) < 0.4, 1)
    return (upper | upper.T).astype(np.uint8)


def assert_same_decomposition(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)


class TestOneCopy:
    """The solve converts a symmetric integer or bool matrix straight into its
    one float64 copy and symmetrizes other input only when needed: the
    result is bit for bit that of the float64 path (an exactly symmetric
    float matrix) and of the as_symmetric copy the solve once always made."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int64])
    @pytest.mark.parametrize("rank", [1, 20, 40, None])
    def test_integer_and_bool_input_equals_the_float_path(self, dtype, rank):
        adj = _graph_adjacency(40, 3)
        want = eigh_descending(adj.astype(np.float64), rank)
        assert_same_decomposition(eigh_descending(adj.astype(dtype), rank), want)
        if rank is not None:
            w, v = spectral._solve_top(as_symmetric(adj), rank)
            assert_same_decomposition(want, spectral.SpectralDecomposition(w, v))

    @pytest.mark.parametrize("kind", ["int", "float"])
    @pytest.mark.parametrize("rank", [1, 9, 17, None])
    def test_non_symmetric_input_equals_the_as_symmetric_path(self, kind, rank):
        rng = np.random.default_rng(11)
        a = rng.integers(-5, 6, (17, 17)) if kind == "int" else rng.standard_normal((17, 17))
        assert not np.array_equal(a, a.T)
        assert_same_decomposition(eigh_descending(a, rank), eigh_descending(as_symmetric(a), rank))
        assert np.array_equal(eigvals_descending(a), eigvals_descending(as_symmetric(a)))

    def test_input_is_left_unchanged(self):
        a = random_symmetric(12, 4)
        before = a.copy()
        eigh_descending(a, 3)
        eigh_descending(a.T, 3)  # an F-order view of the same buffer
        eigvals_descending(a)
        eigvals_descending(a.T)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("rank", [2, None])
    def test_non_finite_input_raises(self, bad, symmetric, rank):
        a = random_symmetric(6, 1)
        a[1, 4] = bad
        if symmetric:
            a[4, 1] = bad
        with pytest.raises(NonFiniteError):
            eigh_descending(a, rank)
        with pytest.raises(NonFiniteError):
            eigvals_descending(a)
        with pytest.raises(NonFiniteError):
            spectral_norm(a)

    def test_values_only_solve_is_eigvalsh_descending(self, monkeypatch):
        a = random_symmetric(30, 8)
        calls, solve = [], spectral._solve_values
        monkeypatch.setattr(spectral, "_solve_values", lambda x: calls.append(x.shape) or solve(x))
        w = eigvals_descending(a)
        assert calls == [(30, 30)]  # the one values seam
        assert np.array_equal(w, np.linalg.eigvalsh(a)[::-1])
        assert np.abs(w - eigh_descending(a).eigenvalues).max() <= 1e-12 * np.abs(w).max()

    def test_rank_solve_of_uint8_holds_one_float_copy(self):
        # one 8 m^2 float64 copy and the m^2-byte symmetry check; the solve
        # once also held an as_symmetric copy and its caller's astype copy
        m = 600
        adj = _graph_adjacency(m, 5)
        eigh_descending(adj[:20, :20], 2)  # warm up: lazy imports and first-call caches
        tracemalloc.start()
        try:
            eigh_descending(adj, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * m * m


class TestNorms:
    def test_spectral_norm_zero(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0
        assert spectral_norm(np.zeros((0, 0))) == 0.0

    def test_spectral_norm_cluster_matrix(self):
        h = cluster_matrix(make_partition(6, 3))
        assert spectral_norm(h) == pytest.approx(3.0, abs=1e-12)

    def test_spectral_norm_vs_power_iteration(self):
        rng = np.random.default_rng(42)
        a = as_symmetric(np.sign(rng.standard_normal((50, 50))))
        assert spectral_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-6)

    def test_spectral_norm_negative_dominant(self):
        a = np.diag([2.0, -5.0, 1.0])
        assert spectral_norm(a) == 5.0

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_norm_at_most_max_row_sum(self, seed):
        a = random_symmetric(15, seed)
        assert spectral_norm(a) <= np.abs(a).sum(axis=1).max() + 1e-12


thread_control = pytest.mark.skipif(
    spectral._SET_THREADS is None or spectral._GET_THREADS is None or spectral._DSYEVD is None,
    reason="numpy's LAPACK exports no dsyevd or OpenBLAS thread control: the sets are solved one at a time on one pool worker",
)


def gathered_norms(a: np.ndarray, sets) -> list:
    """spectral_norm of each gathered submatrix, one at a time, under one
    BLAS thread where OpenBLAS's thread count can be set."""
    one_thread = spectral._one_blas_thread() if spectral._SET_THREADS else contextlib.nullcontext()
    with one_thread:
        return [spectral_norm(a[np.ix_(v, v)]) if len(v) else 0.0 for v in sets]


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at 2 threads for the test, so a count left at 1 shows."""
    if spectral._SET_THREADS is None or spectral._GET_THREADS is None:
        pytest.skip("OpenBLAS's thread count cannot be set here")
    set_threads = spectral._SET_THREADS[0]  # a test may set _SET_THREADS to None
    old = spectral._GET_THREADS[0]()
    set_threads(2)
    try:
        yield
    finally:
        set_threads(old)


class TestSubmatrixNorms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_norms_are_those_of_the_gathered_submatrices(self, m, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(m, seed)
        sets = [np.array([i]) for i in range(m)]
        sets += [np.arange(m), rng.permutation(m), rng.permutation(m)[: rng.integers(1, m + 1)]]
        got = spectral.submatrix_norms(a, sets)
        assert got.tolist() == gathered_norms(a, sets)  # bit for bit

    def test_input_checked_as_spectral_norm_checks_it(self):
        a = np.random.default_rng(3).standard_normal((12, 12))
        sets = [np.arange(12), np.arange(0, 12, 2)]
        assert spectral.submatrix_norms(a, sets).tolist() == gathered_norms(as_symmetric(a), sets)
        a[3, 5] = np.nan
        with pytest.raises(NonFiniteError):
            spectral.submatrix_norms(a, sets)

    def test_empty_set_has_norm_zero(self):
        a = random_symmetric(5, 1)
        assert spectral.submatrix_norms(a, [np.array([], dtype=np.int64), np.arange(5)])[0] == 0.0

    @thread_control
    def test_copies_in_flight_fit_in_the_matrix(self, monkeypatch):
        # eight workers on fewer cores, and sets of 4/9 of the matrix's bytes:
        # three at once would not fit, and the whole set only fits alone
        n = 60
        a = random_symmetric(n, 7)
        sets = [np.arange(n)] + [np.arange(n)[np.arange(n) % 3 != c] for c in range(3)] * 3
        sets += [np.arange(c, n, 3) for c in range(3)] * 3
        lock, running, peaks = threading.Lock(), [0], []
        solve = spectral._solve_values

        def recorded(x):
            with lock:
                running[0] += x.nbytes
                peaks.append(running[0])
            try:
                time.sleep(0.002)
                return solve(x)
            finally:
                with lock:
                    running[0] -= x.nbytes

        monkeypatch.setattr(spectral, "_workers", lambda: 8)
        monkeypatch.setattr(spectral, "_solve_values", recorded)
        got = spectral.submatrix_norms(a, sets)
        assert len(peaks) == len(sets)
        assert max(peaks) <= a.nbytes
        assert max(peaks) > 8 * 40 * 40  # solves did overlap
        assert got.tolist() == gathered_norms(a, sets)

    @thread_control
    def test_set_larger_than_the_matrix_runs_alone(self):
        # a repeated index makes a copy bigger than the matrix: it cannot fit
        # the budget, so it starts once nothing else is in flight
        a = random_symmetric(4, 3)
        sets = [np.array([0, 1, 2, 3, 3, 1]), np.arange(4), np.array([2, 0])]
        results = []
        worker = threading.Thread(
            target=lambda: results.append(spectral.submatrix_norms(a, sets)), daemon=True
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert results[0].tolist() == gathered_norms(a, sets)

    @thread_control
    def test_stress_more_workers_than_cores(self, monkeypatch):
        # every norm lands at its own set's index, whatever order the many
        # workers finish in, with thread switches as often as they can be
        rng = np.random.default_rng(5)
        a = random_symmetric(80, 5)
        sets = [rng.permutation(80)[: rng.integers(1, 81)] for _ in range(120)]
        want = gathered_norms(a, sets)
        workers = 4 * spectral._workers() + 3
        monkeypatch.setattr(spectral, "_workers", lambda: workers)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(
                target=lambda: results.extend(spectral.submatrix_norms(a, sets) for _ in range(5)),
                daemon=True,
            )
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 5
        assert all(r.tolist() == want for r in results)

    @pytest.mark.parametrize("missing", ["_DSYEVD", "_SET_THREADS", "_GET_THREADS"])
    def test_without_dsyevd_or_thread_control_one_set_at_a_time(
        self, two_blas_threads, monkeypatch, missing
    ):
        # one pool worker and no pinning: each norm is spectral_norm's at the
        # current BLAS thread count, and the count is never touched
        get_threads = spectral._GET_THREADS[0]
        monkeypatch.setattr(spectral, missing, None)
        a = random_symmetric(40, 6)
        sets = [np.arange(40), np.arange(0, 40, 2), np.array([3]), np.arange(39, 14, -1)]
        sets.append(np.array([], dtype=np.int64))
        want = [spectral_norm(a[np.ix_(v, v)]) if len(v) else 0.0 for v in sets]
        lock, running, peaks, threads = threading.Lock(), [0], [], []
        solve = spectral._solve_values

        def recorded(x):
            with lock:
                running[0] += 1
                peaks.append(running[0])
            threads.append(get_threads())
            try:
                time.sleep(0.002)
                return solve(x)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(spectral, "_workers", lambda: 8)
        monkeypatch.setattr(spectral, "_solve_values", recorded)
        assert spectral.submatrix_norms(a, sets).tolist() == want  # bit for bit
        assert peaks == [1] * 4
        assert threads == [2] * 4
        assert get_threads() == 2

    def test_blas_threads_restored_after_return(self, two_blas_threads):
        spectral.submatrix_norms(random_symmetric(30, 2), [np.arange(30), np.arange(10)])
        assert spectral._GET_THREADS[0]() == 2

    def test_blas_threads_restored_after_a_failed_solve(self, two_blas_threads, monkeypatch):
        def failing(x):
            raise np.linalg.LinAlgError("stand-in solve failed")

        monkeypatch.setattr(spectral, "_solve_values", failing)
        with pytest.raises(np.linalg.LinAlgError, match="stand-in"):
            spectral.submatrix_norms(random_symmetric(30, 2), [np.arange(30), np.arange(10)])
        assert spectral._GET_THREADS[0]() == 2

    def test_blas_threads_restored_after_concurrent_checks(self, two_blas_threads, monkeypatch):
        # two trials' checks in two threads, their FK batches made slow enough
        # to overlap: every FK solve runs on one BLAS thread, and the count
        # is 2 again once both are done
        from plantrec.experiment import run_checks

        n = 120
        part = make_partition(n, 30)
        params = ModelParams(p=0.7, q=0.3, seed=4)
        g = sample_graph(part, params)
        want = run_checks(g, part, params, ("fk",), 0.1)
        solve, seen = spectral._solve_values, []

        def slow(x):
            if len(x) < n:  # an FK union, not the in-place solve of A - E
                seen.append(spectral._GET_THREADS[0]())
                first_solving.set()
                time.sleep(0.002)
            return solve(x)

        monkeypatch.setattr(spectral, "_solve_values", slow)
        first_solving, results = threading.Event(), []

        def check(after=None):
            if after is not None:
                assert after.wait(timeout=60)
            results.append(run_checks(g, part, params, ("fk",), 0.1))

        # the second thread starts its checks once the first's FK batch runs
        threads = [
            threading.Thread(target=check, daemon=True),
            threading.Thread(target=check, args=(first_solving,), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert spectral._GET_THREADS[0]() == 2
        assert seen == [1] * 2 * 14
        assert len(results) == 2
        for got in results:
            assert [(r.name, r.lhs) for r in got] == [(r.name, r.lhs) for r in want]


class TestWeylRandomPairs:
    @pytest.mark.parametrize("seed", range(5))
    def test_weyl_on_random_pairs(self, seed):
        a, b = random_symmetric(12, seed), random_symmetric(12, seed + 100)
        wa = eigh_descending(a).eigenvalues
        wb = eigh_descending(b).eigenvalues
        assert np.abs(wa - wb).max() <= spectral_norm(a - b) + 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_weyl_on_model_pairs(self, seed):
        part = make_partition(40, 10)
        params = ModelParams(p=0.8, q=0.2, seed=seed)
        sampled = sample_graph(part, params).adj
        expected = expectation_matrix(part, params)
        wa = eigh_descending(sampled).eigenvalues
        wb = eigh_descending(expected).eigenvalues
        assert np.abs(wa - wb).max() <= spectral_norm(sampled - expected) + 1e-10


def column_mass(p, members) -> float:
    """||P 1_W|| for one set W, through the operand the ranking reads."""
    return float(projector_operand(p).masses(np.asarray(members, dtype=np.int64)[None, :])[0])


class TestProjectorColumnMass:
    def test_full_cluster_mass(self):
        part = make_partition(12, 4)
        p = cluster_matrix(part) / 4
        assert column_mass(p, part.clusters()[1]) == pytest.approx(2.0)

    def test_empty_set(self):
        p = np.eye(4)
        assert column_mass(p, []) == 0.0

    def test_split_set(self):
        # two vertices from each of two clusters of size 4: ||P 1_W||^2 = 2
        part = make_partition(8, 4)
        p = cluster_matrix(part) / 4
        w = [0, 1, 4, 5]
        assert column_mass(p, w) == pytest.approx(np.sqrt(2.0))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            column_mass(np.zeros((3, 4)), [0])

    def test_accepts_projector_object(self):
        part = make_partition(8, 4)
        proj = top_projector(expectation_matrix(part, ModelParams(0.9, 0.1, 0)), 2)
        assert column_mass(proj, part.clusters()[0]) == pytest.approx(2.0)
