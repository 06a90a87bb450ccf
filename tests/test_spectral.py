import contextlib
import ctypes
import math
import mmap
import os
import sys
import threading
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plantrec import spectral
from plantrec.errors import NonFiniteError, RankOutOfRangeError, VertexIdError
from plantrec.model import ModelParams, make_partition, expectation_matrix, permute_partition, sample_graph
from plantrec.recovery import all_candidate_sets
from plantrec.spectral import (
    as_symmetric,
    eigh_descending,
    eigvals_descending,
    projector_operand,
    spectral_norm,
    top_projector,
)

from oracles import cluster_matrix, dense_projector, extended_extremes


long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="numpy's long double is no wider than float64 here, so the oracle is no reference",
)

lapack = pytest.mark.skipif(spectral._LAPACK is None, reason="LAPACK does not resolve in numpy's libraries")


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
    def test_fallback_is_the_sliced_full_solve(self, iterative_off, monkeypatch, rank):
        # where LAPACK does not resolve: numpy's full solve, sliced, which
        # the kernel matches within the property test's tolerance
        a = random_symmetric(30, rank)
        kernel = eigh_descending(a, rank)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda x: calls.append(len(x)) or eigh(x))
        monkeypatch.setattr(spectral, "_LAPACK", None)
        fallback = eigh_descending(a, rank)
        assert calls == [30]
        w, v = eigh(a)
        assert np.array_equal(fallback.eigenvalues, w[::-1][:rank])
        assert np.array_equal(fallback.eigenvectors, v[:, ::-1][:, :rank])
        assert_matches_full_solve(kernel, a, rank)

    @lapack
    @pytest.mark.parametrize("info,found,message", [(2, 4, "info = 2"), (0, 3, "found 3 of 4")])
    def test_lapack_failure_raises_linalg_error(self, iterative_off, monkeypatch, info, found, message):
        # a stand-in for dsyevr, given JOBZ, RANGE, UPLO, N, A, LDA, VL, VU,
        # IL, IU, ABSTOL, M, W, Z, LDZ, ISUPPZ, WORK, LWORK, IWORK, LIWORK,
        # INFO and the three string lengths as the kernel passes them
        def fake(*args):
            args[16][0], args[18][0] = 1.0, 1  # workspace sizes
            args[11].value, args[20].value = found, info

        monkeypatch.setitem(spectral._LAPACK.functions, "dsyevr", fake)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            eigh_descending(random_symmetric(10, 0), 4)


def stub_library(exports: dict) -> types.SimpleNamespace:
    """A library that exports, under each name template, the routines listed
    for it, as stand-ins that take ctypes declarations."""
    lib = types.SimpleNamespace()
    for template, routines in exports.items():
        for routine in routines:
            setattr(lib, template.format(routine), lambda *args: None)
    return lib


LAPACK_ROUTINES = tuple(spectral._LAPACK_SIGNATURES)


def routine_id(routine: str) -> str:
    """A parameter id for `routine`: "_DGEMM" for dgemm, "_SET_THREADS" for set_num_threads."""
    return "_" + routine.replace("_num", "").upper()


def resolve_without(monkeypatch, routine: str) -> None:
    """Put in place of the module's capability that holds `routine` the one
    resolved from a library exporting every other routine of it, under each
    name template, but not `routine`: which is none."""
    capability, names, signatures = (
        ("_THREADS", spectral._OPENBLAS_NAMES, spectral._OPENBLAS_SIGNATURES)
        if routine in spectral._OPENBLAS_SIGNATURES
        else ("_LAPACK", spectral._LAPACK_NAMES, spectral._LAPACK_SIGNATURES)
    )
    rest = [r for r in signatures if r != routine]
    resolved = spectral._resolve(stub_library({template: rest for template, _ in names}), names, signatures)
    assert resolved is None
    monkeypatch.setattr(spectral, capability, resolved)


class TestResolve:
    """A capability resolves as a whole, from one name template, or not at all."""

    @staticmethod
    def resolve_lapack(lib):
        return spectral._resolve(lib, spectral._LAPACK_NAMES, spectral._LAPACK_SIGNATURES)

    def test_one_template_gives_every_routine_its_integer_type(self):
        # the two 64-bit templates lack dgemm, the 32-bit one exports all six
        five = LAPACK_ROUTINES[:-1]
        lib = stub_library({"scipy_{}_64_": five, "{}_64_": five, "{}_": LAPACK_ROUTINES})
        got = self.resolve_lapack(lib)
        assert (got.template, got.int_type) == ("{}_", ctypes.c_int32)
        assert got.functions == {routine: getattr(lib, routine + "_") for routine in LAPACK_ROUTINES}
        for func in got.functions.values():
            assert ctypes.POINTER(ctypes.c_int32) in func.argtypes
            assert ctypes.POINTER(ctypes.c_int64) not in func.argtypes
            assert func.restype is None

    @pytest.mark.parametrize("routine", LAPACK_ROUTINES)
    def test_routines_split_across_two_templates_do_not_resolve(self, routine):
        # `routine` under the 32-bit name only, the other five under the 64-bit ones
        rest = [r for r in LAPACK_ROUTINES if r != routine]
        assert self.resolve_lapack(stub_library({"scipy_{}_64_": rest, "{}_": [routine]})) is None

    def test_thread_controls_resolve_as_a_pair(self):
        names, signatures = spectral._OPENBLAS_NAMES, spectral._OPENBLAS_SIGNATURES
        pair = ["set_num_threads", "get_num_threads"]
        split = stub_library({"scipy_openblas_{}64_": pair[:1], "openblas_{}": pair[1:]})
        assert spectral._resolve(split, names, signatures) is None
        got = spectral._resolve(stub_library({"openblas_{}": pair}), names, signatures)
        assert got.template == "openblas_{}"
        assert got.functions["set_num_threads"].argtypes == [ctypes.c_int]
        assert got.functions["get_num_threads"].restype is ctypes.c_int


def dsyevr_only(solve, *args):
    """`solve(*args)` with every top-r solve going straight to dsyevr."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_ITERATIVE_MIN_DIM", sys.maxsize)
        return solve(*args)


def sin_theta(v: np.ndarray, u: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal bases."""
    return float(np.linalg.norm(v - u @ (u.T @ v), 2)) if v.size else 0.0


def assert_certified_or_dsyevr(dec, a, rank):
    """An iterative solve holds its certificate against numpy's full solve:
    eigenvalues within 1e-12 * ||a|| and the basis within the certified
    sin theta (plus the full solve's own rounding); a dsyevr solve is bit for
    bit the solve that never tries the iteration."""
    if dec.solve.solver == "dsyevr":
        assert dec.solve.sin_theta is None
        assert_same_decomposition(dec, dsyevr_only(eigh_descending, a, rank))
        return
    assert dec.solve.steps > 0
    assert dec.solve == spectral.SolveRecord("iterative", dec.solve.steps, 1e-10)
    w_full, v_full = np.linalg.eigh(as_symmetric(a))
    w_full, v_full = w_full[::-1], v_full[:, ::-1]
    scale = max(1.0, float(np.abs(w_full).max()))
    gap = w_full[rank - 1] - w_full[rank]
    assert gap > 0  # the certificate proved lambda_{r+1} < sigma <= theta_r
    assert np.abs(dec.eigenvalues - w_full[:rank]).max() <= 1e-12 * scale
    v = dec.eigenvectors
    assert v.flags.c_contiguous and np.abs(v.T @ v - np.eye(rank)).max() <= 1e-12
    assert sin_theta(v, v_full[:, :rank]) <= 1e-10 + 1e-13 * scale / gap


def assert_panel_tile(n, lda) -> None:
    """A dpotrf call of the certificate gets the diagonal tile of a row panel
    (:func:`spectral._panel_copy`), with the panel's width m - k as its
    leading dimension: only the last panel may have fewer rows than a tile,
    and its width is its rows."""
    tile = spectral._CERTIFICATE_TILE
    assert 1 <= n.value <= tile and lda.value >= n.value
    assert n.value == tile or lda.value == n.value


def assert_failing_factorization(monkeypatch, tiles: int, calls: list) -> None:
    """dpotrf factors the first tiles - 1 diagonal tiles of the certificate
    and fails on the last one (INFO = 1), and each call is appended to `calls`."""
    potrf = spectral._LAPACK.functions["dpotrf"]

    def fake(uplo, n, a, lda, info, length):
        assert uplo == b"L"
        assert_panel_tile(n, lda)
        calls.append(n.value)
        if len(calls) < tiles:
            potrf(uplo, n, a, lda, info, length)
        else:
            info.value = 1

    monkeypatch.setitem(spectral._LAPACK.functions, "dpotrf", fake)


def counted_factorizations(monkeypatch) -> list:
    """dpotrf as resolved, with the INFO of each call appended to the list returned."""
    potrf, infos = spectral._LAPACK.functions["dpotrf"], []

    def counted(uplo, n, tile, lda, info, length):
        assert_panel_tile(n, lda)
        potrf(uplo, n, tile, lda, info, length)
        infos.append(info.value)

    monkeypatch.setitem(spectral._LAPACK.functions, "dpotrf", counted)
    return infos


def complete_bipartite(half: int) -> np.ndarray:
    """K_{half,half}: eigenvalues half, -half and 0."""
    a = np.zeros((2 * half, 2 * half), dtype=np.uint8)
    a[:half, half:] = a[half:, :half] = 1
    return a


def disjoint_cliques(k: int, s: int) -> np.ndarray:
    """k disjoint s-cliques: eigenvalue s - 1 k times, the rest -1 (or 0)."""
    a = np.kron(np.eye(k, dtype=np.uint8), np.ones((s, s), dtype=np.uint8))
    np.fill_diagonal(a, 0)
    return a


class TestIterativeSolve:
    """The certified block iteration, forced on every solve it can run: a
    certified basis is within its sin theta bound, and a solve it gives way
    on is bit for bit dsyevr's."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(partial_solve_cases())
    def test_certified_or_bit_for_bit_dsyevr(self, iterative_on, case):
        a, rank = case
        assert_certified_or_dsyevr(eigh_descending(a, rank), a, rank)

    @pytest.mark.parametrize("m,rank", [(60, 1), (60, 3), (200, 5), (401, 4)])
    def test_planted_graphs_are_certified(self, iterative_on, m, rank):
        part = make_partition(m - m % rank, (m - m % rank) // rank)
        adj = sample_graph(part, ModelParams(p=0.9, q=0.1, seed=m)).adj
        dec = eigh_descending(adj, rank)
        assert dec.solve.solver == "iterative" and dec.solve.steps > 0
        assert_certified_or_dsyevr(dec, adj, rank)

    def test_ranks_by_value_not_magnitude(self, iterative_on):
        # K_{a,a}: lambda_min = -lambda_max, so the top pair by magnitude is
        # +-a; by value it is a with the constant vector
        a = complete_bipartite(40)
        dec = eigh_descending(a, 1)
        assert dec.solve.solver == "iterative"
        assert dec.eigenvalues[0] == pytest.approx(40.0, rel=1e-14)
        assert sin_theta(dec.eigenvectors, np.full((80, 1), 80**-0.5)) <= 1e-10
        assert_certified_or_dsyevr(dec, a, 1)

    @pytest.mark.parametrize("case", ["tied", "empty", "bipartite zero"])
    def test_no_gap_gives_dsyevr_bits(self, iterative_on, case):
        # r + 1 equal cliques at rank r (lambda_r = lambda_{r+1}); the empty
        # graph (theta_r = 0); K_{a,a} at rank 2 (lambda_2 = 0 many times)
        a, rank = {
            "tied": (disjoint_cliques(4, 15), 3),
            "empty": (np.zeros((40, 40), dtype=np.uint8), 2),
            "bipartite zero": (complete_bipartite(20), 2),
        }[case]
        dec = eigh_descending(a, rank)
        # the give-way rule reads the Ritz gap from the sixth product on
        assert dec.solve.solver == "dsyevr" and 0 < dec.solve.steps <= 6
        assert_same_decomposition(dec, dsyevr_only(eigh_descending, a, rank))

    def test_degenerate_top_pair_has_the_same_projector(self, iterative_on):
        # two equal cliques: lambda_1 = lambda_2, so only the projector is unique
        a = disjoint_cliques(2, 30)
        dec, want = eigh_descending(a, 2), dsyevr_only(eigh_descending, a, 2)
        assert dec.solve.solver == "iterative"
        assert np.abs(dec.eigenvalues - want.eigenvalues).max() <= 1e-12 * 29
        got = dense_projector(top_projector(a, 2))
        assert np.abs(got - dense_projector(spectral.Projector(want.eigenvectors))).max() <= 1e-10

    @pytest.mark.parametrize("m", [60, 702])
    def test_failed_factorization_gives_dsyevr_bits(self, iterative_on, monkeypatch, m):
        # a dpotrf stand-in that factors every diagonal tile but the last,
        # where it reports a non-positive leading minor: the matrix, written
        # over by the tiles before, is put back and dsyevr runs
        adj = sample_graph(make_partition(m, m // 3), ModelParams(p=0.9, q=0.1, seed=1)).adj
        tiles, calls = math.ceil(m / spectral._CERTIFICATE_TILE), []
        assert_failing_factorization(monkeypatch, tiles, calls)
        dec = eigh_descending(adj, 3)
        assert len(calls) == tiles
        assert dec.solve.solver == "dsyevr" and dec.solve.steps > 0
        assert_same_decomposition(dec, dsyevr_only(eigh_descending, adj, 3))

    def test_budget_exhausted_gives_dsyevr_bits(self, iterative_on, monkeypatch):
        adj = sample_graph(make_partition(300, 100), ModelParams(p=0.9, q=0.1, seed=2)).adj
        monkeypatch.setattr(spectral, "_DIM_PER_PRODUCT", 300 // 12)  # 12 products
        dec = eigh_descending(adj, 3)
        assert dec.solve.solver == "dsyevr" and 0 < dec.solve.steps <= 12
        assert_same_decomposition(dec, dsyevr_only(eigh_descending, adj, 3))

    @pytest.mark.parametrize("path", ["certified", "certificate failed", "budget exhausted"])
    def test_iterative_solve_of_uint8_holds_one_float_copy(self, iterative_on, monkeypatch, path):
        # the one panel copy, which the certificate writes in place, is one
        # memory mapping of just the panels' size that tracemalloc does not
        # see, unmapped before dsyevr's copy is made (a mapping too); the
        # iteration's blocks and the certificate's tiles fit in 5% of 8 m^2
        m = 2000
        adj = sample_graph(make_partition(m, 500), ModelParams(p=0.7, q=0.3, seed=6)).adj
        if path == "certificate failed":
            assert_failing_factorization(monkeypatch, math.ceil(m / spectral._CERTIFICATE_TILE), [])
        elif path == "budget exhausted":
            monkeypatch.setattr(spectral, "_DIM_PER_PRODUCT", m // 12)
        eigh_descending(adj[:40, :40], 2)  # warm up: lazy imports and first-call caches
        panel_copy, solve_copy = spectral._panel_copy, spectral._solve_copy
        sizes, mappings, mapped_at_copy = [], [], []

        def panels_seen(a):
            panels = panel_copy(a)
            sizes.append(len(mapping_of(panels[0])))
            mappings.append(weakref.ref(mapping_of(panels[0])))
            return panels

        def copy_seen(a, index=None):
            mapped_at_copy.append([ref() is not None for ref in mappings])
            return solve_copy(a, index)

        monkeypatch.setattr(spectral, "_panel_copy", panels_seen)
        monkeypatch.setattr(spectral, "_solve_copy", copy_seen)
        tracemalloc.start()
        try:
            dec = eigh_descending(adj, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.solve.solver == ("iterative" if path == "certified" else "dsyevr")
        assert dec.solve.steps > 0
        assert peak <= 0.05 * 8 * m * m
        assert sizes == [8 * panel_entries(m)]
        assert mapped_at_copy == ([] if path == "certified" else [[False]])
        assert mappings[0]() is None
        if path != "certified":
            assert_same_decomposition(dec, dsyevr_only(eigh_descending, adj, 4))

    def test_default_rules(self):
        # tried from m = 1500 on, where sqrt(m) / r >= 4 and LAPACK resolves
        applies = spectral._iterative_applies
        if spectral._LAPACK is None:
            assert not applies(4000, 2)
            return
        assert applies(1500, 9) and applies(3000, 3) and applies(12000, 4)
        assert not applies(1499, 1)  # the size floor
        assert not applies(2000, 20) and not applies(1600, 11)  # sqrt(m) / r < 4
        assert applies(1600, 10)

    @pytest.mark.parametrize("routine", ["dpotrf", "dtrsm", "dgemm"], ids=routine_id)
    def test_not_tried_without_a_certificate_routine(self, monkeypatch, routine):
        resolve_without(monkeypatch, routine)
        assert not spectral._iterative_applies(3000, 3)

    def test_deterministic(self, iterative_on):
        adj = sample_graph(make_partition(400, 100), ModelParams(p=0.8, q=0.2, seed=3)).adj
        first, second = eigh_descending(adj, 4), eigh_descending(adj, 4)
        assert first.solve.solver == "iterative"
        assert_same_decomposition(first, second)


def panel_entries(m: int) -> int:
    """Entries of the row panels of an m x m triangle: sum over k of
    min(tile, m - k) (m - k)."""
    tile = spectral._CERTIFICATE_TILE
    return sum(min(tile, m - k) * (m - k) for k in range(0, m, tile))


def from_panels(panels: list) -> np.ndarray:
    """The m x m matrix whose upper triangle `panels` hold, laid out as
    :func:`spectral._panel_copy` lays them out, zero below the diagonal."""
    m = panels[0].shape[1]
    out = np.zeros((m, m))
    for panel in panels:
        k = m - panel.shape[1]
        out[k : k + len(panel), k:] = panel
    return np.triu(out)


def mapping_of(array: np.ndarray):
    """The object at the end of `array`'s chain of bases: for a solve copy,
    the memory mapping that holds it."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


def assert_packed(panels: list, m: int) -> None:
    """`panels` are the row panels of an m x m triangle, packed back to back
    in one memory mapping of just their size: nothing below the diagonal
    tiles is stored."""
    tile = spectral._CERTIFICATE_TILE
    assert [panel.shape for panel in panels] == [(min(tile, m - k), m - k) for k in range(0, m, tile)]
    start = end = panels[0].ctypes.data
    for panel in panels:
        assert panel.dtype == np.float64 and panel.flags.c_contiguous and panel.flags.writeable
        assert panel.ctypes.data == end and mapping_of(panel) is mapping_of(panels[0])
        end += panel.nbytes
    buffer = mapping_of(panels[0])
    assert isinstance(buffer, mmap.mmap) and len(buffer) == end - start == 8 * panel_entries(m)


@lapack
class TestCertificate:
    """The tiled Cholesky factorization behind the certificate, in place on
    the row panels of the upper triangle, and the certificate's put-back
    when it fails."""

    @staticmethod
    def panels_of(upper: np.ndarray) -> list:
        """The row panels of the symmetric `upper`, with NaN in the strict
        lower triangle of each diagonal tile, which the factorization writes
        over but never reads."""
        panels = spectral._panel_copy(upper)
        for panel in panels:
            rows = len(panel)
            panel[:, :rows][np.tril_indices(rows, -1)] = np.nan
        return panels

    @pytest.mark.parametrize("m", [1, 127, 128, 129, 300, 702])
    def test_matches_numpy_and_keeps_the_lower_triangle(self, m):
        # nothing below the diagonal tiles is stored, so nothing there can change
        x = np.random.default_rng(m).standard_normal((m, m + 5))
        spd = x @ x.T / m + np.eye(m)
        panels = self.panels_of(spd)
        assert_packed(panels, m)
        assert spectral._cholesky_upper(panels)
        want = np.linalg.cholesky(spd).T
        assert np.abs(from_panels(panels) - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def spiked(m: int, at: int) -> np.ndarray:
        """Small symmetric noise plus a spike of 100 at (at, at)."""
        a = as_symmetric(np.random.default_rng(at).standard_normal((m, m))) / (4 * math.sqrt(m))
        a[at, at] += 100.0
        return a

    def test_fails_in_a_middle_row_block(self, monkeypatch):
        # 50 I - A is indefinite through the spike at row 400, in row panel 3
        # of 6: dpotrf factors the three diagonal tiles above it, then fails,
        # and the panels below it are not touched
        m, at = 702, 400
        panels = self.panels_of(50.0 * np.eye(m) - self.spiked(m, at))
        below = [panel.copy() for panel in panels[4:]]
        infos = counted_factorizations(monkeypatch)
        assert not spectral._cholesky_upper(panels)
        assert infos[:3] == [0, 0, 0] and len(infos) == 4 and infos[3] > 0
        assert_packed(panels, m)
        assert all(panel.tobytes() == old.tobytes() for panel, old in zip(panels[4:], below))

    def test_certify_fails_at_the_spike(self, monkeypatch):
        # Ritz values 50 and 0.5 for the vector e_0: sigma is about 50, and
        # sigma I - A + 50 e_0 e_0^T fails at the spike in row panel 3; the
        # panels are left written over, and a solve copies its input again
        m, at = 702, 400
        a = self.spiked(m, at)
        infos = counted_factorizations(monkeypatch)
        theta, v = np.array([50.0, 0.5]), np.eye(m)[:, :1]
        norm = float(np.abs(a).sum(axis=1).max())
        assert not spectral._certify(spectral._panel_copy(a), theta, v, 1, 1e-12, norm)
        assert infos[:3] == [0, 0, 0] and len(infos) == 4 and infos[3] > 0

    def test_rounding_shift_at_cli_large_round_0(self):
        # m = 3000, r = 3 with sigma = 385.7: the shift is twice
        # alpha tr(M) ~ 2 (m + 1) u m sigma = 7.7e-7 (the forming term is about
        # 1e-12), far below the margin sigma - theta_{r+1} = 339
        m, sigma = 3000, 385.7
        v = np.linalg.qr(np.random.default_rng(1).standard_normal((m, 3)))[0]
        theta = np.array([1498.0, 401.0, 392.0])
        diagonal = np.einsum("ij,j,ij->i", v, theta, v)  # of V Theta V^T - A, A with zero diagonal
        shift = spectral._rounding_shift(diagonal, theta, v, 2700.0, sigma)
        alpha = (m + 1) * 2.0**-53
        assert 2 * alpha * m * sigma < shift < 2.01 * alpha * m * sigma
        assert 7.7e-7 < shift < 7.8e-7

    @pytest.mark.parametrize("within", [True, False])
    def test_sigma_within_the_shift_of_theta_r_plus_1_is_refused(self, monkeypatch, within):
        # residual 0, so sigma = theta_r; theta_{r+1} half the shift below it
        # passes the unshifted test but not the shifted one, and nothing is
        # factored; twice the shift below it, the factorization runs
        m = 300
        a = as_symmetric(np.random.default_rng(2).standard_normal((m, m))) / (4 * math.sqrt(m))
        v = np.eye(m)[:, :1]
        theta = np.array([50.0, 0.0])
        norm = float(np.abs(a).sum(axis=1).max())
        diagonal = v[:, 0] ** 2 * 50.0 - a.diagonal()
        shift = spectral._rounding_shift(diagonal, theta[:1], v, norm, 50.0)
        theta[1] = 50.0 - (0.5 if within else 2.0) * shift
        assert theta[1] < 50.0
        calls = []
        assert_failing_factorization(monkeypatch, sys.maxsize, calls)  # factors every tile
        assert spectral._certify(spectral._panel_copy(a), theta, v, 1, 0.0, norm) is (not within)
        assert (calls == []) is within

    @long_double
    def test_formed_matrix_within_the_forming_bound(self, monkeypatch):
        # step 1 of the certificate's proof: ||Mf - M||_2 <= f, with M formed
        # exactly in long double from the same float64 inputs
        m, r = 300, 4
        rng = np.random.default_rng(3)
        a = _graph_adjacency(m, 3).astype(np.float64)
        v = np.linalg.qr(rng.standard_normal((m, r)))[0]
        theta = np.array([120.0, 40.5, 33.25, 30.125, 1.0])
        norm = float(np.abs(a).sum(axis=1).max())
        shifts, formed = [], []
        shift = spectral._rounding_shift
        monkeypatch.setattr(
            spectral, "_rounding_shift", lambda *args: shifts.append(shift(*args)) or shifts[-1]
        )
        monkeypatch.setattr(spectral, "_cholesky_upper", lambda x: formed.append(from_panels(x)) or False)
        assert not spectral._certify(spectral._panel_copy(a), theta, v, r, 1e-9, norm)
        mf = formed[0] + np.triu(formed[0], 1).T
        t = theta[r - 1] - 1e-9 / 1e-10 - shifts[0]  # as the certificate computes it
        vl = v.astype(np.longdouble)
        exact = (vl * theta[:r].astype(np.longdouble)) @ vl.T - a.astype(np.longdouble)
        exact[np.diag_indices(m)] += np.longdouble(t)
        error = np.linalg.norm((mf.astype(np.longdouble) - exact).astype(np.float64), 2)
        u = 2.0**-53
        gamma = (r + 2) * u / (1 - (r + 2) * u)
        largest = np.abs(np.diag(mf)).max()
        # the tighter bound, with -a_ij rounded as one subtraction, still holds
        f = gamma * 120.0 * float(np.sum(v * v)) + u * (norm + largest)
        assert 0 < error <= f
        # and so does the one the shift uses: -a_ij is one of r + 1 summands
        f = gamma * (120.0 * float(np.sum(v * v)) + norm) + u * largest
        assert error <= f


def _reference_product(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """New C-order q A, for the C-order b x m `q` and the symmetric A held
    in the upper triangle and the mirrored diagonal tiles of the C-order m x m
    `a` (:func:`mirrored_triangle`), as the iteration formed it before it had
    panels of its own: by row panels k:e of _CERTIFICATE_TILE rows,
    q[:, k:e] a[k:e, k:] adds to columns k: of the result, and
    q[:, e:] a[k:e, e:]^T to columns k:e, one dgemm each on the column-major
    views (m x b for q and the result), accumulating in place."""
    m, b = a.shape[0], q.shape[0]
    out = np.empty((b, m), dtype=np.float64)
    int_type, gemm = spectral._LAPACK.int_type, spectral._LAPACK.functions["dgemm"]
    lead, width = int_type(m), int_type(b)
    zero, one = ctypes.c_double(0.0), ctypes.c_double(1.0)
    address = spectral._address
    for k in range(0, m, spectral._CERTIFICATE_TILE):
        e = min(k + spectral._CERTIFICATE_TILE, m)
        gemm(b"N", b"N", int_type(m - k), width, int_type(e - k), one, address(a, k, k), lead,
             address(q, 0, k), lead, one if k else zero, address(out, 0, k), lead, 1, 1)
        if e < m:
            gemm(b"T", b"N", int_type(e - k), width, int_type(m - e), one, address(a, k, e), lead,
                 address(q, 0, e), lead, one, address(out, 0, k), lead, 1, 1)
    return out


def mirrored_triangle(a: np.ndarray) -> np.ndarray:
    """The triangle copy of `a` (:func:`spectral._solve_copy`) with the upper
    triangle of each _CERTIFICATE_TILE diagonal tile copied into the tile's
    strict lower triangle, and nothing else below the diagonal."""
    copy, tile = spectral._solve_copy(a), spectral._CERTIFICATE_TILE
    for k in range(0, len(copy), tile):
        block = copy[k : k + tile, k : k + tile]
        i, j = np.tril_indices(len(block), -1)
        block[i, j] = block[j, i]
    return copy


@lapack
class TestRowPanels:
    """The iteration's copy: the upper triangle as row panels packed back to
    back in one mapping, each with its whole diagonal tile."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("m", [1, 127, 128, 129, 300])
    def test_panels_hold_the_upper_triangle_and_the_diagonal_tiles(self, dtype, m):
        a = _graph_adjacency(m, m) if dtype == np.uint8 else random_symmetric(m, m)
        panels = spectral._panel_copy(a)
        assert_packed(panels, m)
        assert np.array_equal(from_panels(panels), np.triu(a))
        tile = spectral._CERTIFICATE_TILE
        for k, panel in zip(range(0, m, tile), panels):
            assert np.array_equal(panel[:, : len(panel)], a[k : k + tile, k : k + tile])
        assert spectral._inf_norm(panels) == pytest.approx(float(np.abs(a).sum(axis=1).max()), rel=1e-14)

    @pytest.mark.parametrize("threads", ["one", "default"])
    @pytest.mark.parametrize("m", [1, 127, 128, 129, 702, 1601, 3000])
    def test_product_is_the_reference_bit_for_bit(self, m, threads):
        # the products of the panels are the reference's, at the same BLAS
        # thread count: the same dgemm shapes on the same entries
        if threads == "one" and spectral._THREADS is None:
            pytest.skip("OpenBLAS's thread count cannot be set")
        a = random_symmetric(m, m) if m < 1000 else _graph_adjacency(m, m)
        q = np.random.default_rng(m + 1).standard_normal((11, m))
        with spectral._one_blas_thread() if threads == "one" else contextlib.nullcontext():
            got = spectral._product(q, spectral._panel_copy(a))
            want = _reference_product(q, mirrored_triangle(a))
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


class TestDsyevrShortfall:
    """dsyevr's RANGE='I' solve finds fewer pairs than asked where the rank
    cuts a repeated eigenvalue; the top r then come from a solve of all
    pairs of the matrix put back."""

    @pytest.mark.parametrize("m,rank", [(17, 3), (21, 2), (25, 4)])
    def test_ones_minus_identity(self, monkeypatch, m, rank):
        # 1 - I: eigenvalue m - 1 once, -1 m - 1 times; each of the two
        # solves reads a triangle copy of its own, NaN below the diagonal
        a = 1.0 - np.eye(m)
        made = nan_below_the_diagonal(monkeypatch)
        dec = eigh_descending(a, rank)
        if spectral._LAPACK is not None:
            assert dec.solve == spectral.SolveRecord("dsyevr", 0, None, all_pairs=True)
            assert made == [m, m]
        monkeypatch.undo()
        assert dec.eigenvalues == pytest.approx([m - 1] + [-1] * (rank - 1), abs=1e-12)
        v = dec.eigenvectors
        assert np.abs(a @ v - v * dec.eigenvalues).max() <= 1e-12 * m
        assert np.abs(v.T @ v - np.eye(rank)).max() <= 1e-12
        # the solve of all pairs saw the input: bit for bit the full solve's top rank
        full = eigh_descending(a)
        assert np.array_equal(dec.eigenvalues, full.eigenvalues[:rank])
        assert np.array_equal(dec.eigenvectors, full.eigenvectors[:, :rank])

    def test_a_solve_that_finds_every_pair_records_none(self):
        dec = eigh_descending(random_symmetric(30, 4), 3)
        assert dec.solve == spectral.SolveRecord("dsyevr", 0, None)


def nan_below_the_diagonal(monkeypatch) -> list:
    """Every triangle copy a solve makes gets NaN in its strict lower
    triangle, which LAPACK must not read; returns the list to which the size
    of each copy is appended, and that of each of the iteration's panel
    copies, which store nothing below their diagonal tiles."""
    copy, panel_copy, made = spectral._solve_copy, spectral._panel_copy, []

    def poisoned(a, index=None):
        out = copy(a, index)
        made.append(len(out))
        out[np.tril_indices(len(out), -1)] = np.nan
        return out

    def counted(a):
        made.append(len(a))
        return panel_copy(a)

    monkeypatch.setattr(spectral, "_solve_copy", poisoned)
    monkeypatch.setattr(spectral, "_panel_copy", counted)
    return made


class TestSolveCopies:
    """Each attempt at a solve writes a copy of its own, in a mapping of its
    own: of the triangle LAPACK reads, or the iteration's row panels of it;
    a fallback copies the input again."""

    @pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 100])
    def test_copy_holds_the_upper_triangle_in_a_mapping(self, m):
        adj = _graph_adjacency(m, m)
        index = np.random.default_rng(m).permutation(m)[: max(1, m - 3)]
        for source, idx, want in ((adj, None, adj), (adj, index, adj[np.ix_(index, index)])):
            copy = spectral._solve_copy(source, idx)
            assert copy.dtype == np.float64 and copy.flags.c_contiguous and copy.flags.writeable
            assert np.array_equal(np.triu(copy), np.triu(want)) and not np.tril(copy, -1).any()
            assert isinstance(mapping_of(copy), mmap.mmap)
        assert spectral._solve_copy(adj, np.array([], dtype=np.int64)).shape == (0, 0)

    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, 300])
    def test_other_triangle_is_never_read(self, request, monkeypatch, m):
        # NaN in the strict lower triangle of every triangle copy: the same
        # bits from every routine that solves one, and, with the iteration
        # on every solve it can run (on its panel copy), the same certified
        # basis of a planted graph (three clusters; m % 3 isolated vertices)
        rng = np.random.default_rng(m)
        a, adj = random_symmetric(m, m), _graph_adjacency(m, m + 1)
        rank = max(1, m // 10)
        sets = [np.arange(m), rng.permutation(m)[: max(1, m // 2)], rng.permutation(m)[:1]]
        iterative = spectral._LAPACK is not None and m >= 3
        if iterative:
            request.getfixturevalue("iterative_on")
            part = make_partition(m - m % 3, m // 3)
            planted = np.pad(sample_graph(part, ModelParams(p=0.9, q=0.1, seed=m)).adj, (0, m % 3))

        def solves():
            return [
                eigh_descending(a, rank), eigh_descending(adj, rank), eigh_descending(a),
                *([eigh_descending(planted, 3)] if iterative else []),
                eigvals_descending(a), eigvals_descending(adj), spectral_norm(a), spectral_norm(adj),
                spectral.submatrix_norms(a, sets), spectral._solve_extremes(a, sets[1]),
            ]

        want = solves()
        made = nan_below_the_diagonal(monkeypatch)
        got = solves()
        assert made
        decompositions = 3 + iterative
        if iterative:
            assert got[3].solve.solver == want[3].solve.solver == "iterative"
        for g, w in zip(got[:decompositions], want[:decompositions]):
            assert_same_decomposition(g, w)
            assert g.solve == w.solve
        for g, w in zip(got[decompositions:], want[decompositions:]):
            assert np.array_equal(g, w)

    def test_each_path_copies_the_source_again(self, request, monkeypatch):
        # plain dsyevr: one triangle copy (the shortfall's second one is in
        # TestDsyevrShortfall); the iteration: one panel copy; a failed
        # certificate: then a triangle copy
        made = nan_below_the_diagonal(monkeypatch)
        eigh_descending(random_symmetric(30, 4), 3)
        assert made == [30]
        request.getfixturevalue("iterative_on")
        adj = sample_graph(make_partition(300, 100), ModelParams(p=0.9, q=0.1, seed=1)).adj
        made.clear()
        assert eigh_descending(adj, 3).solve.solver == "iterative"
        assert made == [300]
        made.clear()
        assert_failing_factorization(monkeypatch, 3, [])
        dec = eigh_descending(adj, 3)
        assert dec.solve.solver == "dsyevr" and made == [300, 300]
        assert_same_decomposition(dec, dsyevr_only(eigh_descending, adj, 3))

    @pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 100])
    def test_without_lapack_every_solve_reads_the_triangle_copy(self, monkeypatch, m):
        # numpy's eigh and eigvalsh read the lower triangle of the copy's
        # transpose: NaN below the copy's diagonal changes no bit
        monkeypatch.setattr(spectral, "_LAPACK", None)
        a, adj = random_symmetric(m, m), _graph_adjacency(m, m + 1)
        rank = max(1, m // 10)

        def solves():
            return [
                eigh_descending(a, rank), eigh_descending(adj, rank), eigh_descending(a),
                spectral_norm(a), spectral_norm(adj), spectral._solve_extremes(a, np.arange(m)[::2]),
            ]

        want = solves()
        made = nan_below_the_diagonal(monkeypatch)
        got = solves()
        assert made == [m, m, m, m, m, len(range(0, m, 2))]
        for g, w in zip(got[:3], want[:3]):
            assert_same_decomposition(g, w)
        assert got[3:] == want[3:]

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("m", [1, 31, 32, 33, 100])
    def test_row_blocks_of_an_index_are_the_ix_gather(self, dtype, m):
        rng = np.random.default_rng(m)
        a = (rng.random((m, m)) * 255).astype(dtype)
        index = rng.permutation(m)[: max(1, m - 5)]
        blocks = list(spectral._row_blocks(a, index))
        assert [i for i, _ in blocks] == list(range(0, index.size, 32))
        for i, block in blocks:
            want = a[np.ix_(index[i : i + 32], index[i:])]
            assert block.dtype == dtype and block.tobytes() == want.tobytes()

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the resident size there")
    def test_untouched_triangle_is_not_resident(self):
        m, page = 2000, os.sysconf("SC_PAGE_SIZE")
        adj = _graph_adjacency(m, 2)

        def resident() -> int:
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * page

        before = resident()
        copy = spectral._solve_copy(adj)
        # 4m^2 bytes and at most a page per row more
        assert resident() - before <= 4 * m * m + (m + 256) * page
        del copy
        assert resident() - before <= 0.05 * 8 * m * m  # unmapped with the copy


def _graph_adjacency(m: int, seed: int) -> np.ndarray:
    upper = np.triu(np.random.default_rng(seed).random((m, m)) < 0.4, 1)
    return (upper | upper.T).astype(np.uint8)


def assert_same_decomposition(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)


def assert_same_candidates(a, b):
    """The raw-matrix ranking of `a` is bit for bit that of `b`."""
    (members_a, masses_a), (members_b, masses_b) = all_candidate_sets(a, 5), all_candidate_sets(b, 5)
    assert np.array_equal(members_a, members_b)
    assert np.array_equal(masses_a, masses_b)


@pytest.mark.usefixtures("iterative_off")
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
        assert_same_candidates(adj.astype(dtype), adj.astype(np.float64))
        if rank is not None:
            w, v, _ = spectral._solve_top(as_symmetric(adj), rank)
            assert_same_decomposition(want, spectral.SpectralDecomposition(w, v))

    @pytest.mark.parametrize("kind", ["int", "float"])
    @pytest.mark.parametrize("rank", [1, 9, 17, None])
    def test_non_symmetric_input_equals_the_as_symmetric_path(self, kind, rank):
        rng = np.random.default_rng(11)
        a = rng.integers(-5, 6, (17, 17)) if kind == "int" else rng.standard_normal((17, 17))
        # and one asymmetric entry in an off-diagonal tile of the symmetry check
        big = random_symmetric(700, 12)
        big[3, 600] += 1.0
        for x in (a, big) if kind == "float" else (a,):
            assert not np.array_equal(x, x.T)
            assert_same_decomposition(eigh_descending(x, rank), eigh_descending(as_symmetric(x), rank))
            assert np.array_equal(eigvals_descending(x), eigvals_descending(as_symmetric(x)))
            assert_same_candidates(x, as_symmetric(x))

    def test_input_is_left_unchanged(self):
        a = random_symmetric(12, 4)
        before = a.copy()
        eigh_descending(a, 3)
        eigh_descending(a.T, 3)  # an F-order view of the same buffer
        eigvals_descending(a)
        eigvals_descending(a.T)
        all_candidate_sets(a, 3)  # its operand may hold `a` itself
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
        # bit for bit at the current BLAS thread count and at one thread
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(x.shape) or eigvalsh(x))
        pinned = spectral._THREADS is not None
        thread_counts = (contextlib.nullcontext, spectral._one_blas_thread)[: 1 + pinned]
        sizes = (1, 30, 64, 200, 601)
        for m in sizes:
            a = random_symmetric(m, 8)
            for threads in thread_counts:
                with threads():
                    assert np.array_equal(eigvals_descending(a), eigvalsh(a)[::-1]), m
        assert calls == [(m, m) for m in sizes for _ in thread_counts]  # the one values seam
        a = random_symmetric(30, 8)
        w = eigvals_descending(a)
        assert np.abs(w - eigh_descending(a).eigenvalues).max() <= 1e-12 * np.abs(w).max()

    def test_rank_solve_of_uint8_holds_one_float_copy(self):
        # the m^2-byte symmetry check and no copy on the heap: the float64
        # copy is a memory mapping; the solve once also held an as_symmetric
        # copy and its caller's astype copy
        m = 600
        adj = _graph_adjacency(m, 5)
        eigh_descending(adj[:20, :20], 2)  # warm up: lazy imports and first-call caches
        tracemalloc.start()
        try:
            eigh_descending(adj, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * m * m

    def test_finiteness_check_holds_no_matrix_sized_temporary(self):
        # min and max find a NaN or an infinity without the m^2-byte bool
        # array of np.isfinite(a).all(), once the peak of a small norm batch
        m = 2000
        a = random_symmetric(m, 9)
        sets = [np.arange(10)]
        spectral.submatrix_norms(a, sets)  # warm up
        tracemalloc.start()
        try:
            spectral.submatrix_norms(a, sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * m * m  # 0.1 here: a 512 x 512 bool tile pair and the pool
        for bad in (np.nan, np.inf, -np.inf):
            b = a.copy()
            b[m - 1, m - 2] = b[m - 2, m - 1] = bad
            with pytest.raises(NonFiniteError):
                spectral.submatrix_norms(b, sets)


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


@st.composite
def extremes_cases(draw):
    """Symmetric float64 matrices of m = 0..40: Gaussian, rank one, graded
    (entries spanning twelve decades) and 0-1 adjacencies."""
    m = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["gaussian", "rank one", "graded", "graph"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        return as_symmetric(rng.standard_normal((m, m)))
    if kind == "rank one":
        v = rng.standard_normal(m)
        return np.outer(v, v)
    if kind == "graded":
        scale = np.sqrt(10.0 ** rng.uniform(-6, 6, m))
        return as_symmetric(rng.standard_normal((m, m))) * np.outer(scale, scale)
    upper = np.triu(rng.integers(0, 2, (m, m)), 1)
    return (upper + upper.T).astype(np.float64)


class TestSolveExtremes:
    @long_double
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(extremes_cases())
    @example(1.0 - np.eye(17))  # its lowest eigenvalue, -1, is 16-fold
    @example(np.zeros((9, 9)))
    def test_ends_within_8_ulps_of_the_exact_ones(self, a):
        # bisection finds each end of dsytrd's tridiagonal to about an ulp;
        # the full solve (eigvalsh) errs by up to 12 ulps on these matrices
        want = extended_extremes(a)
        got = spectral._solve_extremes(a.copy())
        tol = 8 * np.finfo(np.float64).eps * max(abs(want[0]), abs(want[1]))
        assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol, (got, want)

    @long_double
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_scaled_as_dsyevr_scales(self, scale):
        # outside about [1e-146, 8e76] the matrix is scaled first, as dsyevr
        # scales it: unscaled, the bisection's squared off-diagonal entries
        # underflow (both ends come back wrong) or overflow (dstebz fails)
        a = random_symmetric(30, 4) * scale
        want = extended_extremes(a)
        got = spectral._solve_extremes(a.copy())
        tol = 8 * np.finfo(np.float64).eps * max(abs(want[0]), abs(want[1]))
        assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol, (got, want)

    @staticmethod
    def scaled_by_the_largest_entry(a: np.ndarray) -> tuple:
        """The ends with dsyevr's scaling decided from max |a_ij|, as it
        once was: a whole copy, scaled, reduced and bisected."""
        largest, scale = float(np.abs(a).max()), 1.0
        if 0.0 < largest < spectral._SCALE_MIN:
            scale = spectral._SCALE_MIN / largest
        elif largest > spectral._SCALE_MAX:
            scale = spectral._SCALE_MAX / largest
        d, e = spectral._tridiagonal(a * scale)
        m = len(a)
        return spectral._dstebz(d, e, 1) * (1.0 / scale), spectral._dstebz(d, e, m) * (1.0 / scale)

    @lapack
    @pytest.mark.parametrize(
        "largest,copies,reductions",
        [
            (1.0, 1, 1),  # T in range: one copy, one reduction
            (4e-146 * 6 * 30, 1, 1),  # just inside the bound from T
            (1.5 * spectral._SCALE_MIN, 2, 1),  # not scaled, but T cannot tell: a copy shows it
            (0.5 * spectral._SCALE_MIN, 2, 2),  # scaled
            (0.6 * spectral._SCALE_MAX, 2, 1),  # not scaled, but T cannot tell
            (2.0 * spectral._SCALE_MAX, 2, 2),  # scaled
        ],
    )
    def test_scaling_decided_from_the_tridiagonal(self, monkeypatch, largest, copies, reductions):
        # bit for bit the ends with the scaling decided from the largest entry
        a = random_symmetric(30, 4)
        a *= largest / np.abs(a).max()
        want = self.scaled_by_the_largest_entry(a)
        made, reduced = [], []
        copy, tridiagonal = spectral._solve_copy, spectral._tridiagonal
        monkeypatch.setattr(spectral, "_solve_copy", lambda *args: made.append(1) or copy(*args))
        monkeypatch.setattr(spectral, "_tridiagonal", lambda x: reduced.append(1) or tridiagonal(x))
        assert spectral._solve_extremes(a) == want
        assert (len(made), len(reduced)) == (copies, reductions)

    def test_exact_ends(self):
        assert spectral._solve_extremes(np.diag([2.0, -5.0, 1.0])) == (-5.0, 2.0)
        assert spectral._solve_extremes(np.zeros((0, 0))) == (0.0, 0.0)
        assert spectral._solve_extremes(np.array([[-3.5]])) == (-3.5, -3.5)
        assert spectral._solve_extremes(np.diag([4.0, -1.0])) == (-1.0, 4.0)
        lowest, highest = spectral._solve_extremes(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lowest == pytest.approx(-1.0, abs=4e-16) and highest == pytest.approx(1.0, abs=4e-16)

    @pytest.mark.parametrize("routine", ["dsytrd", "dstebz"], ids=routine_id)
    @pytest.mark.parametrize("m", [0, 1, 2, 30, 200])
    def test_without_dsytrd_or_dstebz_the_values_solves_ends(self, monkeypatch, routine, m):
        # bit for bit the ends of numpy's full values-only solve, eigvalsh
        a = random_symmetric(m, m)
        resolve_without(monkeypatch, routine)
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(len(x)) or eigvalsh(x))
        got = spectral._solve_extremes(a.copy())
        w = eigvalsh(a)
        if m == 0:
            assert got == (0.0, 0.0) and calls == []
        else:
            assert got == (w[0], w[-1]) and calls == [m]
        assert spectral_norm(a) == (max(abs(w[0]), abs(w[-1])) if m else 0.0)

    @lapack
    def test_bisection_failure_raises_linalg_error(self, monkeypatch):
        # a stand-in for dstebz, given RANGE, ORDER, N, VL, VU, IL, IU,
        # ABSTOL, D, E, M, NSPLIT, W, IBLOCK, ISPLIT, WORK, IWORK, INFO and
        # the two string lengths as the solve passes them
        def fake(*args):
            args[17].value = 1

        monkeypatch.setitem(spectral._LAPACK.functions, "dstebz", fake)
        with pytest.raises(np.linalg.LinAlgError, match=r"dstebz failed \(info = 1\)"):
            spectral_norm(random_symmetric(10, 0))


thread_control = pytest.mark.skipif(
    spectral._LAPACK is None or spectral._THREADS is None,
    reason="LAPACK or OpenBLAS's thread controls do not resolve: "
    "the sets are solved one at a time on the calling thread",
)


def gathered_norms(a: np.ndarray, sets) -> list:
    """spectral_norm of each gathered submatrix, one at a time, under one
    BLAS thread where OpenBLAS's thread count can be set."""
    one_thread = spectral._one_blas_thread() if spectral._THREADS else contextlib.nullcontext()
    with one_thread:
        return [spectral_norm(a[np.ix_(v, v)]) if len(v) else 0.0 for v in sets]


def blas_threads() -> int:
    """OpenBLAS's current thread count."""
    return spectral._THREADS.functions["get_num_threads"]()


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at 2 threads for the test, so a count left at 1 shows."""
    if spectral._THREADS is None:
        pytest.skip("OpenBLAS's thread count cannot be set here")
    set_threads = spectral._THREADS.functions["set_num_threads"]  # a test may set _THREADS to None
    old = blas_threads()
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
        # three at once would not fit, and the whole set only fits alone;
        # n = 195, so the whole set (over 128 members) puts the batch on the pool
        n = 195
        a = random_symmetric(n, 7)
        sets = [np.arange(n)] + [np.arange(n)[np.arange(n) % 3 != c] for c in range(3)] * 3
        sets += [np.arange(c, n, 3) for c in range(3)] * 3
        want = gathered_norms(a, sets)
        lock, running, peaks = threading.Lock(), [0], []
        solve = spectral._solve_extremes

        def recorded(x, index):
            with lock:
                running[0] += 8 * index.size**2
                peaks.append(running[0])
            try:
                time.sleep(0.002)
                return solve(x, index)
            finally:
                with lock:
                    running[0] -= 8 * index.size**2

        monkeypatch.setattr(spectral, "_workers", lambda: 8)
        monkeypatch.setattr(spectral, "_solve_extremes", recorded)
        got = spectral.submatrix_norms(a, sets)
        assert len(peaks) == len(sets)
        assert max(peaks) <= a.nbytes
        assert max(peaks) > 8 * (2 * n // 3) ** 2  # solves did overlap
        assert got.tolist() == want

    @pytest.mark.parametrize("bad", [[0, 1, 2, 3, 3, 1], [0, -1], [2, 4]])
    def test_indices_outside_the_matrix_or_repeated_rejected(self, monkeypatch, bad):
        # before any solve: a repeated index would make a copy bigger than
        # the matrix, -1 would wrap, and 4 would raise in a pool thread
        def solve(x, index):
            raise AssertionError("solver reached")

        monkeypatch.setattr(spectral, "_solve_extremes", solve)
        with pytest.raises(VertexIdError):
            spectral.submatrix_norms(random_symmetric(4, 3), [np.arange(4), np.array(bad)])

    @thread_control
    def test_stress_more_workers_than_cores(self, monkeypatch):
        # every norm lands at its own set's index, whatever order the many
        # workers finish in, with thread switches as often as they can be
        rng = np.random.default_rng(5)
        a = random_symmetric(160, 5)
        sets = [rng.permutation(160)[: rng.integers(1, 161)] for _ in range(120)]
        assert max(v.size for v in sets) > 128  # on the pool
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

    @pytest.mark.parametrize(
        "routine", ["dsyevr", "dsytrd", "dstebz", "set_num_threads", "get_num_threads"], ids=routine_id
    )
    def test_without_dsyevd_or_thread_control_one_set_at_a_time(self, two_blas_threads, monkeypatch, routine):
        # one set at a time and no pinning: each norm is spectral_norm's at the
        # current BLAS thread count, and the count is never touched
        get_threads = spectral._THREADS.functions["get_num_threads"]
        resolve_without(monkeypatch, routine)
        a = random_symmetric(40, 6)
        sets = [np.arange(40), np.arange(0, 40, 2), np.array([3]), np.arange(39, 14, -1)]
        sets.append(np.array([], dtype=np.int64))
        want = [spectral_norm(a[np.ix_(v, v)]) if len(v) else 0.0 for v in sets]
        lock, running, peaks, threads = threading.Lock(), [0], [], []
        solve = spectral._solve_extremes

        def recorded(x, index):
            with lock:
                running[0] += 1
                peaks.append(running[0])
            threads.append(get_threads())
            try:
                time.sleep(0.002)
                return solve(x, index)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(spectral, "_workers", lambda: 8)
        monkeypatch.setattr(spectral, "_solve_extremes", recorded)
        assert spectral.submatrix_norms(a, sets).tolist() == want  # bit for bit
        assert peaks == [1] * 4
        assert threads == [2] * 4
        assert get_threads() == 2

    @thread_control
    @pytest.mark.parametrize("largest", [128, 129])
    def test_small_sets_solved_one_at_a_time_on_the_calling_thread(self, two_blas_threads, monkeypatch, largest):
        # while no set has more than 128 members, each is solved on the
        # calling thread, at one BLAS thread; one larger set puts the batch
        # on the pool; the bits are the same either way
        rng = np.random.default_rng(largest)
        a = random_symmetric(200, 3)
        sets = [rng.permutation(200)[: rng.integers(1, 41)] for _ in range(30)] + [np.arange(largest)]
        want = gathered_norms(a, sets)
        solve, seen = spectral._solve_extremes, []
        monkeypatch.setattr(
            spectral, "_solve_extremes",
            lambda x, index: seen.append((threading.current_thread(), blas_threads())) or solve(x, index),
        )
        assert spectral.submatrix_norms(a, sets).tolist() == want
        assert len(seen) == len(sets) and {count for _, count in seen} == {1}
        on_the_caller = {thread for thread, _ in seen} == {threading.current_thread()}
        assert on_the_caller is (largest <= 128)
        assert blas_threads() == 2

    def test_blas_threads_restored_after_return(self, two_blas_threads):
        spectral.submatrix_norms(random_symmetric(30, 2), [np.arange(30), np.arange(10)])
        assert blas_threads() == 2

    def test_blas_threads_restored_after_a_failed_solve(self, two_blas_threads, monkeypatch):
        def failing(x, index):
            raise np.linalg.LinAlgError("stand-in solve failed")

        monkeypatch.setattr(spectral, "_solve_extremes", failing)
        with pytest.raises(np.linalg.LinAlgError, match="stand-in"):
            spectral.submatrix_norms(random_symmetric(30, 2), [np.arange(30), np.arange(10)])
        assert blas_threads() == 2

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
        solve, seen = spectral._solve_extremes, []

        def slow(x, index=None):
            if index is not None:  # an FK union, not the solve of A - E itself
                seen.append(blas_threads())
                first_solving.set()
                time.sleep(0.002)
            return solve(x, index)

        monkeypatch.setattr(spectral, "_solve_extremes", slow)
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
        assert blas_threads() == 2
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


def per_set_masses(factor: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The norm of each set's row sum, one set at a time (test oracle)."""
    out = np.empty(len(sets))
    for i, members in enumerate(sets):
        acc = np.zeros((1, factor.shape[1]))
        for v in members:
            acc += factor[v]
        out[i] = np.linalg.norm(acc, axis=1)[0]
    return out


class TestRowSumNorms:
    """Set masses weigh each distinct set once and equal, bit for bit, the
    masses weighed one set at a time."""

    @staticmethod
    def shuffled_instance(seed: int):
        # recover_deep's shape: n = 2000, s = 100 (rank 20), labels shuffled
        part = permute_partition(make_partition(2000, 100), np.random.default_rng(seed).permutation(2000))
        p = top_projector(sample_graph(part, ModelParams(p=0.7, q=0.3, seed=seed)).adj, 20)
        return p.basis, all_candidate_sets(p, 100)[0]

    @staticmethod
    def few_set_instance(seed: int):
        # 3 distinct sets of 40 among 500 rows, in random order
        rng = np.random.default_rng(seed)
        distinct = np.stack([np.sort(rng.choice(600, 40, replace=False)) for _ in range(3)])
        return rng.standard_normal((600, 5)), distinct[rng.integers(0, 3, size=500)]

    @pytest.mark.parametrize("instance,seed", [("shuffled", 1), ("shuffled", 2), ("few", 3), ("few", 4)])
    @pytest.mark.parametrize("key", ["default", "constant"])
    def test_equals_per_set_oracle(self, monkeypatch, instance, seed, key):
        factor, sets = (self.shuffled_instance if instance == "shuffled" else self.few_set_instance)(seed)
        if key == "constant":
            # every row collides: every set is weighed
            monkeypatch.setattr(spectral, "_set_key", lambda sets: np.zeros(len(sets), dtype=np.int64))
        assert np.array_equal(spectral._row_sum_norms(factor, sets), per_set_masses(factor, sets))

    def test_each_distinct_set_weighed_once(self, monkeypatch):
        factor, sets = self.few_set_instance(5)
        weighed = []
        weigh = spectral._weigh
        monkeypatch.setattr(spectral, "_weigh", lambda f, w: weighed.append(len(w)) or weigh(f, w))
        spectral._row_sum_norms(factor, sets)
        assert weighed == [3]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(1, 80), st.integers(1, 6), st.integers(0, 80), st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_weigh_at_once_equals_the_loop(self, m, width, s, count, seed):
        # bit for bit the masses added one position at a time, through the
        # one-gather sum (width >= 2) and through the loop it replaces
        rng = np.random.default_rng(seed)
        factor = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-4, 5, (m, 1))
        sets = np.stack([np.sort(rng.choice(m, min(s, m), replace=False)) for _ in range(count)])
        want = per_set_masses(factor, sets)
        assert np.array_equal(spectral._weigh(factor, sets), want)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_WEIGH_ENTRIES", 0)
            assert np.array_equal(spectral._weigh(factor, sets), want)

    def test_collision_weighs_every_row(self, monkeypatch):
        factor, sets = self.few_set_instance(6)
        weighed = []
        weigh = spectral._weigh
        monkeypatch.setattr(spectral, "_weigh", lambda f, w: weighed.append(len(w)) or weigh(f, w))
        monkeypatch.setattr(spectral, "_set_key", lambda sets: np.zeros(len(sets), dtype=np.int64))
        spectral._row_sum_norms(factor, sets)
        assert weighed == [500]


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


def twelve_vertex_operands() -> dict:
    """The two operand kinds the ranking reads, on make_partition(12, 4) at
    p = 0.7, q = 0.3, seed 1: the rank-3 projector and the raw adjacency."""
    g = sample_graph(make_partition(12, 4), ModelParams(p=0.7, q=0.3, seed=1))
    return {"projector": top_projector(g.adj, 3), "matrix": projector_operand(g.adj)}


class TestOperandIds:
    """Projector and raw-matrix operands check each set as
    errors.vertex_ids checks one, where numpy's indexing would read -1 as
    vertex n - 1 and weigh a repeated id twice."""

    @pytest.mark.parametrize("kind", ["projector", "matrix"])
    @pytest.mark.parametrize(
        "bad,message",
        [
            ([[-1, 0, 1, 2]], "lie in 0..11"),
            ([[12, 0, 1, 2]], "lie in 0..11"),
            ([[0, 1, 2, 3], [0, 0, 1, 2]], "distinct"),  # only the second row repeats an id
            ([[2, 1, 2, 0]], "distinct"),  # unsorted and repeated
            ([[0, 2**62, -(2**62) - 5, 3]], "lie in 0..11"),  # a difference that would wrap
            (np.array([[0.0, 1.0, 2.0, 3.0]]), "integers"),
            (np.ones((1, 12), dtype=bool), "integers"),
            ([0, 1, 2, 3], "2-D"),
        ],
    )
    def test_masses_reject_bad_sets(self, kind, bad, message):
        with pytest.raises(VertexIdError, match=message):
            twelve_vertex_operands()[kind].masses(bad)

    @pytest.mark.parametrize("kind", ["projector", "matrix"])
    @pytest.mark.parametrize(
        "bad,message",
        [([-1], "lie in 0..11"), ([12], "lie in 0..11"), ([3, 3], "distinct"), ([[0, 1]], "1-D"), ([0.0], "integers")],
    )
    def test_columns_reject_bad_ids(self, kind, bad, message):
        with pytest.raises(VertexIdError, match=message):
            twelve_vertex_operands()[kind].columns(bad)

    @pytest.mark.parametrize("kind", ["projector", "matrix"])
    def test_unsorted_rows_weigh_as_sorted(self, kind):
        op = twelve_vertex_operands()[kind]
        sorted_rows = np.array([[0, 1, 2, 11], [3, 4, 5, 6]])
        got = op.masses(np.array([[11, 0, 2, 1], [6, 5, 4, 3]]))
        assert np.allclose(got, op.masses(sorted_rows), rtol=1e-14, atol=0)
        assert op.masses(np.zeros((2, 0), dtype=np.int64)).tolist() == [0.0, 0.0]
        assert op.masses(np.zeros((0, 4), dtype=np.uint8)).shape == (0,)

    @pytest.mark.parametrize("kind", ["projector", "matrix"])
    def test_columns_of_valid_ids(self, kind):
        op = twelve_vertex_operands()[kind]
        full = op.columns(np.arange(12))
        assert np.array_equal(op.columns(np.array([11, 3], dtype=np.uint16)), full[[11, 3]])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_all_candidate_sets_keep_their_bits(self, seed):
        # the masses equal the per-set oracle's, bit for bit, on both operands
        basis, members = TestRowSumNorms.shuffled_instance(seed)
        got_members, masses = all_candidate_sets(spectral.Projector(basis), 100)
        assert np.array_equal(got_members, members)
        assert np.array_equal(masses, per_set_masses(basis, members))
        matrix = random_symmetric(300, seed)
        members, masses = all_candidate_sets(matrix, 20)
        assert np.array_equal(masses, per_set_masses(matrix, members))


class TestEigenvectorsOnly:
    """dsyevr is called only to form eigenvectors; all eigenvalues without
    them are numpy's eigvalsh, bit for bit."""

    @lapack
    def test_every_dsyevr_call_forms_eigenvectors(self, iterative_off, monkeypatch):
        from plantrec.experiment import run_checks

        jobz, dsyevr = [], spectral._LAPACK.functions["dsyevr"]

        def recorded(*args):
            jobz.append(args[0])
            return dsyevr(*args)

        monkeypatch.setitem(spectral._LAPACK.functions, "dsyevr", recorded)
        a = random_symmetric(40, 3)
        part = make_partition(60, 20)
        params = ModelParams(p=0.8, q=0.2, seed=3)
        g = sample_graph(part, params)
        calls = {}
        for name, solve in [
            ("eigh_descending rank", lambda: eigh_descending(a, 4)),
            ("eigh_descending", lambda: eigh_descending(a)),
            ("eigvals_descending", lambda: eigvals_descending(a)),
            ("spectral_norm", lambda: spectral_norm(a)),
            ("submatrix_norms", lambda: spectral.submatrix_norms(a, [np.arange(10), np.arange(5, 40)])),
            ("run_checks", lambda: run_checks(g, part, params, ("norm", "proj", "conc", "fk", "goodcol"), None)),
        ]:
            before = len(jobz)
            solve()
            calls[name] = len(jobz) - before
        assert set(jobz) == {b"V"}
        # a workspace query and a solve for each eigenvector solve; none for the values
        assert calls == {
            "eigh_descending rank": 2, "eigh_descending": 2, "eigvals_descending": 0,
            "spectral_norm": 0, "submatrix_norms": 0, "run_checks": 2,
        }

    @pytest.mark.parametrize("kind", ["float", "int", "bool", "non-symmetric"])
    @pytest.mark.parametrize("resolved", [True, False], ids=["lapack", "no-lapack"])
    @pytest.mark.parametrize("one_thread", [False, True], ids=["default-threads", "one-thread"])
    def test_eigvals_descending_is_eigvalsh(self, monkeypatch, kind, resolved, one_thread):
        if one_thread and spectral._THREADS is None:
            pytest.skip("OpenBLAS's thread controls do not resolve")
        rng = np.random.default_rng(21)
        m = 130
        upper = np.triu(rng.integers(-4, 5, (m, m)))
        x = {
            "float": random_symmetric(m, 21),
            "int": upper + np.triu(upper, 1).T,
            "bool": _graph_adjacency(m, 21).astype(bool),
            "non-symmetric": rng.standard_normal((m, m)),
        }[kind]
        assert np.array_equal(x, x.T) == (kind != "non-symmetric")
        if not resolved:
            monkeypatch.setattr(spectral, "_LAPACK", None)
        with spectral._one_blas_thread() if one_thread else contextlib.nullcontext():
            got = eigvals_descending(x)
            want = np.linalg.eigvalsh(as_symmetric(x) if kind == "non-symmetric" else x)[::-1]
        assert np.array_equal(got, want)
