import itertools
import math
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plantrec import recovery, spectral

from plantrec.errors import (
    GraphTooSmallError,
    NonFiniteError,
    SizeOutOfRangeError,
    VertexIdError,
    ZeroSizeError,
)
from plantrec.model import (
    Graph,
    ModelParams,
    make_partition,
    permute_partition,
    sample_graph,
)
from plantrec.recovery import (
    PivotTrace,
    RecoveryResult,
    all_candidate_sets,
    extract_cluster,
    identify_clusters,
    recover_with_trace,
    same_partition,
    select_pivot,
)
from plantrec.spectral import Projector, SolveRecord, top_projector

from oracles import cluster_matrix, dense_projector


def noiseless_graph(n: int, s: int) -> Graph:
    part = make_partition(n, s)
    return sample_graph(part, ModelParams(p=1.0, q=0.0, seed=0))


class TestCandidateSet:
    def test_exact_projector_gives_true_cluster(self):
        part = make_partition(12, 4)
        p = cluster_matrix(part) / 4
        members, _ = all_candidate_sets(p, 4)
        assert members.shape == (12, 4)
        for j in range(12):
            assert set(members[j]) == set(part.clusters()[part.assignment[j]])

    def test_size_one(self):
        p = cluster_matrix(make_partition(6, 3)) / 3
        members, _ = all_candidate_sets(p, 1)
        assert members.tolist() == [[j] for j in range(6)]

    def test_robust_to_small_noise(self):
        # entries gap is 1/s, so symmetric noise below 1/(2s) cannot reorder
        part = make_partition(12, 4)
        clean = cluster_matrix(part) / 4
        rng = np.random.default_rng(3)
        noise = rng.uniform(-1, 1, size=(12, 12)) * (0.49 / 4)
        noisy = (noise + noise.T) / 2 + clean
        members, _ = all_candidate_sets(noisy, 4)
        for j in range(12):
            assert set(members[j]) == set(part.clusters()[part.assignment[j]])

    def test_size_out_of_range(self):
        p = np.eye(4)
        with pytest.raises(SizeOutOfRangeError):
            all_candidate_sets(p, 5)
        with pytest.raises(SizeOutOfRangeError):
            all_candidate_sets(p, 0)

    def test_tie_break_prefers_smaller_index(self):
        p = np.zeros((5, 5))
        members, _ = all_candidate_sets(p, 3)
        assert list(members[3]) == [0, 1, 3]


def brute_force_sets(matrix: np.ndarray, s: int) -> list[np.ndarray]:
    """The ranking's definition: j plus the first s-1 of a stable argsort of
    column j, negated, with the own entry ranked last."""
    sets = []
    for j in range(matrix.shape[0]):
        col = matrix[:, j].copy()
        col[j] = -np.inf
        order = np.argsort(-col, kind="stable")
        sets.append(np.sort(np.append(order[: s - 1], j)))
    return sets


def brute_force_mass(matrix: np.ndarray, members: np.ndarray) -> float:
    return float(np.linalg.norm(matrix[:, members].sum(axis=1)))


def random_projector(m: int, r: int, seed: int) -> Projector:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, r)))
    return Projector(basis=q)


@st.composite
def sized_matrices(draw):
    """(symmetric matrix, s): random floats, small integers (many exact
    ties), all zeros, or block-constant over a random labelling."""
    m = draw(st.integers(1, 14))
    s = draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["float", "int", "zero", "block"]))
    if kind == "float":
        a = rng.standard_normal((m, m))
    elif kind == "int":
        a = rng.integers(-2, 3, size=(m, m)).astype(np.float64)
    elif kind == "zero":
        a = np.zeros((m, m))
    else:
        labels = rng.integers(0, 3, size=m)
        a = rng.integers(0, 3, size=(3, 3)).astype(np.float64)[labels][:, labels]
    return (a + a.T) / 2, s


class TestRanking:
    @settings(max_examples=300, deadline=None)
    @given(sized_matrices())
    def test_members_equal_stable_argsort_definition(self, case):
        matrix, s = case
        members, masses = all_candidate_sets(matrix, s)
        want = brute_force_sets(matrix, s)
        assert np.array_equal(members, want)
        for x, w in zip(masses, want):
            assert x == pytest.approx(brute_force_mass(matrix, w), rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(sized_matrices(), st.integers(1, 5))
    def test_small_blocks_give_the_same_sets(self, case, block):
        matrix, s = case
        members, masses = all_candidate_sets(matrix, s)
        with mock.patch.object(recovery, "BLOCK_ENTRIES", block * matrix.shape[0]):
            blocked_members, blocked_masses = all_candidate_sets(matrix, s)
        assert np.array_equal(members, blocked_members)
        # a raw matrix's masses come from one BLAS product per block, whose
        # rounding may follow the block's shape
        assert blocked_masses == pytest.approx(masses, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m,r,s", [(30, 3, 10), (41, 5, 8), (12, 12, 12), (9, 1, 1)])
    def test_basis_masses_equal_matrix_masses(self, m, r, s):
        proj = random_projector(m, r, seed=m * r)
        dense = dense_projector(proj)
        members, masses = all_candidate_sets(proj, s)
        for w, x in zip(members, masses):
            assert x == pytest.approx(brute_force_mass(dense, w), rel=1e-12)
            assert x == proj.masses(w[None, :])[0]

    def test_basis_ranking_small_blocks(self, monkeypatch):
        proj = random_projector(50, 4, seed=7)
        members, masses = all_candidate_sets(proj, 9)
        assert np.array_equal(members, brute_force_sets(dense_projector(proj), 9))
        monkeypatch.setattr(recovery, "BLOCK_ENTRIES", 3 * 50)
        blocked_members, blocked_masses = all_candidate_sets(proj, 9)
        assert np.array_equal(members, blocked_members)
        assert np.array_equal(masses, blocked_masses)


class TestSelectPivot:
    def test_masses_one_ulp_apart_tie_to_smaller_vertex(self):
        low, high = 2.0, np.nextafter(2.0, 3.0)
        assert select_pivot(np.array([low, high])) == 0
        assert select_pivot(np.array([low, low * (1 + 1e-9)])) == 1
        # a relative 1e-12 below the largest counts as tied, 1e-11 does not
        masses = np.array([-1.0, 5.0 * (1 - 1e-11), 0.0, 5.0 * (1 - 1e-13), 5.0, 5.0])
        assert select_pivot(masses) == 3
        assert select_pivot(-np.array([3.0, 1.0 * (1 + 1e-13), 1.0])) == 1

    def test_all_tie_returns_vertex_zero(self):
        part = make_partition(12, 4)
        p = cluster_matrix(part) / 4
        _, masses = all_candidate_sets(p, 4)
        assert select_pivot(masses) == 0
        assert masses == pytest.approx(np.full(12, 2.0))

    def test_single_vertex(self):
        _, masses = all_candidate_sets(np.zeros((1, 1)), 1)
        assert select_pivot(masses) == 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([0.0, 1.0, -2.0, 2.0, 2.0 * (1 - 1e-13), 2.0 * (1 - 1e-11)])
                    | st.floats(-1e3, 1e3), min_size=1, max_size=12))
    def test_equals_smallest_index_within_the_tie_floor(self, masses):
        # the rule as a loop over (index, mass) pairs
        best = max(masses)
        floor = best - recovery.MASS_TIE_REL * abs(best)
        assert select_pivot(np.array(masses)) == min(j for j, x in enumerate(masses) if x >= floor)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # a NaN mass would lose every comparison and leave pivot 0 unseen
        p = cluster_matrix(make_partition(8, 4)) / 4
        p[5, 6] = p[6, 5] = bad
        with pytest.raises(NonFiniteError):
            all_candidate_sets(p, 4)


class TestExtractCluster:
    def test_corrupted_candidate_still_recovers_noiseless_cluster(self):
        # swap 25% of one cluster for outsiders; neighbor counts fix it up
        part = make_partition(20, 5)
        g = noiseless_graph(20, 5)
        w = np.array([0, 1, 2, 3, 7])  # 4 from cluster 0, one outsider
        got = extract_cluster(g, w, 5)
        assert list(got) == [0, 1, 2, 3, 4]

    def test_complete_graph_ties_take_smallest_indices(self):
        # no self-loop credit: in K_n every vertex outside w has s neighbors
        # in w, members only s-1, so the smallest-index outsiders win
        g = sample_graph(make_partition(8, 8), ModelParams(p=1.0, q=0.0, seed=0))
        got = extract_cluster(g, np.array([2, 4, 6]), 3)
        assert list(got) == [0, 1, 3]
        # degenerate sanity: when every count ties exactly (empty graph),
        # the s smallest indices are returned
        empty = Graph(adj=np.zeros((6, 6), dtype=np.uint8))
        assert list(extract_cluster(empty, np.array([3, 4, 5]), 3)) == [0, 1, 2]

    def test_s_equals_n_returns_everything(self):
        g = noiseless_graph(6, 3)
        got = extract_cluster(g, np.arange(6), 6)
        assert list(got) == list(range(6))

    def test_wrong_candidate_size_rejected(self):
        g = noiseless_graph(6, 3)
        with pytest.raises(SizeOutOfRangeError):
            extract_cluster(g, np.array([0, 1]), 3)

    @pytest.mark.parametrize("w", [[0, 1, -1], [0, 1, 6], [0, 2, 2], [0, 1, 2.5]])
    def test_ids_outside_the_graph_or_repeated_rejected(self, w):
        # -1 would be read as vertex 5, a repeated id counted twice and 2.5 read as 2
        with pytest.raises(VertexIdError):
            extract_cluster(noiseless_graph(6, 3), w, 3)

    def test_graph_too_small(self):
        g = Graph(adj=np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(GraphTooSmallError):
            extract_cluster(g, np.array([0, 1, 1]), 3)


class TestIdentifyClusters:
    def test_noiseless_three_triangles(self):
        part = make_partition(9, 3)
        result = identify_clusters(noiseless_graph(9, 3), 3)
        assert same_partition(result, part)
        assert result.leftover.size == 0

    def test_fewer_vertices_than_s(self):
        g = noiseless_graph(4, 2)
        result = identify_clusters(g, 5)
        assert result.clusters == []
        assert list(result.leftover) == [0, 1, 2, 3]

    def test_zero_size_rejected(self):
        with pytest.raises(ZeroSizeError):
            identify_clusters(noiseless_graph(4, 2), 0)

    @pytest.mark.parametrize("n,s", [(17, 5), (21, 10), (25, 6)])
    def test_complete_graph_with_a_rank_that_cuts_a_repeated_eigenvalue(self, n, s):
        # K_n has eigenvalue n - 1 once and -1 n - 1 times: round 0's rank
        # n // s cuts the -1s, where dsyevr's RANGE='I' solve comes up short
        g = Graph(adj=(1 - np.eye(n)).astype(np.uint8))
        result, traces = recover_with_trace(g, s)
        assert [len(c) for c in result.clusters] == [s] * (n // s)
        assert result.leftover.size == n % s
        if spectral._LAPACK is not None:
            assert traces[0].solve.all_pairs

    def test_non_multiple_reports_leftover(self):
        # 8 vertices, s=3: two clusters recovered, 2 vertices left over
        g = noiseless_graph(8, 4)
        result = identify_clusters(g, 3)
        assert len(result.clusters) == 2
        assert result.leftover.size == 2

    def test_monotone_progress_and_disjointness(self):
        part = make_partition(60, 12)
        g = sample_graph(part, ModelParams(p=0.9, q=0.1, seed=9))
        result, traces = recover_with_trace(g, 12)
        assert len(traces) == 5
        assert [t.rank for t in traces] == [5, 4, 3, 2, 1]
        seen = np.concatenate([np.asarray(c) for c in result.clusters])
        assert np.unique(seen).size == seen.size == 60

    def test_traces_carry_each_rounds_projector(self):
        part = make_partition(60, 12)
        g = sample_graph(part, ModelParams(p=0.9, q=0.1, seed=9))
        _, traces = recover_with_trace(g, 12)
        assert [(t.projector.dim, t.projector.rank) for t in traces] == [
            (60, 5), (48, 4), (36, 3), (24, 2), (12, 1)
        ]
        assert np.array_equal(traces[0].projector.basis, top_projector(g.adj, 5).basis)

    def test_no_rounds_candidate_array_outlives_it(self, monkeypatch):
        # each round's m x s candidate array is gone when the next round's
        # solve starts, and after the last round
        ranked, solves_with_live_arrays = [], []
        rank, solve = recovery.all_candidate_sets, recovery.top_projector

        def weakly_kept_ranking(*args):
            members, masses = rank(*args)
            ranked.append(weakref.ref(members))
            return members, masses

        def solve_checking_the_last_array(*args):
            solves_with_live_arrays.append(bool(ranked) and ranked[-1]() is not None)
            return solve(*args)

        monkeypatch.setattr(recovery, "all_candidate_sets", weakly_kept_ranking)
        monkeypatch.setattr(recovery, "top_projector", solve_checking_the_last_array)
        part = make_partition(60, 12)
        result, traces = recover_with_trace(sample_graph(part, ModelParams(p=0.9, q=0.1, seed=9)), 12)
        assert same_partition(result, part)
        assert solves_with_live_arrays == [False] * 5
        assert len(ranked) == 5 and all(ref() is None for ref in ranked)
        # the traces keep the pivot's own set, not a view into the array
        assert all(t.candidate.base is None and t.candidate.size == 12 for t in traces)

    def test_trace_equality_and_hash_ignore_the_projector(self):
        # and the candidate set, an array
        a = PivotTrace(level=0, rank=2, pivot=3, mass=1.5, candidate=np.array([1, 3]),
                       projector=Projector(np.eye(4)[:, :2]))
        b = PivotTrace(level=0, rank=2, pivot=3, mass=1.5, candidate=np.array([0, 3]),
                       projector=Projector(np.eye(4)[:, 2:]))
        assert a == b
        assert hash(a) == hash(b)
        assert "projector" not in repr(a) and "candidate" not in repr(a)
        assert a != PivotTrace(level=0, rank=2, pivot=3, mass=2.5, candidate=a.candidate, projector=a.projector)

    def test_trace_equality_and_hash_ignore_the_solve_record(self):
        basis = np.eye(4)[:, :2]
        a = PivotTrace(level=0, rank=2, pivot=3, mass=1.5, candidate=np.array([1, 3]),
                       projector=Projector(basis, solve=SolveRecord("dsyevr", 0, None)))
        b = PivotTrace(level=0, rank=2, pivot=3, mass=1.5, candidate=np.array([1, 3]),
                       projector=Projector(basis, solve=SolveRecord("iterative", 9, 1e-10)))
        assert a.solve.solver == "dsyevr" and b.solve.solver == "iterative"
        assert a == b and hash(a) == hash(b)
        assert "solve" not in repr(a)

    def test_matches_maximum_likelihood_on_tiny_instances(self):
        # oracle: brute-force ML over all 35 balanced bipartitions of 8 vertices
        def ml_bipartition(adj, p, q):
            best, best_ll = None, -math.inf
            for half in itertools.combinations(range(1, 8), 3):
                left = frozenset((0,) + half)
                ll = 0.0
                for u, v in itertools.combinations(range(8), 2):
                    same = (u in left) == (v in left)
                    prob = p if same else q
                    ll += math.log(prob) if adj[u, v] else math.log(1 - prob)
                if ll > best_ll:
                    best, best_ll = left, ll
            return best

        part = make_partition(8, 4)
        agree = total = 0
        for seed in range(50):
            g = sample_graph(part, ModelParams(p=0.95, q=0.05, seed=seed))
            ml_left = ml_bipartition(g.adj, 0.95, 0.05)
            if ml_left != frozenset(range(4)) and ml_left != frozenset(range(4, 8)):
                continue
            total += 1
            result = identify_clusters(g, 4)
            agree += same_partition(result, part)
        assert total > 0
        assert agree / total >= 0.9

    @pytest.mark.parametrize("seed", range(5))
    def test_relabel_equivariance(self, seed):
        part = make_partition(30, 10)
        params = ModelParams(p=0.9, q=0.1, seed=seed)
        g = sample_graph(part, params)
        result = identify_clusters(g, 10)

        rng = np.random.default_rng(seed + 500)
        perm = rng.permutation(30)
        adj_perm = np.zeros_like(g.adj)
        adj_perm[np.ix_(perm, perm)] = g.adj
        result_perm = identify_clusters(Graph(adj=adj_perm), 10)

        mapped = {frozenset(int(perm[v]) for v in c) for c in result.clusters}
        got = {frozenset(int(v) for v in c) for c in result_perm.clusters}
        assert mapped == got


SHAPES = ("empty", "complete", "star", "two cliques", "half isolated")


@st.composite
def adversarial_graphs(draw):
    """(graph, s): an empty, complete or star graph, two disjoint cliques, or
    a random half beside isolated vertices, on n = 1..40 vertices, with s in
    {1, 2, n - 1, n, n + 1}."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(SHAPES))
    adj = np.zeros((n, n), dtype=np.uint8)
    half = n // 2
    if shape == "complete":
        adj[:] = 1
    elif shape == "star":
        adj[0, :] = adj[:, 0] = 1
    elif shape == "two cliques":
        adj[:half, :half] = adj[half:, half:] = 1
    elif shape == "half isolated":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        upper = np.triu(rng.integers(0, 2, (half, half)), 1)
        adj[:half, :half] = upper + upper.T
    np.fill_diagonal(adj, 0)
    s = draw(st.sampled_from(sorted({1, 2, n - 1, n, n + 1} - {0})))
    return Graph(adj=adj), s


class TestAdversarialShapes:
    """Degenerate spectra (repeated eigenvalues, zero rows, rank above the
    nonzero spectrum) and edge sizes of s, with the iteration forced on and
    off: every cluster has s vertices, n mod s are left over, and a rerun
    gives the same bits."""

    @pytest.mark.parametrize("solver", ["iterative_on", "iterative_off"])
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(adversarial_graphs())
    def test_sizes_and_rerun(self, request, solver, case):
        request.getfixturevalue(solver)
        g, s = case
        result, traces = recover_with_trace(g, s)
        assert [len(c) for c in result.clusters] == [s] * (g.n // s)
        assert result.leftover.size == g.n % s
        again, again_traces = recover_with_trace(g, s)
        assert all(map(np.array_equal, again.clusters, result.clusters))
        assert np.array_equal(again.leftover, result.leftover)
        assert again_traces == traces  # level, rank, pivot and the mass's bits
        assert [t.solve for t in again_traces] == [t.solve for t in traces]


class TestSamePartition:
    def test_shuffled_order_matches(self):
        part = make_partition(6, 3)
        result = RecoveryResult(
            clusters=[np.array([3, 4, 5]), np.array([0, 1, 2])],
            leftover=np.array([], dtype=np.int64),
        )
        assert same_partition(result, part)

    def test_one_swap_fails(self):
        part = make_partition(6, 3)
        result = RecoveryResult(
            clusters=[np.array([0, 1, 3]), np.array([2, 4, 5])],
            leftover=np.array([], dtype=np.int64),
        )
        assert not same_partition(result, part)

    def test_leftover_fails(self):
        part = make_partition(6, 3)
        result = RecoveryResult(
            clusters=[np.array([0, 1, 2])], leftover=np.array([3, 4, 5])
        )
        assert not same_partition(result, part)

    def test_json_dict_shape(self):
        result = RecoveryResult(
            clusters=[np.array([1, 0])], leftover=np.array([2], dtype=np.int64)
        )
        assert result.as_dict(2) == {"s": 2, "clusters": [[1, 0]], "leftover": [2]}


def recover_with_dsyevr_only(g: Graph, s: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_ITERATIVE_MIN_DIM", sys.maxsize)
        return recover_with_trace(g, s)


def assert_same_recovery(got, want):
    """Clusters, leftover and pivots equal; masses within 1e-9 relative."""
    (result, traces), (want_result, want_traces) = got, want
    assert len(result.clusters) == len(want_result.clusters)
    assert all(np.array_equal(c, w) for c, w in zip(result.clusters, want_result.clusters))
    assert np.array_equal(result.leftover, want_result.leftover)
    assert [(t.level, t.rank, t.pivot) for t in traces] == [(t.level, t.rank, t.pivot) for t in want_traces]
    for t, w in zip(traces, want_traces):
        assert t.mass == pytest.approx(w.mass, rel=1e-9)
    assert all(t.solve == SolveRecord("dsyevr", 0, None) for t in want_traces)


class TestIterativeRounds:
    """Recovery with the certified block iteration forced on every round it
    can run: the clusters and pivots are dsyevr's."""

    @pytest.mark.parametrize(
        "n,s,p,q,seed",
        [
            (240, 60, 0.7, 0.3, 1),
            (300, 30, 0.8, 0.2, 2),
            (400, 100, 0.9, 0.5, 3),
            (200, 20, 1.0, 0.0, 4),  # noiseless: repeated top eigenvalues, tied masses
            (250, 60, 0.8, 0.2, 5),  # 10 vertices left over
            (600, 40, 0.7, 0.3, 6),  # c = 1.6: most rounds give way
        ],
    )
    def test_clusters_and_pivots_equal_dsyevr(self, iterative_on, n, s, p, q, seed):
        rng = np.random.default_rng(seed)
        part = permute_partition(make_partition(n - n % s, s), rng.permutation(n - n % s))
        g = sample_graph(part, ModelParams(p=p, q=q, seed=seed))
        if n % s:
            g = Graph(adj=np.pad(g.adj, (0, n % s)))  # isolated extra vertices
        got = recover_with_trace(g, s)
        assert_same_recovery(got, recover_with_dsyevr_only(g, s))
        solvers = {t.solve.solver for t in got[1]}
        assert "iterative" in solvers
        for t in got[1]:
            assert t.solve.sin_theta == (1e-10 if t.solve.solver == "iterative" else None)

    def test_default_rules_solve_large_rounds_iteratively(self):
        # round 0 (m = 1600, r = 2) is iterative; round 1 (m = 800) is below
        # the size floor and goes straight to dsyevr
        part = permute_partition(make_partition(1600, 800), np.random.default_rng(7).permutation(1600))
        g = sample_graph(part, ModelParams(p=0.7, q=0.3, seed=7))
        got = recover_with_trace(g, 800)
        assert same_partition(got[0], part)
        want_solver = "dsyevr" if spectral._LAPACK is None else "iterative"
        assert got[1][0].solve.solver == want_solver
        assert got[1][1].solve == SolveRecord("dsyevr", 0, None)
        assert_same_recovery(got, recover_with_dsyevr_only(g, 800))
