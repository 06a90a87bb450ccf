import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantrec import recovery

from plantrec.errors import GraphTooSmallError, SizeOutOfRangeError, ZeroSizeError
from plantrec.model import (
    Graph,
    ModelParams,
    make_partition,
    permute_partition,
    sample_graph,
    true_cluster_matrix,
)
from plantrec.recovery import (
    CandidateSet,
    RecoveryResult,
    all_candidate_sets,
    candidate_set,
    extract_cluster,
    identify_clusters,
    recover_with_trace,
    same_partition,
    select_pivot,
)
from plantrec.spectral import Projector, projector_column_mass, top_projector


def noiseless_graph(n: int, s: int) -> Graph:
    part = make_partition(n, s)
    return sample_graph(part, ModelParams(p=1.0, q=0.0, seed=0))


class TestCandidateSet:
    def test_exact_projector_gives_true_cluster(self):
        part = make_partition(12, 4)
        p = true_cluster_matrix(part) / 4
        for j in range(12):
            cand = candidate_set(p, j, 4)
            assert set(cand.members) == set(part.clusters()[part.assignment[j]])
            assert cand.pivot == j

    def test_size_one(self):
        p = true_cluster_matrix(make_partition(6, 3)) / 3
        cand = candidate_set(p, 4, 1)
        assert list(cand.members) == [4]

    def test_robust_to_small_noise(self):
        # entries gap is 1/s, so symmetric noise below 1/(2s) cannot reorder
        part = make_partition(12, 4)
        clean = true_cluster_matrix(part) / 4
        rng = np.random.default_rng(3)
        noise = rng.uniform(-1, 1, size=(12, 12)) * (0.49 / 4)
        noisy = (noise + noise.T) / 2 + clean
        for j in range(12):
            cand = candidate_set(noisy, j, 4)
            assert set(cand.members) == set(part.clusters()[part.assignment[j]])

    def test_size_out_of_range(self):
        p = np.eye(4)
        with pytest.raises(SizeOutOfRangeError):
            candidate_set(p, 0, 5)
        with pytest.raises(SizeOutOfRangeError):
            candidate_set(p, 0, 0)

    def test_tie_break_prefers_smaller_index(self):
        p = np.zeros((5, 5))
        cand = candidate_set(p, 3, 3)
        assert list(cand.members) == [0, 1, 3]

    def test_matches_batch_construction(self):
        part = make_partition(20, 5)
        g = sample_graph(part, ModelParams(p=0.9, q=0.1, seed=4))
        p = top_projector(g.dense(), 4)
        batch = all_candidate_sets(p, 5)
        for j in (0, 7, 19):
            single = candidate_set(p, j, 5)
            assert np.array_equal(single.members, batch[j].members)
            assert single.mass == pytest.approx(batch[j].mass, rel=1e-12)


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
        got = all_candidate_sets(matrix, s)
        want = brute_force_sets(matrix, s)
        assert [c.pivot for c in got] == list(range(matrix.shape[0]))
        for c, w in zip(got, want):
            assert np.array_equal(c.members, w)
            assert c.mass == pytest.approx(brute_force_mass(matrix, w), rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(sized_matrices(), st.integers(1, 5))
    def test_small_blocks_give_the_same_sets(self, case, block):
        matrix, s = case
        whole = all_candidate_sets(matrix, s)
        with mock.patch.object(recovery, "BLOCK_ENTRIES", block * matrix.shape[0]):
            blocked = all_candidate_sets(matrix, s)
        for a, b in zip(whole, blocked):
            assert np.array_equal(a.members, b.members)
            # a raw matrix's masses come from one BLAS product per block,
            # whose rounding may follow the block's shape
            assert a.mass == pytest.approx(b.mass, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m,r,s", [(30, 3, 10), (41, 5, 8), (12, 12, 12), (9, 1, 1)])
    def test_basis_masses_equal_matrix_masses(self, m, r, s):
        proj = random_projector(m, r, seed=m * r)
        dense = proj.matrix
        for c in all_candidate_sets(proj, s):
            assert c.mass == pytest.approx(brute_force_mass(dense, c.members), rel=1e-12)
            assert c.mass == projector_column_mass(proj, c.members)

    def test_basis_ranking_small_blocks(self, monkeypatch):
        proj = random_projector(50, 4, seed=7)
        whole = all_candidate_sets(proj, 9)
        assert [list(c.members) for c in whole] == [list(w) for w in brute_force_sets(proj.matrix, 9)]
        monkeypatch.setattr(recovery, "BLOCK_ENTRIES", 3 * 50)
        blocked = all_candidate_sets(proj, 9)
        for a, b in zip(whole, blocked):
            assert np.array_equal(a.members, b.members)
            assert a.mass == b.mass


class TestSelectPivot:
    def test_masses_one_ulp_apart_tie_to_smaller_vertex(self):
        members = np.array([0, 1])
        low, high = 2.0, np.nextafter(2.0, 3.0)
        sets = [CandidateSet(0, members, low), CandidateSet(1, members, high)]
        assert select_pivot(np.zeros((2, 2)), sets) == 0
        sets = [CandidateSet(0, members, low), CandidateSet(1, members, low * (1 + 1e-9))]
        assert select_pivot(np.zeros((2, 2)), sets) == 1

    def test_all_tie_returns_vertex_zero(self):
        part = make_partition(12, 4)
        p = true_cluster_matrix(part) / 4
        sets = all_candidate_sets(p, 4)
        assert select_pivot(p, sets) == 0
        assert all(c.mass == pytest.approx(2.0) for c in sets)

    def test_single_vertex(self):
        p = np.zeros((1, 1))
        sets = all_candidate_sets(p, 1)
        assert select_pivot(p, sets) == 0

    def test_requires_full_coverage(self):
        p = true_cluster_matrix(make_partition(8, 4)) / 4
        sets = all_candidate_sets(p, 4)
        with pytest.raises(ValueError):
            select_pivot(p, sets[:-1])


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
