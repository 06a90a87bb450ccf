import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plantrec.model
from plantrec.errors import NonDivisibleError, ZeroSizeError
from plantrec.model import (
    Graph,
    ModelParams,
    PlantedPartition,
    expectation_matrix,
    make_partition,
    permute_partition,
    sample_graph,
)

from oracles import cluster_matrix


def _reference_sample_adjacency(part, params, vertices) -> np.ndarray:
    """The sampler's definition over the whole upper triangle at once: the
    stream's first draws up to the last selected pair, gathered by pair index
    j(j-1)/2 + i (test oracle; about 33 bytes per vertex pair)."""
    m = vertices.size
    adj = np.zeros((m, m), dtype=np.uint8)
    if m < 2:
        return adj
    iu, ju = np.triu_indices(m, k=1)
    orig_i, orig_j = vertices[iu], vertices[ju]
    pair = orig_j * (orig_j - 1) // 2 + orig_i
    raw = np.random.Philox(key=np.uint64(params.seed)).random_raw(int(pair[-1]) + 1)
    u = ((raw >> np.uint64(11)) * 2.0**-53)[pair]
    same = part.assignment[orig_i] == part.assignment[orig_j]
    edge = u < np.where(same, params.p, params.q)
    adj[iu, ju] = edge
    adj[ju, iu] = edge
    return adj


@st.composite
def sampler_cases(draw):
    """A shuffled partition with n = k*s in 0..60, model parameters (p = 1
    with q = 0 among them; seeds 0, 2^64 - 1 or any), and a vertex list that
    may be unsorted, repeat ids or hold one id."""
    s = draw(st.integers(1, 12))
    k = draw(st.integers(0, 60 // s))
    n = k * s
    part = make_partition(n, s)
    if n:
        part = permute_partition(part, np.asarray(draw(st.permutations(range(n))), dtype=np.int64))
    p, q = draw(st.sampled_from([(1.0, 0.0), (0.7, 0.3), (0.5, 0.1), (0.05, 0.0), (1.0, 0.99)]))
    seed = draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    vertices = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)) if n else []
    return part, ModelParams(p=p, q=q, seed=seed), vertices


class TestMakePartition:
    def test_two_clusters_of_three(self):
        part = make_partition(6, 3)
        assert part.k == 2 and part.s == 3
        assert [list(c) for c in part.clusters()] == [[0, 1, 2], [3, 4, 5]]

    def test_single_cluster(self):
        part = make_partition(4, 4)
        assert part.k == 1
        assert list(part.clusters()[0]) == [0, 1, 2, 3]

    def test_non_divisible_rejected(self):
        with pytest.raises(NonDivisibleError):
            make_partition(7, 3)

    def test_zero_size_rejected(self):
        with pytest.raises(ZeroSizeError):
            make_partition(6, 0)

    def test_unbalanced_assignment_rejected(self):
        with pytest.raises(NonDivisibleError):
            PlantedPartition(assignment=np.array([0, 0, 0, 1]), k=2, s=2)


class TestSampleGraph:
    def test_degenerate_p1_q0_is_block_diagonal(self):
        part = make_partition(9, 3)
        g = sample_graph(part, ModelParams(p=1.0, q=0.0, seed=5))
        expected = cluster_matrix(part) - np.eye(9)
        assert (g.adj == expected).all()

    def test_single_cluster_p1_is_complete(self):
        # p=q is rejected by ModelParams, so the complete graph comes from the
        # k=1 layout where every pair is intra-cluster
        part = make_partition(8, 8)
        g = sample_graph(part, ModelParams(p=1.0, q=0.0, seed=5))
        assert g.edge_count == 8 * 7 // 2

    def test_within_cluster_density_near_p(self):
        # oracle: direct edge counting against the binomial mean
        part = make_partition(200, 100)
        g = sample_graph(part, ModelParams(p=0.7, q=0.3, seed=123))
        same = cluster_matrix(part) - np.eye(200)
        within = (g.adj * same).sum() / same.sum()
        assert abs(within - 0.7) < 0.05
        across = (g.adj * (1 - cluster_matrix(part))).sum() / (1 - cluster_matrix(part)).sum()
        assert abs(across - 0.3) < 0.05

    def test_deterministic_in_seed(self):
        part = make_partition(40, 10)
        params = ModelParams(p=0.6, q=0.2, seed=77)
        assert (sample_graph(part, params).adj == sample_graph(part, params).adj).all()
        other = sample_graph(part, ModelParams(p=0.6, q=0.2, seed=78))
        assert (sample_graph(part, params).adj != other.adj).any()

    @pytest.mark.parametrize("seed", range(10))
    def test_graph_invariants_across_seeds(self, seed):
        part = make_partition(30, 5)
        g = sample_graph(part, ModelParams(p=0.5, q=0.1, seed=seed))
        assert (g.adj == g.adj.T).all()
        assert (np.diag(g.adj) == 0).all()
        assert set(np.unique(g.adj)) <= {0, 1}

    def test_pair_frequency_matches_expectation(self):
        # empirical edge frequency over 1000 seeds within 3-sigma binomial bands
        part = make_partition(12, 6)
        params_base = dict(p=0.7, q=0.3)
        total = np.zeros((12, 12))
        n_rep = 1000
        for seed in range(n_rep):
            total += sample_graph(part, ModelParams(seed=seed, **params_base)).adj
        freq = total / n_rep
        probs = expectation_matrix(part, ModelParams(seed=0, **params_base)) - 0.7 * np.eye(12)
        band = 3.0 * np.sqrt(probs * (1 - probs) / n_rep)
        off = ~np.eye(12, dtype=bool)
        assert (np.abs(freq - probs)[off] <= band[off]).all()


class TestSamplerOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sampler_cases())
    def test_column_sampler_equals_whole_triangle_definition(self, case):
        part, params, vertices = case
        g = sample_graph(part, params)
        assert np.array_equal(g.adj, _reference_sample_adjacency(part, params, np.arange(part.n)))
        if vertices:
            # a pair's draw depends on the pair alone, so any restriction of
            # the sample is the definition on those vertices
            v = np.unique(vertices)
            assert np.array_equal(g.adj[np.ix_(v, v)], _reference_sample_adjacency(part, params, v))

    def test_golden_hash(self):
        # pins numpy's Philox stream and the pair numbering: a change in
        # either changes every sample
        g = sample_graph(make_partition(500, 100), ModelParams(p=0.7, q=0.3, seed=2015))
        digest = hashlib.sha256(np.packbits(g.adj).tobytes()).hexdigest()
        assert digest == "aad24c8e263b82e424f50448a16b301d4e22ef098d507a1ec622845540193587"
        assert g.edge_count == 47276

    def test_sample_graph_memory_is_the_adjacency(self):
        # n^2 bytes of adjacency, O(n) per column and Graph's symmetry check
        # one 512 x 512 tile at a time; the whole-triangle sampler takes about
        # 33 n^2, and a whole-matrix symmetry check another n^2
        n = 2000
        part = make_partition(n, 500)
        params = ModelParams(p=0.7, q=0.3, seed=4)
        sample_graph(make_partition(4, 2), params)  # first use imports numpy.random
        tracemalloc.start()
        try:
            sample_graph(part, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n

    def test_adjacency_over_physical_memory_rejected_before_allocation(self, monkeypatch):
        monkeypatch.setattr(plantrec.model, "_physical_memory", lambda: 10**6)
        part = make_partition(2000, 1000)
        params = ModelParams(p=0.7, q=0.3, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="adjacency needs 4000000 bytes"):
                sample_graph(part, params)
            with pytest.raises(ValueError, match="adjacency needs 2250000 bytes"):
                sample_graph(make_partition(1500, 500), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert sample_graph(make_partition(1000, 500), params).n == 1000


class TestExpectationAndClusterMatrix:
    def test_two_vertices(self):
        part = make_partition(2, 1)
        got = expectation_matrix(part, ModelParams(p=0.9, q=0.1, seed=0))
        assert np.array_equal(got, [[0.9, 0.1], [0.1, 0.9]])

    def test_p1_q0_block_diagonal(self):
        part = make_partition(6, 3)
        got = expectation_matrix(part, ModelParams(p=1.0, q=0.0, seed=0))
        assert np.array_equal(got, cluster_matrix(part))

    def test_rank_equals_cluster_count(self):
        # oracle: dense eigensolve, count eigenvalues above 1e-8
        part = make_partition(20, 10)
        g = expectation_matrix(part, ModelParams(p=0.9, q=0.1, seed=0))
        rank = int((np.abs(np.linalg.eigvalsh(g)) > 1e-8).sum())
        assert rank == 2

    def test_cluster_matrix_small(self):
        part = make_partition(4, 2)
        expected = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
        assert np.array_equal(cluster_matrix(part), expected)

    def test_cluster_matrix_single_cluster_all_ones(self):
        part = make_partition(5, 5)
        assert (cluster_matrix(part) == 1).all()

    @pytest.mark.parametrize("n,s", [(12, 3), (12, 4), (20, 10), (7, 1)])
    def test_scaled_cluster_matrix_idempotent(self, n, s):
        h_over_s = cluster_matrix(make_partition(n, s)) / s
        defect = np.linalg.norm(h_over_s @ h_over_s - h_over_s, "fro")
        assert defect <= 1e-12

    def test_row_sums_equal_s(self):
        part = make_partition(15, 5)
        assert (cluster_matrix(part).sum(axis=1) == 5).all()


class TestPrincipalSubmatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_replay_union_of_clusters(self, seed):
        # restriction of one sample equals drawing only those clusters' pairs
        # from the same per-pair draws
        part = make_partition(30, 10)
        params = ModelParams(p=0.7, q=0.2, seed=seed)
        g = sample_graph(part, params)
        union = np.flatnonzero((part.assignment == 0) | (part.assignment == 2))
        sub = g.adj[np.ix_(union, union)]
        assert (sub == _reference_sample_adjacency(part, params, union)).all()

    def test_replay_arbitrary_subset(self):
        # pair draws are addressed by (seed, i, j) alone, so this holds for
        # any vertex subset, not just cluster unions
        part = make_partition(30, 10)
        params = ModelParams(p=0.6, q=0.4, seed=17)
        g = sample_graph(part, params)
        subset = np.array([0, 3, 7, 11, 13, 22, 29])
        sub = g.adj[np.ix_(subset, subset)]
        assert (sub == _reference_sample_adjacency(part, params, subset)).all()

    def test_commutes_with_expectation_matrix(self):
        part = make_partition(24, 6)
        params = ModelParams(p=0.8, q=0.1, seed=0)
        union = np.flatnonzero((part.assignment == 1) | (part.assignment == 3))
        restricted = expectation_matrix(part, params)[np.ix_(union, union)]
        small = expectation_matrix(make_partition(12, 6), params)
        assert np.array_equal(restricted, small)


class TestPermutePartition:
    def test_roundtrip(self):
        part = make_partition(10, 5)
        perm = np.array([3, 1, 4, 0, 2, 9, 7, 8, 5, 6])
        shuffled = permute_partition(part, perm)
        for v in range(10):
            assert shuffled.assignment[perm[v]] == part.assignment[v]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_partition(make_partition(4, 2), np.array([0, 0, 1, 2]))


class TestGraphType:
    def test_rejects_asymmetric(self):
        adj = np.zeros((3, 3), dtype=np.uint8)
        adj[0, 1] = 1
        with pytest.raises(ValueError):
            Graph(adj=adj)

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (1500, 3), (3, 1999), (1998, 1999)])
    def test_rejects_asymmetric_in_any_row_block(self, i, j):
        # 512 x 512 tiles: on the diagonal (first and last), above it and
        # below it
        adj = np.zeros((2000, 2000), dtype=np.uint8)
        adj[i, j] = 1
        with pytest.raises(ValueError, match="symmetric"):
            Graph(adj=adj)
        adj[j, i] = 1
        assert Graph(adj=adj).edge_count == 1

    def test_rejects_self_loops(self):
        adj = np.eye(3, dtype=np.uint8)
        with pytest.raises(ValueError):
            Graph(adj=adj)

    @pytest.mark.parametrize("value", [0.5, np.nan, 1.7, 257, -1], ids=["half", "nan", "1.7", "257", "-1"])
    def test_rejects_entries_a_cast_would_read_as_0_or_1(self, value):
        adj = np.zeros((3, 3), dtype=np.asarray(value).dtype)
        adj[0, 1] = adj[1, 0] = value
        with pytest.raises(ValueError, match="0 or 1"):
            Graph(adj=adj)

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.int64, np.uint8])
    def test_accepts_0_1_in_any_numeric_dtype(self, dtype):
        adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=dtype)
        g = Graph(adj=adj)
        assert g.adj.dtype == np.uint8 and g.edge_count == 2

    @pytest.mark.parametrize("bad", [0.4, 1.9], ids=["0.4", "1.9"])
    def test_rejects_fractional_cluster_ids(self, bad):
        with pytest.raises(ValueError, match="integers"):
            PlantedPartition(assignment=np.array([0, bad, 1, 1]), k=2, s=2)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64])
    def test_accepts_integer_cluster_ids(self, dtype):
        part = PlantedPartition(assignment=np.array([1, 0, 0, 1], dtype=dtype), k=2, s=2)
        assert part.assignment.dtype == np.int64 and part.assignment.tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize("seed", [1.5, True], ids=["1.5", "True"])
    def test_rejects_non_integer_seeds(self, seed):
        with pytest.raises(ValueError, match="integer"):
            ModelParams(p=0.8, q=0.1, seed=seed)

    @pytest.mark.parametrize(
        "p,q", [(True, 0.0), (1.0, False), (np.True_, 0.0)], ids=["p True", "q False", "p np.True_"]
    )
    def test_rejects_bool_probabilities(self, p, q):
        # a bool passes 0 <= q < p <= 1, and would be written as true or false
        with pytest.raises(ValueError, match="numbers"):
            ModelParams(p=p, q=q, seed=0)

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int32(7)])
    def test_accepts_numpy_integer_seeds(self, seed):
        assert ModelParams(p=0.8, q=0.1, seed=seed).seed == seed

    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(p=0.3, q=0.3, seed=0)
        with pytest.raises(ValueError):
            ModelParams(p=0.2, q=0.5, seed=0)
        with pytest.raises(ValueError):
            ModelParams(p=0.8, q=0.1, seed=-1)
