import numpy as np
import pytest

from plantrec.errors import NonFiniteError, RankOutOfRangeError
from plantrec.model import ModelParams, make_partition, expectation_matrix, sample_graph, true_cluster_matrix
from plantrec.spectral import (
    as_symmetric,
    eigh_descending,
    frobenius_norm,
    projector_column_mass,
    spectral_norm,
    top_projector,
)


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
        a = random_symmetric(25, 3)
        full, top = eigh_descending(a), eigh_descending(a, 4)
        assert np.array_equal(top.eigenvalues, full.eigenvalues)
        assert np.array_equal(top.eigenvectors, full.eigenvectors[:, :4])
        with pytest.raises(RankOutOfRangeError):
            eigh_descending(a, 26)


class TestTopProjector:
    @pytest.mark.parametrize("m,rank", [(40, 3), (97, 12), (60, 60)])
    def test_matrix_is_symmetrized_outer_product_of_full_solve(self, m, rank):
        # the bound checks read .matrix; it must match the projector built
        # from the leading columns of the full eigendecomposition bit for bit
        a = random_symmetric(m, rank)
        v = eigh_descending(a).eigenvectors[:, :rank]
        p = top_projector(a, rank)
        assert (p.dim, p.rank) == (m, rank)
        assert np.array_equal(p.matrix, as_symmetric(v @ v.T))

    def test_full_rank_is_identity(self):
        a = random_symmetric(6, 0)
        p = top_projector(a, 6)
        assert np.allclose(p.matrix, np.eye(6), atol=1e-10)

    def test_expectation_projector_is_scaled_cluster_matrix(self):
        part = make_partition(20, 10)
        g = expectation_matrix(part, ModelParams(p=0.9, q=0.1, seed=0))
        p = top_projector(g, 2)
        h = true_cluster_matrix(part)
        assert np.linalg.norm(p.matrix - h / 10, "fro") <= 1e-8

    def test_cluster_matrix_projector_is_itself_scaled(self):
        # oracle: direct eigensolve of the 0-1 co-membership matrix
        part = make_partition(12, 4)
        h = true_cluster_matrix(part)
        p = top_projector(h, 3)
        assert np.linalg.norm(p.matrix - h / 4, "fro") <= 1e-8

    def test_rank_out_of_range(self):
        a = np.eye(4)
        with pytest.raises(RankOutOfRangeError):
            top_projector(a, 0)
        with pytest.raises(RankOutOfRangeError):
            top_projector(a, 5)

    @pytest.mark.parametrize("seed,rank", [(0, 1), (1, 3), (2, 7), (3, 10)])
    def test_projector_algebra(self, seed, rank):
        a = random_symmetric(10, seed)
        p = top_projector(a, rank).matrix
        assert np.array_equal(p, p.T)
        assert np.linalg.norm(p @ p - p, "fro") <= 10 * 1e-9
        assert abs(np.trace(p) - rank) <= 1e-6
        eigs = np.linalg.eigvalsh(p)
        assert (np.minimum(np.abs(eigs), np.abs(eigs - 1)) <= 1e-8).all()


class TestNorms:
    def test_spectral_norm_zero(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_spectral_norm_cluster_matrix(self):
        h = true_cluster_matrix(make_partition(6, 3))
        assert spectral_norm(h) == pytest.approx(3.0, abs=1e-12)

    def test_spectral_norm_vs_power_iteration(self):
        rng = np.random.default_rng(42)
        a = as_symmetric(np.sign(rng.standard_normal((50, 50))))
        assert spectral_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-6)

    def test_spectral_norm_negative_dominant(self):
        a = np.diag([2.0, -5.0, 1.0])
        assert spectral_norm(a) == 5.0

    def test_frobenius_identity(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)

    def test_frobenius_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_frobenius_of_adjacency_counts_edges(self):
        part = make_partition(30, 10)
        g = sample_graph(part, ModelParams(p=0.7, q=0.2, seed=11))
        assert frobenius_norm(g.dense()) == pytest.approx(np.sqrt(2 * g.edge_count))

    def test_frobenius_equals_eigenvalue_norm(self):
        a = random_symmetric(20, 3)
        lam = eigh_descending(a).eigenvalues
        assert frobenius_norm(a) == pytest.approx(np.sqrt((lam**2).sum()), rel=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_norm_at_most_max_row_sum(self, seed):
        a = random_symmetric(15, seed)
        assert spectral_norm(a) <= np.abs(a).sum(axis=1).max() + 1e-12


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
        sampled = sample_graph(part, params).dense()
        expected = expectation_matrix(part, params)
        wa = eigh_descending(sampled).eigenvalues
        wb = eigh_descending(expected).eigenvalues
        assert np.abs(wa - wb).max() <= spectral_norm(sampled - expected) + 1e-10


class TestProjectorColumnMass:
    def test_full_cluster_mass(self):
        part = make_partition(12, 4)
        p = true_cluster_matrix(part) / 4
        assert projector_column_mass(p, part.clusters()[1]) == pytest.approx(2.0)

    def test_empty_set(self):
        p = np.eye(4)
        assert projector_column_mass(p, []) == 0.0

    def test_split_set(self):
        # two vertices from each of two clusters of size 4: ||P 1_W||^2 = 2
        part = make_partition(8, 4)
        p = true_cluster_matrix(part) / 4
        w = [0, 1, 4, 5]
        assert projector_column_mass(p, w) == pytest.approx(np.sqrt(2.0))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            projector_column_mass(np.zeros((3, 4)), [0])

    def test_accepts_projector_object(self):
        part = make_partition(8, 4)
        proj = top_projector(expectation_matrix(part, ModelParams(0.9, 0.1, 0)), 2)
        assert projector_column_mass(proj, part.clusters()[0]) == pytest.approx(2.0)
