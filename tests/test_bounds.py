import math

import numpy as np
import pytest

from plantrec import bounds, spectral
from plantrec.bounds import (
    BoundReport,
    Constants,
    admissible_c,
    centered_adjacency,
    check_concentration,
    check_fk_submatrices,
    check_good_column,
    check_norm_deviation,
    check_projector_deviation,
    check_purity,
    check_separation,
    check_weyl,
    cluster_unions,
    empirical_epsilon,
    theoretical_spectrum,
)
from plantrec.errors import (
    DegenerateGapError,
    DimensionMismatchError,
    EmptyFamilyError,
    EpsilonOutOfRangeError,
    SizeOutOfRangeError,
    VertexIdError,
)
from plantrec.model import (
    Graph,
    ModelParams,
    expectation_matrix,
    make_partition,
    permute_partition,
    sample_graph,
)
from plantrec.recovery import all_candidate_sets, select_pivot
from plantrec.spectral import Projector, as_symmetric, eigh_descending, spectral_norm, top_projector

from oracles import cluster_matrix, dense_projector


class TestConstants:
    def test_admissible_c_values(self):
        assert admissible_c(1.0, 0.0) == 88.0
        assert admissible_c(0.75, 0.25) == 288.0
        assert admissible_c(0.2, 0.1) == pytest.approx(7200.0)

    def test_admissible_c_degenerate(self):
        with pytest.raises(DegenerateGapError):
            admissible_c(0.5, 0.5)
        with pytest.raises(ValueError):
            admissible_c(0.2, 0.5)
        with pytest.raises(ValueError):
            admissible_c(1.2, 0.1)

    def test_derived_fields(self):
        consts = Constants.from_params(1.0, 0.0, 88.0)
        assert consts.c_prime == 88.0
        assert consts.epsilon == pytest.approx(0.1)
        assert consts.sigma == 0.0

    def test_epsilon_undefined_below_separation(self):
        consts = Constants.from_params(0.6, 0.2, 10.0)  # c_prime = 4
        assert consts.epsilon is None

    def test_sigma_at_most_half(self):
        for p, q in [(0.5, 0.1), (0.9, 0.4), (1.0, 0.0), (0.6, 0.5)]:
            assert Constants.from_params(p, q, 100.0).sigma <= 0.5

    def test_epsilon_decreases_in_c(self):
        eps = [Constants.from_params(0.8, 0.2, c).epsilon for c in np.linspace(30, 300, 16)]
        assert all(a > b for a, b in zip(eps, eps[1:]))

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_c_must_be_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="c must be finite and positive"):
            Constants.from_params(0.7, 0.2, c)


class TestTheoreticalSpectrum:
    def test_single_cluster(self):
        got = theoretical_spectrum(1, 5, 0.8, 0.3)
        assert got[0] == pytest.approx(0.8 * 5)
        assert (got[1:] == 0).all()

    def test_q_zero_all_positive_equal(self):
        got = theoretical_spectrum(3, 4, 0.9, 0.0)
        assert np.allclose(got[:3], 0.9 * 4)
        assert (got[3:] == 0).all()

    def test_two_clusters_of_ten(self):
        got = theoretical_spectrum(2, 10, 0.9, 0.1)
        assert got[0] == pytest.approx(10.0)
        assert got[1] == pytest.approx(8.0)
        assert (got[2:] == 0).all()

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("s", [5, 20, 60])
    @pytest.mark.parametrize("p,q", [(0.9, 0.1), (0.7, 0.3), (1.0, 0.0)])
    def test_matches_dense_eigensolve(self, l, s, p, q):
        part = make_partition(l * s, s)
        g = expectation_matrix(part, ModelParams(p=p, q=q, seed=0))
        got = eigh_descending(g).eigenvalues
        want = theoretical_spectrum(l, s, p, q)
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


class TestNormDeviation:
    def test_deterministic_case_deviation_is_identity(self):
        # with p=1, q=0 the sample equals its expectation, so the difference
        # against the rank-k matrix is exactly -p*I
        part = make_partition(12, 4)
        params = ModelParams(p=1.0, q=0.0, seed=0)
        g = sample_graph(part, params)
        rep = check_norm_deviation(g.adj, expectation_matrix(part, params))
        assert rep.lhs == pytest.approx(1.0)
        assert rep.satisfied

    def test_rhs_arithmetic(self):
        rep = check_norm_deviation(np.zeros((150, 150)), np.zeros((150, 150)))
        assert rep.rhs == pytest.approx(8 * math.sqrt(150))
        assert rep.rhs == pytest.approx(97.97958971, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_norm_deviation(np.zeros((3, 3)), np.zeros((4, 4)))

    def test_monte_carlo_always_holds_at_n100(self):
        part = make_partition(100, 50)
        hits = 0
        for seed in range(100):
            params = ModelParams(p=0.7, q=0.3, seed=seed)
            g = sample_graph(part, params)
            hits += check_norm_deviation(g.adj, expectation_matrix(part, params)).satisfied
        assert hits == 100


class TestSeparation:
    def test_noiseless_reports_computed(self):
        part = make_partition(12, 4)
        g = sample_graph(part, ModelParams(p=1.0, q=0.0, seed=0))
        consts = Constants.from_params(1.0, 0.0, c=4 / math.sqrt(12))
        top, bulk = check_separation(g.adj, 3, consts)
        assert top.context["lambda_l"] == pytest.approx(3.0)  # s - 1
        assert bulk.lhs == pytest.approx(1.0)
        assert bulk.satisfied

    def test_zero_noise_gap(self):
        part = make_partition(20, 10)
        params = ModelParams(p=0.9, q=0.1, seed=0)
        expected = expectation_matrix(part, params)
        consts = Constants.from_params(0.9, 0.1, c=100.0)
        top, bulk = check_separation(expected, 2, consts)
        assert top.context["lambda_l"] == pytest.approx(8.0)
        assert bulk.lhs == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_weyl_subcheck_on_instances(self, seed):
        part = make_partition(60, 20)
        params = ModelParams(p=0.8, q=0.2, seed=seed)
        sampled = sample_graph(part, params).adj
        expected = expectation_matrix(part, params)
        rep = check_weyl(sampled, expected)
        assert rep.satisfied


class TestProjectorDeviation:
    def test_identical_matrices_zero(self):
        part = make_partition(20, 10)
        expected = expectation_matrix(part, ModelParams(p=0.9, q=0.1, seed=0))
        spec, frob = check_projector_deviation(expected, expected, 2)
        assert spec.lhs == pytest.approx(0.0, abs=1e-12)
        assert frob.lhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_frobenius_rank_inequality_on_random_projectors(self, seed):
        # rank fact: a difference of two rank-l projectors has rank at most
        # 2l, so its squared Frobenius norm is at most 2l times its squared
        # spectral norm; checked on random orthonormal bases
        rng = np.random.default_rng(seed)
        l, m = 3, 16
        qa, _ = np.linalg.qr(rng.standard_normal((m, m)))
        qb, _ = np.linalg.qr(rng.standard_normal((m, m)))
        pa = qa[:, :l] @ qa[:, :l].T
        pb = qb[:, :l] @ qb[:, :l].T
        diff = pa - pb
        frob2 = np.linalg.norm(diff, "fro") ** 2
        spec2 = spectral_norm(diff) ** 2
        assert frob2 <= 2 * l * spec2 + 1e-8

    def test_expected_matrix_solved_once_with_the_same_floats(self, monkeypatch):
        part = make_partition(60, 20)
        params = ModelParams(p=0.7, q=0.3, seed=4)
        sampled = sample_graph(part, params).adj
        expected = expectation_matrix(part, params)
        v_a, v_e = top_projector(sampled, 3).basis, top_projector(expected, 3).basis
        sines = np.linalg.svd(v_a - v_e @ (v_e.T @ v_a), compute_uv=False)
        diff = v_a @ v_a.T - v_e @ v_e.T
        instance_dev = spectral_norm(sampled - expected)
        gap = float(eigh_descending(expected, 3).eigenvalues[2]) - instance_dev
        solves = []
        solve_top = spectral._solve_top
        monkeypatch.setattr(spectral, "_solve_top", lambda a, rank: solves.append(a) or solve_top(a, rank))
        spec, frob = check_projector_deviation(sampled, expected, 3)
        assert len(solves) == 2  # one of the sampled matrix, one of the expected
        assert spec.lhs == sines[0]
        assert frob.lhs == 2.0 * (sines**2).sum()
        assert spec.lhs == pytest.approx(spectral_norm(diff), rel=1e-12, abs=1e-12)
        assert frob.lhs == pytest.approx(np.linalg.norm(diff, "fro") ** 2, rel=1e-12, abs=1e-12)
        assert spec.context["gap"] == gap
        assert spec.rhs == 8.0 * math.sqrt(60) / gap

    @pytest.mark.parametrize("l", [1, 3, 16])
    @pytest.mark.parametrize("seed", range(3))
    def test_principal_angles_match_the_dense_difference(self, l, seed):
        # ||P_a - P_e||_2 and ||P_a - P_e||_F^2 from the sines against the
        # same norms of the m x m difference of the two projectors
        rng = np.random.default_rng(seed)
        m = 16
        p_a = Projector(basis=np.linalg.qr(rng.standard_normal((m, l)))[0])
        p_e = Projector(basis=np.linalg.qr(rng.standard_normal((m, l)))[0])
        self._assert_matches_dense(p_a, p_e)

    def test_principal_angles_match_the_dense_difference_on_a_sample(self):
        part = permute_partition(make_partition(120, 40), np.random.default_rng(5).permutation(120))
        params = ModelParams(p=0.7, q=0.3, seed=5)
        sampled = sample_graph(part, params).adj
        p_e = Projector(basis=np.eye(3)[part.assignment] / math.sqrt(40))
        self._assert_matches_dense(top_projector(sampled, 3), p_e)

    @staticmethod
    def _assert_matches_dense(p_a, p_e):
        sines = bounds._projector_distance(p_a, p_e)
        assert sines.shape == (p_a.rank,)
        assert (np.diff(sines) <= 0).all()
        diff = dense_projector(p_a) - dense_projector(p_e)
        assert sines[0] == pytest.approx(spectral_norm(diff), rel=1e-12, abs=1e-12)
        assert 2.0 * (sines**2).sum() == pytest.approx(
            np.linalg.norm(diff, "fro") ** 2, rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("route", ["matrices", "closed_form"])
    def test_frobenius_rank_at_rank_one_is_equality(self, route):
        # at l = 1 the Frobenius rank inequality holds with equality; both
        # sides come from the one principal angle, so the verdict cannot hang
        # on rounding
        part = make_partition(12, 12)
        params = ModelParams(p=0.7, q=0.2, seed=3)
        sampled = sample_graph(part, params).adj
        expected = expectation_matrix(part, params)
        if route == "matrices":
            _, frob = check_projector_deviation(sampled, expected, 1)
        else:
            _, frob = bounds._projector_deviation(
                bounds._projector_distance(
                    top_projector(sampled, 1), Projector(basis=np.full((12, 1), 1 / math.sqrt(12)))
                ),
                12,
                theoretical_spectrum(1, 12, 0.7, 0.2)[0],
                spectral_norm(sampled - expected),
            )
        assert frob.lhs == frob.rhs > 0
        assert frob.satisfied

    def test_monte_carlo_deviation_below_half(self):
        part = make_partition(400, 200)
        hits = 0
        for seed in range(100):
            params = ModelParams(p=0.8, q=0.2, seed=seed)
            sampled = sample_graph(part, params).adj
            expected = expectation_matrix(part, params)
            spec, frob = check_projector_deviation(sampled, expected, 2)
            assert frob.satisfied
            hits += spec.lhs < 0.5
        assert hits >= 95

    def test_deviation_never_exceeds_two(self):
        for seed in range(10):
            part = make_partition(40, 10)
            params = ModelParams(p=0.6, q=0.3, seed=seed)
            eps = empirical_epsilon(
                sample_graph(part, params).adj, expectation_matrix(part, params), 4
            )
            assert eps <= 2.0 + 1e-8


class TestGoodColumn:
    def test_exact_projector(self):
        part = make_partition(12, 4)
        p = cluster_matrix(part) / 4
        rep = check_good_column(p, part, 0.05)
        assert rep.rhs == pytest.approx(2.0)
        assert rep.satisfied

    def test_threshold_arithmetic_at_point_one(self):
        part = make_partition(8, 4)
        p = cluster_matrix(part) / 4
        rep = check_good_column(p, part, 0.1)
        assert rep.lhs == pytest.approx(0.82 * 2.0)

    def test_epsilon_out_of_range(self):
        p = np.eye(4)
        with pytest.raises(EpsilonOutOfRangeError):
            check_good_column(p, make_partition(4, 2), 0.2)
        with pytest.raises(EpsilonOutOfRangeError):
            check_good_column(p, make_partition(4, 2), 0.0)

    def test_partition_of_another_size_rejected(self):
        with pytest.raises(DimensionMismatchError):
            check_good_column(np.eye(4), make_partition(6, 2), 0.05)

    @pytest.mark.parametrize("seed", range(4))
    def test_overlap_is_the_co_membership_row_sum(self, seed):
        # the largest single-cluster overlap of the best set is the largest
        # row sum of the co-membership matrix restricted to that set
        part = permute_partition(make_partition(60, 10), np.random.default_rng(seed).permutation(60))
        sampled = sample_graph(part, ModelParams(p=0.6, q=0.4, seed=seed)).adj
        p_hat = top_projector(sampled, 6)
        members, masses = all_candidate_sets(p_hat, 10)
        pivot = select_pivot(masses)
        best = members[pivot]
        rep = check_good_column(p_hat, part, 0.1)
        assert (rep.context["best_pivot"], rep.rhs) == (pivot, masses[pivot])
        coassign = cluster_matrix(part)
        assert rep.context["best_overlap"] == coassign[np.ix_(best, best)].sum(axis=1).max()
        assert rep.context["s"] == 10

    def test_monte_carlo_in_model(self):
        part = make_partition(400, 200)
        hits = 0
        for seed in range(100):
            params = ModelParams(p=0.8, q=0.2, seed=seed)
            sampled = sample_graph(part, params).adj
            expected = expectation_matrix(part, params)
            p_hat = top_projector(sampled, 2)
            p_exp = top_projector(expected, 2)
            eps = spectral_norm(dense_projector(p_hat) - dense_projector(p_exp))
            rep = check_good_column(p_hat, part, min(max(eps, 1e-12), 0.1))
            hits += rep.satisfied
        assert hits >= 95


class TestPurity:
    def test_exact_cluster(self):
        part = make_partition(12, 4)
        rep = check_purity(part.clusters()[0], part, 0.0)
        assert rep.satisfied

    def test_even_split_fails(self):
        part = make_partition(8, 4)
        rep = check_purity([0, 1, 4, 5], part, 0.1)
        assert rep.lhs == pytest.approx(0.7 * 4)
        assert rep.rhs == 2.0
        assert not rep.satisfied

    def test_boundary_is_inclusive(self):
        # 3*eps*s vertices swapped out leaves overlap exactly (1-3eps)s
        part = make_partition(40, 10)
        eps = 0.1
        w = np.array([0, 1, 2, 3, 4, 5, 6, 10, 11, 12])  # overlap 7 = (1-0.3)*10
        rep = check_purity(w, part, eps)
        assert rep.lhs == pytest.approx(7.0)
        assert rep.rhs == 7.0
        assert rep.satisfied

    def test_wrong_size_rejected(self):
        part = make_partition(8, 4)
        with pytest.raises(SizeOutOfRangeError):
            check_purity([0, 1], part, 0.1)

    @pytest.mark.parametrize(
        "w", [[0, 0, 1, 2], [-1, 0, 1, 2], [0, 1, 2, 12], [0.5, 1, 2, 3], [True, True, False, False]]
    )
    def test_ids_outside_the_partition_or_repeated_rejected(self, w):
        # [0, 0, 1, 2] is 3 vertices, -1 would be read as vertex 11, 0.5 as
        # vertex 0 and a bool mask as the ids 1, 1, 0, 0
        with pytest.raises(VertexIdError):
            check_purity(w, make_partition(12, 4), 0.1)


class TestConcentration:
    def test_noiseless_counts(self):
        # in-cluster count is exactly s-1, out-count 0: the floor
        # (p - e)s - p = s - 1 - es is below it for every epsilon
        part = make_partition(20, 5)
        g = sample_graph(part, ModelParams(p=1.0, q=0.0, seed=0))
        for epsilon in (1 / 5, 0.1, 1e-12):
            reps = check_concentration(g, part, 1.0, 0.0, epsilon=epsilon)
            assert reps[1].lhs == 0.0 and reps[1].satisfied
        # one missing in-cluster edge leaves its two ends at s - 2 = 3, under
        # the floor 3.5 at epsilon 0.1 but on the floor 3 at epsilon 1/5
        adj = g.adj.copy()
        adj[0, 1] = adj[1, 0] = 0
        reps = check_concentration(Graph(adj), part, 1.0, 0.0, epsilon=0.1)
        assert reps[1].lhs == 2.0 and not reps[1].satisfied
        assert [(r.name, r.lhs, r.rhs, r.context["vertex"]) for r in reps[2:]] == [
            ("concentration_in", 3.5, 3.0, 0),
            ("concentration_in", 3.5, 3.0, 1),
        ]
        assert check_concentration(Graph(adj), part, 1.0, 0.0, epsilon=1 / 5)[1].satisfied

    def test_gap_precondition_report(self):
        part = make_partition(8, 4)
        g = sample_graph(part, ModelParams(p=0.7, q=0.3, seed=0))
        reps = check_concentration(g, part, 0.7, 0.3, epsilon=0.04)
        gap = reps[0]
        assert gap.name == "concentration_gap"
        assert gap.lhs == pytest.approx(0.3 + 0.16)
        assert gap.rhs == pytest.approx(0.7 - 0.16)
        assert gap.satisfied  # 0.04 <= (p-q)/8 = 0.05
        assert not check_concentration(g, part, 0.7, 0.3, epsilon=0.06)[0].satisfied

    def test_monte_carlo_zero_violations(self):
        # binomial oracle: at p=0.95, q=0.05, s=100, eps=0.11 the per-vertex
        # tail probabilities put the zero-violation rate near 99%
        part = make_partition(400, 100)
        hits = 0
        for seed in range(100):
            g = sample_graph(part, ModelParams(p=0.95, q=0.05, seed=seed))
            reps = check_concentration(g, part, 0.95, 0.05, epsilon=0.11)
            assert reps[0].satisfied
            hits += reps[1].satisfied
        assert hits >= 97

    def test_epsilon_must_be_positive(self):
        part = make_partition(8, 4)
        g = sample_graph(part, ModelParams(p=0.7, q=0.3, seed=0))
        with pytest.raises(EpsilonOutOfRangeError):
            check_concentration(g, part, 0.7, 0.3, epsilon=0.0)

    def test_violation_rows_capped_with_overflow_flag(self, monkeypatch):
        import plantrec.bounds as bounds_mod

        monkeypatch.setattr(bounds_mod, "VIOLATION_CAP", 3)
        # the empty graph: every own count 0 is under the floor 3.5
        part = make_partition(20, 5)
        g = Graph(np.zeros((20, 20), dtype=np.uint8))
        reps = check_concentration(g, part, 1.0, 0.0, epsilon=0.1)  # 20 violations
        assert reps[1].lhs == 20.0
        assert reps[1].context["overflow"] is True
        assert len(reps) == 2 + 3

    def test_violation_cap_inside_the_out_rows(self, monkeypatch):
        # every in-row comes first, ascending by vertex, then the out-rows by
        # (vertex, cluster), and the cap cuts that stream where it falls
        part = make_partition(40, 10)
        g = sample_graph(part, ModelParams(p=0.7, q=0.3, seed=1))
        counts = np.stack([g.adj[:, c].sum(axis=1) for c in part.clusters()], axis=1)
        want = [
            ("concentration_in", j, int(part.assignment[j]))
            for j in range(40)
            if counts[j, part.assignment[j]] < (0.7 - 0.05) * 10 - 0.7
        ]
        n_in = len(want)
        want += [
            ("concentration_out", j, i)
            for j in range(40)
            for i in range(4)
            if i != part.assignment[j] and counts[j, i] > (0.3 + 0.05) * 10
        ]
        assert 0 < n_in < len(want) - 2
        monkeypatch.setattr(bounds, "VIOLATION_CAP", n_in + 2)
        reps = check_concentration(g, part, 0.7, 0.3, epsilon=0.05)
        assert reps[1].lhs == len(want)
        assert reps[1].context["overflow"] is True
        got = [(r.name, r.context["vertex"], r.context["cluster"]) for r in reps[2:]]
        assert got == want[: n_in + 2]
        for r in reps[2:]:
            j, c = r.context["vertex"], r.context["cluster"]
            if r.name == "concentration_in":
                assert (r.lhs, r.rhs) == ((0.7 - 0.05) * 10 - 0.7, counts[j, c])
            else:
                assert (r.lhs, r.rhs) == (counts[j, c], (0.3 + 0.05) * 10)


class TestFkSubmatrices:
    def test_zero_noise_trivially_satisfied(self):
        part = make_partition(12, 4)
        unions = cluster_unions(part)
        reps = check_fk_submatrices(
            np.zeros((12, 12)), [v for _, v in unions], sigma=0.5, labels=[m for m, _ in unions]
        )
        assert len(reps) == 7
        assert all(r.satisfied and r.lhs == 0.0 for r in reps)

    def test_rhs_arithmetic(self):
        reps = check_fk_submatrices(np.zeros((100, 100)), [np.arange(100)], sigma=0.5)
        assert reps[0].rhs == pytest.approx(70.0)

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            check_fk_submatrices(np.zeros((4, 4)), [], sigma=0.5)

    @pytest.mark.parametrize("bad", [[0, 1, -1], [0, 12], [3, 5, 3], [0.5, 2]])
    def test_ids_outside_the_matrix_or_repeated_rejected(self, bad):
        # raised before any solve, not an IndexError from a pool thread
        with pytest.raises(VertexIdError):
            check_fk_submatrices(np.zeros((12, 12)), [np.arange(12), bad], sigma=0.5)

    def test_whole_vertex_set_reads_the_matrix_itself(self):
        # either order is a gathered copy, and x is left as it was; the
        # norms agree, and the first is the norm of x bit for bit
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 30))
        x = (x + x.T) / 2
        before = x.copy()
        in_order, shuffled = check_fk_submatrices(x, [np.arange(30), rng.permutation(30)], sigma=0.5)
        assert np.array_equal(x, before)
        assert in_order.lhs == spectral_norm(x.copy())
        assert shuffled.lhs == pytest.approx(in_order.lhs, rel=1e-12)
        assert in_order.rhs == shuffled.rhs == 2.0 * 3.5 * math.sqrt(30)

    def test_union_enumeration(self):
        part = make_partition(8, 2)
        unions = cluster_unions(part)
        assert [m for m, _ in unions] == list(range(1, 16))
        mask, verts = unions[4]  # mask 5 = clusters 0 and 2
        assert list(verts) == [0, 1, 4, 5]

    def test_union_sampling_beyond_enumeration_cutoff(self, monkeypatch):
        monkeypatch.setattr(bounds, "UNION_SAMPLE_LIMIT", 64)
        part = make_partition(28, 2)  # k = 14 > 12
        unions = cluster_unions(part, seed=5)
        masks = [m for m, _ in unions]
        assert len(masks) == 64
        assert len(set(masks)) == 64
        assert all(1 <= m < 2**14 for m in masks)
        again = cluster_unions(part, seed=5)
        assert masks == [m for m, _ in again]

    def test_union_sampling_past_64_clusters(self, monkeypatch):
        monkeypatch.setattr(bounds, "UNION_SAMPLE_LIMIT", 64)
        part = make_partition(140, 2)  # k = 70: masks no longer fit in int64
        unions = cluster_unions(part, seed=5)
        masks = [m for m, _ in unions]
        assert len(set(masks)) == 64
        assert masks == sorted(masks)
        assert all(isinstance(m, int) and 1 <= m < 2**70 for m in masks)
        assert max(masks).bit_length() > 63
        for mask, verts in unions:
            want = [v for v in range(140) if mask >> int(part.assignment[v]) & 1]
            assert list(verts) == want
        assert masks == [m for m, _ in cluster_unions(part, seed=5)]

    def test_union_sampling_covers_small_mask_space(self, monkeypatch):
        monkeypatch.setattr(bounds, "UNION_SAMPLE_LIMIT", 10**4)
        part = make_partition(26, 2)  # k = 13: 8191 masks, sample every one
        unions = cluster_unions(part)
        assert [m for m, _ in unions] == list(range(1, 2**13))

    def test_monte_carlo_all_unions(self):
        part = make_partition(240, 60)
        sigma = Constants.from_params(0.7, 0.3, 1.0).sigma
        hits = 0
        for seed in range(100):
            params = ModelParams(p=0.7, q=0.3, seed=seed)
            g = sample_graph(part, params)
            noise = centered_adjacency(g, part, params)
            unions = cluster_unions(part)
            reps = check_fk_submatrices(
                noise, [v for _, v in unions], sigma, labels=[m for m, _ in unions]
            )
            assert len(reps) == 15
            hits += all(r.satisfied for r in reps)
        assert hits >= 99

    def test_centered_adjacency_is_zero_mean_noise(self):
        part = make_partition(30, 10)
        params = ModelParams(p=0.7, q=0.2, seed=8)
        noise = centered_adjacency(sample_graph(part, params), part, params)
        assert np.abs(noise).max() <= 1.0
        assert (np.diag(noise) == 0).all()


class TestBoundReport:
    def test_satisfied_iff_lhs_at_most_rhs(self):
        assert BoundReport.of("x", 1.0, 2.0).satisfied
        assert BoundReport.of("x", 2.0, 2.0).satisfied
        assert not BoundReport.of("x", 2.0 + 1e-12, 2.0).satisfied

    def test_context_passthrough(self):
        rep = BoundReport.of("x", 0.0, 1.0, n=10, mask=5)
        assert rep.context == {"n": 10, "mask": 5}


class TestDeterministicInequalitiesEverywhere:
    """The four always-true inequalities, spot-checked on assorted instances."""

    @pytest.mark.parametrize("seed", range(8))
    def test_all_four(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 70))
        k = int(rng.choice([2, 4, 5]))
        while n % k:
            n += 1
        part = make_partition(n, n // k)
        p, q = 0.75, 0.25
        params = ModelParams(p=p, q=q, seed=seed)
        sampled = sample_graph(part, params).adj
        expected = expectation_matrix(part, params)

        assert check_weyl(sampled, expected).satisfied
        spec, frob = check_projector_deviation(sampled, expected, k)
        assert frob.lhs <= frob.rhs + 1e-8
        assert spec.lhs <= 2.0 + 1e-8
        lam1 = eigh_descending(sampled).eigenvalues[0]
        assert lam1 <= np.abs(sampled).sum(axis=1).max() + 1e-8
