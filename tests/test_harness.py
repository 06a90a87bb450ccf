import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plantrec import bounds, experiment, recovery, spectral
from plantrec.baseline import baseline_common_neighbors
from plantrec.errors import DimensionMismatchError, EpsilonOutOfRangeError, ZeroSizeError
from plantrec.experiment import (
    Cell,
    DEFAULT_CHECKS,
    KNOWN_CHECKS,
    ExperimentConfig,
    run_checks,
    run_grid,
    run_trial,
    trial_seed,
)
from plantrec.model import (
    Graph,
    ModelParams,
    expectation_matrix,
    make_partition,
    permute_partition,
    sample_graph,
)
from plantrec.recovery import identify_clusters, recover_with_trace, same_partition
from plantrec.spectral import Projector, top_projector


class TestSeedDerivation:
    def test_injective_over_grid(self):
        seeds = {trial_seed(99, c, t, 64) for c in range(128) for t in range(64)}
        assert len(seeds) == 128 * 64

    def test_depends_on_seed0(self):
        a = trial_seed(1, 0, 0, 10)
        b = trial_seed(2, 0, 0, 10)
        assert a != b

    def test_stable_values(self):
        # frozen so that stored experiment outputs stay reproducible
        assert trial_seed(0, 0, 0, 1) == trial_seed(0, 0, 0, 5)
        assert trial_seed(123, 3, 7, 50) == trial_seed(123, 3, 7, 50)
        assert 0 <= trial_seed(2**63, 5, 5, 10) < 2**64


class TestConfig:
    def test_rejects_non_divisible_cell(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"n": [10], "s": [3], "p": [0.8], "q": [0.2]})

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"n": [10], "s": [5], "p": [0.3], "q": [0.5]})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"n": [10], "s": [5], "p": [0.5], "q": [0.5]})

    @pytest.mark.parametrize("p,q", [(0.5, 0.5), (0.3, 0.5), (1.5, 0.1), (0.5, -0.1), (math.nan, 0.1)])
    def test_one_probability_rule_for_params_constants_and_cells(self, p, q):
        want = f"need 0 <= q < p <= 1, got p={p}, q={q}"
        with pytest.raises(ValueError) as params:
            ModelParams(p=p, q=q, seed=0)
        with pytest.raises(ValueError) as constants:
            bounds.Constants.from_params(p, q, 1.0)
        with pytest.raises(ValueError) as cells:
            ExperimentConfig.from_dict({"n": [4], "k": [2], "p": [p], "q": [q]})
        assert str(params.value) == str(constants.value) == str(cells.value) == want

    def test_rejects_unknown_keys_and_checks(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"n": [10], "s": [5], "p": [0.8], "q": [0.2], "zzz": 1})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {"n": [10], "s": [5], "p": [0.8], "q": [0.2], "checks": ["bogus"]}
            )
        # every trial shuffles its labels, and no key turns that off
        with pytest.raises(ValueError, match="shuffle"):
            ExperimentConfig.from_dict({"n": [10], "s": [5], "p": [0.8], "q": [0.2], "shuffle": False})

    def test_requires_exactly_one_of_k_or_s(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"n": [10], "p": [0.8], "q": [0.2]})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"n": [10], "k": [2], "s": [5], "p": [0.8], "q": [0.2]})

    def test_cells_cross_product_order(self):
        cfg = ExperimentConfig.from_dict(
            {"n": [8, 12], "k": [2], "p": [0.9], "q": [0.1, 0.2], "trials": 2}
        )
        cells = cfg.cells()
        assert [(c.n, c.q) for c in cells] == [(8, 0.1), (8, 0.2), (12, 0.1), (12, 0.2)]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert all(c.s == c.n // 2 for c in cells)


class TestRunTrial:
    def test_noiseless_recovers(self):
        cell = Cell(index=0, n=30, k=3, s=10, p=1.0, q=0.0)
        rep = run_trial(cell, seed=5)
        assert rep.recovered_exactly
        assert len(rep.pivot_masses) == 3

    def test_deterministic_given_seed(self):
        cell = Cell(index=0, n=24, k=2, s=12, p=0.8, q=0.2)
        a = run_trial(cell, seed=9, checks=DEFAULT_CHECKS)
        b = run_trial(cell, seed=9, checks=DEFAULT_CHECKS)
        assert a.json_row() == b.json_row()

    def test_shuffle_changes_layout(self):
        cell = Cell(index=0, n=24, k=2, s=12, p=1.0, q=0.0)
        rep = run_trial(cell, seed=4, checks=())
        assert rep.recovered_exactly  # exactness is layout-independent

    def test_goodcol_clamps_large_measured_epsilon(self):
        cell = Cell(index=0, n=24, k=4, s=6, p=0.6, q=0.4)
        rep = run_trial(cell, seed=1, checks=("goodcol",))
        (gc,) = [r for r in rep.reports if r.name == "good_column"]
        assert gc.context["epsilon"] <= 0.1
        if gc.context["epsilon_clamped"]:
            assert gc.context["epsilon_measured"] > 0.1

    def test_checker_errors_carry_cell_context(self):
        cell = Cell(index=2, n=12, k=2, s=6, p=0.8, q=0.2)
        with pytest.raises(ValueError, match=r"cell 2: n=12"):
            run_trial(cell, seed=1, checks=("conc",), epsilon=-1.0)


class TestNoiselessTrials:
    """Sampled instances at q = 0, with p = 1 (where the sample is its
    expectation off the diagonal) or p < 1, through run_trial with every
    check, the measured epsilon and the baseline.  At k = n (s = 1) every
    round is a full solve."""

    @pytest.mark.parametrize(
        "n,k,p", [(60, 3, 1.0), (60, 2, 1.0), (40, 1, 1.0), (40, 40, 1.0), (120, 4, 0.6), (30, 30, 0.5)]
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_exact_finite_and_rerun_equal(self, n, k, p, seed):
        cell = Cell(index=0, n=n, k=k, s=n // k, p=p, q=0.0)
        rep = run_trial(cell, seed, checks=KNOWN_CHECKS, epsilon=None, baseline=True)
        assert rep.recovered_exactly and rep.baseline_exactly
        for r in rep.reports:
            assert math.isfinite(r.lhs), r
            # the projector deviation's rhs is +inf where its eigengap closes
            assert math.isfinite(r.rhs) or (r.name == "projector_deviation" and r.rhs == math.inf), r
        by_name = {r.name: r for r in rep.reports}
        if p == 1.0:
            # A - E = -I: E has p on its diagonal, the adjacency zeros
            assert by_name["norm_deviation"].lhs == 1.0
        assert by_name["projector_frobenius_rank"].satisfied
        assert run_trial(cell, seed, checks=KNOWN_CHECKS, epsilon=None, baseline=True).json_row() == rep.json_row()

    @pytest.mark.parametrize("n,k", [(40, 2), (60, 3)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_noiseless_instance_has_no_concentration_violation(self, n, k, seed):
        cell = Cell(index=0, n=n, k=k, s=n // k, p=1.0, q=0.0)
        rep = run_trial(cell, seed, checks=("conc",), epsilon=None)
        assert [r for r in rep.reports if r.name == "concentration_in"] == []


def trial_with_clusters() -> tuple:
    """(recovery result, report) of one run_trial with every check and the baseline."""
    results, recover = [], experiment.recover_with_trace
    cell = Cell(index=0, n=600, k=4, s=150, p=0.7, q=0.3)

    def recorded(g, s):
        results.append(recover(g, s))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "recover_with_trace", recorded)
        report = run_trial(cell, seed=5, checks=KNOWN_CHECKS, epsilon=None, baseline=True)
    return results[0][0], report


class TestPlatformStates:
    """A trial without LAPACK, without OpenBLAS's thread controls, or
    without both, as on an MKL build or on an Accelerate or Windows wheel,
    recovers the same clusters and gives the same verdicts as with both;
    its floats may differ in the last digits."""

    @pytest.mark.parametrize(
        "missing", [("_LAPACK",), ("_THREADS",), ("_LAPACK", "_THREADS")], ids=["lapack", "threads", "both"]
    )
    def test_same_trial_in_every_state(self, monkeypatch, missing):
        want_result, want = trial_with_clusters()
        for name in missing:
            monkeypatch.setattr(spectral, name, None)
        got_result, got = trial_with_clusters()
        assert len(got_result.clusters) == len(want_result.clusters) == 4
        assert all(map(np.array_equal, got_result.clusters, want_result.clusters))
        assert np.array_equal(got_result.leftover, want_result.leftover)
        assert got.recovered_exactly == want.recovered_exactly
        assert got.baseline_exactly == want.baseline_exactly
        assert [(r.name, r.satisfied) for r in got.reports] == [(r.name, r.satisfied) for r in want.reports]
        assert [r.lhs for r in got.reports] == pytest.approx([r.lhs for r in want.reports], rel=1e-12, abs=0)
        assert got.pivot_masses == pytest.approx(want.pivot_masses, rel=1e-12, abs=0)


def noise_instance(n, k, seed):
    """A shuffled instance of n vertices in k clusters at p = 0.7, q = 0.3,
    as run_trial samples it."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    part = permute_partition(make_partition(n, n // k), rng.permutation(n))
    params = ModelParams(p=0.7, q=0.3, seed=seed)
    return sample_graph(part, params), part, params


def dense_noise(g, part, params):
    """The n x n float64 noise matrix with a zero diagonal, written as the
    checks wrote it before they gathered from a NoiseView: a - q everywhere,
    then a - p on each cluster's block, then the diagonal."""
    noise = np.subtract(g.adj, params.q, dtype=np.float64)
    for cluster in part.clusters():
        block = np.ix_(cluster, cluster)
        noise[block] = np.subtract(g.adj[block], params.p, dtype=np.float64)
    np.fill_diagonal(noise, 0.0)
    return noise


def dense_noise_checks(g, part, params):
    """(norm lhs, fk lhs list) of the norm and fk checks solved on the dense
    n x n noise matrix, as run_checks solved them before it gathered its
    copies from a NoiseView: where LAPACK does not resolve, from numpy's
    eigvalsh of each submatrix gathered from the matrix."""
    unions = bounds.cluster_unions(part, seed=params.seed)
    sigma = bounds.Constants.from_params(params.p, params.q, c=1.0).sigma
    proper = [v for _, v in unions if v.size < part.n]
    noise = dense_noise(g, part, params)
    if spectral._LAPACK is None:
        ends = [np.linalg.eigvalsh(noise[np.ix_(v, v)])[[0, -1]] for v in proper]
        fk = [max(abs(lowest), abs(highest)) for lowest, highest in ends]
    else:
        fk = [r.lhs for r in bounds.check_fk_submatrices(noise, proper, sigma)] if proper else []
    np.fill_diagonal(noise, -params.p)
    if spectral._LAPACK is None:
        lowest, highest = np.linalg.eigvalsh(noise)[[0, -1]]
    else:
        lowest, highest = spectral._solve_extremes(noise)
    if len(proper) < len(unions):
        fk.append(max(abs(lowest + params.p), abs(highest + params.p)))
    return max(abs(lowest), abs(highest)), fk


# (n, k): the trial_checks shape; s = 1, where every set is small and the
# FK batch runs serially; k = 13 > MAX_ENUMERATE_K, where the masks are sampled
NOISE_SHAPES = [(1200, 6), (40, 40), (26, 13)]


class TestNoiseView:
    """The solve copies the checks gather from the uint8 adjacency carry the
    bits of those gathered from the dense noise matrix, so every norm the
    checks report is the dense path's, bit for bit."""

    @pytest.mark.parametrize("n,k", NOISE_SHAPES)
    def test_every_copy_is_the_dense_matrixs(self, n, k):
        g, part, params = noise_instance(n, k, seed=n + k)
        dense = dense_noise(g, part, params)
        sets = [None] + [v for _, v in bounds.cluster_unions(part, seed=params.seed)]
        for diagonal in (0.0, -params.p):
            view = bounds.NoiseView(g, part, params, diagonal=diagonal)
            assert view.shape == (n, n)
            np.fill_diagonal(dense, diagonal)
            for index in sets:
                got, want = spectral._solve_copy(view, index), spectral._solve_copy(dense, index)
                assert got.tobytes() == want.tobytes(), (diagonal, index)

    @pytest.mark.parametrize("n,k", NOISE_SHAPES)
    @pytest.mark.parametrize(
        "missing", [(), ("_LAPACK",), ("_THREADS",), ("_LAPACK", "_THREADS")], ids=["all", "lapack", "threads", "both"]
    )
    def test_norms_equal_the_dense_paths(self, monkeypatch, n, k, missing):
        for name in missing:
            monkeypatch.setattr(spectral, name, None)
        g, part, params = noise_instance(n, k, seed=n + k)
        reports = run_checks(g, part, params, ("norm", "fk"), 0.1)
        norm, fk = dense_noise_checks(g, part, params)
        assert [r.lhs for r in reports if r.name == "norm_deviation"] == [norm]
        assert [r.lhs for r in reports if r.name == "fk_submatrix"] == fk

    def test_dense_form_is_the_views(self):
        g, part, params = noise_instance(60, 3, seed=2)
        dense = bounds.centered_adjacency(g, part, params)
        assert dense.tobytes() == dense_noise(g, part, params).tobytes()
        blocks = list(bounds.NoiseView(g, part, params).row_blocks())
        assert [i for i, _ in blocks] == [0, 32]
        for i, block in blocks:
            assert block.tobytes() == dense[i : i + 32, i:].tobytes()

    def test_partition_must_match_the_graph(self):
        g, part, params = noise_instance(60, 3, seed=2)
        with pytest.raises(DimensionMismatchError):
            bounds.NoiseView(g, make_partition(30, 10), params)


def oracle_checks(g, part, params, checks, epsilon):
    """The checks composed from the public matrix checkers, each solving its
    own matrices numerically (the expected matrix included)."""
    ctx = {"n": part.n, "k": part.k, "s": part.s, "p": params.p, "q": params.q,
           "seed": params.seed, "mask": (1 << part.k) - 1}
    sampled, expected = g.adj, expectation_matrix(part, params)
    reports = []
    eps = epsilon
    if "norm" in checks:
        reports.append(bounds.check_norm_deviation(sampled, expected, **ctx))
    if "proj" in checks:
        spec, frob = bounds.check_projector_deviation(sampled, expected, part.k, **ctx)
        reports += [spec, frob]
        if eps is None:
            eps = max(spec.lhs, 1e-12)
    if eps is None and {"conc", "goodcol"} & set(checks):
        eps = max(bounds.empirical_epsilon(sampled, expected, part.k), 1e-12)
    if "conc" in checks:
        conc_ctx = {key: v for key, v in ctx.items() if key not in ("p", "q")}
        reports += bounds.check_concentration(g, part, params.p, params.q, eps, **conc_ctx)
    if "fk" in checks:
        unions = bounds.cluster_unions(part, seed=params.seed)
        sigma = bounds.Constants.from_params(params.p, params.q, c=1.0).sigma
        fk_ctx = {key: ctx[key] for key in ("n", "k", "s", "p", "q", "seed")}
        reports += bounds.check_fk_submatrices(
            bounds.centered_adjacency(g, part, params), [v for _, v in unions], sigma,
            labels=[m for m, _ in unions], **fk_ctx,
        )
    if "goodcol" in checks:
        gc_ctx = {key: v for key, v in ctx.items() if key != "s"}
        reports.append(bounds.check_good_column(
            top_projector(sampled, part.k), part, min(eps, 0.1),
            epsilon_measured=eps, epsilon_clamped=min(eps, 0.1) != eps, **gc_ctx,
        ))
    return reports


def close(x, y) -> bool:
    # the absolute floor covers values that are rounding noise, such as the
    # projector deviation of a noiseless instance (about 1e-16 either way)
    return x == y or math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)


def assert_same_reports(got, want):
    assert [r.name for r in got] == [r.name for r in want]
    for g, w in zip(got, want):
        assert close(g.lhs, w.lhs) and close(g.rhs, w.rhs), (g, w)
        # a verdict decided by rounding (lhs and rhs equal up to it) may differ
        if not close(w.lhs, w.rhs):
            assert g.satisfied == w.satisfied, (g, w)
        assert g.context.keys() == w.context.keys()
        for key, value in w.context.items():
            if isinstance(value, float):
                assert close(g.context[key], value), (key, g, w)
            else:
                assert g.context[key] == value, (key, g, w)


@st.composite
def instances(draw):
    k = draw(st.integers(1, 4))
    s = draw(st.integers(1, 6))
    p, q = draw(st.sampled_from([(0.7, 0.3), (0.9, 0.1), (0.55, 0.45), (1.0, 0.0), (0.6, 0.0), (1.0, 0.5)]))
    seed = draw(st.integers(0, 2**64 - 1))
    part = make_partition(k * s, s)
    perm = np.random.default_rng(seed % 2**32).permutation(k * s)
    return permute_partition(part, perm), ModelParams(p=p, q=q, seed=seed)


class TestRunChecks:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        instances(),
        st.lists(st.sampled_from(KNOWN_CHECKS), unique=True),
        st.one_of(st.none(), st.sampled_from([0.05, 0.1, 0.3])),
        st.booleans(),
    )
    @example((make_partition(8, 8), ModelParams(p=0.7, q=0.3, seed=1)), list(KNOWN_CHECKS), None, True)
    @example((make_partition(5, 1), ModelParams(p=0.7, q=0.3, seed=2)), list(KNOWN_CHECKS), None, False)
    @example((make_partition(12, 4), ModelParams(p=1.0, q=0.0, seed=3)), list(KNOWN_CHECKS), None, True)
    @example((make_partition(12, 4), ModelParams(p=0.6, q=0.0, seed=4)), list(KNOWN_CHECKS), None, False)
    @example((make_partition(12, 4), ModelParams(p=0.6, q=0.0, seed=4)), ["conc", "goodcol"], None, True)
    def test_matches_the_public_checkers(self, instance, checks, epsilon, round0):
        part, params = instance
        g = sample_graph(part, params)
        trace = recover_with_trace(g, part.s)[1][0] if round0 else None
        got = run_checks(g, part, params, checks, epsilon, round0=trace)
        assert_same_reports(got, oracle_checks(g, part, params, checks, epsilon))

    def test_one_solve_of_the_graph_per_trial(self, iterative_off, monkeypatch):
        cell = Cell(index=0, n=60, k=3, s=20, p=0.8, q=0.2)
        solve_sizes, eigh_sizes, value_sizes, eigvalsh_sizes = [], [], [], []
        solve_top, eigh, eigvalsh = spectral._solve_top, np.linalg.eigh, np.linalg.eigvalsh
        solve_extremes = spectral._solve_extremes
        monkeypatch.setattr(
            spectral, "_solve_top", lambda a, rank: solve_sizes.append(len(a)) or solve_top(a, rank)
        )
        monkeypatch.setattr(
            spectral,
            "_solve_extremes",
            lambda a, index=None: value_sizes.append(a.shape[0] if index is None else len(index))
            or solve_extremes(a, index),
        )
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_sizes.append(len(a)) or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh_sizes.append(len(a)) or eigvalsh(a))
        run_trial(cell, seed=3, checks=KNOWN_CHECKS, epsilon=None, baseline=True)
        # one top-r solve per recovery round on the shrinking graph, none on E
        assert solve_sizes == [60, 40, 20]
        # and no full solve, except inside the top-r solve where LAPACK does not resolve
        assert eigh_sizes == ([] if spectral._LAPACK else solve_sizes)
        # A - E itself first, for ||A - E|| and the union of all 3 clusters,
        # then the 6 proper cluster unions of the FK check (solved
        # concurrently, so in any order); ||P_A - P_E|| comes from the
        # principal angles, with no m x m solve
        assert value_sizes[0] == 60
        assert sorted(value_sizes[1:], reverse=True) == [40, 40, 40, 20, 20, 20]
        # eigvalsh runs only where LAPACK does not resolve
        assert eigvalsh_sizes == ([] if spectral._LAPACK else value_sizes)

    @pytest.mark.parametrize("seed,whole", [(0, True), (1, False), (2, False), (3, False), (4, True), (5, True)])
    def test_fk_alone_solves_a_minus_e_only_for_the_union_of_every_cluster(self, monkeypatch, seed, whole):
        # k = 13 > MAX_ENUMERATE_K: fk samples 4096 of the 2^13 - 1 unions,
        # with the union of all 13 clusters at seeds 0, 4 and 5 only; that
        # one is read from a solve of A - E, and no report reads A - E else
        part, params = make_partition(65, 5), ModelParams(p=0.8, q=0.2, seed=seed)
        g = sample_graph(part, params)
        masks = [mask for mask, _ in bounds.cluster_unions(part, seed=seed)]
        assert len(masks) == bounds.UNION_SAMPLE_LIMIT and (masks[-1] == (1 << 13) - 1) is whole
        sizes, solve = [], spectral._solve_extremes
        monkeypatch.setattr(
            spectral,
            "_solve_extremes",
            lambda a, index=None: sizes.append(a.shape[0] if index is None else len(index)) or solve(a, index),
        )
        reports = run_checks(g, part, params, ["fk"], 0.1)
        assert len(sizes) == len(reports) == 4096
        assert sizes.count(65) == int(whole)
        assert [r.context["mask"] for r in reports] == masks

    def test_checks_build_no_dense_noise_matrix(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a check built the n x n noise matrix")

        monkeypatch.setattr(bounds, "centered_adjacency", refused)
        cell = Cell(index=0, n=120, k=4, s=30, p=0.7, q=0.3)
        rep = run_trial(cell, seed=6, checks=KNOWN_CHECKS, epsilon=None, baseline=True)
        assert {r.name for r in rep.reports} >= {"norm_deviation", "projector_deviation", "fk_submatrix"}

    def test_goodcol_reads_recoverys_round_0(self, monkeypatch):
        # recovery has ranked every column of round 0: goodcol reads its pivot,
        # candidate set and mass, and ranks no column again
        cell, seed = Cell(index=0, n=120, k=3, s=40, p=0.7, q=0.3), 11
        calls, rank = [], recovery.all_candidate_sets
        monkeypatch.setattr(recovery, "all_candidate_sets", lambda *a: calls.append("recovery") or rank(*a))
        monkeypatch.setattr(bounds, "all_candidate_sets", lambda *a: calls.append("bounds") or rank(*a))
        (got,) = run_trial(cell, seed, checks=("goodcol",), epsilon=None).reports
        assert calls == ["recovery"] * 3
        monkeypatch.undo()
        # the trial's instance, shuffled and sampled as run_trial does
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        part = permute_partition(make_partition(cell.n, cell.s), rng.permutation(cell.n))
        params = ModelParams(p=cell.p, q=cell.q, seed=seed)
        projector = recover_with_trace(sample_graph(part, params), cell.s)[1][0].projector
        expected = Projector(basis=np.eye(cell.k)[part.assignment] / math.sqrt(cell.s))
        eps = max(float(bounds._projector_distance(projector, expected)[0]), 1e-12)
        ctx = {"n": cell.n, "k": cell.k, "s": cell.s, "p": cell.p, "q": cell.q, "seed": seed, "mask": 7}
        want = bounds.check_good_column(
            projector, part, min(eps, 0.1), epsilon_measured=eps, epsilon_clamped=min(eps, 0.1) != eps, **ctx
        )
        assert (got.name, got.lhs, got.rhs, got.satisfied) == (want.name, want.lhs, want.rhs, want.satisfied)
        assert got.context == want.context
        assert list(got.context) == list(want.context)

    @pytest.mark.parametrize("round0", [False, True])
    def test_frobenius_rank_at_k_one_is_equality(self, round0):
        # both sides come from the one principal angle, so the verdict of an
        # inequality that holds with equality does not hang on rounding
        part = make_partition(12, 12)
        params = ModelParams(p=0.7, q=0.2, seed=3)
        g = sample_graph(part, params)
        trace = recover_with_trace(g, part.s)[1][0] if round0 else None
        reports = run_checks(g, part, params, ("proj",), None, round0=trace)
        (frob,) = [r for r in reports if r.name == "projector_frobenius_rank"]
        assert frob.lhs == frob.rhs > 0
        assert frob.satisfied

    def test_checks_hold_one_noise_matrix(self):
        # A - E is the one n x n float64 matrix that norm and proj build; the
        # solve's own copy is LAPACK's, which tracemalloc does not see
        n = 600
        part = make_partition(n, 200)
        params = ModelParams(p=0.7, q=0.3, seed=1)
        g = sample_graph(part, params)
        round0 = recover_with_trace(g, part.s)[1][0]
        tracemalloc.start()
        try:
            run_checks(g, part, params, ("norm", "proj"), 0.1, round0=round0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n

    def test_fk_reads_the_all_cluster_union_in_place(self):
        # the union of every cluster is A - E itself, not an n x n copy of it
        n = 600
        part = make_partition(n, 200)
        params = ModelParams(p=0.7, q=0.3, seed=1)
        g = sample_graph(part, params)
        tracemalloc.start()
        try:
            run_checks(g, part, params, ("fk",), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * n * n

    def test_report_order_ignores_the_order_asked(self):
        part = make_partition(12, 4)
        params = ModelParams(p=0.8, q=0.2, seed=5)
        g = sample_graph(part, params)
        forward = run_checks(g, part, params, KNOWN_CHECKS, None)
        backward = run_checks(g, part, params, KNOWN_CHECKS[::-1], None)
        assert [r.name for r in forward] == [r.name for r in backward]
        assert [(r.lhs, r.rhs) for r in forward] == [(r.lhs, r.rhs) for r in backward]

    def test_projector_of_the_wrong_rank_rejected(self):
        part = make_partition(12, 4)
        params = ModelParams(p=0.8, q=0.2, seed=5)
        g = sample_graph(part, params)
        # round 0 of recovery at s = 6, of rank 2 where the partition has k = 3
        with pytest.raises(DimensionMismatchError):
            run_checks(g, part, params, ("proj",), None, round0=recover_with_trace(g, 6)[1][0])

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        part = make_partition(12, 4)
        params = ModelParams(p=0.8, q=0.2, seed=5)
        g = sample_graph(part, params)
        with pytest.raises(EpsilonOutOfRangeError):
            run_checks(g, part, params, ("conc",), epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            ExperimentConfig.from_dict(
                {"n": [12], "k": [3], "p": [0.8], "q": [0.2], "epsilon": epsilon}
            )


class TestRunGrid:
    def test_single_cell_single_trial(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"n": [12], "k": [2], "p": [0.9], "q": [0.1], "trials": 1, "seed0": 3}
        )
        summaries = run_grid(cfg, tmp_path)
        assert len(summaries) == 1
        lines = (tmp_path / "trials.jsonl").read_text().splitlines()
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["n"] == 12 and row["trial"] == 0
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 2  # header + one cell

    def test_invalid_cell_rejected_before_the_output_directory(self, tmp_path):
        # built directly, so from_dict's validation does not run first
        cfg = ExperimentConfig(
            ns=(0,), ks=None, ss=(3,), ps=(0.7,), qs=(0.3,), trials=1, seed0=0, checks=()
        )
        with pytest.raises(ValueError, match="n must be at least 1"):
            run_grid(cfg, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_bool_probability_rejected_before_the_output_directory(self, tmp_path):
        cfg = ExperimentConfig(
            ns=(4,), ks=(2,), ss=None, ps=(True,), qs=(0.0,), trials=1, seed0=0, checks=()
        )
        with pytest.raises(ValueError, match="p and q must be numbers"):
            run_grid(cfg, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_numpy_probabilities_write_the_bytes_of_python_floats(self, tmp_path):
        # built directly, as from_dict turns every number into a Python float
        def config(p, q):
            return ExperimentConfig(
                ns=(12,), ks=(2,), ss=None, ps=(p,), qs=(q,), trials=2, seed0=5, checks=KNOWN_CHECKS
            )

        run_grid(config(0.8, 0.2), tmp_path / "python")
        run_grid(config(np.float64(0.8), np.float64(0.2)), tmp_path / "numpy")
        for name in ("trials.jsonl", "bounds.csv", "aggregate.csv"):
            assert (tmp_path / "python" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        raw = {
            "n": [20],
            "k": [2],
            "p": [0.8],
            "q": [0.2],
            "trials": 3,
            "seed0": 7,
            "checks": ["norm", "proj", "conc"],
            "baseline": True,
        }
        cfg = ExperimentConfig.from_dict(raw)
        run_grid(cfg, tmp_path / "a")
        run_grid(cfg, tmp_path / "b")
        for name in ("trials.jsonl", "bounds.csv", "aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_parallel_output_matches_serial(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"n": [16, 20], "k": [2], "p": [0.8], "q": [0.2], "trials": 3, "seed0": 1}
        )
        run_grid(cfg, tmp_path / "serial", jobs=1)
        run_grid(cfg, tmp_path / "par", jobs=2)
        for name in ("trials.jsonl", "bounds.csv", "aggregate.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()

    @pytest.mark.parametrize(
        "jobs,trials,cores,want",
        [(100000, 2, 4, 2), (100000, 2, 1, None), (3, 6, 8, 3), (8, 6, 2, 2), (2, 1, 8, None)],
    )
    def test_workers_capped_by_trials_and_cores(self, tmp_path, monkeypatch, jobs, trials, cores, want):
        # a stand-in pool that records its size and runs the trials in this
        # process; None: no pool is made and the trials run serially
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(spectral, "_workers", lambda: cores)
        cfg = ExperimentConfig.from_dict(
            {"n": [12], "k": [2], "p": [0.9], "q": [0.1], "trials": trials, "seed0": 3, "checks": []}
        )
        run_grid(cfg, tmp_path, jobs=jobs)
        assert made == ([] if want is None else [want])
        assert len((tmp_path / "trials.jsonl").read_text().splitlines()) == trials

    def test_success_rate_non_increasing_in_q(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "n": [40],
                "k": [4],
                "p": [0.8],
                "q": [0.1, 0.2, 0.3, 0.4],
                "trials": 50,
                "seed0": 11,
                "checks": [],
            }
        )
        rates = [s.success_rate for s in run_grid(cfg, tmp_path)]
        assert all(b <= a + 0.04 for a, b in zip(rates, rates[1:]))
        assert rates[-1] < rates[0] - 0.5

    def test_aggregate_is_pure_fold_of_trials(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"n": [20], "k": [2], "p": [0.9], "q": [0.1], "trials": 4, "seed0": 5}
        )
        summaries = run_grid(cfg, tmp_path)
        rows = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
        recomputed = sum(1 for r in rows if r["exact"]) / len(rows)
        assert summaries[0].success_rate == recomputed


def _reference_counts(g, part):
    """Neighbor counts into each cluster by an int64 product with the
    one-hot cluster matrix."""
    onehot = np.zeros((part.n, part.k), dtype=np.int64)
    onehot[np.arange(part.n), part.assignment] = 1
    return g.adj.astype(np.int64) @ onehot


def _reference_baseline(g, s):
    """The common-neighbor baseline on an int64 copy of the adjacency."""
    active = np.arange(g.n, dtype=np.int64)
    adj = g.adj.astype(np.int64)
    clusters = []
    while active.size >= s:
        common = adj @ adj[:, 0]
        common[0] = -1
        members = np.sort(np.append(np.argsort(-common, kind="stable")[: s - 1], 0))
        clusters.append(active[members])
        keep = np.setdiff1d(np.arange(active.size), members)
        active = active[keep]
        adj = adj[np.ix_(keep, keep)]
    return clusters, active


class TestAgainstIntegerProducts:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances())
    def test_centered_adjacency_is_sampled_minus_expected(self, instance):
        part, params = instance
        g = sample_graph(part, params)
        want = g.adj - (expectation_matrix(part, params) - params.p * np.eye(part.n))
        assert np.array_equal(bounds.centered_adjacency(g, part, params), want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances())
    def test_concentration_counts(self, instance):
        part, params = instance
        g = sample_graph(part, params)
        counts = _reference_counts(g, part)
        # a floor of 1.99s - 2 (above s - 1 from s = 2 on) and a ceiling of
        # -1/2 make every count a violation (the checker marks own entries
        # -1 when it looks for the others), so the reports carry them all:
        # own counts first, then the others in row-major order; at s = 1 the
        # floor is below 0 and no own count can fall under it
        reps = bounds.check_concentration(g, part, 2.0, -0.01 - 0.5 / part.s, 0.01)[2:]
        own = counts[np.arange(part.n), part.assignment]
        others = counts[np.arange(part.k) != part.assignment[:, None]]
        if part.s == 1:
            assert [r for r in reps if r.name == "concentration_in"] == []
            assert [r.lhs for r in reps] == others.tolist()
        else:
            assert [r.rhs for r in reps[: part.n]] == own.tolist()
            assert [r.lhs for r in reps[part.n :]] == others.tolist()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(instances())
    def test_baseline_clusters(self, instance):
        part, params = instance
        g = sample_graph(part, params)
        for s in {1, part.s, max(1, part.n // 2)}:
            result = baseline_common_neighbors(g, s)
            clusters, leftover = _reference_baseline(g, s)
            assert [c.tolist() for c in result.clusters] == [c.tolist() for c in clusters]
            assert result.leftover.tolist() == leftover.tolist()


@st.composite
def random_graphs(draw):
    """A graph of 1 to 60 vertices at any density, vertex 0 isolated in
    some, and a cluster size in 1..n."""
    n = draw(st.integers(1, 60))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    if draw(st.booleans()):
        upper[0] = False
    adj = (upper | upper.T).astype(np.uint8)
    return Graph(adj=adj), draw(st.integers(1, n))


class TestBaseline:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(random_graphs())
    @example((Graph(adj=np.zeros((5, 5), dtype=np.uint8)), 2))
    @example((Graph(adj=np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)), 1))
    def test_equals_the_reference_on_random_graphs(self, case):
        g, s = case
        result = baseline_common_neighbors(g, s)
        clusters, leftover = _reference_baseline(g, s)
        assert [c.tolist() for c in result.clusters] == [c.tolist() for c in clusters]
        assert result.leftover.tolist() == leftover.tolist()

    def test_noiseless_exact(self):
        part = make_partition(20, 5)
        g = sample_graph(part, ModelParams(p=1.0, q=0.0, seed=0))
        result = baseline_common_neighbors(g, 5)
        assert same_partition(result, part)

    def test_complete_graph_takes_smallest_available(self):
        part = make_partition(9, 9)
        g = sample_graph(part, ModelParams(p=1.0, q=0.0, seed=0))
        result = baseline_common_neighbors(g, 3)
        assert [list(c) for c in result.clusters] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_leftover_when_not_multiple(self):
        part = make_partition(10, 5)
        g = sample_graph(part, ModelParams(p=1.0, q=0.0, seed=0))
        result = baseline_common_neighbors(g, 4)
        assert len(result.clusters) == 2
        assert result.leftover.size == 2

    def test_zero_size_rejected(self):
        g = sample_graph(make_partition(4, 2), ModelParams(p=0.9, q=0.1, seed=0))
        with pytest.raises(ZeroSizeError):
            baseline_common_neighbors(g, 0)

    def test_not_better_than_spectral_at_scale(self):
        # comparison on a shared seed set; the spectral route should win or tie
        part = make_partition(60, 15)
        spectral_wins = baseline_wins = 0
        for seed in range(15):
            g = sample_graph(part, ModelParams(p=0.7, q=0.3, seed=seed))
            spectral_wins += same_partition(identify_clusters(g, 15), part)
            baseline_wins += same_partition(baseline_common_neighbors(g, 15), part)
        assert baseline_wins <= spectral_wins
