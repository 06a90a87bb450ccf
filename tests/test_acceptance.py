"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The noiseless sweep (criterion 1) covers cluster shapes
from k=1 to k=120 and s=1 to s=600 under a fixed compute budget; enumerating
every divisor pair up to n=600 would take hours of eigensolves, far beyond
the criterion's own five-minute cap.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from plantrec.bounds import check_norm_deviation, check_weyl, empirical_epsilon
from plantrec.cli import main as cli_main
from plantrec.experiment import Cell, ExperimentConfig, run_grid, run_trial, trial_seed
from plantrec.model import (
    ModelParams,
    expectation_matrix,
    make_partition,
    sample_graph,
)
from plantrec.recovery import identify_clusters, same_partition
from plantrec.spectral import eigh_descending, spectral_norm, top_projector
from plantrec.bounds import theoretical_spectrum

from oracles import cluster_matrix, dense_projector


def _record(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


NOISELESS_PAIRS = sorted(
    {
        (k, s)
        for k in range(1, 7)
        for s in (1, 2, 3, 5, 10, 25, 50, 100)
    }
    | {(1, 600), (2, 300), (3, 200), (4, 150), (5, 120), (6, 100)}
    | {(8, 25), (8, 40), (10, 10), (12, 8), (15, 6), (20, 5), (25, 4), (40, 2), (50, 2), (60, 2), (100, 1), (120, 1)}
)


def test_criterion_01_noiseless_oracle():
    start = time.perf_counter()
    failures = []
    runs = 0
    for idx, (k, s) in enumerate(NOISELESS_PAIRS):
        cell = Cell(index=idx, n=k * s, k=k, s=s, p=1.0, q=0.0)
        for t in range(20):
            seed = trial_seed(1, idx, t, 20)
            rep = run_trial(cell, seed, checks=())
            runs += 1
            if not rep.recovered_exactly:
                failures.append((k, s, seed))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _record(
        1,
        "noiseless recovery exact on every (k, s) shape, 20 seeds each",
        ok,
        f"{runs} runs over {len(NOISELESS_PAIRS)} shapes, {elapsed:.1f}s, failures={failures[:3]}",
    )


def test_criterion_02_closed_form_spectrum():
    worst = 0.0
    for l, s, (p, q) in itertools.product(
        range(1, 7), (5, 20, 60), ((0.9, 0.1), (0.7, 0.3), (1.0, 0.0))
    ):
        part = make_partition(l * s, s)
        got = eigh_descending(expectation_matrix(part, ModelParams(p=p, q=q, seed=0))).eigenvalues
        want = theoretical_spectrum(l, s, p, q)
        worst = max(worst, float(np.abs(got - want).max() / max(1.0, np.abs(want).max())))
    _record(2, "expectation spectrum matches closed form within 1e-9 relative", worst <= 1e-9,
            f"worst relative error {worst:.2e}")


def test_criterion_03_projector_identity():
    worst = 0.0
    for l, s, (p, q) in itertools.product(
        range(1, 7), (5, 20, 60), ((0.9, 0.1), (0.7, 0.3), (1.0, 0.0))
    ):
        part = make_partition(l * s, s)
        proj = top_projector(expectation_matrix(part, ModelParams(p=p, q=q, seed=0)), l)
        worst = max(worst, float(np.linalg.norm(dense_projector(proj) - cluster_matrix(part) / s, "fro")))
    _record(3, "rank-k projector of the expectation equals the scaled co-membership matrix",
            worst <= 1e-8, f"worst Frobenius error {worst:.2e}")


def test_criterion_04_deterministic_inequalities():
    ns = (40, 80, 120, 200, 280, 400)
    ks = (2, 4, 5)
    pqs = ((0.9, 0.1), (0.7, 0.3), (0.8, 0.2), (0.6, 0.2), (1.0, 0.0))
    tol = 1e-8
    violations = []
    for i in range(200):
        n, k = ns[i % len(ns)], ks[i % len(ks)]
        p, q = pqs[i % len(pqs)]
        part = make_partition(n, n // k)
        params = ModelParams(p=p, q=q, seed=i)
        sampled_full = sample_graph(part, params).adj
        expected_full = expectation_matrix(part, params)
        # restrict to a seeded random nonempty union of clusters
        rng = np.random.default_rng(i)
        mask = int(rng.integers(1, 2**k))
        union = np.flatnonzero((mask >> part.assignment) & 1)
        sampled = sampled_full[np.ix_(union, union)]
        expected = expected_full[np.ix_(union, union)]
        l = bin(mask).count("1")

        dec_s = eigh_descending(sampled)
        dec_e = eigh_descending(expected)
        dev = spectral_norm(sampled - expected)
        if np.abs(dec_s.eigenvalues - dec_e.eigenvalues).max() > dev + tol:
            violations.append((i, "weyl"))
        diff = (
            dec_s.eigenvectors[:, :l] @ dec_s.eigenvectors[:, :l].T
            - dec_e.eigenvectors[:, :l] @ dec_e.eigenvectors[:, :l].T
        )
        dev2 = spectral_norm(diff)
        if np.linalg.norm(diff, "fro") ** 2 > 2 * l * dev2**2 + tol:
            violations.append((i, "frobenius-rank"))
        if dev2 > 2.0 + tol:
            violations.append((i, "projector-bound"))
        if dec_s.eigenvalues[0] > np.abs(sampled).sum(axis=1).max() + tol:
            violations.append((i, "row-sum"))
    _record(4, "Weyl, rank-2l Frobenius, projector <= 2, and row-sum bounds on 200 instances",
            not violations, f"violations={violations[:5]}")


def test_criterion_05_norm_bound_on_all_unions():
    part = make_partition(240, 60)
    satisfied = total = 0
    masks = range(1, 16)
    for seed in range(100):
        params = ModelParams(p=0.7, q=0.3, seed=seed)
        sampled = sample_graph(part, params).adj
        expected = expectation_matrix(part, params)
        for mask in masks:
            union = np.flatnonzero((mask >> part.assignment) & 1)
            rep = check_norm_deviation(
                sampled[np.ix_(union, union)], expected[np.ix_(union, union)]
            )
            satisfied += rep.satisfied
            total += 1
    rate = satisfied / total
    _record(5, "submatrix norm deviation within 8*sqrt(m) on all 15 unions x 100 seeds",
            total == 1500 and rate >= 0.99, f"rate {rate:.4f}")


def test_criterion_06_projector_concentration_trend():
    medians = []
    for n in (200, 400, 800):
        devs = []
        for seed in range(20):
            part = make_partition(n, n // 4)
            params = ModelParams(p=0.8, q=0.2, seed=seed)
            devs.append(
                empirical_epsilon(
                    sample_graph(part, params).adj, expectation_matrix(part, params), 4
                )
            )
        medians.append(float(np.median(devs)))
    ok = medians[0] > medians[1] > medians[2]
    _record(6, "median projector deviation strictly decreases along n=200,400,800",
            ok, "medians " + ", ".join(f"{m:.4f}" for m in medians))


def test_criterion_07_end_to_end_recovery():
    start = time.perf_counter()
    cell = Cell(index=0, n=800, k=4, s=200, p=0.7, q=0.3)
    exact = 0
    for t in range(50):
        rep = run_trial(cell, trial_seed(7, 0, t, 50), checks=())
        exact += rep.recovered_exactly
    elapsed = time.perf_counter() - start
    rate = exact / 50
    # far below the guarantee regime: admissible_c(0.7, 0.3) = 450 would need
    # s >= 450*sqrt(n), so the rate is an empirical observation only
    _record(7, "exact recovery rate at n=800, k=4, p=0.7, q=0.3 over 50 seeds",
            rate >= 0.95 and elapsed < 1800.0, f"rate {rate:.2f}, {elapsed:.1f}s single-threaded")


def test_criterion_08_small_instance_ml_oracle():
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
    truth_halves = (frozenset(range(4)), frozenset(range(4, 8)))
    agree = total = 0
    for seed in range(50):
        g = sample_graph(part, ModelParams(p=0.95, q=0.05, seed=seed))
        if ml_bipartition(g.adj, 0.95, 0.05) not in truth_halves:
            continue
        total += 1
        agree += same_partition(identify_clusters(g, 4), part)
    rate = agree / total if total else 0.0
    _record(8, "agreement with the brute-force ML bipartition when ML finds the truth",
            total > 0 and rate >= 0.9, f"{agree}/{total} seeds")


def test_criterion_09_constants_command(capsys):
    def constants_output(p, q):
        assert cli_main(["constants", "--p", str(p), "--q", str(q)]) == 0
        values = {}
        for line in capsys.readouterr().out.splitlines():
            key, _, value = line.partition(" = ")
            values[key] = value
        return values

    unit = constants_output(1.0, 0.0)
    half = constants_output(0.75, 0.25)
    ok = (
        float(unit["admissible_c"]) == 88.0
        and float(half["admissible_c"]) == 288.0
        and float(unit["epsilon"]) == 8.0 / ((1.0 - 0.0) * 88.0 - 8.0)
        and float(half["epsilon"]) == 8.0 / ((0.75 - 0.25) * 288.0 - 8.0)
    )
    with capsys.disabled():
        _record(9, "constants subcommand reproduces the guarantee formulas exactly", ok,
                f"c(1)={unit['admissible_c']} c(0.5)={half['admissible_c']}")


def test_criterion_10_experiment_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "n": [24],
            "k": [2, 4],
            "p": [0.8],
            "q": [0.2],
            "trials": 3,
            "seed0": 13,
            "checks": ["norm", "proj", "conc"],
            "baseline": True,
        }
    )
    run_grid(cfg, tmp_path / "first")
    run_grid(cfg, tmp_path / "second")
    identical = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("trials.jsonl", "bounds.csv", "aggregate.csv")
    )
    _record(10, "repeated experiment runs produce byte-identical CSV/JSON outputs", identical)
