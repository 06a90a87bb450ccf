"""Experiment grid runner: per-trial pipeline, seed derivation, serialization.

A grid is the product of (n, k) x p x q cells with a fixed number of trials
per cell.  Trial seeds come from a 64-bit mix of (seed0, cell index, trial
index), so any trial can be reproduced in isolation and no two trials in a
grid share a seed.  Every trial relabels the canonical partition with a
seed-derived random permutation before sampling, so nothing downstream can
exploit the contiguous layout.

Outputs are deterministic byte-for-byte for a fixed config: trials.jsonl (raw
per-trial rows, with no wall times), bounds.csv (every bound report), and
aggregate.csv (per-cell success and satisfaction rates).

`run_checks` is the one bound-check pipeline, used by `run_trial` and by
`plantrec verify`.  A trial makes one eigendecomposition of the full graph:
recovery's round 0, whose projector and pivot the checks reuse.  The expected matrix
E = (p-q) Z Z^T + q 11^T is never solved; its top-k projector Z Z^T / s and
its k-th eigenvalue are taken in closed form.  The checks solve the noise
A - E for the two ends of its spectrum once, before any report, and only
when norm, proj or fk's union of every cluster reads them; fk's other
unions follow in one batch.
"""

from __future__ import annotations

import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds, spectral
from .baseline import baseline_common_neighbors
from .errors import DimensionMismatchError, EpsilonOutOfRangeError, PlantrecError
from .io import _format_cell, write_reports_csv
from .model import (
    ModelParams,
    make_partition,
    permute_partition,
    require_adjacency_memory,
    require_edge_probabilities,
    require_vertex_count,
    sample_graph,
)
from .recovery import recover_with_trace, same_partition
from .spectral import Projector, top_projector

__all__ = [
    "Cell",
    "ExperimentConfig",
    "TrialReport",
    "CellSummary",
    "trial_seed",
    "run_checks",
    "run_trial",
    "run_grid",
    "KNOWN_CHECKS",
]

KNOWN_CHECKS = ("norm", "proj", "conc", "fk", "goodcol")
DEFAULT_CHECKS = ("norm", "proj", "conc")

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    # splitmix64 finalizer; bijective on 64-bit words
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_seed(seed0: int, cell_index: int, trial_index: int, trials_per_cell: int) -> int:
    """Injective over (cell, trial) for a fixed seed0 and grid shape."""
    u = cell_index * trials_per_cell + trial_index
    return _mix64((seed0 + (u + 1) * _GOLDEN) & _MASK64)


def _validate_checks(checks, epsilon) -> None:
    unknown = set(checks) - set(KNOWN_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; known: {KNOWN_CHECKS}")
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
        raise EpsilonOutOfRangeError(f"epsilon must be finite and positive, or 'auto'; got {epsilon}")


def _typed(key: str, value, kind):
    """A JSON config number as `kind`: an integer for int, an integer or
    float for float.  A bool is refused although Python counts it as an int,
    and so is 10.9 for an int, which int() would truncate."""
    allowed, what = ((int, float), "a number") if kind is float else (int, "an integer")
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"config {key} must be {what}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class Cell:
    index: int
    n: int
    k: int
    s: int
    p: float
    q: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated grid description; build from a dict with `from_dict`."""

    ns: tuple
    ks: tuple | None
    ss: tuple | None
    ps: tuple
    qs: tuple
    trials: int
    seed0: int
    checks: tuple
    epsilon: float | None = None  # None: measure the projector deviation per trial
    baseline: bool = False
    out: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {raw!r}")
        known = {"n", "k", "s", "p", "q", "trials", "seed0", "checks", "epsilon", "baseline", "out"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "n" not in raw or "p" not in raw or "q" not in raw:
            raise ValueError("config needs n, p, and q lists")
        if ("k" in raw) == ("s" in raw):
            raise ValueError("config needs exactly one of k or s")

        def as_tuple(key, kind):
            value = raw[key]
            if not isinstance(value, (list, tuple)):
                value = [value]
            return tuple(_typed(key, v, kind) for v in value)

        checks = raw.get("checks", DEFAULT_CHECKS)
        epsilon = raw.get("epsilon")
        baseline = raw.get("baseline", False)
        out = raw.get("out")
        if not isinstance(checks, (list, tuple)) or not all(isinstance(c, str) for c in checks):
            raise ValueError(f"config checks must be a list of names, got {checks!r}")
        if not isinstance(baseline, bool):
            raise ValueError(f"config baseline must be true or false, got {baseline!r}")
        if not (out is None or isinstance(out, str)):
            raise ValueError(f"config out must be a path, got {out!r}")
        cfg = cls(
            ns=as_tuple("n", int),
            ks=as_tuple("k", int) if "k" in raw else None,
            ss=as_tuple("s", int) if "s" in raw else None,
            ps=as_tuple("p", float),
            qs=as_tuple("q", float),
            trials=_typed("trials", raw.get("trials", 1), int),
            seed0=_typed("seed0", raw.get("seed0", 0), int),
            checks=tuple(checks),
            epsilon=None if epsilon in (None, "auto") else _typed("epsilon", epsilon, float),
            baseline=baseline,
            out=out,
        )
        cfg.cells()  # validates every cell
        return cfg

    def cells(self) -> list[Cell]:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _validate_checks(self.checks, self.epsilon)
        out = []
        index = 0
        for n in self.ns:
            require_vertex_count(n, "config n")
            require_adjacency_memory(n, f"config n = {n}")
            divisors = self.ks if self.ks is not None else self.ss
            for d in divisors:
                if d < 1 or n % d != 0:
                    raise ValueError(f"{d} does not divide n={n}")
                k, s = (d, n // d) if self.ks is not None else (n // d, d)
                for p in self.ps:
                    for q in self.qs:
                        require_edge_probabilities(p, q)
                        out.append(Cell(index=index, n=n, k=k, s=s, p=p, q=q))
                        index += 1
        if not out:
            raise ValueError("config names no cell: its n, k or s, p and q lists must not be empty")
        return out


@dataclass(frozen=True)
class TrialReport:
    cell: Cell
    trial_index: int
    seed: int
    recovered_exactly: bool
    pivot_masses: list
    baseline_exactly: bool | None
    reports: list

    def json_row(self) -> dict:
        return {
            "cell": self.cell.index,
            "n": self.cell.n,
            "k": self.cell.k,
            "s": self.cell.s,
            "p": self.cell.p,
            "q": self.cell.q,
            "trial": self.trial_index,
            "seed": self.seed,
            "exact": self.recovered_exactly,
            "pivot_masses": self.pivot_masses,
            "baseline_exact": self.baseline_exactly,
            "reports": [
                {"name": r.name, "lhs": r.lhs, "rhs": r.rhs, "satisfied": r.satisfied}
                for r in self.reports
            ],
        }


def run_checks(g, part, params, checks, epsilon, round0=None) -> list:
    """Run the bound checks named in `checks` on one instance.

    Reports come in KNOWN_CHECKS order whatever the order of `checks`.
    `epsilon` is a finite positive number, or None to use the measured
    projector deviation ||P_k(A) - P_k(E)||_2 (floored at 1e-12, as it is 0
    on noiseless instances), the proj report's lhs.

    `round0`, when given, must be recovery's round-0 trace of `g`
    (`recover_with_trace(g, s)[1][0]`): proj and a measured epsilon read its
    rank-k projector, and goodcol its pivot, candidate set and mass, so no
    column is ranked again.  Without it the graph is solved once, only when
    proj, goodcol or a measured epsilon needs it.

    One straight pass: first the quantities checks share, each once (that
    projector; its principal angles to P_k(E) = Z Z^T / s, in closed form;
    a measured epsilon; the two ends of A - E, diagonal -p, only when norm,
    proj or fk's union of every cluster reads them), then each check's
    reports.  fk solves its other unions of A - E + pI in one batch (one
    BLAS thread per core at once).  Each solve copies the noise from the
    uint8 adjacency through a :class:`~plantrec.bounds.NoiseView`, so no
    n x n float64 matrix is held.
    """
    _validate_checks(checks, epsilon)
    checks = set(checks)
    n, k, s = part.n, part.k, part.s
    projector = None if round0 is None else round0.projector
    if projector is not None and (projector.dim, projector.rank) != (n, k):
        raise DimensionMismatchError(
            f"projector is {projector.dim} x rank {projector.rank}, need {n} x rank {k}"
        )
    ctx = {
        "n": n,
        "k": k,
        "s": s,
        "p": params.p,
        "q": params.q,
        "seed": params.seed,
        "mask": (1 << k) - 1,
    }
    measure_epsilon = epsilon is None and bool({"conc", "goodcol"} & checks)
    if projector is None and ({"proj", "goodcol"} & checks or measure_epsilon):
        projector = top_projector(g.adj, k)
    if "proj" in checks or measure_epsilon:
        expected_projector = Projector(basis=np.eye(k)[part.assignment] / math.sqrt(s))
        sines = bounds._projector_distance(projector, expected_projector)
    if measure_epsilon:
        epsilon = max(float(sines[0]), 1e-12)
    unions = bounds.cluster_unions(part, seed=params.seed) if "fk" in checks else []
    # the full mask, when drawn, sorts last among the unions
    whole = bool(unions) and unions[-1][0] == ctx["mask"]
    if {"norm", "proj"} & checks or whole:
        ends = spectral._solve_extremes(bounds.NoiseView(g, part, params, diagonal=-params.p))
        instance_dev = max(map(abs, ends))

    reports = []
    if "norm" in checks:
        reports.append(bounds._norm_deviation(instance_dev, n, **ctx))
    if "proj" in checks:
        lambda_k = bounds.theoretical_spectrum(k, s, params.p, params.q)[k - 1]
        reports.extend(bounds._projector_deviation(sines, n, lambda_k, instance_dev, **ctx))
    if "conc" in checks:
        conc_ctx = {key: v for key, v in ctx.items() if key not in ("p", "q")}
        reports.extend(
            bounds.check_concentration(g, part, params.p, params.q, epsilon, **conc_ctx)
        )
    if "fk" in checks:
        sigma = bounds.Constants.from_params(params.p, params.q, c=1.0).sigma
        proper = unions[:-1] if whole else unions
        if proper:
            reports.extend(bounds.check_fk_submatrices(
                bounds.NoiseView(g, part, params), [v for _, v in proper], sigma,
                labels=[m for m, _ in proper], **ctx,
            ))
        if whole:
            # fk's noise, with its zero diagonal, is A - E + pI, whose
            # eigenvalues are those of A - E plus p
            reports.append(bounds._fk_report(max(abs(end + params.p) for end in ends), n, sigma, **ctx))
    if "goodcol" in checks:
        # the mass threshold is only meaningful for epsilon <= 0.1; clamp
        # and record the measured value so the report stays interpretable
        eps_gc = min(epsilon, 0.1)
        extra = {"epsilon_measured": epsilon, "epsilon_clamped": eps_gc != epsilon, **ctx}
        if round0 is None:
            reports.append(bounds.check_good_column(projector, part, eps_gc, **extra))
        else:
            reports.append(
                bounds._good_column(round0.pivot, round0.candidate, round0.mass, part, eps_gc, **extra)
            )
    return reports


def run_trial(
    cell: Cell,
    seed: int,
    trial_index: int = 0,
    checks: tuple = DEFAULT_CHECKS,
    epsilon: float | None = None,
    baseline: bool = False,
) -> TrialReport:
    """Generate, recover, compare, and run the requested bound checks.

    The checks reuse recovery's round 0, its projector and its pivot, so
    the trial makes one eigendecomposition of the full graph and ranks its
    columns once.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    part = permute_partition(make_partition(cell.n, cell.s), rng.permutation(cell.n))
    params = ModelParams(p=cell.p, q=cell.q, seed=seed)
    g = sample_graph(part, params)

    result, traces = recover_with_trace(g, cell.s)
    exact = same_partition(result, part)
    baseline_exact = (
        same_partition(baseline_common_neighbors(g, cell.s), part) if baseline else None
    )
    try:
        reports = run_checks(g, part, params, checks, epsilon, round0=traces[0])
    except PlantrecError as exc:
        raise type(exc)(
            f"{exc} [cell {cell.index}: n={cell.n} k={cell.k} p={cell.p} q={cell.q} seed={seed}]"
        ) from exc

    return TrialReport(
        cell=cell,
        trial_index=trial_index,
        seed=seed,
        recovered_exactly=exact,
        pivot_masses=[t.mass for t in traces],
        baseline_exactly=baseline_exact,
        reports=reports,
    )


@dataclass(frozen=True)
class CellSummary:
    cell: Cell
    trials: int
    success_rate: float
    baseline_success_rate: float | None
    mean_projector_deviation: float | None
    check_rates: dict


def _summarize(cell: Cell, rows: list) -> CellSummary:
    success = sum(1 for r in rows if r.recovered_exactly) / len(rows)
    baseline_rate = None
    if rows[0].baseline_exactly is not None:
        baseline_rate = sum(1 for r in rows if r.baseline_exactly) / len(rows)
    devs = [rep.lhs for r in rows for rep in r.reports if rep.name == "projector_deviation"]
    mean_dev = sum(devs) / len(devs) if devs else None
    rates = {}
    for check, names in (
        ("norm", ("norm_deviation",)),
        ("proj", ("projector_deviation", "projector_frobenius_rank")),
        ("conc", ("concentration",)),
        ("fk", ("fk_submatrix",)),
        ("goodcol", ("good_column",)),
    ):
        relevant = [rep for r in rows for rep in r.reports if rep.name in names]
        if relevant:
            rates[check] = sum(1 for rep in relevant if rep.satisfied) / len(relevant)
    return CellSummary(
        cell=cell,
        trials=len(rows),
        success_rate=success,
        baseline_success_rate=baseline_rate,
        mean_projector_deviation=mean_dev,
        check_rates=rates,
    )


def run_grid(
    config: ExperimentConfig,
    out_dir,
    jobs: int = 1,
) -> list[CellSummary]:
    """Run every cell x trial, writing outputs in deterministic order;
    `jobs` > 1 runs the trials in worker processes: `jobs` of them, but no
    more than there are trials or cores this process may run on."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cells = config.cells()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trial = functools.partial(
        run_trial, checks=config.checks, epsilon=config.epsilon, baseline=config.baseline
    )
    units = [(cell, t) for cell in cells for t in range(config.trials)]
    seeds = [trial_seed(config.seed0, cell.index, t, config.trials) for cell, t in units]

    workers = min(jobs, len(units), spectral._workers())
    runner = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    ordered = []
    with runner as pool, open(out / "trials.jsonl", "w", newline="\n") as jsonl:
        # either map yields the reports in task order
        for report in (map if pool is None else pool.map)(
            trial, [cell for cell, _ in units], seeds, [t for _, t in units]
        ):
            jsonl.write(json.dumps(report.json_row()) + "\n")
            jsonl.flush()
            ordered.append(report)

    all_reports = []
    for r in ordered:
        for rep in r.reports:
            all_reports.append(rep)
    write_reports_csv(out / "bounds.csv", all_reports)

    summaries = []
    per_cell: dict[int, list[TrialReport]] = {}
    for r in ordered:
        per_cell.setdefault(r.cell.index, []).append(r)
    for cell in cells:
        summaries.append(_summarize(cell, per_cell[cell.index]))

    rate_cols = [c for c in KNOWN_CHECKS if c in config.checks]
    with open(out / "aggregate.csv", "w", newline="\n") as f:
        header = ["cell", "n", "k", "s", "p", "q", "trials", "success_rate", "baseline_success_rate", "mean_projector_deviation"]
        header += [f"rate_{c}" for c in rate_cols]
        f.write(",".join(header) + "\n")
        for s in summaries:
            c = s.cell
            row = [c.index, c.n, c.k, c.s, c.p, c.q, s.trials, s.success_rate]
            row += [s.baseline_success_rate, s.mean_projector_deviation]
            row += [s.check_rates.get(check) for check in rate_cols]
            f.write(",".join(map(_format_cell, row)) + "\n")

    return summaries
