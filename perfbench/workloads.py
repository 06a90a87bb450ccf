"""Benchmark workloads: inputs from seeds, one unit of work each, output records.

A workload turns a pool index into an input (`prepare`), runs one unit of
work on it through plantrec's public API or `plantrec.cli.main` (`execute`,
the only timed call), and reduces the output to a JSON-ready record
(`record`).  The record of every unit is compared with the one captured in
`reference/<workload>.json` by `first_mismatch`: strings, booleans and
integers must be equal, floats must agree within REL_TOL/ABS_TOL.

plantrec is always reached through module attributes looked up at call time
(`model.sample_graph`, not a name bound at import), so the tracer can wrap
them from outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import plantrec.cli
import plantrec.experiment
import plantrec.model
import plantrec.recovery

# Floats may drift by more than the last ulp when a solver changes (a
# partial eigensolver, principal angles instead of a projector difference),
# but not by more than this.  Anything else in a record must be equal.
REL_TOL = 1e-7
ABS_TOL = 1e-10

ALL_CHECKS = ("norm", "proj", "conc", "fk", "goodcol")


def instance_seed(workload: str, index: int) -> int:
    """64-bit model seed of pool instance `index`; independent of plantrec."""
    digest = hashlib.sha256(f"plantrec-bench:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def partition_digest(clusters, leftover=()) -> str:
    """Order-free digest of a clustering: sorted clusters of sorted vertex ids."""
    canon = sorted(sorted(int(v) for v in c) for c in clusters)
    payload = json.dumps({"clusters": canon, "leftover": sorted(int(v) for v in leftover)})
    return hashlib.sha256(payload.encode()).hexdigest()


def assignment_digest(assignment: np.ndarray) -> str:
    clusters = [np.flatnonzero(assignment == c) for c in range(int(assignment.max()) + 1)]
    return partition_digest(clusters)


def first_mismatch(got, want, path: str = "$") -> str | None:
    """Where `got` departs from the reference `want`, or None when it matches."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for key in want:
            found = first_mismatch(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = first_mismatch(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(want, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{path}: {got!r} is not a number"
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"{path}: {got!r} differs from {want!r} beyond rel {REL_TOL}, abs {ABS_TOL}"
        return None
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def _trial_record(exact, baseline_exact, pivot_masses, reports) -> dict:
    return {
        "exact": bool(exact),
        "baseline_exact": baseline_exact,
        "pivot_masses": [float(m) for m in pivot_masses],
        "reports": [[r[0], float(r[1]), float(r[2]), bool(r[3])] for r in reports],
    }


@dataclass(frozen=True)
class RecoverDeep:
    """`sample_graph` then `identify_clusters` on shuffled labels: spectral and
    recovery do nearly all the work (n/s rounds, rank n/s down to 1)."""

    name: str = "recover_deep"
    n: int = 2000
    s: int = 100
    p: float = 0.7
    q: float = 0.3
    pool: int = 24
    unit_ops: int = 1

    def prepare(self, index: int) -> dict:
        seed = instance_seed(self.name, index)
        rng = np.random.Generator(np.random.Philox(key=seed))
        part = plantrec.model.permute_partition(
            plantrec.model.make_partition(self.n, self.s), rng.permutation(self.n)
        )
        return {
            "part": part,
            "params": plantrec.model.ModelParams(p=self.p, q=self.q, seed=seed),
            "planted": assignment_digest(part.assignment),
        }

    def execute(self, inp: dict, work: Path):
        g = plantrec.model.sample_graph(inp["part"], inp["params"])
        return g, plantrec.recovery.identify_clusters(g, self.s)

    def record(self, inp: dict, out) -> list[dict]:
        g, result = out
        digest = partition_digest(result.clusters, result.leftover)
        return [
            {
                "exact": digest == inp["planted"],
                "clusters_sha256": digest,
                "graph_sha256": hashlib.sha256(np.packbits(g.adj)).hexdigest(),
            }
        ]


@dataclass(frozen=True)
class TrialChecks:
    """`run_trial` with all five bound checks, epsilon auto and the baseline:
    the bound checks dominate, recovery runs only k rounds.

    `run_trial` returns no clusters, so `record` recovers them again, outside
    the timed call, from the graph the trial sampled: the partition is
    shuffled as `run_trial` shuffles it (Philox key [seed, 1]).  `exact` then
    compares those clusters with the planted ones, and `program_exact` is the
    trial's own verdict.
    """

    name: str = "trial_checks"
    n: int = 1200
    k: int = 6
    p: float = 0.7
    q: float = 0.3
    pool: int = 32
    unit_ops: int = 1

    def prepare(self, index: int) -> dict:
        cell = plantrec.experiment.Cell(
            index=0, n=self.n, k=self.k, s=self.n // self.k, p=self.p, q=self.q
        )
        seed = instance_seed(self.name, index)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        part = plantrec.model.permute_partition(
            plantrec.model.make_partition(cell.n, cell.s), rng.permutation(cell.n)
        )
        return {"cell": cell, "seed": seed, "part": part, "planted": assignment_digest(part.assignment)}

    def execute(self, inp: dict, work: Path):
        return plantrec.experiment.run_trial(
            inp["cell"], inp["seed"], checks=ALL_CHECKS, epsilon=None, baseline=True
        )

    def record(self, inp: dict, rep) -> list[dict]:
        cell = inp["cell"]
        g = plantrec.model.sample_graph(
            inp["part"], plantrec.model.ModelParams(p=cell.p, q=cell.q, seed=inp["seed"])
        )
        result = plantrec.recovery.identify_clusters(g, cell.s)
        digest = partition_digest(result.clusters, result.leftover)
        reports = [(r.name, r.lhs, r.rhs, r.satisfied) for r in rep.reports]
        record = _trial_record(digest == inp["planted"], rep.baseline_exactly, rep.pivot_masses, reports)
        return [{**record, "program_exact": bool(rep.recovered_exactly), "clusters_sha256": digest}]


def _cli(argv: list[str]) -> str:
    """Run `plantrec.cli.main` in-process; its stdout, or an error on a nonzero exit."""
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = plantrec.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"plantrec {argv[0]} exited with {code}")
    return buf.getvalue()


@dataclass(frozen=True)
class CliLarge:
    """`plantrec generate` then `plantrec recover --truth` through `cli.main`:
    graph file write and parse, and model memory, at a large n."""

    name: str = "cli_large"
    n: int = 3000
    s: int = 1000
    p: float = 0.9
    q: float = 0.5
    pool: int = 16
    unit_ops: int = 1

    def prepare(self, index: int) -> dict:
        planted = assignment_digest(np.repeat(np.arange(self.n // self.s), self.s))
        return {"seed": instance_seed(self.name, index), "planted": planted}

    def execute(self, inp: dict, work: Path):
        graph, truth = str(work / "graph.txt"), str(work / "truth.txt")
        common = ["--s", str(self.s)]
        generated = _cli(
            ["generate", "--n", str(self.n), *common, "--p", repr(self.p), "--q", repr(self.q),
             "--seed", str(inp["seed"]), "--out", graph, "--truth", truth]
        )
        recovered = _cli(["recover", "--graph", graph, *common, "--truth", truth])
        return generated, recovered

    def record(self, inp: dict, out) -> list[dict]:
        generated, recovered = out
        payload = json.loads(recovered)
        digest = partition_digest(payload["clusters"], payload["leftover"])
        edges = int(generated.split("(", 1)[1].split(" edges", 1)[0])
        return [
            {
                "exact": digest == inp["planted"],
                "cli_exact": payload["exact"],
                "clusters_sha256": digest,
                "edges": edges,
            }
        ]


@dataclass(frozen=True)
class GridJobs2:
    """`run_grid` at jobs=2 over n in {200, 400}, k in {4, 8} with the default
    checks and the baseline.  One unit is one grid; an op is one trial.

    Not a declared workload: 2 workers x 2 OpenBLAS threads oversubscribe 2
    cores and the grid's wall time swings by several times (BENCHMARK.md).
    """

    name: str = "grid_jobs2"
    ns: tuple = (200, 400)
    ks: tuple = (4, 8)
    p: float = 0.8
    q: float = 0.2
    trials: int = 5
    jobs: int = 2
    pool: int = 8

    @property
    def unit_ops(self) -> int:
        return len(self.ns) * len(self.ks) * self.trials

    def prepare(self, index: int) -> dict:
        config = plantrec.experiment.ExperimentConfig.from_dict(
            {"n": list(self.ns), "k": list(self.ks), "p": [self.p], "q": [self.q],
             "trials": self.trials, "seed0": instance_seed(self.name, index), "baseline": True}
        )
        return {"config": config}

    def execute(self, inp: dict, work: Path, jobs: int | None = None):
        out = work / "grid"
        shutil.rmtree(out, ignore_errors=True)
        plantrec.experiment.run_grid(inp["config"], out, jobs=self.jobs if jobs is None else jobs)
        return (out / "trials.jsonl").read_text().splitlines()

    def record(self, inp: dict, lines) -> list[dict]:
        rows = [json.loads(line) for line in lines]
        return [
            _trial_record(
                row["exact"], row["baseline_exact"], row["pivot_masses"],
                [(r["name"], r["lhs"], r["rhs"], r["satisfied"]) for r in row["reports"]],
            )
            for row in rows
        ]


DECLARED = {w.name: w for w in (RecoverDeep(), TrialChecks(), CliLarge())}
WORKLOADS = {**DECLARED, "grid_jobs2": GridJobs2()}


def params_of(workload) -> dict:
    """The workload's parameters as stored with its reference."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(workload).items()}


def tiny(workload):
    """A seconds-fast variant of `workload` with the same code path, for warm-up and self-tests."""
    small = {
        "recover_deep": dict(n=60, s=20, pool=2),
        "trial_checks": dict(n=120, k=3, pool=2),
        "cli_large": dict(n=300, s=100, pool=2),
        "grid_jobs2": dict(ns=(40,), ks=(2,), trials=2, pool=2),
    }[workload.name]
    return type(workload)(**{**asdict(workload), **small})
