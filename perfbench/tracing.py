"""Per-layer tracing from outside the program.

`Tracer` replaces module attributes of plantrec with wrappers that record a
span (name, start, end, parent, op id) per call, keeps the spans in memory,
and puts every original attribute back on exit.  A function imported by name
into another module is a separate attribute there, so PLAN names each
(module, attribute) pair that the layers call through.  `layer_metrics`
turns the spans of the traced ops into the per-layer metrics.

`WorkerThreads` samples the OS thread count of this process's children (the
process-pool workers of `run_grid`) from /proc every SAMPLE_INTERVAL_S.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name, extra measurement).  The span name of
# `cli.main` is taken from its subcommand.
PLAN = [
    ("plantrec.model", "sample_graph", "model.sample", "alloc"),
    ("plantrec.experiment", "sample_graph", "model.sample", "alloc"),
    ("plantrec.cli", "sample_graph", "model.sample", "alloc"),
    ("plantrec.spectral", "eigh_descending", "spectral.solve", "dim3"),
    ("plantrec.bounds", "eigh_descending", "spectral.solve", "dim3"),
    ("plantrec.bounds", "spectral_norm", "spectral.solve", "dim3"),
    ("plantrec.recovery", "top_projector", "spectral.projector", None),
    ("plantrec.bounds", "top_projector", "spectral.projector", None),
    ("plantrec.experiment", "top_projector", "spectral.projector", None),
    ("plantrec.cli", "top_projector", "spectral.projector", None),
    ("plantrec.recovery", "recover_with_trace", "recovery.identify", None),
    ("plantrec.experiment", "recover_with_trace", "recovery.identify", None),
    ("plantrec.recovery", "all_candidate_sets", "recovery.candidates", None),
    ("plantrec.recovery", "select_pivot", "recovery.pivot", None),
    ("plantrec.bounds", "check_norm_deviation", "bounds.norm", None),
    ("plantrec.bounds", "check_projector_deviation", "bounds.proj", None),
    ("plantrec.bounds", "empirical_epsilon", "bounds.epsilon", None),
    ("plantrec.bounds", "check_concentration", "bounds.conc", None),
    ("plantrec.bounds", "check_fk_submatrices", "bounds.fk", "sets"),
    ("plantrec.bounds", "check_good_column", "bounds.goodcol", None),
    ("plantrec.experiment", "baseline_common_neighbors", "baseline.cn", None),
    ("plantrec.experiment", "run_trial", "experiment.trial", None),
    ("plantrec.experiment", "run_grid", "experiment.grid", None),
    ("plantrec.experiment", "write_reports_csv", "io.reports_csv", None),
    ("plantrec.io", "write_reports_csv", "io.reports_csv", None),
    ("plantrec.io", "read_graph", "io.read_graph", "edges"),
    ("plantrec.io", "write_graph", "io.write_graph", None),
    ("plantrec.io", "read_partition", "io.partition", None),
    ("plantrec.io", "write_partition", "io.partition", None),
    ("plantrec.cli", "main", "cli", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Installs the PLAN wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # plan entries the program no longer has
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        try:
            for module_name, attr, name, extra in PLAN:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, extra))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, extra: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"cli.{args[0][0]}" if name == "cli" and args and args[0] else name
            alloc = extra == "alloc" and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            span = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
                if alloc:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if extra == "dim3":
                span.attrs["dim3"] = int(len(args[0])) ** 3
            elif extra == "sets":
                span.attrs["sets"] = len(args[1])
            elif extra == "edges":
                span.attrs["edges"] = result.edge_count
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "model.sample_s": "s",
    "model.sample_calls": "count",
    "model.sample_peak_mb": "MB",
    "spectral.solve_s": "s",
    "spectral.solve_calls": "count",
    "spectral.solve_dim3": "m3",
    "recovery.identify_s": "s",
    "recovery.rounds": "count",
    "recovery.candidates_s": "s",
    "recovery.pivot_s": "s",
    "recovery.self_s": "s",
    "bounds.norm_s": "s",
    "bounds.proj_s": "s",
    "bounds.epsilon_s": "s",
    "bounds.conc_s": "s",
    "bounds.fk_s": "s",
    "bounds.goodcol_s": "s",
    "bounds.solve_calls": "count",
    "bounds.fk_sets": "count",
    "baseline.cn_s": "s",
    "experiment.trial_s": "s",
    "experiment.self_s": "s",
    "experiment.worker_threads": "count",
    "io.read_graph_s": "s",
    "io.write_graph_s": "s",
    "io.edges": "count",
    "io.reports_csv_s": "s",
    "cli.generate_s": "s",
    "cli.recover_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-op layer metrics from the spans of `ops` traced ops.

    Times and counts are per op; `model.sample_peak_mb` is the largest
    tracemalloc peak of one `sample_graph` call; `spectral.solve_dim3` is the
    sum of m**3 over solves, computed from the matrix sizes, not measured.
    `experiment.worker_threads` and `trace.overhead_frac` are not span data
    and are left to the caller.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    named = defaultdict(list)
    for i, span in enumerate(spans):
        named[span.name].append(i)

    def total(*names):
        return sum(spans[i].end - spans[i].start for n in names for i in named[n]) / ops

    def self_time(*names):
        busy = 0.0
        for n in names:
            for i in named[n]:
                inner = [(c.start, c.end) for c in children[i]]
                busy += spans[i].end - spans[i].start - _covered(inner)
        return busy / ops

    def count(name):
        return len(named[name]) / ops

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in named[name]) / ops

    def under_bounds(i):
        parent = spans[i].parent
        while parent is not None:
            if spans[parent].name.startswith("bounds."):
                return True
            parent = spans[parent].parent
        return False

    peaks = [spans[i].attrs.get("peak_bytes", 0) for i in named["model.sample"]]
    return {
        "model.sample_s": total("model.sample"),
        "model.sample_calls": count("model.sample"),
        "model.sample_peak_mb": max(peaks, default=0) / 1e6,
        "spectral.solve_s": total("spectral.solve"),
        "spectral.solve_calls": count("spectral.solve"),
        "spectral.solve_dim3": attr_sum("spectral.solve", "dim3"),
        "recovery.identify_s": total("recovery.identify"),
        "recovery.rounds": count("recovery.candidates"),
        "recovery.candidates_s": total("recovery.candidates"),
        "recovery.pivot_s": total("recovery.pivot"),
        "recovery.self_s": self_time("recovery.identify"),
        "bounds.norm_s": total("bounds.norm"),
        "bounds.proj_s": total("bounds.proj"),
        "bounds.epsilon_s": total("bounds.epsilon"),
        "bounds.conc_s": total("bounds.conc"),
        "bounds.fk_s": total("bounds.fk"),
        "bounds.goodcol_s": total("bounds.goodcol"),
        "bounds.solve_calls": sum(under_bounds(i) for i in named["spectral.solve"]) / ops,
        "bounds.fk_sets": attr_sum("bounds.fk", "sets"),
        "baseline.cn_s": total("baseline.cn"),
        "experiment.trial_s": total("experiment.trial"),
        "experiment.self_s": self_time("experiment.trial"),
        "io.read_graph_s": total("io.read_graph"),
        "io.write_graph_s": total("io.write_graph"),
        "io.edges": attr_sum("io.read_graph", "edges"),
        "io.reports_csv_s": total("io.reports_csv"),
        "cli.generate_s": total("cli.generate"),
        "cli.recover_s": total("cli.recover"),
        "cli.self_s": self_time("cli.generate", "cli.recover"),
    }


SAMPLE_INTERVAL_S = 0.02


class WorkerThreads:
    """Largest OS thread count seen in any child process, sampled every SAMPLE_INTERVAL_S."""

    def __init__(self):
        self.max = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "WorkerThreads":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _children(self) -> set[int]:
        pids = set()
        task_dir = f"/proc/{os.getpid()}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/children") as f:
                    pids.update(int(p) for p in f.read().split())
            except OSError:
                continue
        return pids

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            for pid in self._children():
                try:
                    self.max = max(self.max, len(os.listdir(f"/proc/{pid}/task")))
                except OSError:
                    continue
