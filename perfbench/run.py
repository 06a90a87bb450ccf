"""plantrec benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload recover_deep --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  The seed picks the order in which the workload's
pool of reference instances is run.  Units of work run back to back in one
process (a closed loop with one client) while the units' time, output
checks included, is expected to stay within --seconds with the next one; at
least one always runs.  Every unit's output is checked against
reference/<workload>.json.

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
alternates untraced and traced units and reports the per-layer metrics of
the traced ones (see tracing.py) plus the tracing overhead.

A metric table goes to stdout, a result file with the environment to
perfbench/results/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the metrics that
BENCHMARK.json declares for the mode.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse
import contextlib
import ctypes
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

SETUP_SAMPLES = 5
P90_MIN_OPS = 100

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "exact_rate": "ratio",
    "error_rate": "ratio",
}


def import_program():
    """Import plantrec from ./src and the benchmark modules; exit nonzero when plantrec is not there."""
    if not (SRC / "plantrec" / "__init__.py").is_file():
        raise SystemExit(f"plantrec sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import plantrec

    if Path(plantrec.__file__).resolve().parent != SRC / "plantrec":
        raise SystemExit(f"imported plantrec from {plantrec.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))
    import tracing  # noqa: F401
    import workloads  # noqa: F401


# What a fresh interpreter runs to time the same imports and set-up as this process.
SETUP_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, {here!r}); import run; "
    "run.import_program(); from workloads import WORKLOADS; run.set_up(WORKLOADS[{name!r}], {seed}); "
    "print(time.perf_counter() - start)"
)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, from its first statement to the end of `set_up`."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE.format(here=str(HERE), name=name, seed=seed)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def _openblas() -> dict:
    """OpenBLAS build string and thread count, asked of the library numpy loaded."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                return {"openblas": config().decode(), "openblas_threads": threads()}
    return {"openblas": None, "openblas_threads": None}


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    with open("/proc/loadavg") as f:
        loadavg = f.read().split()[:3]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": [float(x) for x in loadavg],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        **_openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": _git_sha(),
    }


def load_reference(wl) -> list:
    """Reference records of every pool instance, refusing stale references."""
    from workloads import instance_seed, params_of

    path = HERE / "reference" / f"{wl.name}.json"
    ref = json.loads(path.read_text())
    if ref["params"] != params_of(wl):
        raise SystemExit(f"{path} was captured for {ref['params']}, not {params_of(wl)}")
    seeds = [inst["seed"] for inst in ref["instances"]]
    if seeds != [instance_seed(wl.name, i) for i in range(wl.pool)]:
        raise SystemExit(f"{path} does not hold the workload's pool of instances")
    return [inst["records"] for inst in ref["instances"]]


def set_up(wl, seed: int, references=None) -> tuple:
    """Inputs in run order, reference records, and one tiny warm-up unit."""
    from workloads import tiny

    references = load_reference(wl) if references is None else references
    order = random.Random(seed).sample(range(wl.pool), wl.pool)
    inputs = {i: wl.prepare(i) for i in order}
    small = tiny(wl)
    small.execute(small.prepare(0), WORK)
    return order, inputs, references


def check_unit(records: list, want: list) -> tuple[int, int, str | None]:
    """(failed ops, exact ops, first mismatch) of one unit against its reference."""
    from workloads import first_mismatch

    records = json.loads(json.dumps(records))
    if len(records) != len(want):
        return len(want), 0, f"$: {len(records)} records, reference has {len(want)}"
    found = [first_mismatch(r, w, f"$[{j}]") for j, (r, w) in enumerate(zip(records, want))]
    bad = [m for m in found if m]
    return len(bad), sum(bool(r.get("exact")) for r in records), (bad[0] if bad else None)


def run_units(wl, order, inputs, references, seconds: float, trace: bool, after_unit) -> dict:
    """The measuring loop: every unit's mode, timing and check result.  `after_unit()` runs between units."""
    from tracing import Tracer, WorkerThreads
    from workloads import GridJobs2

    tracer = Tracer()
    # Spans recorded inside pool workers are lost, so a traced grid run
    # replays the grid at jobs=1 after one real unit that samples the
    # workers' thread counts.
    replay = trace and isinstance(wl, GridJobs2)
    units = []
    spent = []  # each unit's whole time, output check included
    worker_threads = 0
    loop_start = time.perf_counter()
    while True:
        n = len(units)
        if n >= 1 + trace + replay:
            if sum(spent) + statistics.median(spent) > seconds:
                break
        unit_start = time.perf_counter()
        if replay:
            mode = "sampled" if n == 0 else ("traced" if n % 2 == 0 else "plain")
        else:
            mode = "traced" if trace and n % 2 == 1 else "plain"
        index = order[n % len(order)]
        unit = {"index": index, "mode": mode, "seconds": None, "cpu_s": None, "failed": wl.unit_ops,
                "exact": 0, "mismatch": None}
        units.append(unit)
        try:
            with contextlib.ExitStack() as stack:
                if mode == "sampled":
                    sampler = stack.enter_context(WorkerThreads())
                if mode == "traced":
                    stack.enter_context(tracer)
                    tracer.op = n
                    stack.callback(tracer.end, tracer.begin("op"))
                kwargs = {"jobs": 1} if replay and mode != "sampled" else {}
                cpu_start = _cpu_s()
                start = time.perf_counter()
                try:
                    out = wl.execute(inputs[index], WORK, **kwargs)
                finally:
                    unit["seconds"] = time.perf_counter() - start
                    unit["cpu_s"] = _cpu_s() - cpu_start
            if mode == "sampled":
                worker_threads = sampler.max
            unit["failed"], unit["exact"], unit["mismatch"] = check_unit(
                wl.record(inputs[index], out), references[index]
            )
        except Exception:
            unit["mismatch"] = traceback.format_exc()
        if unit["mismatch"]:
            print(f"unit {n} (instance {index}) failed: {unit['mismatch']}", file=sys.stderr)
        if n == 0:
            first_peak_mb = _peak_rss_mb()
        spent.append(time.perf_counter() - unit_start)
        after_unit()
    return {
        "units": units,
        "loop_seconds": time.perf_counter() - loop_start,
        "spans": tracer.spans,
        "not_traced": tracer.missing,
        "worker_threads": worker_threads,
        "first_peak_mb": first_peak_mb,
    }


def _peak_rss_mb() -> float:
    """Largest peak RSS so far of this process or of any child it waited for."""
    peak_kb = max(resource.getrusage(r).ru_maxrss for r in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak_kb * 1024 / 1e6


def _cpu_s() -> float:
    """User + system CPU so far of this process and of every child it waited for."""
    usage = [resource.getrusage(r) for r in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def _steal_s() -> float:
    """CPU time the hypervisor gave to others, machine-wide (the 8th field of /proc/stat)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def end_to_end(wl, run: dict, setup_s: float) -> tuple[dict, list]:
    """End-to-end metric values, and notes on what was left out."""
    units = run["units"]
    attempted = wl.unit_ops * len(units)
    failed = sum(u["failed"] for u in units)
    # an op inside a multi-op unit is not timed alone: its time is the unit's share
    timed = [u for u in units if u["seconds"] is not None]
    per_op = [u["seconds"] / wl.unit_ops for u in timed]
    values = {
        "setup_s": setup_s,
        # Only the ops are timed: the output checks between them are the
        # benchmark's work, not the program's.
        "ops_per_s": (attempted - failed) / sum(u["seconds"] for u in timed),
        "op_s_p50": statistics.median(per_op),
        "cpu_s_per_op": sum(u["cpu_s"] for u in timed) / (wl.unit_ops * len(timed)),
        # Through set-up and the first unit only: later units raise the peak by
        # allocator reuse, by an amount that depends on how many fit in the run.
        "peak_rss_mb": run["first_peak_mb"],
        "exact_rate": sum(u["exact"] for u in units) / attempted,
        "error_rate": failed / attempted,
    }
    notes = []
    if len(per_op) >= P90_MIN_OPS:
        values["op_s_p90"] = statistics.quantiles(per_op, n=10)[-1]
    else:
        notes.append(f"op_s_p90 omitted: {len(per_op)} timed ops, fewer than {P90_MIN_OPS}")
    return values, notes


def per_layer(wl, run: dict) -> tuple[dict, list]:
    """Per-layer metric values of the traced units, and notes."""
    from tracing import layer_metrics

    units = run["units"]
    traced = [u["seconds"] / wl.unit_ops for u in units if u["mode"] == "traced"]
    plain = [u["seconds"] / wl.unit_ops for u in units if u["mode"] == "plain"]
    values = layer_metrics(run["spans"], wl.unit_ops * len(traced))
    values["experiment.worker_threads"] = run["worker_threads"]
    overhead = statistics.median(traced) - statistics.median(plain)
    values["trace.overhead_frac"] = overhead / statistics.median(plain)
    notes = [f"tracing overhead {overhead:.6f} s per op: traced op_s_p50 over {len(traced)} ops"
             f" minus untraced op_s_p50 over {len(plain)} ops"]
    if run["not_traced"]:
        notes.append("not in the program, so not traced: " + ", ".join(run["not_traced"]))
    return values, notes


def measure(wl, seed: int, seconds: float, trace: bool, import_s: float = 0.0, references=None) -> dict:
    """Set up, run and measure one workload; `references` defaults to the stored ones.

    setup_s is the median of SETUP_SAMPLES set-up times: this process's
    (`import_s` plus `set_up`) and, with the stored references, those of
    fresh interpreters that import and set up the same way (SETUP_PROBE).
    The host's speed drifts within seconds, so the probes run between
    units, spread over the run; those not run by the end of the loop run then.
    """
    from tracing import LAYER_UNITS

    probes = []

    def probe():
        if references is None and len(probes) < SETUP_SAMPLES - 1:
            probes.append(setup_probe(wl.name, seed))

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        order, inputs, refs = set_up(wl, seed, references)
        set_up_s = time.perf_counter() - start
        steal = _steal_s()
        run = run_units(wl, order, inputs, refs, seconds, trace, probe)
        steal = _steal_s() - steal
        for _ in range(SETUP_SAMPLES):
            probe()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if trace:
        values, notes = per_layer(wl, run)
        units_of = LAYER_UNITS
    else:
        values, notes = end_to_end(wl, run, statistics.median([import_s + set_up_s, *probes]))
        units_of = E2E_UNITS
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup": {"import_s": import_s, "set_up_s": set_up_s, "probes_s": probes},
        "attempted": wl.unit_ops * len(run["units"]),
        "failed": sum(u["failed"] for u in run["units"]),
        "loop_seconds": run["loop_seconds"],
        "steal_s": steal,
        "run_peak_rss_mb": _peak_rss_mb(),
        "units": run["units"],
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in values.items()},
        "notes": notes,
        "spans": [vars(span) for span in run["spans"]],
    }


def result_line(result: dict, declared: dict) -> dict:
    """The closing JSON object: the metrics BENCHMARK.json declares for the mode."""
    names = [m["name"] for m in declared["per_layer" if result["trace"] else "end_to_end"]]
    absent = [n for n in names if n not in result["metrics"]]
    if absent:
        raise SystemExit(f"declared metrics not measured: {absent}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    own_import_s = time.perf_counter() - _START
    from workloads import WORKLOADS, params_of

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()

    result = measure(wl, args.seed, args.seconds, bool(args.trace), own_import_s)
    line = result_line(result, declared)
    spans = result.pop("spans")
    result["params"] = params_of(wl)
    result["environment"] = env

    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{label}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans:
        with open(RESULTS / f"{label}-spans.jsonl", "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")

    print(f"{label}: {result['attempted']} ops attempted, {result['failed']} failed,"
          f" {len(result['units'])} units in {result['loop_seconds']:.3f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']!r} {metric['unit']}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(f"  result file: {(RESULTS / label).relative_to(ROOT)}.json")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
