"""Capture the reference outputs that run.py checks every unit against.

    python3 perfbench/capture.py --workload recover_deep

Runs each instance of the workload's pool once and writes
perfbench/reference/<workload>.json: the workload parameters, the instance
seeds, and each unit's output record, with the commit, date and environment
of the capture.  Refuses to write a reference in which any recovery is not
exact for a declared workload, since every instance those use must recover
exactly.  The undeclared grid_jobs2 keeps its few inexact trials (clusters of
25 vertices sit near the recovery threshold); its records say which.  Grids
are captured at jobs=1; their outputs do not depend on the job count.
"""

import argparse
import datetime
import json
import shutil
import sys
import time

from run import HERE, WORK, environment, import_program


def capture_instances(wl) -> list[dict]:
    """One unit per pool instance: its index, seed and output records."""
    from workloads import GridJobs2, instance_seed

    kwargs = {"jobs": 1} if isinstance(wl, GridJobs2) else {}
    WORK.mkdir(parents=True, exist_ok=True)
    instances = []
    for i in range(wl.pool):
        inp = wl.prepare(i)
        start = time.perf_counter()
        out = wl.execute(inp, WORK, **kwargs)
        seconds = time.perf_counter() - start
        records = json.loads(json.dumps(wl.record(inp, out)))
        exact = sum(r["exact"] for r in records)
        print(f"{wl.name} instance {i}: {seconds:.3f} s, {exact}/{len(records)} exact", file=sys.stderr)
        instances.append({"index": i, "seed": instance_seed(wl.name, i), "records": records})
    return instances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    import_program()
    from workloads import DECLARED, WORKLOADS, params_of

    wl = WORKLOADS[args.workload]
    try:
        instances = capture_instances(wl)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    inexact = [inst["index"] for inst in instances if not all(r["exact"] for r in inst["records"])]
    if inexact and wl.name in DECLARED:
        raise SystemExit(f"instances {inexact} do not recover exactly; no reference written")
    reference = {
        "workload": wl.name,
        "note": f"Captured by `python3 perfbench/capture.py --workload {wl.name}`: one unit per "
        "pool instance, outputs reduced to records by workloads.py.",
        "captured": {
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "environment": environment(),
        },
        "params": params_of(wl),
        "instances": instances,
    }
    (HERE / "reference").mkdir(exist_ok=True)
    (HERE / "reference" / f"{wl.name}.json").write_text(json.dumps(reference) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
