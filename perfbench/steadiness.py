"""Steadiness report: repeated untraced runs, their quartiles and relative spread.

    python3 perfbench/steadiness.py --seeds 1-10 --label first
    python3 perfbench/steadiness.py --seeds 11-20 --label second --against first

Runs `run.py --trace 0` once per seed for every declared workload (seeds in
the outer loop, so slow spells of a shared machine fall on all workloads),
with BENCHMARK.json's run_seconds.  For each workload and end-to-end metric it
prints the median, the first and third quartile (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, marked against the metric's bound: "ok"
when under a third of it, "wide" when under the bound, "UNSTEADY" above it.
With --against it also
prints how far each median moved, in the metric's worse direction, from the
medians of an earlier report.  Reports go to perfbench/results/steadiness-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", help="label of an earlier report to compare medians with")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    earlier = None
    if args.against:
        earlier = json.loads((results / f"steadiness-{args.against}.json").read_text())

    lines = {w: [] for w in names}
    for seed in seed_range(args.seeds):
        for w in names:
            line = run_once(w, seed, bench["run_seconds"])
            lines[w].append(line)
            print(f"{w} seed {seed}: correct={line['correct']} attempted={line['attempted']}"
                  f" failed={line['failed']}", file=sys.stderr)

    report = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    print("| workload | metric | median | q1 | q3 | spread | bound | verdict |"
          + (" median moved | |" if earlier else ""))
    print("|---|---|---|---|---|---|---|---|" + ("---|---|" if earlier else ""))
    for w in names:
        correct = all(line["correct"] for line in lines[w])
        report["workloads"][w] = {"all_correct": correct, "metrics": {}}
        for name, spec in metrics.items():
            stats = summarize([line["metrics"][name]["value"] for line in lines[w]])
            bound = spec["bound"]
            verdict = "ok" if stats["spread"] < bound / 3 else ("wide" if stats["spread"] <= bound else "UNSTEADY")
            row = (f"| {w} | {name} | {stats['median']:.6g} | {stats['q1']:.6g} | {stats['q3']:.6g}"
                   f" | {stats['spread']:.4f} | {bound} | {verdict} |")
            if earlier:
                before = earlier["workloads"][w]["metrics"][name]["median"]
                sign = 1 if spec["better"] == "lower" else -1
                moved = sign * (stats["median"] - before) / before if before else 0.0
                stats["worse_by"] = moved
                row += f" {moved:+.4f} | {'ok' if moved <= bound else 'WORSE'} |"
            report["workloads"][w]["metrics"][name] = {**stats, "bound": bound, "verdict": verdict}
            print(row)
        failed = sum(line["failed"] for line in lines[w])
        attempted = sum(line["attempted"] for line in lines[w])
        report["workloads"][w]["error_rate"] = failed / attempted
        print(f"| {w} | error_rate | {failed}/{attempted} ops over all runs | | | | | |")
        if not correct:
            print(f"{w}: some runs were not correct", file=sys.stderr)
    (results / f"steadiness-{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
