"""Self-tests of the benchmark itself, on seconds-fast variants of each workload.

    python3 perfbench/selftest.py

Checks that a corrupted partition (also one inside run_trial) or a flipped
bound verdict counts as a failed op, that the float tolerance is applied as stated, that a traced run
puts back every module attribute it wrapped, that the closing JSON line
carries exactly the metrics BENCHMARK.json declares (with their units), and
that the benchmark exits nonzero, printing no result, without the program.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

run.import_program()

import plantrec  # noqa: E402
import plantrec.experiment  # noqa: E402
import plantrec.recovery  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from capture import capture_instances  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_references(wl) -> list:
    try:
        return [inst["records"] for inst in capture_instances(wl)]
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


def measure(wl, trace: bool, references=None) -> dict:
    refs = tiny_references(wl) if references is None else references
    return run.measure(wl, seed=1, seconds=0.01, trace=trace, references=refs)


def swap_first_vertices(result):
    """`result` with the first vertices of its first two clusters swapped."""
    a, b = result.clusters[0].copy(), result.clusters[1].copy()
    a[0], b[0] = b[0], a[0]
    return plantrec.recovery.RecoveryResult([a, b, *result.clusters[2:]], result.leftover)


def attribute_snapshot() -> dict:
    modules = [m for name, m in sys.modules.items() if name == "plantrec" or name.startswith("plantrec.")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


class OutputCheck(unittest.TestCase):
    def test_corrupted_partition_is_a_failed_op(self):
        wl = workloads.tiny(workloads.DECLARED["recover_deep"])
        refs = tiny_references(wl)
        self.assertEqual(measure(wl, False, refs)["failed"], 0)

        identify = plantrec.recovery.identify_clusters
        with mock.patch.object(plantrec.recovery, "identify_clusters", lambda g, s: swap_first_vertices(identify(g, s))):
            result = measure(wl, False, refs)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(result["units"][0]["mismatch"])

    def test_flipped_verdict_is_a_failed_op(self):
        wl = workloads.tiny(workloads.DECLARED["trial_checks"])
        refs = tiny_references(wl)

        def flip(run_trial):
            def flipped(*args, **kwargs):
                rep = run_trial(*args, **kwargs)
                first = rep.reports[0]
                reports = [dataclasses.replace(first, satisfied=not first.satisfied), *rep.reports[1:]]
                return dataclasses.replace(rep, reports=reports)
            return flipped

        with mock.patch.object(plantrec.experiment, "run_trial", flip(plantrec.experiment.run_trial)):
            result = measure(wl, False, refs)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("reports[0][3]", result["units"][0]["mismatch"])

    def test_corrupted_trial_partition_is_a_failed_op(self):
        wl = workloads.tiny(workloads.DECLARED["trial_checks"])
        refs = tiny_references(wl)
        recover = plantrec.experiment.recover_with_trace

        def swapped(g, s):
            result, traces = recover(g, s)
            return swap_first_vertices(result), traces

        with mock.patch.object(plantrec.experiment, "recover_with_trace", swapped):
            result = measure(wl, False, refs)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("program_exact", result["units"][0]["mismatch"])

    def test_float_tolerance(self):
        want = {"x": [1.0, "a", True, 3], "y": float("inf")}
        self.assertIsNone(workloads.first_mismatch({"x": [1.0 + 5e-8, "a", True, 3], "y": float("inf")}, want))
        self.assertIsNotNone(workloads.first_mismatch({"x": [1.0 + 5e-7, "a", True, 3], "y": float("inf")}, want))
        self.assertIsNotNone(workloads.first_mismatch({"x": [1.0, "a", False, 3], "y": float("inf")}, want))
        self.assertIsNotNone(workloads.first_mismatch({"x": [1.0, "a", True, 3.0], "y": float("inf")}, want))
        self.assertIsNotNone(workloads.first_mismatch({"x": [1.0, "a", True], "y": float("inf")}, want))


class Tracing(unittest.TestCase):
    def test_traced_runs_restore_every_attribute(self):
        before = attribute_snapshot()
        for wl in workloads.WORKLOADS.values():
            result = measure(workloads.tiny(wl), True)
            self.assertTrue(result["spans"], wl.name)
            self.assertEqual(result["failed"], 0, wl.name)
        after = attribute_snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_restores_when_the_program_raises(self):
        before = attribute_snapshot()
        tracer = tracing.Tracer()
        with self.assertRaises(plantrec.errors.ZeroSizeError):
            with tracer:
                plantrec.recovery.identify_clusters(plantrec.model.Graph(adj=[[0]]), 0)
        self.assertEqual(tracer.spans[0].name, "recovery.identify")
        after = attribute_snapshot()
        self.assertEqual([k for k in before if before[k] is not after[k]], [])

    def test_plan_matches_the_program(self):
        with tracing.Tracer() as tracer:
            pass
        self.assertEqual(tracer.missing, [])


class Metrics(unittest.TestCase):
    def test_result_line_carries_exactly_the_declared_metrics(self):
        for wl in workloads.DECLARED.values():
            for trace, section, units in ((False, "end_to_end", run.E2E_UNITS), (True, "per_layer", tracing.LAYER_UNITS)):
                result = measure(workloads.tiny(wl), trace)
                self.assertLessEqual(set(result["metrics"]), set(units))
                line = run.result_line(result, DECLARED)
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                declared = {m["name"]: m["unit"] for m in DECLARED[section]}
                self.assertEqual(list(line["metrics"]), list(declared), (wl.name, section))
                for name, metric in line["metrics"].items():
                    self.assertEqual(metric["unit"], declared[name], name)
                    self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_declared_name_has_a_unit_here(self):
        self.assertLessEqual({m["name"] for m in DECLARED["end_to_end"]}, set(run.E2E_UNITS))
        self.assertEqual([m["name"] for m in DECLARED["per_layer"]], list(tracing.LAYER_UNITS))
        self.assertEqual({w["name"] for w in DECLARED["workloads"]}, set(workloads.DECLARED))


class Packaging(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = run.HERE / "work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "recover_deep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
