#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size.

    python3 perfbench/test_bench.py

Builds the benchmark, runs its C++ unit tests (the correctness oracles catch
a corrupted query answer, prediction, ledger or report), then runs every
workload briefly with --smoke in both modes and checks that the last line is
the verdict JSON naming exactly the metrics BENCHMARK.json lists, each with
its unit.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(["perfbench", "perfbench_test"])

    def test_oracles_catch_corruption(self):
        proc = subprocess.run([str(self.build / "perfbench_test")],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [str(self.build / "perfbench"), "--workload", workload, "--seed",
             "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, catalog in ((0, SPEC["end_to_end"]),
                                   (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    lines, verdict = self.run_bench(workload, trace)
                    self.assertEqual(set(verdict),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertIs(verdict["correct"], True)
                    self.assertGreaterEqual(verdict["attempted"], 1)
                    self.assertEqual(verdict["failed"], 0)
                    want = {m["name"]: m["unit"] for m in catalog}
                    got = {name: m["unit"]
                           for name, m in verdict["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in verdict["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float))
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)
                    self.assertTrue(any(l.startswith("env {") for l in lines))
                    self.assertTrue(any(l.startswith("ops ") for l in lines))

    def test_bad_arguments_print_no_verdict(self):
        proc = subprocess.run(
            [str(self.build / "perfbench"), "--workload", "nope", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
