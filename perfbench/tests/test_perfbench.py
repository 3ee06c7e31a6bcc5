#!/usr/bin/env python3
"""Self-test of the sweep benchmark, on a tiny size of every workload.

    python3 perfbench/tests/test_perfbench.py

Checks that every named metric is printed with its unit, that the exact
counters repeat across two traced runs, and that a corrupted reference makes
every job fail, so the output check cannot pass vacuously.
"""

import json
import os
import subprocess
import sys
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
WORKLOADS = ["sparse-sim", "dense-classify", "store-preloaded", "served"]


def load(path):
    with open(path) as handle:
        return json.load(handle)


def run(workload, trace, *extra, seed=3):
    """Runs one tiny benchmark and returns its parsed result line, with the
    exact counters the run printed under the key "exact"."""
    completed = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise AssertionError(f"{workload} exited {completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["exact"] = [line.split("=", 1)[1].split() for line in lines
                       if line.strip().startswith("exact_counters =")]
    return result


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.contract = load(os.path.join(ROOT, "BENCHMARK.json"))

    def assert_metrics(self, result, expected):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assert_metrics(result, self.contract["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_exact_counters_repeat_across_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 1)
                second = run(workload, 1)
                for result in (first, second):
                    self.assertTrue(result["correct"])
                    self.assert_metrics(result, self.contract["per_layer"])
                self.assertEqual(len(first["exact"]), 1)
                names = first["exact"][0]
                self.assertEqual(second["exact"], [names])
                self.assertIn("classify.steps", names)
                self.assertIn("simulate.node_rounds", names)
                for local_only in ("cache.hits", "cache.misses", "store.loads", "store.saves"):
                    self.assertEqual(local_only in names, workload != "served", local_only)
                for name in names:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                self.assertGreater(first["metrics"]["simulate.node_rounds"]["value"], 0)
                if workload == "store-preloaded":
                    # Every configuration loads from the store: nothing classifies.
                    self.assertEqual(first["metrics"]["classify.calls"]["value"], 0)
                    self.assertGreater(first["metrics"]["store.loads"]["value"], 0)
                    self.assertGreater(first["metrics"]["store.saves"]["value"], 0)
                else:
                    self.assertGreater(first["metrics"]["classify.steps"]["value"], 0)
                if workload == "served":
                    self.assertGreater(first["metrics"]["fault.injected_events"]["value"], 0)
                else:
                    self.assertEqual(first["metrics"]["cache.duplicate_compiles"]["value"], 0)

    def test_corrupted_reference_fails_every_job(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for trace in (0, 1):
                    result = run(workload, trace, "--corrupt-reference")
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], result["attempted"])  # fail_frac = 1


if __name__ == "__main__":
    unittest.main()
