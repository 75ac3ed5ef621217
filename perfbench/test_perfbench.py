#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run the real benchmark with one-second runs, so they take about two
minutes and build kibamrm_perfbench first when needed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark module under test)


def bench(workload, seed=1, trace=0, reference_dir=None):
    """Runs run.py once; returns (manifest line, result line)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    if reference_dir:
        command += ["--reference-dir", reference_dir]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            timeout=600, check=True)
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.spec = json.load(f)
        cls.untraced = bench("fig8_d25", trace=0)
        cls.traced = bench("fig8_d25", trace=1)

    def assert_metrics_match(self, result, declared):
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})

    def test_printed_metrics_match_benchmark_json(self):
        self.assert_metrics_match(self.untraced[1], self.spec["end_to_end"])
        self.assert_metrics_match(self.traced[1], self.spec["per_layer"])
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]},
                             set(run.WORKLOADS))

    def test_current_code_passes_the_check(self):
        for _, result in (self.untraced, self.traced):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)

    def test_traced_and_untraced_curves_are_bitwise_equal(self):
        notes = self.traced[0]["details"]["layer_notes"]
        self.assertTrue(notes["traced_matches_untraced"])

    def test_layer_spans_cover_the_untraced_request(self):
        metrics = self.traced[1]["metrics"]
        self.assertGreaterEqual(metrics["trace_coverage_frac"]["value"], 0.95)

    def test_manifest_names_the_configuration(self):
        manifest = self.untraced[0]["manifest"]
        for key in ("git", "compiler", "flags", "cpu_model", "nproc",
                    "llc_bytes", "kernel_tier", "engine", "engine_threads",
                    "reorder"):
            self.assertIn(key, manifest)
        self.assertEqual(manifest["engine"], "uniformization")

    def test_perturbed_reference_makes_the_check_fail(self):
        scratch = os.path.join(run.build_dir(), "test_perturbed_reference")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(run.REFERENCE_DIR, scratch)
        path = os.path.join(scratch, "fig8_d25.json")
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        data["curves"][0]["probabilities"][28] += 1e-4
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)
        _, result = bench("fig8_d25", reference_dir=scratch)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_multithreaded_fig8_runs_by_hand(self):
        # fig8_d10_mt is no BENCHMARK.json workload (too unsteady on a
        # shared machine) but stays runnable with its committed reference.
        manifest, result = bench("fig8_d10_mt")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(manifest["manifest"]["engine"], "parallel")
        self.assertEqual(manifest["details"]["reference"], "committed")

    def test_seeds_draw_different_sweeps_with_the_same_outcome(self):
        first_manifest, first = bench("sweep", seed=2)
        second_manifest, second = bench("sweep", seed=3)
        first_labels = first_manifest["details"]["scenarios"]
        second_labels = second_manifest["details"]["scenarios"]
        self.assertEqual(len(first_labels), 48)
        self.assertEqual(len(set(first_labels)), 48)
        self.assertNotEqual(first_labels, second_labels)
        self.assertEqual(first_labels[0], run.ANCHOR_LABEL)
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
