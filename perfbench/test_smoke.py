#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py        # from the repository root

Runs every workload of BENCHMARK.json at --size tiny, with tracing off and
on, and checks that each run is correct, that the emitted metric names are
exactly those BENCHMARK.json lists, and that the fleet day-1 replay matched
the campaign.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("%s --trace %d exited %d:\n%s" % (workload, trace, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    fingerprint = json.loads(lines[-2])["fingerprint"]
    return fingerprint, json.loads(lines[-1]), out.stderr


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, workload, trace):
        fingerprint, result, stderr = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stderr)
        self.assertEqual(result["failed"], 0, stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        expected = {(m["name"], m["unit"]) for m in self.bench[kind]}
        emitted = {(name, m["unit"]) for name, m in result["metrics"].items()}
        self.assertEqual(emitted, expected)
        self.assertEqual(fingerprint["workload"], workload)
        for key in ("nproc", "rustc", "git_rev", "seed", "threads", "connections"):
            self.assertIn(key, fingerprint)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        return result["metrics"]

    def test_every_workload_emits_exactly_the_listed_metrics(self):
        for workload in [w["name"] for w in self.bench["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_fleet_day1_replay_matches_the_campaign(self):
        metrics = self.check("fleet_churn", 1)
        events = metrics["netsim.events"]["value"]
        self.assertGreater(events, 0)
        # A mismatch would also have made the run incorrect.
        self.assertEqual(events, metrics["experiments.program_events"]["value"])
        self.assertGreater(metrics["script.detect_calls"]["value"], 0)

    def test_outside_the_repository_it_fails_without_a_result(self):
        out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                              "--workload", "fleet_churn", "--seed", "1", "--seconds", "1",
                              "--trace", "0"],
                             cwd=os.path.join(ROOT, "perfbench"), capture_output=True, text=True,
                             timeout=60)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
