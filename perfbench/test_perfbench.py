#!/usr/bin/env python3
"""The benchmark's own test: seed determinism, metric names, and the
median-density guard, for every workload of BENCHMARK.json.

Run from anywhere: python3 perfbench/test_perfbench.py
Each workload runs four short times (two seeds, untraced and traced).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
SECONDS = "3"
# The share of latency samples within ±10% of p50 below which the median
# sits in a gap between clusters. A broad plateau over two decades of
# latency still gives about 0.05.
MIN_P50_DENSITY = 0.03
REPORT_PREFIX = "perfbench-report "


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    reports = [l for l in lines if l.startswith(REPORT_PREFIX)]
    if proc.returncode != 0 or len(reports) != 1:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stdout[-3000:]}")
    return json.loads(lines[-1]), json.loads(reports[0][len(REPORT_PREFIX):])


class PerfbenchTest(unittest.TestCase):
    def check_workload(self, workload):
        first, first_report = run(workload, 7, 0)
        again, again_report = run(workload, 7, 0)
        other, other_report = run(workload, 8, 0)
        traced, traced_report = run(workload, 8, 1)

        # Same seed: identical schedule, query list and reference digests.
        self.assertEqual(first_report["inputs"], again_report["inputs"])
        # Another seed: another schedule, same metric names.
        self.assertNotEqual(first_report["inputs"]["schedule_fp"],
                            other_report["inputs"]["schedule_fp"])
        self.assertEqual(traced_report["inputs"], other_report["inputs"])
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        for result in (first, again, other):
            self.assertEqual(set(result["metrics"]), end_to_end)
        self.assertEqual(set(traced["metrics"]), per_layer)

        for result, report in ((first, first_report), (again, again_report),
                               (other, other_report), (traced, traced_report)):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(report["probe_mismatches"], 0)
            self.assertLessEqual(report["env"]["busy_thread_budget"],
                                 report["env"]["nproc"])
            # Median-density guard: the median must not fall into a gap.
            self.assertGreaterEqual(
                report["p50_density"], MIN_P50_DENSITY,
                f"{workload}: p50 falls between clusters {report['classes']}")

    def test_wiki_dpli(self):
        self.check_workload("wiki_dpli")

    def test_wiki_extract(self):
        self.check_workload("wiki_extract")

    def test_replay_wire(self):
        self.check_workload("replay_wire")

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(names, ["wiki_dpli", "wiki_extract", "replay_wire"])


if __name__ == "__main__":
    unittest.main()
