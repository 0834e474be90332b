#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/test_perfbench.py

Runs every workload in BENCHMARK.json at smoke size, untraced and traced, and
asserts that each run passes every check, reports zero failed operations,
prints every declared metric with its unit (in the report and in the final
JSON line), and that the traced run leaves a span dump spans.py can read.
Also asserts that a directory holding only BENCHMARK.json and perfbench/
fails cleanly: non-zero exit and no result line.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "out")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class BenchmarkSpec(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:] + done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertFalse([l for l in lines if "check FAIL" in l])
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            printed = [l for l in lines if l.strip().startswith(m["name"] + " = ")]
            self.assertTrue(printed and printed[0].rstrip().endswith(" " + m["unit"]), m["name"])
        if not trace:
            for m in declared:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        return lines

    def test_every_workload(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload, trace=0):
                self.check_run(workload, 0)
            with self.subTest(workload=workload, trace=1):
                self.check_run(workload, 1)
                dump = os.path.join(OUT, "spans-%s.jsonl" % workload)
                self.assertTrue(os.path.getsize(dump) > 0)
                summary = subprocess.run([sys.executable, os.path.join(HERE, "spans.py"), dump],
                                         capture_output=True, text=True)
                self.assertEqual(summary.returncode, 0, summary.stderr)
                self.assertIn("named layers account for", summary.stdout)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("admit_mix", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
