#!/usr/bin/env python3
"""Tests of the benchmark itself, on the short --smoke inputs.

    python3 perfbench/test_bench.py        # from the repository root

For each workload and both modes: every metric BENCHMARK.json names prints
exactly once, with its unit, as a finite number, and the output checks pass.
The modeled outputs (fingerprint and modeled metrics) must be identical across
back-to-back runs and across planner thread counts. Finally, the benchmark
must refuse to run, without printing a result, from a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODELED = ("avg_total_power_w", "subquery_miss_pct")


def run_bench(workload, trace, *extra, cwd=ROOT, env=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--smoke", "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=900)


def parse(proc):
    lines = proc.stdout.splitlines()
    names = []
    result = json.loads(lines[-1], object_pairs_hook=lambda pairs: (
        names.extend(k for k, _ in pairs), dict(pairs))[1])
    fingerprint = next(l.split(": ", 1)[1] for l in lines
                       if l.startswith("fingerprint: "))
    return result, names, fingerprint


class SmokeTest(unittest.TestCase):
    def check_contract(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result, names, _ = parse(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        entries = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(e["name"] for e in entries))
        for entry in entries:
            self.assertEqual(names.count(entry["name"]), 1, entry["name"])
            got = metrics[entry["name"]]
            self.assertEqual(got["unit"], entry["unit"], entry["name"])
            self.assertTrue(math.isfinite(got["value"]), entry["name"])
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_contract(workload, 0)
                for entry in SPEC["end_to_end"]:
                    self.assertNotEqual(
                        result["metrics"][entry["name"]]["value"], 0.0,
                        entry["name"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_contract(workload, 1)
                if workload == "plan-k16":
                    self.assertEqual(
                        result["metrics"]["sim.events"]["value"], 0.0)

    def test_modeled_outputs_repeat_across_runs_and_threads(self):
        for workload in ("serve-overload", "plan-k16"):
            with self.subTest(workload=workload):
                runs = [run_bench(workload, 0, "--threads", t)
                        for t in ("1", "3", "3")]
                parsed = [parse(p) for p in runs]
                fingerprints = {fp for _, _, fp in parsed}
                self.assertEqual(len(fingerprints), 1, fingerprints)
                for name in MODELED:
                    values = {r["metrics"][name]["value"]
                              for r, _, _ in parsed}
                    self.assertEqual(len(values), 1, (name, values))

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = run_bench(WORKLOADS[0], 0, cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
