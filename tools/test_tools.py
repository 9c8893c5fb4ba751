#!/usr/bin/env python3
"""Tests for tools/check_trajectory.py, tools/sweep.py and the committed
bench/trajectories/BENCH_*.json files. Stdlib only:

    python3 tools/test_tools.py
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
TRAJECTORIES = TOOLS.parent / "bench" / "trajectories"
sys.path.insert(0, str(TOOLS))
import check_trajectory  # noqa: E402

STDOUT = "table\nfp: 00ff00ff00ff00ff\nqps: 100.0\nratio: 1.5\n"


def make_runs(root, count=3, stdout=STDOUT):
    dirs = []
    for i in range(count):
        run = Path(root) / f"threads-{i}"
        run.mkdir()
        (run / "stdout.txt").write_text(stdout)
        (run / "epoch.jsonl").write_text('{"source": "attribution"}\n')
        (run / "metrics.json").write_text('{"counters": {}}\n')
        dirs.append(run)
    return dirs


def write_trajectory(root, metrics):
    path = Path(root) / "BENCH_T.json"
    point = {"date": "d", "label": "l", "note": "n", "metrics": metrics}
    path.write_text(json.dumps({"trajectory": [point]}))
    return path


def gate(dirs, trajectory=None):
    cmd = [sys.executable, str(TOOLS / "check_trajectory.py"),
           *map(str, dirs)]
    if trajectory:
        cmd += ["--trajectory", str(trajectory)]
    return subprocess.run(cmd, capture_output=True, text=True).returncode


def gated(metric, value, better, tolerance=0):
    return {"metric": metric, "value": value, "unit": "",
            "better": better, "tolerance": tolerance}


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_identical_runs_pass(self):
        dirs = make_runs(self.root)
        trajectory = write_trajectory(self.root, [
            gated("fp", "00ff00ff00ff00ff", "same"),
            gated("qps", 110.0, "higher", 0.15),
            {"metric": "history_only", "value": 1, "unit": ""}])
        self.assertEqual(gate(dirs), 0)
        self.assertEqual(gate(dirs, trajectory), 0)

    def test_one_changed_byte_fails(self):
        for name in check_trajectory.COMPARED:
            with self.subTest(name=name), tempfile.TemporaryDirectory() as d:
                dirs = make_runs(d)
                data = bytearray((dirs[2] / name).read_bytes())
                data[-2] ^= 1
                (dirs[2] / name).write_bytes(bytes(data))
                self.assertEqual(gate(dirs), 1)

    def test_file_written_by_some_runs_fails(self):
        dirs = make_runs(self.root)
        (dirs[1] / "epoch.jsonl").unlink()
        self.assertEqual(gate(dirs), 1)

    def test_missing_trailer_line_fails(self):
        dirs = make_runs(self.root, stdout="table\nqps: 100.0\n")
        trajectory = write_trajectory(
            self.root, [gated("fp", "00ff00ff00ff00ff", "same")])
        self.assertEqual(gate(dirs), 0)
        self.assertEqual(gate(dirs, trajectory), 1)

    def test_rules_at_their_boundaries(self):
        cases = [  # (committed metric, measured, passes)
            (gated("fp", "00ff00ff00ff00ff", "same"), "00ff00ff00ff00ff",
             True),
            (gated("fp", "00ff00ff00ff00ff", "same"), "00ff00ff00ff00fe",
             False),
            (gated("misses", 0, "same"), "0", True),
            (gated("misses", 0, "same"), "1", False),
            (gated("qps", 100.0, "higher", 0.15), "85", True),
            (gated("qps", 100.0, "higher", 0.15), "84.999", False),
            (gated("ratio", 1.6, "lower"), "1.6", True),
            (gated("ratio", 1.6, "lower"), "1.601", False),
            (gated("ratio", 2.0, "lower", 0.1), "2.2", True),
            (gated("ratio", 2.0, "lower", 0.1), "2.2001", False),
            (gated("qps", 100.0, "higher"), "not-a-number", False),
        ]
        for metric, measured, passes in cases:
            with self.subTest(metric=metric, measured=measured):
                self.assertEqual(check_trajectory.holds(metric, measured),
                                 passes)
                with tempfile.TemporaryDirectory() as d:
                    dirs = make_runs(
                        d, stdout=f"{metric['metric']}: {measured}\n")
                    trajectory = write_trajectory(d, [metric])
                    self.assertEqual(gate(dirs, trajectory),
                                     0 if passes else 1)


class TrajectoryShapeTest(unittest.TestCase):
    # The limits the CI gate held before they moved into the files.
    LIMITS = {
        ("BENCH_7", "plan-fingerprint"): ("same", "b0841b375e7c83e4"),
        ("BENCH_7", "speedup_vs_reference"): ("higher", 2.635),
        ("BENCH_8", "hierarchical-fingerprint"): ("same", "6d134f5a50bc6550"),
        ("BENCH_8", "power_gap_k4_compared"): ("higher", 1),
        ("BENCH_8", "power_gap_k4_max_ratio"): ("lower", 1.6),
        ("BENCH_8", "power_gap_k8_compared"): ("higher", 1),
        ("BENCH_8", "power_gap_k8_max_ratio"): ("lower", 1.6),
        ("BENCH_8", "k16_vs_k4_per_flowpath_ratio"): ("lower", 2.0),
        ("BENCH_9", "serving-fingerprint"): ("same", "24c61c098a681b83"),
        ("BENCH_9", "serving_throughput_qps"): ("higher", 266.71895),
        ("BENCH_9", "serving_total_arrivals"): ("same", 742305),
        ("BENCH_10", "temporal-fingerprint"): ("same", "c5b5c86de05e2a40"),
        ("BENCH_10", "temporal_trough_saving_pct"): ("higher", 8.79325),
        ("BENCH_10", "temporal_hard_deadline_misses"): ("same", 0),
    }

    def test_every_point_has_one_shape(self):
        files = sorted(TRAJECTORIES.glob("BENCH_*.json"))
        self.assertTrue(files)
        for path in files:
            for point in json.loads(path.read_text())["trajectory"]:
                with self.subTest(file=path.name, label=point.get("label")):
                    self.assertEqual(set(point),
                                     {"date", "label", "note", "metrics"})
                    for m in point["metrics"]:
                        self.assertTrue({"metric", "value", "unit"} <= set(m))
                        self.assertTrue(set(m) <= {"metric", "value", "unit",
                                                   "better", "tolerance"})

    def test_gated_limits_are_unchanged(self):
        limits = {}
        for path in TRAJECTORIES.glob("BENCH_*.json"):
            newest = json.loads(path.read_text())["trajectory"][-1]
            for m in newest["metrics"]:
                if "better" in m:
                    limits[(path.stem, m["metric"])] = (
                        m["better"], check_trajectory.bound(m))
        self.assertEqual(set(limits), set(self.LIMITS))
        for key, (rule, expected) in self.LIMITS.items():
            with self.subTest(key=key):
                self.assertEqual(limits[key][0], rule)
                if isinstance(expected, float):
                    self.assertAlmostEqual(limits[key][1], expected, places=9)
                else:
                    self.assertEqual(limits[key][1], expected)


class SweepTest(unittest.TestCase):
    def sweep(self, cwd, binary, body, *args):
        script = Path(cwd) / Path(binary).name
        script.write_text("#!/bin/sh\n" + body)
        script.chmod(0o755)
        return subprocess.run(
            [sys.executable, str(TOOLS / "sweep.py"), binary, "--out", "out",
             *args], cwd=cwd, capture_output=True, text=True)

    def test_timeout_after_output_records_every_grid_point(self):
        with tempfile.TemporaryDirectory() as d:
            proc = self.sweep(d, str(Path(d) / "slow.sh"),
                              "echo started\nexec sleep 10\n",
                              "--timeout", "0.5", "--sweep", "a=1,2")
            self.assertEqual(proc.returncode, 1, proc.stderr)
            for point in ("a-1", "a-2"):
                run = Path(d) / "out" / point
                meta = json.loads((run / "meta.json").read_text())
                self.assertEqual(meta["exit_code"], -1)
                self.assertEqual((run / "stdout.txt").read_text(),
                                 "started\n")
                self.assertIn("timeout", (run / "stderr.txt").read_text())

    def test_relative_binary_is_not_searched_on_path(self):
        for binary in ("./ok.sh", "ok.sh"):
            with self.subTest(binary=binary), \
                    tempfile.TemporaryDirectory() as d:
                proc = self.sweep(d, binary, "echo ok\n")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertEqual(
                    (Path(d) / "out" / "run" / "stdout.txt").read_text(),
                    "ok\n")


if __name__ == "__main__":
    unittest.main()
