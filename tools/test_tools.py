#!/usr/bin/env python3
"""Tests for tools/check_trajectory.py, tools/sweep.py, the committed
bench/trajectories/BENCH_*.json files and tools/eprons_report.py --check.
Stdlib only:

    python3 tools/test_tools.py
"""
import copy
import json
import math
import re
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


def valid_records():
    """One record of every source the report checks, each obeying its
    identities: the C++ golden values, with two schedule epochs that re-sum
    to their summary."""
    epoch = {"source": "epoch_controller", "epoch": 7, "chosen_k": 2.5,
             "feasible": True, "wanted_switches": 12, "actual_switches": 14,
             "predicted_total_w": 3381.25, "realized_network_w": 504,
             "prediction_ratio": 1.31, "slack_total_p95_us": 4200.5,
             "slack_total_p99_us": 6100, "server_budget_us": 25799.5,
             "utilization": 0.3}
    fault = {"source": "fault_recovery", "epoch": 3, "failed_switches": 2,
             "failed_links": 5, "connected": True, "hot_recovery": False,
             "replanned": True, "chosen_k": 1.5, "k_bumped": True,
             "woken_backups": 1, "emergency_boots": 4, "flows_rerouted": 17,
             "time_to_replan_us": 2000000, "estimated_outage_violations": 0.1}
    attribution = {
        "source": "attribution", "producer": "golden", "epoch": 2,
        "chosen_k": 3, "feasible": True, "edge_w": 288, "agg_w": 144,
        "core_w": 36, "link_w": 0, "network_total_w": 468,
        "linger_overhead_w": 36, "edge_switches": 8, "agg_switches": 4,
        "core_switches": 1, "active_links": 0, "linger_switches": 1,
        "server_idle_w": 416, "server_dynamic_w": 340.25,
        "server_dvfs_residual_w": -195.5, "server_total_w": 560.75,
        "hosts": 16, "total_w": 1028.75, "constraint_us": 30000,
        "network_p95_us": 5286.5, "network_p99_us": 7309.5,
        "request_p95_us": 2643.25, "server_budget_us": 24713.5,
        "miss_charged_to": ""}
    candidate = {"k": 1, "feasible": False,
                 "reject_reason": "dvfs_infeasible", "total_w": 1130.25,
                 "network_w": 396, "server_w": 734.25,
                 "violation_probability": 1, "slack_p95_us": 9289.5,
                 "server_budget_us": 20710.5, "active_switches": 11}
    chosen = dict(candidate, k=2, feasible=True, reject_reason="",
                  violation_probability=0.046875)
    explain = {"source": "plan_explain", "producer": "golden", "epoch": 7,
               "path": "cold", "chosen_k": 2, "feasible": True,
               "chosen_total_w": 1007.5, "consolidation_on_w": 468,
               "consolidation_off_w": 720, "candidates": [candidate, chosen]}
    window = {"source": "serving_window", "window": 3, "epoch": 1,
              "window_start_us": 180000000, "window_end_us": 240000000,
              "offered_qps": 42.5, "arrivals": 2550, "admitted": 2400,
              "queued": 120, "shed": 100, "dropped": 50, "late_shed": 7,
              "completed": 2390, "subqueries": 35850, "sla_misses": 12,
              "latency_p50_us": 9500.25, "latency_p95_us": 21000.5,
              "latency_p99_us": 28000.75, "energy_per_admitted_j": 0.125,
              "transition_penalized": 31}
    schedule = [{"source": "schedule_epoch", "epoch": e, "carried_mbit": c,
                 "backlog_mbit": b, "expired_mbit": x, "flows_active": 2,
                 "flows_completed": 1, "cap_mbit": 6000, "cost_level": 0.25,
                 "demand_mbps": 125.5}
                for e, c, b, x in ((0, 4500, 1200, 0), (1, 1000, 0, 200))]
    summary = {"source": "schedule_summary", "epochs": 2, "flows": 2,
               "carried_total_mbit": 5500, "missed_total_mbit": 200,
               "total_volume_mbit": 5700, "deadline_misses": 1,
               "deferred_mbit_epochs": 1000, "used_edf_fallback": False,
               "objective_cost": 0.5}
    return [epoch, dict(epoch, source="trace_replay"), fault, attribution,
            explain, window, *schedule, summary]


def by_source(records, source, index=0):
    return [r for r in records if r["source"] == source][index]


def set_field(source, field, value, index=0):
    def plant(records):
        by_source(records, source, index)[field] = value
    return plant


def one_ulp_up(source, field):
    def plant(records):
        rec = by_source(records, source)
        rec[field] = math.nextafter(rec[field], math.inf)
    return plant


def set_candidate(index, **fields):
    def plant(records):
        by_source(records, "plan_explain")["candidates"][index].update(fields)
    return plant


def drop_source(source):
    def plant(records):
        records[:] = [r for r in records if r["source"] != source]
    return plant


class ReportCheckTest(unittest.TestCase):
    PLANTED = {
        "network_total_w one ulp up":
            one_ulp_up("attribution", "network_total_w"),
        "server_total_w one ulp up":
            one_ulp_up("attribution", "server_total_w"),
        "total_w one ulp up": one_ulp_up("attribution", "total_w"),
        "arrivals off by one": set_field("serving_window", "arrivals", 2551),
        "carried + missed != total volume":
            set_field("schedule_summary", "total_volume_mbit", 5701),
        "epoch carried column off its summary":
            set_field("schedule_epoch", "carried_mbit", 999, 1),
        "epoch expired column off its summary":
            set_field("schedule_epoch", "expired_mbit", 201, 1),
        "negative late_shed": set_field("serving_window", "late_shed", -1),
        "negative backlog": set_field("schedule_epoch", "backlog_mbit", -1),
        "p95 above p99":
            set_field("serving_window", "latency_p95_us", 28000.76),
        "sla_misses above subqueries":
            set_field("serving_window", "sla_misses", 35851),
        "deadline_misses above flows":
            set_field("schedule_summary", "deadline_misses", 3),
        "linger_switches above active switches":
            set_field("attribution", "linger_switches", 14),
        "null ledger field": set_field("attribution", "edge_w", None),
        "rejected candidate without a reason":
            set_candidate(0, reject_reason=""),
        "feasible candidate with a reason":
            set_candidate(1, reject_reason="budget_exhausted"),
        "unknown path": set_field("plan_explain", "path", "lukewarm"),
        "empty candidate table": set_field("plan_explain", "candidates", []),
        "no attribution records": drop_source("attribution"),
    }

    def check(self, records):
        with tempfile.TemporaryDirectory() as d:
            log = Path(d) / "run" / "epoch.jsonl"
            log.parent.mkdir()
            log.write_text("".join(json.dumps(r) + "\n" for r in records))
            return subprocess.run(
                [sys.executable, str(TOOLS / "eprons_report.py"),
                 str(log.parent), "--out", d, "--check"],
                capture_output=True, text=True)

    def test_valid_log_of_every_source_passes(self):
        proc = self.check(valid_records())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_each_planted_violation_fails(self):
        for name, plant in self.PLANTED.items():
            with self.subTest(violation=name):
                records = copy.deepcopy(valid_records())
                plant(records)
                self.assertEqual(self.check(records).returncode, 1)


class RecordSchemaTest(unittest.TestCase):
    def test_identities_name_declared_numeric_fields(self):
        schema = json.loads((TOOLS / "record_schema.json").read_text())
        for decl in schema["records"]:
            for identity in decl["identities"]:
                for name in re.split(r" == | <= | < |, | \+ ", identity):
                    with self.subTest(identity=identity, name=name):
                        self.assertTrue(name == "0" or decl["fields"].get(
                            name) in ("integer", "number"))


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
