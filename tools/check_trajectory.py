#!/usr/bin/env python3
"""CI regression gate against a committed bench trajectory.

Two machine-independent contracts are enforced (wall-clock alone is
hardware noise on shared runners, so it is recorded but never gated):

1. **Ledger fingerprint** — every `--jsonl` file passed (the
   `--epoch-log` streams from runs at different `--threads` values) must
   be byte-identical. The attribution ledger is part of the planner's
   determinism surface; a divergent byte means a thread-count-dependent
   code path leaked into the epoch record.

2. **Within-run speedup** — `--perf` points at the stdout of
   bench_micro_parallel_planner, which measures the fast and reference
   pipelines in the *same* process on the *same* machine. Their ratio is
   machine-independent to first order, so it gates: the measured
   `speedup_vs_reference` must stay within `--max-regression` (default
   15%) of the newest committed trajectory point, and the bench's own
   `identical=yes` fingerprint verdict must be present.

    python3 tools/check_trajectory.py \
        --trajectory bench/trajectories/BENCH_7.json \
        --perf perf.txt --jsonl e1.jsonl e4.jsonl e8.jsonl

Exits 0 when every supplied gate passes, 1 otherwise. Stdlib only.
"""
import argparse
import hashlib
import json
import re
import sys
from pathlib import Path


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def gate_jsonl(paths):
    digests = {p: sha256_of(p) for p in paths}
    for p, d in digests.items():
        print(f"[trajectory] {p}: sha256={d[:16]}")
    if len(set(digests.values())) != 1:
        print("[trajectory] FAIL: epoch-log streams differ across runs "
              "(thread-count-dependent ledger output)", file=sys.stderr)
        return False
    print(f"[trajectory] ledger fingerprint identical across "
          f"{len(paths)} runs")
    return True


def committed_speedup(trajectory):
    points = [p for p in trajectory.get("trajectory", [])
              if "speedup_vs_reference" in p]
    if not points:
        raise SystemExit("[trajectory] committed trajectory has no "
                         "speedup_vs_reference point to gate against")
    return points[-1]["speedup_vs_reference"], points[-1].get("label", "?")


def gate_perf(perf_path, trajectory, max_regression):
    text = Path(perf_path).read_text()
    ok = True
    if not re.search(r"^fingerprint fast=([0-9a-f]{16}) reference=\1 "
                     r"identical=yes$", text, re.M):
        print("[trajectory] FAIL: no matching 'identical=yes' fingerprint "
              "line in perf output", file=sys.stderr)
        ok = False
    m = re.search(r"serial cold sweep: reference ([0-9.]+) ms, "
                  r"fast ([0-9.]+) ms \(([0-9.]+)x\)", text)
    if not m:
        print("[trajectory] FAIL: no 'serial cold sweep' line in perf "
              "output", file=sys.stderr)
        return False
    measured = float(m.group(3))
    committed, label = committed_speedup(trajectory)
    floor = committed * (1.0 - max_regression)
    print(f"[trajectory] fast-vs-reference speedup: measured "
          f"{measured:.2f}x, committed {committed:.2f}x ({label}), "
          f"floor {floor:.2f}x at {max_regression:.0%} tolerance")
    if measured < floor:
        print(f"[trajectory] FAIL: speedup {measured:.2f}x regressed more "
              f"than {max_regression:.0%} below committed "
              f"{committed:.2f}x", file=sys.stderr)
        ok = False
    return ok


def gate_hierarchy(path, max_power_ratio, max_flowpath_ratio):
    """Gates the stdout of bench_ablation_hierarchy.

    Three machine-independent contracts:
      * every `hierarchical t=N` row prints the same placement
        fingerprint (thread-count determinism, within one run);
      * the k=4/k=8 power-gap tables stay under `max_power_ratio`
        (the decomposition's bounded optimality loss);
      * the k=16 cold sweep costs at most `max_flowpath_ratio` times the
        k=4 sweep per flow x candidate-path (the scale contract; raw
        wall-clock across scales only measures that the instance grew).
    """
    text = Path(path).read_text()
    ok = True

    fps = re.findall(r"hierarchical t=\d+\s+[0-9.]+\s+\d+\s+([0-9a-f]{16})",
                     text)
    if len(fps) < 2:
        print("[trajectory] FAIL: fewer than two 'hierarchical t=N' rows "
              "in hierarchy bench output", file=sys.stderr)
        ok = False
    elif len(set(fps)) != 1:
        print(f"[trajectory] FAIL: hierarchical fingerprints differ across "
              f"thread counts: {sorted(set(fps))}", file=sys.stderr)
        ok = False
    else:
        print(f"[trajectory] hierarchical fingerprint {fps[0]} identical "
              f"across {len(fps)} thread counts")

    gap_rows = re.findall(
        r"^(4|8)\s+\d+\s+(\d+)\s+[0-9.]+\s+[0-9.]+\s+[0-9.]+\s+([0-9.]+)\s*$",
        text, re.M)
    if not gap_rows:
        print("[trajectory] FAIL: no power-gap rows in hierarchy bench "
              "output", file=sys.stderr)
        ok = False
    for k_ary, compared, max_ratio in gap_rows:
        ratio = float(max_ratio)
        print(f"[trajectory] k={k_ary} power gap: {compared} instances, "
              f"max hier/flat ratio {ratio:.3f} (gate {max_power_ratio})")
        if int(compared) == 0 or ratio > max_power_ratio:
            print(f"[trajectory] FAIL: k={k_ary} power-gap gate violated",
                  file=sys.stderr)
            ok = False

    m = re.search(r"^k16_vs_k4_per_flowpath_ratio: ([0-9.]+)$", text, re.M)
    if not m:
        print("[trajectory] FAIL: no k16_vs_k4_per_flowpath_ratio line in "
              "hierarchy bench output", file=sys.stderr)
        ok = False
    else:
        ratio = float(m.group(1))
        print(f"[trajectory] k=16 per-flowpath sweep cost: {ratio:.3f}x the "
              f"k=4 sweep (gate {max_flowpath_ratio}x)")
        if ratio > max_flowpath_ratio:
            print(f"[trajectory] FAIL: k=16 per-flowpath cost {ratio:.3f}x "
                  f"exceeds {max_flowpath_ratio}x of the k=4 sweep",
                  file=sys.stderr)
            ok = False
    return ok


def gate_serving(paths, trajectory, max_regression):
    """Gates bench_serving_openloop stdout from >=1 runs (e.g. --threads
    1/4/8).

    Machine-independent contracts:
      * every run prints the same `serving-fingerprint` (the FNV-1a digest
        of all ServingWindowRecord lines) and the same
        `serving_total_arrivals` — the serving determinism surface: the
        arrival stream and the whole windowed report are thread-count
        invariant;
      * that fingerprint equals the newest committed `serving_fingerprint`,
        so a change that alters any modeled serving output fails here
        (commit a new trajectory point when the change is intended);
      * `serving_throughput_qps` (modeled completions per modeled second,
        not wall-clock) stays within `max_regression` of the newest
        committed trajectory point.
    """
    runs = []
    ok = True
    for path in paths:
        text = Path(path).read_text()
        fp = re.search(r"^serving-fingerprint: ([0-9a-f]{16})$", text, re.M)
        tp = re.search(r"^serving_throughput_qps: ([0-9.]+)$", text, re.M)
        ar = re.search(r"^serving_total_arrivals: (\d+)$", text, re.M)
        if not (fp and tp and ar):
            print(f"[trajectory] FAIL: {path} is missing serving trailer "
                  f"lines (fingerprint/throughput/arrivals)", file=sys.stderr)
            return False
        runs.append((path, fp.group(1), float(tp.group(1)),
                     int(ar.group(1))))

    fps = {r[1] for r in runs}
    arrivals = {r[3] for r in runs}
    if len(fps) != 1:
        print(f"[trajectory] FAIL: serving fingerprints differ across runs: "
              f"{sorted(fps)}", file=sys.stderr)
        ok = False
    if len(arrivals) != 1:
        print(f"[trajectory] FAIL: serving arrival counts differ across "
              f"runs: {sorted(arrivals)}", file=sys.stderr)
        ok = False
    if next(iter(arrivals)) <= 0:
        print("[trajectory] FAIL: serving run saw no arrivals",
              file=sys.stderr)
        ok = False
    if ok:
        print(f"[trajectory] serving fingerprint {runs[0][1]} and "
              f"{runs[0][3]} arrivals identical across {len(runs)} runs")

    pinned = [p for p in trajectory.get("trajectory", [])
              if "serving_fingerprint" in p]
    if not pinned:
        print("[trajectory] FAIL: committed trajectory has no "
              "serving_fingerprint to gate against", file=sys.stderr)
        return False
    committed_fp = pinned[-1]["serving_fingerprint"]
    if fps != {committed_fp}:
        print(f"[trajectory] FAIL: serving fingerprint {sorted(fps)} differs "
              f"from the committed {committed_fp} "
              f"({pinned[-1].get('label', '?')})", file=sys.stderr)
        ok = False
    else:
        print(f"[trajectory] serving fingerprint matches the committed "
              f"{committed_fp}")

    points = [p for p in trajectory.get("trajectory", [])
              if "serving_throughput_qps" in p]
    if not points:
        print("[trajectory] FAIL: committed trajectory has no "
              "serving_throughput_qps point to gate against",
              file=sys.stderr)
        return False
    committed = points[-1]["serving_throughput_qps"]
    label = points[-1].get("label", "?")
    measured = runs[0][2]
    floor = committed * (1.0 - max_regression)
    print(f"[trajectory] serving throughput: measured {measured:.2f} qps, "
          f"committed {committed:.2f} qps ({label}), floor {floor:.2f} qps "
          f"at {max_regression:.0%} tolerance")
    if measured < floor:
        print(f"[trajectory] FAIL: serving throughput {measured:.2f} qps "
              f"regressed more than {max_regression:.0%} below committed "
              f"{committed:.2f} qps", file=sys.stderr)
        ok = False
    return ok


def gate_temporal(paths, trajectory, max_regression):
    """Gates bench_ablation_temporal stdout from >=1 runs (e.g. --threads
    1/4/8).

    Machine-independent contracts:
      * every run prints the same `temporal-fingerprint` (FNV-1a over the
        schedule dump and both realized network-power columns) — the
        scheduler and planner are thread-count invariant;
      * `temporal_hard_deadline_misses` is exactly 0 — the EDF fallback
        guarantees zero misses whenever any schedule exists, and the
        committed instance is feasible;
      * `temporal_trough_network_w` is strictly below
        `baseline_trough_network_w` — deferring deadline-bound volume out
        of the night must deepen the trough shutdown;
      * `temporal_trough_saving_pct` stays within `max_regression` of the
        newest committed trajectory point.
    """
    runs = []
    for path in paths:
        text = Path(path).read_text()
        fp = re.search(r"^temporal-fingerprint: ([0-9a-f]{16})$", text, re.M)
        base = re.search(r"^baseline_trough_network_w: ([0-9.]+)$", text,
                         re.M)
        temp = re.search(r"^temporal_trough_network_w: ([0-9.]+)$", text,
                         re.M)
        save = re.search(r"^temporal_trough_saving_pct: (-?[0-9.]+)$", text,
                         re.M)
        miss = re.search(r"^temporal_hard_deadline_misses: (\d+)$", text,
                         re.M)
        if not (fp and base and temp and save and miss):
            print(f"[trajectory] FAIL: {path} is missing temporal trailer "
                  f"lines", file=sys.stderr)
            return False
        runs.append((path, fp.group(1), float(base.group(1)),
                     float(temp.group(1)), float(save.group(1)),
                     int(miss.group(1))))

    ok = True
    fps = {r[1] for r in runs}
    if len(fps) != 1:
        print(f"[trajectory] FAIL: temporal fingerprints differ across "
              f"runs: {sorted(fps)}", file=sys.stderr)
        ok = False
    else:
        print(f"[trajectory] temporal fingerprint {runs[0][1]} identical "
              f"across {len(runs)} runs")

    _, _, base_w, temp_w, saving, misses = runs[0]
    if misses != 0:
        print(f"[trajectory] FAIL: {misses} hard-deadline misses (must be "
              f"0)", file=sys.stderr)
        ok = False
    if not temp_w < base_w:
        print(f"[trajectory] FAIL: temporal trough power {temp_w:.1f} W is "
              f"not strictly below the K-only baseline {base_w:.1f} W",
              file=sys.stderr)
        ok = False
    else:
        print(f"[trajectory] trough network power: baseline {base_w:.1f} W "
              f"-> temporal {temp_w:.1f} W ({saving:.1f}% saving), 0 misses")

    points = [p for p in trajectory.get("trajectory", [])
              if "temporal_trough_saving_pct" in p]
    if not points:
        print("[trajectory] FAIL: committed trajectory has no "
              "temporal_trough_saving_pct point to gate against",
              file=sys.stderr)
        return False
    committed = points[-1]["temporal_trough_saving_pct"]
    label = points[-1].get("label", "?")
    floor = committed * (1.0 - max_regression)
    print(f"[trajectory] trough saving: measured {saving:.2f}%, committed "
          f"{committed:.2f}% ({label}), floor {floor:.2f}% at "
          f"{max_regression:.0%} tolerance")
    if saving < floor:
        print(f"[trajectory] FAIL: trough saving {saving:.2f}% regressed "
              f"more than {max_regression:.0%} below committed "
              f"{committed:.2f}%", file=sys.stderr)
        ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(
        description="gate CI on the committed bench trajectory")
    parser.add_argument("--trajectory", required=True,
                        help="committed bench/trajectories/BENCH_N.json")
    parser.add_argument("--perf", default=None,
                        help="bench_micro_parallel_planner stdout to gate "
                             "the fast-vs-reference speedup")
    parser.add_argument("--jsonl", nargs="+", default=[],
                        help="epoch-log files that must be byte-identical")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="allowed fractional speedup regression "
                             "(default 0.15)")
    parser.add_argument("--hierarchy", default=None,
                        help="bench_ablation_hierarchy stdout to gate the "
                             "cross-thread fingerprint, power gap, and "
                             "k=16 per-flowpath cost")
    parser.add_argument("--max-power-ratio", type=float, default=1.6,
                        help="allowed hier/flat power ratio on k=4/k=8 "
                             "(default 1.6)")
    parser.add_argument("--max-flowpath-ratio", type=float, default=2.0,
                        help="allowed k=16-vs-k=4 per-flowpath sweep cost "
                             "ratio (default 2.0)")
    parser.add_argument("--serving", nargs="+", default=[],
                        help="bench_serving_openloop stdout files (one per "
                             "--threads value) to gate the serving "
                             "fingerprint and modeled throughput")
    parser.add_argument("--temporal", nargs="+", default=[],
                        help="bench_ablation_temporal stdout files (one "
                             "per --threads value) to gate the schedule "
                             "fingerprint, zero-miss contract, and trough "
                             "saving")
    args = parser.parse_args()

    with open(args.trajectory) as fh:
        trajectory = json.load(fh)
    if (not args.perf and not args.hierarchy and not args.serving
            and not args.temporal and len(args.jsonl) < 2):
        raise SystemExit("[trajectory] nothing to gate: pass --perf, "
                         "--hierarchy, --serving, --temporal, and/or two "
                         "or more --jsonl files")

    ok = True
    if len(args.jsonl) >= 2:
        ok = gate_jsonl(args.jsonl) and ok
    elif args.jsonl:
        raise SystemExit("[trajectory] --jsonl needs at least two files "
                         "to compare")
    if args.perf:
        ok = gate_perf(args.perf, trajectory, args.max_regression) and ok
    if args.hierarchy:
        ok = gate_hierarchy(args.hierarchy, args.max_power_ratio,
                            args.max_flowpath_ratio) and ok
    if args.serving:
        ok = gate_serving(args.serving, trajectory,
                          args.max_regression) and ok
    if args.temporal:
        ok = gate_temporal(args.temporal, trajectory,
                           args.max_regression) and ok

    if ok:
        print("[trajectory] all gates passed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
