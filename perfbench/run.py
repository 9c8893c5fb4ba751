#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload serve-overload --seed 1 \
        --seconds 10 --trace 0

Run it from the repository root. On first use it builds the driver
(perfbench/CMakeLists.txt: the library from src/ plus the driver sources) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Each invocation runs
one workload in its own child process, so peak memory and set-up time belong
to that workload alone. The last stdout line is the result object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run (see perfbench/README.md), each with the unit BENCHMARK.json gives
it. --smoke runs short inputs for the
benchmark's own tests: the metric contract is checked, the numbers are not
measurements.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve-overload", "diurnal-replay", "plan-k16")
CHILD_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_driver():
    """Configures and builds the driver binary; returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def metric_units(trace):
    """{name: unit} of the metrics a result carries, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def reject_duplicates(pairs):
    keys = [k for k, _ in pairs]
    duplicates = {k for k in keys if keys.count(k) > 1}
    if duplicates:
        raise ValueError(f"duplicate keys {sorted(duplicates)}")
    return dict(pairs)


def contract_result(child, trace):
    """The result object for the driver's result line, with units attached.

    The driver prints the values its workload measured, by name. A per-layer
    metric of a layer the workload does not run reports 0; a missing
    end-to-end metric, an unknown name or a malformed line raises ValueError.
    """
    if set(child) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(child)}")
    if not isinstance(child["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(child[key], int) or isinstance(child[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if child["attempted"] < 1:
        raise ValueError("attempted < 1")
    units = metric_units(trace)
    measured = child["metrics"]
    unknown = sorted(set(measured) - set(units))
    missing = [] if trace else sorted(set(units) - set(measured))
    if unknown or missing:
        raise ValueError(f"metric names: missing {missing}, unknown {unknown}")
    metrics = {}
    for name, unit in units.items():
        value = measured.get(name, 0.0)
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(f"{name}: value {value!r} is not a finite number")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": child["correct"], "attempted": child["attempted"],
            "failed": child["failed"], "metrics": metrics}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="planner threads (0 = the workload's default)")
    parser.add_argument("--smoke", action="store_true",
                        help="short inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.threads < 0:
        parser.error("--seed, --seconds and --threads must be >= 0")

    try:
        binary = build_driver()
    except (subprocess.SubprocessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--threads={args.threads}"]
    if args.smoke:
        command.append("--smoke")
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {CHILD_TIMEOUT_S} s")
        return 1
    lines = child.stdout.splitlines()
    if not lines:
        log(f"{args.workload} printed nothing (exit {child.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = contract_result(
            json.loads(lines[-1], object_pairs_hook=reject_duplicates),
            bool(args.trace))
    except ValueError as error:
        log(f"contract violation ({error}): {lines[-1]!r}")
        return 1
    print(json.dumps(result), flush=True)
    if child.returncode != 0 or not result["correct"]:
        log(f"{args.workload}: {result['failed']} of {result['attempted']} "
            f"checked operations failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
