#!/usr/bin/env python3
"""CI gate over tools/sweep.py run directories.

    python3 tools/check_trajectory.py RUN_DIR... [--trajectory BENCH_N.json]

1. `stdout.txt`, `epoch.jsonl` and `metrics.json` must be byte-identical
   across the run directories, for each of those files the runs wrote
   (the runs differ only in `--threads`, and every output is a function
   of the seed, never of the worker count).
2. With `--trajectory`, every metric of the newest committed point that
   has a `better` rule must appear in each run's stdout as a
   `metric: value` line and hold against the committed `value`:
       same    measured == value
       higher  measured >= value * (1 - tolerance)
       lower   measured <= value * (1 + tolerance)
   An absolute limit is a `value` with tolerance 0.

Exits 0 when every check passes, 1 otherwise. Stdlib only.
"""
import argparse
import json
import re
import sys
from pathlib import Path

COMPARED = ("stdout.txt", "epoch.jsonl", "metrics.json")


def bound(metric):
    """The committed limit a gated metric's measured value is held to."""
    rule, value = metric["better"], metric["value"]
    tolerance = metric.get("tolerance", 0)
    if rule == "same":
        return value
    if rule == "higher":
        return value * (1.0 - tolerance)
    if rule == "lower":
        return value * (1.0 + tolerance)
    raise ValueError(f"{metric['metric']}: unknown rule '{rule}'")


def holds(metric, measured):
    limit = bound(metric)
    if isinstance(limit, str):
        return measured == limit
    try:
        value = float(measured)
    except ValueError:
        return False
    return {"same": value == limit, "higher": value >= limit,
            "lower": value <= limit}[metric["better"]]


def check_identical(run_dirs):
    failures = [f"{d}: no stdout.txt" for d in run_dirs
                if not (d / "stdout.txt").is_file()]
    for name in COMPARED:
        written = [d for d in run_dirs if (d / name).is_file()]
        if written and len(written) != len(run_dirs):
            failures.append(f"{name} written by {len(written)} of "
                            f"{len(run_dirs)} runs")
        elif len({(d / name).read_bytes() for d in written}) > 1:
            failures.append(f"{name} differs across runs")
    return failures


def check_metrics(run_dirs, trajectory):
    point = json.loads(Path(trajectory).read_text())["trajectory"][-1]
    failures = []
    for metric in (m for m in point["metrics"] if "better" in m):
        name, limit = metric["metric"], bound(metric)
        pattern = re.compile(rf"^{re.escape(name)}: (\S+)$", re.M)
        for d in run_dirs:
            found = pattern.search((d / "stdout.txt").read_text())
            if found is None:
                failures.append(f"{d}: no '{name}:' line")
            elif not holds(metric, found.group(1)):
                failures.append(f"{d}: {name} {found.group(1)} fails "
                                f"'{metric['better']}' {limit}")
            else:
                print(f"[gate] {d}: {name} {found.group(1)} "
                      f"({metric['better']} {limit})")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("run_dirs", nargs="+", type=Path,
                        help="tools/sweep.py run directories")
    parser.add_argument("--trajectory",
                        help="committed bench/trajectories/BENCH_N.json")
    args = parser.parse_args()

    failures = check_identical(args.run_dirs)
    if args.trajectory and not failures:
        failures = check_metrics(args.run_dirs, args.trajectory)
    for failure in failures:
        print(f"[gate] FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"[gate] {len(args.run_dirs)} run(s) pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
