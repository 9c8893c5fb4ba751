#!/usr/bin/env python3
"""Grid-sweep runner for EPRONS benchmarks.

Runs a bench binary once per point of a parameter grid, capturing the
telemetry artifacts every binary already supports (`--epoch-log`,
`--metrics-out`) into one run directory per point, then (optionally)
feeds all run directories to tools/eprons_report.py for a single
cross-run report with diff tables.

    python3 tools/sweep.py build/bench/bench_fig13_joint_power \
        --out runs/fig13 --fixed duration=0.2 --sweep threads=1,4,8 \
        --sweep seed=1,2,3 --report

`--serve` is a preset for the open-loop serving binaries
(examples/serving_demo, bench/bench_serving_openloop): any axis not
already given via --sweep/--fixed defaults to the serving grid
peak-qps=20,40,80 x admission=always,token-bucket,sla-aware, so

    python3 tools/sweep.py build/examples/serving_demo --serve \
        --out runs/serve --fixed horizon=900 --report

runs the full 9-cell grid and the serving section of the report.

Each run directory `<out>/<flag-v_flag-v...>/` contains:
    epoch.jsonl   the --epoch-log stream (attribution + plan_explain + ...)
    metrics.json  the --metrics-out registry snapshot
    stdout.txt    the bench table output
    meta.json     exact argv, flags, and exit code for reproduction

Grid values are swept in the order given; flags are passed as
`--name=value`. The script exits non-zero if any run fails, but still
runs the remaining grid points first. Stdlib only.
"""
import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path


def parse_kv(spec, allow_list):
    if "=" not in spec:
        raise SystemExit(f"bad flag spec '{spec}' (want name=value)")
    name, _, value = spec.partition("=")
    values = value.split(",") if allow_list else [value]
    if not name or any(not v for v in values):
        raise SystemExit(f"bad flag spec '{spec}'")
    return name, values


def run_name(point):
    return "_".join(f"{k}-{v}" for k, v in point)


def main():
    parser = argparse.ArgumentParser(
        description="run a bench binary over a parameter grid")
    parser.add_argument("binary", help="bench executable to run")
    parser.add_argument("--out", required=True, help="sweep output directory")
    parser.add_argument("--fixed", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="flag passed to every run (repeatable)")
    parser.add_argument("--sweep", action="append", default=[],
                        metavar="NAME=V1,V2,...",
                        help="flag swept over a comma list (repeatable)")
    parser.add_argument("--serve", action="store_true",
                        help="serving preset: add the default open-loop "
                             "grid (peak-qps x admission) for any axis "
                             "not given explicitly")
    parser.add_argument("--report", action="store_true",
                        help="build a cross-run report (with --check) "
                             "over all runs afterwards")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-run timeout in seconds (default 600)")
    args = parser.parse_args()

    binary = Path(args.binary)
    if not binary.is_file():
        raise SystemExit(f"{binary}: no such binary (build the repo first)")
    # Absolute, so exec never searches PATH (str(Path("./x")) is "x").
    binary = binary.resolve()

    fixed = [parse_kv(s, allow_list=False) for s in args.fixed]
    sweep = [parse_kv(s, allow_list=True) for s in args.sweep]
    if args.serve:
        given = {n for n, _ in fixed} | {n for n, _ in sweep}
        for name, values in [
                ("peak-qps", ["20", "40", "80"]),
                ("admission", ["always", "token-bucket", "sla-aware"])]:
            if name not in given:
                sweep.append((name, values))
    grid = [list(zip([n for n, _ in sweep], combo))
            for combo in itertools.product(*[vals for _, vals in sweep])]
    if not grid:
        grid = [[]]

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    failures = 0
    run_dirs = []
    for point in grid:
        name = run_name(point) or "run"
        run_dir = out_root / name
        run_dir.mkdir(parents=True, exist_ok=True)
        cmd = [str(binary)]
        for flag_name, values in fixed:
            cmd.append(f"--{flag_name}={values[0]}")
        for flag_name, value in point:
            cmd.append(f"--{flag_name}={value}")
        cmd.append(f"--epoch-log={run_dir / 'epoch.jsonl'}")
        cmd.append(f"--metrics-out={run_dir / 'metrics.json'}")
        print(f"[sweep] {name}: {' '.join(cmd)}", flush=True)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=args.timeout)
            exit_code = proc.returncode
            stdout, stderr = proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as err:
            # The partial output is bytes even with text=True.
            exit_code = -1
            stdout = (err.stdout or b"").decode(errors="replace")
            stderr = (err.stderr or b"").decode(errors="replace") + \
                f"\n[sweep] timeout after {args.timeout}s"
        (run_dir / "stdout.txt").write_text(stdout)
        if stderr:
            (run_dir / "stderr.txt").write_text(stderr)
        meta = {"cmd": cmd, "fixed": dict((n, v[0]) for n, v in fixed),
                "point": dict(point), "exit_code": exit_code}
        (run_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        if exit_code != 0:
            failures += 1
            print(f"[sweep] {name}: FAILED (exit {exit_code})",
                  file=sys.stderr, flush=True)
        else:
            run_dirs.append(run_dir)

    print(f"[sweep] {len(grid) - failures}/{len(grid)} runs succeeded; "
          f"artifacts in {out_root}")

    if args.report and run_dirs:
        report_cmd = [sys.executable,
                      str(Path(__file__).resolve().parent /
                          "eprons_report.py"),
                      *[str(d) for d in run_dirs],
                      "--out", str(out_root), "--check"]
        print(f"[sweep] {' '.join(report_cmd)}", flush=True)
        if subprocess.run(report_cmd).returncode != 0:
            failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
