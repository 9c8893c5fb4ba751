#!/usr/bin/env python3
"""Turn EPRONS run artifacts (epoch JSONL + optional metrics snapshots)
into a markdown/JSON report, and verify every logged record.

A *run* is either a JSONL file produced via `--epoch-log=FILE`, or a run
directory produced by tools/sweep.py (containing `epoch.jsonl` and
optionally `metrics.json` from `--metrics-out`). The JSONL stream mixes
record types distinguished by their "source" field:

  epoch_controller / trace_replay  scalar per-epoch totals (obs/jsonl.h)
  attribution                      per-epoch energy & SLA ledger
  plan_explain                     candidate-K table with reject reasons
  fault_recovery                   emergency re-plan timeline
  serving_window                   open-loop serving report windows (serve/)
  schedule_epoch / schedule_summary  temporal background schedule (schedule/)

The report covers: power breakdown per layer/component (with shares),
latency budget split and p50/p95/p99 from metrics histograms, the
planner's chosen-K/path/reject statistics, the fault-recovery timeline,
and a cross-run diff table when several runs are given.

`--check` reads tools/record_schema.json, which the C++ record
declarations print (obs/jsonl.h), and checks each record of each declared
source: its fields, in order, with their JSON types, and its identities.
Sums are re-added in the declared order and compared with `==`: the %.17g
encoding round-trips doubles exactly and Python floats are the same IEEE
doubles, so any mismatch is a real producer bug. A few rules no single
record expresses are checked by hand (see handwritten_errors). Any
violation, or a log with no attribution or plan_explain records, exits 1.

Stdlib only — no pip installs.

    python3 tools/eprons_report.py run.jsonl --out reports/
    python3 tools/eprons_report.py runs/t1 runs/t4 runs/t8 --check
"""
import argparse
import collections
import functools
import json
import operator
import re
import sys
from pathlib import Path


def load_jsonl(path):
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}:{line_no}: invalid JSON: {err}")
    return records


def load_run(path):
    """Returns {'name', 'path', 'records', 'by_source', 'metrics'}."""
    path = Path(path)
    if path.is_dir():
        jsonl = path / "epoch.jsonl"
        if not jsonl.is_file():
            raise SystemExit(f"{path}: no epoch.jsonl in run directory")
        metrics_path = path / "metrics.json"
        name = path.name
    else:
        jsonl = path
        metrics_path = path.with_name("metrics.json")
        name = path.stem
    records = load_jsonl(jsonl)
    by_source = {}
    for r in records:
        by_source.setdefault(r.get("source", "?"), []).append(r)
    metrics = None
    if metrics_path.is_file():
        with open(metrics_path) as fh:
            metrics = json.load(fh)
    return {"name": name, "path": str(jsonl), "records": records,
            "by_source": by_source, "metrics": metrics}


# ---------------------------------------------------------------------------
# Invariant checks (exact float equality — see module docstring).

SCHEMA = json.loads((Path(__file__).with_name("record_schema.json"))
                    .read_text())["records"]
# Exact Python types per JSON type (`type`, not isinstance: bool is an int).
JSON_TYPES = {"string": {str}, "integer": {int}, "number": {int, float},
              "boolean": {bool}}
RELATIONS = {"==": operator.eq, "<=": operator.le, "<": operator.lt}


def field_errors(rec, fields, where):
    """The record's fields are the schema's, in order, with their types;
    a list-valued type is an array of rows with that row table."""
    if list(rec) != list(fields):
        return [f"{where}: fields {list(rec)} are not the schema's "
                f"{list(fields)}"]
    errors = []
    for name, kind in fields.items():
        value = rec[name]
        if isinstance(kind, list) and type(value) is list:
            for i, row in enumerate(value):
                errors += field_errors(row, kind[0], f"{where} {name}[{i}]")
        elif isinstance(kind, list) or type(value) not in JSON_TYPES[kind]:
            errors.append(f"{where}: {name}={value!r} is not {kind}")
    return errors


def identity_errors(rec, identity, where):
    """`0 <= a, b <= c + d`: an operand is 0, a field, a sum re-added left
    to right, or a list `a, b` standing for each member. Every member of
    adjacent operands must satisfy their relation exactly."""
    parts = re.split(r" (==|<=|<) ", identity)
    sides = [[functools.reduce(operator.add, (0 if term == "0" else rec[term]
                                              for term in member.split(" + ")))
              for member in side.split(", ")] for side in parts[::2]]
    if all(RELATIONS[op](a, b) for left, op, right
           in zip(sides, parts[1::2], sides[1:]) for a in left for b in right):
        return []
    return [f"{where}: {identity} fails with operands {sides!r}"]


def handwritten_errors(run):
    """The rules no single record's identities express."""
    errors = []
    for i, rec in enumerate(run["by_source"].get("plan_explain", [])):
        where = f"{run['path']} plan_explain[{i}]"
        if rec["path"] not in ("cold", "warm"):
            errors.append(f"{where}: unknown plan path {rec['path']!r}")
        if not rec["candidates"]:
            errors.append(f"{where}: plan_explain with empty candidate table")
        for c in rec["candidates"]:
            if c["feasible"] == bool(c["reject_reason"]):
                errors.append(f"{where}: candidate K={c['k']} feasible="
                              f"{c['feasible']} with reject_reason "
                              f"{c['reject_reason']!r}")
    summaries = run["by_source"].get("schedule_summary", [])
    for i, rec in enumerate(summaries):
        if rec["missed_total_mbit"] > 0 and rec["deadline_misses"] == 0:
            errors.append(f"{run['path']} schedule_summary[{i}]: missed "
                          "volume with zero deadline_misses")
    # With several schedules interleaved, epoch rows can't be attributed
    # to their summary from the stream alone.
    epochs = run["by_source"].get("schedule_epoch", [])
    if len(summaries) != 1 or not epochs:
        return errors
    summary = summaries[0]
    for column, total in (("carried_mbit", "carried_total_mbit"),
                          ("expired_mbit", "missed_total_mbit")):
        resum = sum(r[column] for r in epochs)
        if resum != summary[total]:
            errors.append(f"{run['path']}: schedule_epoch {column} sums to "
                          f"{resum}, summary {total} is {summary[total]}")
    if len(epochs) != summary["epochs"]:
        errors.append(f"{run['path']}: {len(epochs)} schedule_epoch "
                      f"records, summary says {summary['epochs']} epochs")
    return errors


def check_run(run):
    errors = []
    for decl in SCHEMA:
        for source in decl["sources"]:
            for i, rec in enumerate(run["by_source"].get(source, [])):
                where = f"{run['path']} {source}[{i}]"
                errors += field_errors(rec, decl["fields"], where) or [
                    error for identity in decl["identities"]
                    for error in identity_errors(rec, identity, where)]
    # Hand-written rules read fields the schema pass has type-checked.
    return errors or handwritten_errors(run)


# ---------------------------------------------------------------------------
# Aggregation helpers.

def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def power_summary(run):
    atts = run["by_source"].get("attribution", [])
    if not atts:
        return None
    fields = ["edge_w", "agg_w", "core_w", "link_w", "network_total_w",
              "linger_overhead_w", "server_idle_w", "server_dynamic_w",
              "server_dvfs_residual_w", "server_total_w", "total_w"]
    out = {f: mean(r.get(f) or 0.0 for r in atts) for f in fields}
    out["epochs"] = len(atts)
    out["feasible_epochs"] = sum(1 for r in atts if r.get("feasible"))
    return out


def latency_summary(run):
    atts = run["by_source"].get("attribution", [])
    out = {}
    if atts:
        out["constraint_us"] = mean(r.get("constraint_us") or 0 for r in atts)
        out["network_p95_us"] = mean(
            r.get("network_p95_us") or 0 for r in atts)
        out["network_p99_us"] = mean(
            r.get("network_p99_us") or 0 for r in atts)
        out["server_budget_us"] = mean(
            r.get("server_budget_us") or 0 for r in atts)
        charged = {}
        for r in atts:
            layer = r.get("miss_charged_to") or ""
            if layer:
                charged[layer] = charged.get(layer, 0) + 1
        out["miss_charged_to"] = charged
    hists = {}
    if run["metrics"]:
        for name, h in (run["metrics"].get("histograms") or {}).items():
            if h.get("count"):
                hists[name] = {k: h.get(k) for k in
                               ("count", "min", "p50", "p95", "p99", "max")}
    out["histograms"] = hists
    return out


def plan_summary(run):
    explains = run["by_source"].get("plan_explain", [])
    if not explains:
        return None
    chosen_k = {}
    paths = {}
    rejects = {}
    candidates = 0
    for r in explains:
        chosen_k[str(r.get("chosen_k"))] = \
            chosen_k.get(str(r.get("chosen_k")), 0) + 1
        paths[r.get("path", "?")] = paths.get(r.get("path", "?"), 0) + 1
        for c in r.get("candidates", []):
            candidates += 1
            reason = c.get("reject_reason") or ""
            if reason:
                rejects[reason] = rejects.get(reason, 0) + 1
    return {"plans": len(explains), "candidates": candidates,
            "chosen_k": chosen_k, "paths": paths, "reject_reasons": rejects}


def serving_summary(run):
    windows = run["by_source"].get("serving_window", [])
    if not windows:
        return None
    total = {f: sum(w.get(f) or 0 for w in windows)
             for f in ("arrivals", "admitted", "queued", "shed", "dropped",
                       "late_shed", "completed", "subqueries", "sla_misses",
                       "transition_penalized")}
    span_us = sum((w.get("window_end_us") or 0.0)
                  - (w.get("window_start_us") or 0.0) for w in windows)
    return {
        "windows": len(windows),
        "span_s": span_us / 1e6,
        **total,
        "offered_qps_mean": mean(w.get("offered_qps") or 0.0
                                 for w in windows),
        "miss_rate": (total["sla_misses"] / total["subqueries"]
                      if total["subqueries"] else 0.0),
        "shed_rate": (total["shed"] / total["arrivals"]
                      if total["arrivals"] else 0.0),
        "latency_p99_us_max": max((w.get("latency_p99_us") or 0.0)
                                  for w in windows),
        "energy_per_admitted_j_mean": mean(
            w.get("energy_per_admitted_j") or 0.0
            for w in windows if w.get("admitted")),
    }


def schedule_summary(run):
    summaries = run["by_source"].get("schedule_summary", [])
    epochs = run["by_source"].get("schedule_epoch", [])
    if not summaries and not epochs:
        return None
    out = {
        "schedules": len(summaries),
        "epoch_records": len(epochs),
        "carried_total_mbit": sum(s.get("carried_total_mbit") or 0
                                  for s in summaries),
        "missed_total_mbit": sum(s.get("missed_total_mbit") or 0
                                 for s in summaries),
        "total_volume_mbit": sum(s.get("total_volume_mbit") or 0
                                 for s in summaries),
        "deadline_misses": sum(s.get("deadline_misses") or 0
                               for s in summaries),
        "deferred_mbit_epochs": sum(s.get("deferred_mbit_epochs") or 0
                                    for s in summaries),
        "edf_fallbacks": sum(1 for s in summaries
                             if s.get("used_edf_fallback")),
    }
    if epochs:
        out["quiet_epochs"] = sum(1 for r in epochs
                                  if not (r.get("carried_mbit") or 0))
        out["peak_demand_mbps"] = max((r.get("demand_mbps") or 0.0)
                                      for r in epochs)
    return out


def fault_timeline(run):
    return [
        {k: r.get(k) for k in
         ("epoch", "failed_switches", "failed_links", "hot_recovery",
          "replanned", "chosen_k", "k_bumped", "woken_backups",
          "emergency_boots", "flows_rerouted", "time_to_replan_us",
          "estimated_outage_violations")}
        for r in run["by_source"].get("fault_recovery", [])
    ]


def summarize(run, errors):
    return {
        "name": run["name"],
        "path": run["path"],
        "records": len(run["records"]),
        "sources": {s: len(v) for s, v in sorted(run["by_source"].items())},
        "power": power_summary(run),
        "latency": latency_summary(run),
        "plan": plan_summary(run),
        "serving": serving_summary(run),
        "schedule": schedule_summary(run),
        "faults": fault_timeline(run),
        "invariant_errors": errors,
    }


# ---------------------------------------------------------------------------
# Markdown rendering.

def fmt_w(x):
    return f"{x:.2f}"


def md_power_table(summaries):
    rows = [
        ("edge switches", "edge_w"), ("agg switches", "agg_w"),
        ("core switches", "core_w"), ("links", "link_w"),
        ("**network total**", "network_total_w"),
        ("· of which linger overhead", "linger_overhead_w"),
        ("server idle floor", "server_idle_w"),
        ("server dynamic @ f_max", "server_dynamic_w"),
        ("server DVFS residual", "server_dvfs_residual_w"),
        ("**server total**", "server_total_w"),
        ("**total**", "total_w"),
    ]
    header = "| component (mean W/epoch) | " + \
        " | ".join(s["name"] for s in summaries) + " |"
    sep = "|---" * (len(summaries) + 1) + "|"
    lines = [header, sep]
    for label, field in rows:
        cells = []
        for s in summaries:
            p = s["power"]
            cells.append(fmt_w(p[field]) if p else "-")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    share = []
    for s in summaries:
        p = s["power"]
        if p and p["total_w"]:
            share.append(f"{100.0 * p['network_total_w'] / p['total_w']:.1f}%")
        else:
            share.append("-")
    lines.append("| network share of total | " + " | ".join(share) + " |")
    return lines


def md_latency(summaries):
    lines = ["| run | constraint us | network p95 us | network p99 us | "
             "server budget us |", "|---|---|---|---|---|"]
    for s in summaries:
        lat = s["latency"]
        if "constraint_us" not in lat:
            continue
        lines.append(
            f"| {s['name']} | {lat['constraint_us']:.0f} | "
            f"{lat['network_p95_us']:.1f} | {lat['network_p99_us']:.1f} | "
            f"{lat['server_budget_us']:.1f} |")
    hist_lines = []
    for s in summaries:
        for name, h in sorted(s["latency"].get("histograms", {}).items()):
            if "latency" in name or "slack" in name or "_us" in name:
                hist_lines.append(
                    f"| {s['name']} | {name} | {h['count']} | "
                    f"{h['p50']:.1f} | {h['p95']:.1f} | {h['p99']:.1f} |")
    if hist_lines:
        lines += ["", "| run | histogram | count | p50 | p95 | p99 |",
                  "|---|---|---|---|---|---|"] + hist_lines
    return lines


def md_plans(summaries):
    lines = []
    for s in summaries:
        plan = s["plan"]
        if not plan:
            continue
        lines.append(f"**{s['name']}** — {plan['plans']} plans, "
                     f"{plan['candidates']} candidates evaluated; paths: "
                     + ", ".join(f"{k}={v}" for k, v in
                                 sorted(plan["paths"].items()))
                     + "; chosen K: "
                     + ", ".join(f"K={k}×{v}" for k, v in
                                 sorted(plan["chosen_k"].items())))
        if plan["reject_reasons"]:
            lines.append("  rejected candidates: " + ", ".join(
                f"{k}×{v}" for k, v in sorted(plan["reject_reasons"].items())))
        lines.append("")
    return lines


def md_serving(summaries):
    rows = []
    for s in summaries:
        sv = s["serving"]
        if not sv:
            continue
        rows.append(
            f"| {s['name']} | {sv['windows']} | {sv['span_s']:.0f} | "
            f"{sv['offered_qps_mean']:.1f} | {sv['arrivals']} | "
            f"{100.0 * sv['admitted'] / sv['arrivals']:.2f}% | "
            f"{100.0 * sv['shed_rate']:.2f}% | "
            f"{sv['dropped'] + sv['late_shed']} | "
            f"{100.0 * sv['miss_rate']:.2f}% | "
            f"{sv['latency_p99_us_max'] / 1000.0:.1f} | "
            f"{sv['energy_per_admitted_j_mean']:.3f} |"
            if sv["arrivals"] else
            f"| {s['name']} | {sv['windows']} | {sv['span_s']:.0f} | "
            f"0.0 | 0 | - | - | 0 | - | 0.0 | 0.000 |")
    if not rows:
        return []
    return ["| run | windows | span s | offered qps | arrivals | admit | "
            "shed | drop | subq miss | worst p99 ms | J/query |",
            "|---|---|---|---|---|---|---|---|---|---|---|"] + rows


def md_schedule(summaries):
    rows = []
    for s in summaries:
        sc = s["schedule"]
        if not sc:
            continue
        total = sc["total_volume_mbit"]
        carried_pct = (f"{100.0 * sc['carried_total_mbit'] / total:.2f}%"
                       if total else "-")
        quiet = sc.get("quiet_epochs")
        rows.append(
            f"| {s['name']} | {sc['schedules']} | {sc['epoch_records']} | "
            f"{total} | {carried_pct} | {sc['deadline_misses']} | "
            f"{sc['deferred_mbit_epochs']} | "
            f"{quiet if quiet is not None else '-'} | "
            f"{sc['edf_fallbacks']} |")
    if not rows:
        return []
    return ["| run | schedules | epoch records | volume Mbit | carried | "
            "misses | deferred Mbit-epochs | quiet epochs | EDF fallbacks |",
            "|---|---|---|---|---|---|---|---|---|"] + rows


def md_faults(summaries):
    lines = []
    for s in summaries:
        if not s["faults"]:
            continue
        lines += [f"**{s['name']}**", "",
                  "| epoch | switches | links | recovery | K | boots | "
                  "rerouted | t_replan us | outage misses |",
                  "|---|---|---|---|---|---|---|---|---|"]
        for f in s["faults"]:
            kind = "hot" if f["hot_recovery"] else (
                "cold" if f["replanned"] else "none")
            lines.append(
                f"| {f['epoch']} | {f['failed_switches']} | "
                f"{f['failed_links']} | {kind} | {f['chosen_k']}"
                f"{' (bumped)' if f['k_bumped'] else ''} | "
                f"{f['emergency_boots']} | {f['flows_rerouted']} | "
                f"{f['time_to_replan_us']:.0f} | "
                f"{f['estimated_outage_violations']:.1f} |")
        lines.append("")
    return lines


def md_diff(summaries):
    base = summaries[0]
    lines = ["| metric | " + " | ".join(s["name"] for s in summaries)
             + " |", "|---" * (len(summaries) + 1) + "|"]
    for label, getter in [
        ("mean total W", lambda s: s["power"] and s["power"]["total_w"]),
        ("mean network W",
         lambda s: s["power"] and s["power"]["network_total_w"]),
        ("mean server W",
         lambda s: s["power"] and s["power"]["server_total_w"]),
        ("feasible epochs",
         lambda s: s["power"] and s["power"]["feasible_epochs"]),
        ("records", lambda s: s["records"]),
    ]:
        cells = []
        base_v = getter(base)
        for s in summaries:
            v = getter(s)
            if v is None:
                cells.append("-")
            elif isinstance(v, float) and isinstance(base_v, float) \
                    and base_v and s is not base:
                cells.append(f"{v:.2f} ({100.0 * (v - base_v) / base_v:+.2f}%)")
            elif isinstance(v, float):
                cells.append(f"{v:.2f}")
            else:
                cells.append(str(v))
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return lines


def render_markdown(summaries, check_ran):
    lines = ["# EPRONS run report", ""]
    lines.append(f"Runs: {', '.join(s['name'] for s in summaries)}")
    lines.append("")
    total_errors = sum(len(s["invariant_errors"]) for s in summaries)
    if check_ran or total_errors:
        verdict = "PASS" if total_errors == 0 else f"FAIL ({total_errors})"
        lines += [f"Attribution ledger invariants: **{verdict}** — every "
                  "recorded total re-summed exactly (bit-identical float "
                  "equality) from its components.", ""]
        for s in summaries:
            for err in s["invariant_errors"]:
                lines.append(f"- {err}")
        if total_errors:
            lines.append("")
    lines += ["## Power breakdown", ""]
    lines += md_power_table(summaries)
    lines += ["", "## Latency budget", ""]
    lines += md_latency(summaries)
    plan_lines = md_plans(summaries)
    if plan_lines:
        lines += ["", "## Planner decisions", ""] + plan_lines
    serving_lines = md_serving(summaries)
    if serving_lines:
        lines += ["", "## Serving windows (open-loop)", ""] + serving_lines
    schedule_lines = md_schedule(summaries)
    if schedule_lines:
        lines += ["", "## Temporal background schedule", ""] + schedule_lines
    fault_lines = md_faults(summaries)
    if fault_lines:
        lines += ["", "## Fault-recovery timeline", ""] + fault_lines
    if len(summaries) > 1:
        lines += ["", "## Cross-run diff (vs first run)", ""]
        lines += md_diff(summaries)
    lines.append("")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(
        description="EPRONS epoch-JSONL report generator / invariant checker")
    parser.add_argument("runs", nargs="+",
                        help="JSONL files or sweep.py run directories")
    parser.add_argument("--out", default=None,
                        help="directory for report.md/report.json "
                             "(default: print markdown to stdout)")
    parser.add_argument("--check", action="store_true",
                        help="verify every record against "
                             "tools/record_schema.json; exit 1 on any "
                             "violation")
    args = parser.parse_args()

    summaries = []
    for path in args.runs:
        run = load_run(path)
        errors = check_run(run)
        summaries.append(summarize(run, errors))

    markdown = render_markdown(summaries, args.check)
    report = {"runs": summaries}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.md").write_text(markdown)
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out / 'report.md'} and {out / 'report.json'}")
    else:
        print(markdown)

    total_errors = sum(len(s["invariant_errors"]) for s in summaries)
    if args.check:
        if total_errors:
            print(f"invariant check FAILED: {total_errors} violations",
                  file=sys.stderr)
            return 1
        counts = collections.Counter()
        for s in summaries:
            counts.update(s["sources"])
        if not counts["attribution"] or not counts["plan_explain"]:
            print("invariant check FAILED: no attribution/plan_explain "
                  "records found (nothing was verified)", file=sys.stderr)
            return 1
        print("invariant check passed: " + ", ".join(
            f"{counts[source]} {source}" for decl in SCHEMA
            for source in decl["sources"] if counts[source]) + " records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
