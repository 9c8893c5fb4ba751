// Per-epoch energy & SLA attribution ledger (the observability layer of
// EPRONS's headline decompositions: joint server+network savings, and
// "sometimes turning on an extra switch saves total power").
//
// The scalar totals the epoch JSONL already carries (`predicted_total_w`,
// `realized_network_w`, `server_budget_us`) say *that* a watt was spent or
// a microsecond of budget consumed — these records say *where*: which
// fat-tree layer (edge/agg/core), which device class (switch/link/server),
// which server component (idle floor / dynamic work / DVFS residual), and
// which side of the latency budget (network slack vs. server service time).
//
// Hard invariant — components sum bit-identically to the totals (the
// AttributionRecord identities below, each sum re-added left to right)
// for any --threads value. This is *not* a post-hoc decomposition with a
// closing residual: the producers (consolidate/consolidation.cpp's
// finalize_result, core/server_power_predictor.cpp, the epoch controller's
// realized-power accounting) *define* their headline totals as exactly
// these fixed-order sums, so the ledger cannot drift from the totals — the
// totals flow through the components. tests/attribution_test.cpp asserts
// the byte-identity across seeds and thread counts; tools/eprons_report.py
// --check re-verifies it on every emitted JSONL artifact (the %.17g JSON
// encoding round-trips doubles exactly, so the check survives the trip
// through text).
//
// These types live in obs (which depends only on util) and therefore carry
// primitives only; core/attribution.h builds them from planner types. Each
// record is one declaration (sources, field table, identities) driving the
// serializer and schema of obs/jsonl.h.
#pragma once

#include <string>
#include <vector>

#include "obs/jsonl.h"

namespace eprons::obs {

/// Where every watt of one epoch went. All fields in watts unless noted.
struct PowerAttribution {
  // -- Network side, per fat-tree layer (device class: switch). ----------
  double edge_w = 0.0;
  double agg_w = 0.0;
  double core_w = 0.0;
  /// Device class: link (0 under the default calibration's 0 W links).
  double link_w = 0.0;
  /// network_total_w == ((edge_w + agg_w) + core_w) + link_w, bit-exact.
  double network_total_w = 0.0;
  /// Of the active switches, those kept on only by the linger policy
  /// (lingering backups / boot-avoidance) rather than wanted by the plan —
  /// the transition machinery's power overhead. Informational slice of the
  /// layer totals above, not an extra term of the sum.
  double linger_overhead_w = 0.0;

  int edge_switches = 0;
  int agg_switches = 0;
  int core_switches = 0;
  int active_links = 0;
  int linger_switches = 0;

  // -- Server side, per component (device class: server). ----------------
  /// Power the fleet would draw fully idle: platform static + clock-gated
  /// cores. The floor consolidation cannot touch without server shutdown.
  double server_idle_w = 0.0;
  /// Cost of the offered work at f_max (busy cores above idle).
  double server_dynamic_w = 0.0;
  /// Delta from running at the DVFS-chosen frequency instead of f_max;
  /// negative when slowing down saves power — the watts the network slack
  /// bought. This is the paper's joint-optimization term.
  double server_dvfs_residual_w = 0.0;
  /// server_total_w == (server_idle_w + server_dynamic_w)
  ///                     + server_dvfs_residual_w, bit-exact.
  double server_total_w = 0.0;
  int hosts = 0;

  /// total_w == network_total_w + server_total_w, bit-exact.
  double total_w = 0.0;

  void fields(auto&& f) const {
    f("edge_w", edge_w);
    f("agg_w", agg_w);
    f("core_w", core_w);
    f("link_w", link_w);
    f("network_total_w", network_total_w);
    f("linger_overhead_w", linger_overhead_w);
    f("edge_switches", edge_switches);
    f("agg_switches", agg_switches);
    f("core_switches", core_switches);
    f("active_links", active_links);
    f("linger_switches", linger_switches);
    f("server_idle_w", server_idle_w);
    f("server_dynamic_w", server_dynamic_w);
    f("server_dvfs_residual_w", server_dvfs_residual_w);
    f("server_total_w", server_total_w);
    f("hosts", hosts);
    f("total_w", total_w);
  }
};

/// Where the end-to-end latency budget of one epoch went, and — when the
/// SLA is missed — which layer the miss is chargeable to. Times in us.
struct LatencyAttribution {
  /// The end-to-end SLA.
  double constraint_us = 0.0;
  /// Network share: p95 of the round-trip network slack estimate.
  double network_p95_us = 0.0;
  double network_p99_us = 0.0;
  /// Request-direction share of the p95 (the per-hop breakdown's first
  /// leg; reply = network_p95_us - request_p95_us).
  double request_p95_us = 0.0;
  /// Server share: constraint - network p95 (what DVFS may spend).
  double server_budget_us = 0.0;
  /// Layer chargeable for an SLA miss: "" when feasible, else "network"
  /// (slack consumed the whole constraint), "server" (budget unreachable
  /// even at f_max) or "placement" (consolidation violated the margin).
  std::string miss_charged_to;

  void fields(auto&& f) const {
    f("constraint_us", constraint_us);
    f("network_p95_us", network_p95_us);
    f("network_p99_us", network_p99_us);
    f("request_p95_us", request_p95_us);
    f("server_budget_us", server_budget_us);
    f("miss_charged_to", miss_charged_to);
  }
};

/// One epoch ledger line (source "attribution" in the JSONL stream).
struct AttributionRecord {
  /// Producer tag, e.g. "epoch_controller" | "bench_fig13".
  std::string source = "epoch_controller";
  int epoch = 0;
  double chosen_k = 0.0;
  bool feasible = false;
  PowerAttribution power;
  LatencyAttribution latency;

  static constexpr const char* sources[] = {"attribution"};
  static constexpr const char* identities[] = {
      "network_total_w == edge_w + agg_w + core_w + link_w",
      "server_total_w == server_idle_w + server_dynamic_w + "
      "server_dvfs_residual_w",
      "total_w == network_total_w + server_total_w",
      "linger_switches <= edge_switches + agg_switches + core_switches",
  };
  void fields(auto&& f) const {
    f("source", sources[0]);
    f("producer", source);
    f("epoch", epoch);
    f("chosen_k", chosen_k);
    f("feasible", feasible);
    power.fields(f);
    latency.fields(f);
  }
};

/// One row of the planner's candidate-K table.
struct PlanCandidateExplain {
  double k = 0.0;
  bool feasible = false;
  /// "" for feasible candidates; else "budget_exhausted" |
  /// "placement_infeasible" | "dvfs_infeasible".
  std::string reject_reason;
  double total_w = 0.0;
  double network_w = 0.0;
  double server_w = 0.0;
  /// Predictor's achieved per-request violation probability at the chosen
  /// frequency (1.0 when the budget is unreachable).
  double violation_probability = 0.0;
  double slack_p95_us = 0.0;
  double server_budget_us = 0.0;
  int active_switches = 0;

  void fields(auto&& f) const {
    f("k", k);
    f("feasible", feasible);
    f("reject_reason", reject_reason);
    f("total_w", total_w);
    f("network_w", network_w);
    f("server_w", server_w);
    f("violation_probability", violation_probability);
    f("slack_p95_us", slack_p95_us);
    f("server_budget_us", server_budget_us);
    f("active_switches", active_switches);
  }
};

/// Why the planner chose what it chose (source "plan_explain").
struct PlanExplainRecord {
  std::string source = "epoch_controller";
  int epoch = 0;
  /// Which optimize() path produced the plan: "cold" (full K sweep) or
  /// "warm" (previous-K re-evaluation short-circuit).
  std::string path = "cold";
  double chosen_k = 0.0;
  bool feasible = false;
  double chosen_total_w = 0.0;
  /// Consolidation on/off delta: network power of the chosen placement vs.
  /// the all-switches-on baseline it was consolidated down from.
  double consolidation_on_w = 0.0;
  double consolidation_off_w = 0.0;
  /// Every candidate the sweep evaluated, in candidate order. The warm
  /// path carries a single row.
  std::vector<PlanCandidateExplain> candidates;

  static constexpr const char* sources[] = {"plan_explain"};
  void fields(auto&& f) const {
    f("source", sources[0]);
    f("producer", source);
    f("epoch", epoch);
    f("path", path);
    f("chosen_k", chosen_k);
    f("feasible", feasible);
    f("chosen_total_w", chosen_total_w);
    f("consolidation_on_w", consolidation_on_w);
    f("consolidation_off_w", consolidation_off_w);
    f("candidates", candidates);
  }
};

}  // namespace eprons::obs
