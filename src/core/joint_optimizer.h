// The EPRONS joint optimizer (paper section IV, Fig. 7's "Optimizer").
//
// For each candidate scale factor K the optimizer: consolidates the traffic
// (greedy bin-packing at production scale, exactly as section IV-B
// prescribes), Monte-Carlo-estimates the network latency/slack of the
// resulting placement, predicts the server power achievable with the
// leftover budget, and finally picks the K minimizing predicted *total*
// data-center power among latency-feasible candidates. This is where
// "deliberately turn on more switches to let servers slow down" emerges:
// a larger K costs switches but buys server slack.
//
// Every plan evaluation — the cold sweep, plan_for_k, the warm single-K
// re-evaluation and the reference sweep — runs one per-candidate
// sequence, as section IV-A describes it: a prepare item consolidates at K
// and builds the placement's offered load, one SlackEstimator pass samples
// the network slack, and a serial finalize predicts server power from the
// section III-C equivalent-request convolutions. The K search is the
// planner's hot path (every bench/diurnal epoch pays it), so:
//   * with `runtime.threads > 1` the pass runs on an internal ThreadPool —
//     the cold sweep's consolidations run ahead of, and overlap, the slack
//     sampling;
//   * the traced hot spots each have a fast implementation — batched
//     prepared-path Monte-Carlo with per-shard scratch, a vectorized
//     hop-major combine and a parallel merge (SlackEstimator), the
//     equivalent-request chain convolved once at construction and read by
//     grid index, and memoized per-pair path enumeration shared across the
//     K candidates (topo/path_catalog.h) feeding a greedy packer that stops
//     scanning at the first path that lights no new switch — plus placement
//     deduplication: K candidates that consolidate to the same routing
//     share one slack estimate.
// Every fast path reproduces the reference arithmetic and RNG stream bit
// for bit, so the chosen plan is byte-identical for any thread count and
// any PlanRequest knob combination (asserted by tests/fastpath_test.cpp).
#pragma once

#include <memory>

#include "obs/attribution.h"
#include "consolidate/greedy_consolidator.h"
#include "sim/search_cluster.h"
#include "core/server_power_predictor.h"
#include "core/slack_estimator.h"
#include "dvfs/service_model.h"
#include "power/server_power.h"
#include "topo/path_catalog.h"
#include "topo/topology.h"
#include "util/thread_pool.h"

namespace eprons {

/// Incremental (epoch-to-epoch) planning knobs. Off by default: cold
/// searches stay byte-identical to the pre-incremental planner.
struct IncrementalPlanningConfig {
  /// Master switch for warm-started optimize() calls.
  bool enabled = false;
  /// Regression bound handed to the consolidator's warm-start path: an
  /// incremental pack may activate at most this many switches beyond the
  /// previous plan before the planner falls back to a cold re-pack.
  int max_extra_switches = 2;
};

struct JointOptimizerConfig {
  double k_min = 1.0;
  double k_max = 5.0;
  double k_step = 1.0;

  /// End-to-end tail latency constraint and its server share, us.
  SimTime latency_constraint = ms(30.0);
  SimTime server_budget = ms(25.0);

  ConsolidationConfig consolidation;
  /// Reserved demand per query flow direction, Mbps.
  Bandwidth query_request_demand = 10.0;
  Bandwidth query_reply_demand = 20.0;
  int aggregator_host = 0;

  SlackEstimatorConfig slack;
  ServerPowerPredictorConfig predictor;

  /// Worker threads for plan evaluation: the candidates' consolidations
  /// and the slack estimator's shards. Results are independent of this
  /// value.
  RuntimeConfig runtime;

  IncrementalPlanningConfig incremental;
};

/// Extra constraints for one optimize() call, layered on top of the
/// configured ConsolidationConfig. The emergency re-plan path uses these to
/// restrict placement to the surviving subnet without mutating the
/// optimizer's configuration (optimize() stays const and thread-safe).
struct PlanConstraints {
  /// NodeId-indexed; when non-empty, replaces consolidation.allowed_switches
  /// (intersect before passing if both must hold).
  std::vector<bool> allowed_switches;
  /// LinkId-indexed; when non-empty, replaces consolidation.blocked_links.
  std::vector<bool> blocked_links;
  /// Raises the bottom of the K sweep — the recovery path bumps K when the
  /// surviving capacity erodes slack. 0 keeps the configured k_min.
  double k_min = 0.0;
};

/// Why finalize_plan classified a candidate infeasible (None = feasible).
enum class PlanReject {
  None = 0,
  /// Network slack consumed the whole latency constraint (no server
  /// budget left) — chargeable to the network layer.
  BudgetExhausted,
  /// Consolidation violated the safety margin or disconnected a pair —
  /// chargeable to placement.
  PlacementInfeasible,
  /// The server budget is unreachable even at f_max — chargeable to the
  /// server layer.
  DvfsInfeasible,
};

/// Stable JSONL token for a reject reason ("" for None).
const char* plan_reject_name(PlanReject reason);

struct JointPlan {
  bool feasible = false;
  PlanReject reject = PlanReject::None;
  double k = 1.0;
  ConsolidationResult placement;
  /// Query flow ids (host-indexed) within the planned flow set.
  std::vector<FlowId> request_flow;
  std::vector<FlowId> reply_flow;
  /// The flow set that was placed (background + query flows).
  FlowSet flows;
  SlackEstimate slack;
  ServerPowerPrediction server;
  /// Server time budget handed to the DVFS layer, us.
  SimTime effective_server_budget = 0.0;
  Power network_power = 0.0;
  /// Cluster-level server power components (hosts x the per-server
  /// prediction's components). `server_power_w` is *defined* as the
  /// fixed-order sum (idle + dynamic) + residual, and `total_power` as
  /// network_power + server_power_w, so the attribution ledger
  /// (obs/attribution.h) sums bit-identically to the headline totals.
  Power server_idle_w = 0.0;
  Power server_dynamic_w = 0.0;
  Power server_dvfs_residual_w = 0.0;
  Power server_power_w = 0.0;
  Power total_power = 0.0;
};

/// One planning request: everything optimize() needs for a call, plus
/// per-call knobs selecting the fast or the retained reference
/// implementation of each optimized subsystem. The knobs exist for
/// differential testing (docs/DETERMINISM.md) and for timing the fast
/// pipeline against the reference one (bench_micro_parallel_planner):
/// every knob combination returns a byte-identical JointPlan — only the
/// wall-clock differs.
struct PlanRequest {
  /// The background (non-query) traffic to place. Required; not owned.
  const FlowSet* background = nullptr;
  /// Target per-core utilization (defined at f_max).
  double utilization = 0.0;
  /// Optional per-call constraints (surviving subnet, blocked links,
  /// raised K floor) — the emergency re-plan path fills these.
  PlanConstraints constraints;
  /// Previous epoch's plan for warm-started incremental planning (see
  /// IncrementalPlanningConfig); nullptr — or incremental planning
  /// disabled — runs the cold K sweep. Not owned.
  const JointPlan* previous = nullptr;
  /// Per-sample Monte-Carlo path walks instead of the batched
  /// prepared-path, hop-major sampler, and a cold sweep of one-candidate
  /// passes in K order instead of one placement-deduplicated pass.
  bool use_reference_slack = false;
  /// Frequency-valued violation probabilities in the predictor's scan
  /// instead of the per-grid-index lookup.
  bool use_reference_dvfs = false;
  /// Per-call Topology::all_paths() enumeration instead of the memoized
  /// PathCatalog.
  bool use_reference_enumeration = false;
  /// When non-null, optimize() fills a structured explanation of the call:
  /// which path ran (cold sweep / warm re-evaluation), the full
  /// candidate-K table with per-candidate power, violation probability and
  /// reject reason, and the consolidation on/off power delta. Purely an
  /// out-parameter — never changes the returned plan. Not owned.
  obs::PlanExplainRecord* explain = nullptr;
};

class JointOptimizer {
 public:
  /// `consolidator` selects the placement strategy (greedy bin-packing by
  /// default; inject a MilpConsolidator for exact placement). The pointee
  /// must outlive the optimizer and be thread-safe (see Consolidator).
  /// Construction pre-warms the service model's fresh convolution chain
  /// (and the work spectra it uses) to predictor.max_queue_depth, so every
  /// prediction reads it without growing it. Throws std::invalid_argument
  /// unless k_step is a positive finite number, k_min <= k_max are finite,
  /// slack.shards >= 1, slack.samples_per_pair >= 0,
  /// predictor.max_queue_depth >= 1 and predictor.target_vp >= 0.
  JointOptimizer(const Topology* topo, const ServiceModel* service_model,
                 const ServerPowerModel* power_model,
                 JointOptimizerConfig config = {},
                 const Consolidator* consolidator = nullptr);

  const JointOptimizerConfig& config() const { return config_; }
  const Consolidator& consolidator() const { return *consolidator_; }
  /// The K search's worker pool (null when runtime.threads <= 1). The
  /// epoch controller runs its demand measurement on it between
  /// optimize() calls, so no second pool is started.
  ThreadPool* pool() const { return pool_.get(); }

  /// Evaluates one candidate K (used directly by ablation benches).
  JointPlan plan_for_k(const FlowSet& background, double utilization,
                       double k) const;

  /// The single planning entry point. Cold request (no usable `previous`):
  /// full K search, minimum predicted total power among feasible plans; if
  /// no K is latency-feasible, returns the plan with the lowest predicted
  /// tail latency, marked infeasible. With incremental planning enabled
  /// and a feasible `previous`, first re-evaluates only the previous
  /// epoch's K with the consolidator warm-started from the previous
  /// routing, short-circuiting the sweep when it is still feasible.
  /// The result is a function of the config and the request alone (the
  /// warm path reads `previous`, which is part of the request), and it is
  /// bit-identical for any thread count and any use_reference_* knob
  /// combination; candidates are evaluated in parallel when
  /// config.runtime.threads > 1.
  JointPlan optimize(const PlanRequest& request) const;

 private:
  /// Background + query flows assembled once per optimize() call and
  /// shared (read-only) by every K candidate.
  struct Assembly;

  Assembly assemble_flows(const FlowSet& background) const;

  /// The one per-candidate pipeline behind every caller, at the request's
  /// utilization, constraints and use_reference_* knobs (its K floor,
  /// previous plan and explain record are the callers'). Candidate i's
  /// prepare item consolidates at ks[i] and builds the placement's offered
  /// load; one SlackEstimator::estimate_many pass on the optimizer's pool
  /// samples the slack, a candidate that routes like an earlier one
  /// sharing that one's estimate; then the candidates are finalized
  /// serially, in K order, on the calling thread. `warm` may be null.
  std::vector<JointPlan> evaluate(const Assembly& assembly,
                                  const PlanRequest& request,
                                  const std::vector<double>& ks,
                                  const WarmStartHint* warm) const;

  /// Consolidates one candidate into `plan` (k, flows, placement,
  /// network_power). `warm` may be null.
  void consolidate_into(JointPlan& plan, const Assembly& assembly, double k,
                        const PlanConstraints& constraints,
                        const WarmStartHint* warm,
                        bool reference_enumeration) const;

  /// Offered load of the plan's placement at actual (unreserved) query
  /// rates — the slack estimator's input.
  LinkUtilization offered_load_for(const JointPlan& plan,
                                   double utilization) const;

  /// Budget split, server power prediction, feasibility classification and
  /// per-candidate telemetry; requires plan.slack to be filled in.
  void finalize_plan(JointPlan& plan, double utilization,
                     bool reference_dvfs) const;

  /// Cluster-level power roll-up from plan.server and plan.network_power:
  /// hosts x the per-server components, then the fixed-order sums that
  /// *define* server_power_w and total_power (attribution bit-exactness).
  void finalize_power_totals(JointPlan& plan) const;

  /// Fills the PlanExplain header fields shared by every optimize() path
  /// (chosen plan, consolidation on/off delta); candidates are appended by
  /// the caller.
  void explain_header(obs::PlanExplainRecord& explain, const char* path,
                      const JointPlan& chosen) const;

  /// The cold full K sweep: one evaluate() pass over every candidate, or,
  /// with use_reference_slack, one one-candidate pass per K in K order.
  JointPlan cold_search(const Assembly& assembly,
                        const PlanRequest& request) const;

  const Topology* topo_;
  const ServiceModel* service_model_;
  const ServerPowerModel* power_model_;
  JointOptimizerConfig config_;
  GreedyConsolidator default_consolidator_;
  const Consolidator* consolidator_;
  std::unique_ptr<ThreadPool> pool_;
  /// Memoized per-pair path enumeration shared by every consolidate call
  /// (thread-safe; entries fill on first use).
  PathCatalog path_catalog_;
};

}  // namespace eprons
