// Pluggable serving policies: admission and shedding.
//
// The interfaces mirror the kv_cache_sim exemplar's shape — the serving
// harness drives the DES and calls out to small policy objects at two
// decision points, so new policies never touch `src/sim` or the harness:
//
//   * AdmissionPolicy::decide — at each arrival: admit (dispatch or queue)
//     or shed at the door.
//   * ShedPolicy::should_shed — when a queued query reaches the head of the
//     dispatch queue: drop it late (stale) or issue it.
//
// Policies see the planner through PolicySnapshot — a plain-value copy of
// the chosen JointPlan's serving-relevant numbers, refreshed on every epoch
// boundary — so a policy consulting "the planner's predicted slack" reads
// epoch-stable state and stays deterministic for any `--threads`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/types.h"

namespace eprons {

/// Epoch-stable view of the planner's chosen plan, refreshed by the harness
/// after each EpochController::run_epoch.
struct PolicySnapshot {
  bool have_plan = false;
  bool feasible = false;
  /// Server-side budget after network slack, us (the DVFS layer's target).
  SimTime effective_server_budget = 0.0;
  /// End-to-end SLA the plan was optimized against, us.
  SimTime latency_constraint = 0.0;
};

/// Per-arrival context handed to AdmissionPolicy::decide.
struct AdmissionContext {
  SimTime now = 0.0;
  /// Queries currently fanned out in the DES.
  int inflight = 0;
  /// Queries waiting in the dispatch queue.
  int queued = 0;
  /// The harness's estimate of the sustainable service rate, queries/s
  /// (cores * hosts / mean service time at the planned frequency).
  double sustainable_rate_qps = 0.0;
  const PolicySnapshot* plan = nullptr;
};

/// Context for a late-shed check when a queued query is about to dispatch.
struct ShedContext {
  SimTime now = 0.0;
  SimTime waited = 0.0;
  const PolicySnapshot* plan = nullptr;
};

enum class AdmissionDecision { Admit, Shed };

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  virtual AdmissionDecision decide(const AdmissionContext& ctx) = 0;
  virtual const char* name() const = 0;
};

class ShedPolicy {
 public:
  virtual ~ShedPolicy() = default;
  /// True = drop the queued query instead of issuing it.
  virtual bool should_shed(const ShedContext& ctx) = 0;
  virtual const char* name() const = 0;
};

/// Tuning shared by the built-in policies (serve/policies.h); factories take
/// the whole struct so CLI plumbing stays one flag per knob.
struct PolicyConfig {
  /// token-bucket: sustained admission rate, queries/s. 0 = the harness's
  /// sustainable_rate_qps.
  double bucket_rate_qps = 0.0;
  /// token-bucket: burst capacity, tokens.
  double bucket_burst = 32.0;
  /// token-bucket: additionally shed when the dispatch queue holds more
  /// than this many queries (0 = no queue bound).
  int queue_bound = 64;
  /// sla-aware: shed when expected wait exceeds margin * the planner's
  /// effective server budget.
  double sla_margin = 1.0;
  /// deadline shed: drop queued queries older than this fraction of the
  /// latency constraint.
  double deadline_fraction = 0.5;
};

/// Factories, selectable by name from util/cli (--admission=, --shed=).
/// Unknown names throw std::invalid_argument listing the built-ins.
std::unique_ptr<AdmissionPolicy> make_admission_policy(
    const std::string& name, const PolicyConfig& config = {});
std::unique_ptr<ShedPolicy> make_shed_policy(const std::string& name,
                                             const PolicyConfig& config = {});

/// "always, token-bucket, sla-aware" etc., for CLI error messages.
const char* admission_policy_names();
const char* shed_policy_names();

}  // namespace eprons
