// The paper's section II consolidation procedure as a runnable component:
//
//   "i) measure the traffic statistics and predict future bandwidth demand;
//    ii) optimize the DCN power consumption by shifting flows ...;
//    iii) reconfigure the flow forwarding rules."
//
// Each epoch (10 min, polled every 2 s by the POX controller in the paper)
// the controller: feeds noisy per-flow rate observations to the
// 90th-percentile demand predictor, runs the joint optimizer on the
// *predicted* demands, and hands the resulting subnet to the transition
// controller (which applies the backup-path linger policy so the 72.52 s
// switch boot time rarely sits on the datapath).
#pragma once

#include "consolidate/transition.h"
#include "core/joint_optimizer.h"
#include "flow/demand_predictor.h"
#include "obs/jsonl.h"
#include "util/rng.h"

namespace eprons {

/// Emergency re-plan knobs (paper section IV-B: the POX controller polls
/// every 2 s, so faults are noticed at poll granularity, not epoch
/// granularity).
struct FaultRecoveryConfig {
  /// Failure-detection latency: one controller poll, us.
  SimTime poll_interval = sec(2.0);
  /// Additive K bump applied when the surviving subnet forces a cold
  /// re-plan (clamped to the optimizer's k_max): lost capacity erodes
  /// slack, so the controller reserves more headroom until the next full
  /// epoch re-optimizes from scratch.
  double k_bump = 1.0;
};

struct EpochControllerConfig {
  JointOptimizerConfig joint;
  TransitionConfig transition;
  DemandPredictorConfig predictor;
  FaultRecoveryConfig recovery;
  /// Rate observations per flow per epoch (10 min / 2 s polling = 300).
  int samples_per_epoch = 300;
  /// Multiplicative noise of each observation around the true rate
  /// (log-normal sigma), modeling measurement + traffic variability.
  double observation_sigma = 0.2;
  /// Worker threads for the per-epoch joint optimization; copied over
  /// `joint.runtime` when set to more than one thread. Epoch results are
  /// independent of this value.
  RuntimeConfig runtime;
  /// Per-epoch JSONL sink. When null, records go to the process-wide
  /// `obs::epoch_log()` sink if `--epoch-log` configured one (and are
  /// dropped otherwise).
  obs::JsonlWriter* epoch_log = nullptr;
  /// Consolidation strategy for the internal joint optimizer (greedy, MILP,
  /// or the hierarchical pod decomposition). Not owned; must outlive the
  /// controller. nullptr = the optimizer's default greedy.
  const Consolidator* consolidator = nullptr;
};

struct EpochReport {
  int epoch = 0;
  double chosen_k = 1.0;
  bool feasible = false;
  int wanted_switches = 0;
  /// Switches actually on this epoch (includes lingering backups).
  int actual_switches = 0;
  TransitionStats transition;
  Power network_power = 0.0;      // actual mask * switch power
  Power predicted_total = 0.0;    // optimizer's estimate
  /// Mean ratio of predicted to true demand across flows (prediction
  /// conservatism; ~1.1-1.4 with a 90th-percentile predictor).
  double prediction_ratio = 0.0;
  /// Slack estimator round-trip tails for the chosen plan, us.
  SimTime slack_total_p95 = 0.0;
  SimTime slack_total_p99 = 0.0;
  /// Latency budget handed to the DVFS layer after network slack, us.
  SimTime server_budget = 0.0;
};

/// Outcome of one emergency re-plan (see on_failure). All quantities are
/// *modeled* — derived from the poll interval, boot time, and query rate —
/// never from wall clock, so reports are bit-identical for any --threads.
struct RecoveryReport {
  int epoch = 0;
  /// A connected surviving subnet exists (hosts mutually reachable).
  bool connected = false;
  /// The optimizer produced a new plan (false when no epoch ran yet or the
  /// failure touched nothing the current plan uses).
  bool replanned = false;
  /// Recovery needed no cold boots: lingering backups + already-on
  /// switches absorbed the re-routed traffic.
  bool hot_recovery = false;
  double previous_k = 0.0;
  double chosen_k = 0.0;
  /// K was raised above the pre-failure value to buy back slack.
  bool k_bumped = false;
  /// Lingering backup switches promoted onto the datapath (no boot cost).
  int woken_backups = 0;
  /// Cold boots started by the recovery (each pays power_on_time).
  int emergency_boots = 0;
  /// Flows of the pre-failure plan whose path crossed a failed element.
  int flows_rerouted = 0;
  /// Of those, query (latency-sensitive request/reply) flows.
  int affected_query_flows = 0;
  /// Modeled detection-to-recovery window, us: one poll interval, plus the
  /// boot window when any cold boot was needed.
  SimTime time_to_replan = 0.0;
  /// Modeled queries arriving inside that window while any query path was
  /// down; every query fans out to all leaf servers, so one broken query
  /// path makes every in-flight query miss the SLA.
  double estimated_outage_violations = 0.0;
  int actual_switches = 0;
  Power network_power = 0.0;
};

class EpochController {
 public:
  EpochController(const Topology* topo, const ServiceModel* service_model,
                  const ServerPowerModel* power_model,
                  EpochControllerConfig config = {});

  /// Runs one epoch against ground-truth background demands. The controller
  /// never sees `true_background` directly — only noisy rate samples.
  /// While faults are active (on_failure was called and clear_faults was
  /// not), planning is restricted to the surviving subnet.
  EpochReport run_epoch(const FlowSet& true_background, double utilization,
                        Rng& rng);

  /// Emergency re-plan on a fault notification (the 2 s poll noticed
  /// `overlay`, not the 10-min epoch): re-runs the consolidator on the
  /// surviving subnet, preferring already-on switches — lingering backups
  /// act as a hot standby pool — and bumps K when only a cold re-plan
  /// (new boots, or shrunk capacity) can restore feasibility. The overlay
  /// is remembered until clear_faults(); subsequent run_epoch calls plan
  /// around it.
  RecoveryReport on_failure(const FailureOverlay& overlay);

  /// Forgets the active overlay: everything repaired.
  void clear_faults();
  bool faults_active() const { return faults_active_; }

  const std::vector<bool>& current_mask() const {
    return transitions_.current_mask();
  }
  const TransitionController& transitions() const { return transitions_; }
  int epochs_run() const { return epoch_; }

  /// The plan chosen by the most recent run_epoch/on_failure (valid only
  /// when has_plan()). The serving harness routes query flows and feeds its
  /// admission policies from this snapshot between epochs.
  const JointPlan& last_plan() const { return last_plan_; }
  bool has_plan() const { return have_plan_; }

 private:
  /// Wanted mask fallback: when the optimizer's plan cannot connect the
  /// hosts (or produced none), power every surviving switch.
  std::vector<bool> surviving_fallback_mask() const;

  const Topology* topo_;
  const ServiceModel* service_model_;
  const ServerPowerModel* power_model_;
  EpochControllerConfig config_;
  DemandPredictor predictor_;
  /// run_epoch's measurement draws; kept so each epoch reuses the buffer.
  NormalDraws draws_;
  TransitionController transitions_;
  /// Persistent so its thread pool survives across epochs.
  std::unique_ptr<JointOptimizer> optimizer_;
  int epoch_ = 0;

  // Fault state (set by on_failure, cleared by clear_faults).
  bool faults_active_ = false;
  FailureOverlay active_overlay_;
  std::vector<bool> failed_switch_mask_;  // NodeId-indexed

  // Last-epoch snapshot the emergency path re-plans from: run_epoch's
  // predicted demands and the plan it chose.
  FlowSet last_predicted_;
  double last_utilization_ = 0.0;
  JointPlan last_plan_;
  bool have_plan_ = false;
};

}  // namespace eprons
