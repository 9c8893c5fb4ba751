// Open-loop serving harness: long-running DES serving driven by an
// ArrivalGenerator, re-planned by the EpochController on epoch boundaries.
//
// The closed bench scenarios (sim/search_cluster) derive their arrival
// rate from a utilization target — the load can never outrun the servers.
// This harness inverts the coupling for the ROADMAP's serving-mode goal:
// arrivals come from an external open-loop stream (diurnal x burst x
// flash-crowd, serve/arrivals.h) and are never gated on completions, so
// overload is a real state the policy layer (serve/policy.h) must manage.
//
// Per query: AdmissionPolicy -> fan out to every ISN (or park in a bounded
// dispatch queue when max_inflight is reached; ShedPolicy may drop stale
// entries at dispatch time) -> the PartitionAggregate core
// (sim/partition_aggregate.h) serves the sub-queries over the current
// plan's paths and reports each reply and each completed query back.
//
// Per epoch (transition.epoch_length): the harness derives the planner's
// utilization input from the arrival stream's exact integrated rate, draws
// the epoch's background flows from the diurnal background level, runs
// EpochController::run_epoch (which emits its usual EpochRecord /
// attribution / explain JSONL), hands the core the new plan's query-flow
// paths and offered load, and charges `reconfig_penalty` to queries in
// flight across a path change — the modeled cost of reprogramming
// forwarding rules under traffic. The DES aggregator is the planner's
// (`epoch.joint.aggregator_host`). Per report window it emits a
// ServingWindowRecord on the same sink (p50/p95/p99, admit/queue/shed/drop
// counts, energy per admitted query).
//
// Determinism: the DES is serial; `--threads` only parallelizes the
// planner inside run_epoch and the temporal scheduler's demand-matrix
// materialization, both bit-identical for any worker count — so the whole
// serving log is byte-identical across thread counts. Enabling the
// temporal layer draws from a 4th Rng split appended after ctrl/bg/sim,
// so toggling it leaves every pre-existing stream untouched.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/epoch_controller.h"
#include "flow/timed_flow.h"
#include "obs/jsonl.h"
#include "schedule/temporal_scheduler.h"
#include "serve/arrivals.h"
#include "serve/policy.h"
#include "sim/metrics.h"
#include "sim/partition_aggregate.h"

namespace eprons {

/// Deadline-bound background layer for the serving harness. When enabled,
/// the harness draws `flows` TimedFlows over the serving horizon
/// (deterministic 4th Rng split — toggling this leaves the ctrl/bg/sim
/// streams untouched), schedules them once up front against the diurnal
/// epoch-cost curve, and layers each epoch's scheduled demand on top of
/// the inelastic background before the planner runs. The schedule is
/// journaled as ScheduleEpochRecord / ScheduleSummaryRecord lines on the
/// same JSONL sink.
struct TemporalServingConfig {
  bool enabled = false;
  /// Timed background flows drawn over the serving horizon.
  int flows = 8;
  /// Flow generator; `epochs` is overridden to the horizon's epoch count
  /// and empty `endpoints` are derived from the topology.
  TimedFlowGenConfig gen;
  /// Scheduler instance model; `epochs`/`epoch_seconds` are overridden
  /// from the serving horizon, an empty `epoch_cost` defaults to the
  /// arrival stream's diurnal curve, and unset caps default from link
  /// capacity (half / 0.4 of an uplink-epoch).
  TemporalSchedulerConfig scheduler;
};

struct ServingHarnessConfig {
  ArrivalStreamConfig arrivals;
  /// Epoch planning loop; `transition.epoch_length` sets the re-plan
  /// cadence and `joint.aggregator_host` the host that fans queries out.
  /// The harness overrides `epoch.epoch_log` with `sink` when one is given.
  EpochControllerConfig epoch;
  /// Background-flow generator matched to the topology (Scenario::flow_gen).
  FlowGenConfig flow_gen;
  /// Elephants per epoch (10% demand jitter); the demand level follows the
  /// diurnal background curve.
  int background_flows = 6;

  /// Deadline-bound (elastic) background layer; off by default.
  TemporalServingConfig temporal;

  /// Policy selection (serve/policies.h built-ins, by name).
  std::string admission = "always";
  std::string shed = "never";
  PolicyConfig policy;

  /// DVFS policy on every ISN.
  std::string server_policy = "eprons";
  double target_vp = 0.05;

  /// Fan-out concurrency bound: queries simultaneously in flight. Arrivals
  /// beyond it park in the dispatch queue (capacity `queue_limit`; a full
  /// queue drops at the door).
  int max_inflight = 64;
  int queue_limit = 256;

  /// Serving report window, us (one ServingWindowRecord each).
  SimTime report_window = sec(60.0);

  /// Latency charged to every query in flight across an epoch boundary
  /// that changed its fan-out paths (forwarding-rule reprogramming), us.
  SimTime reconfig_penalty = ms(2.0);

  /// Harness-internal streams (DES sampling, background draws, controller
  /// observations) — independent of arrivals.seed.
  std::uint64_t seed = 1;

  /// JSONL sink for serving windows AND the controller's epoch records.
  /// Null = the process-wide `obs::epoch_log()` sink (--epoch-log).
  obs::JsonlWriter* sink = nullptr;
};

struct ServingReport {
  long long arrivals = 0;
  long long admitted = 0;
  long long queued = 0;
  long long shed = 0;
  long long dropped = 0;
  long long late_shed = 0;
  long long completed = 0;
  long long subqueries_completed = 0;
  /// Sub-queries over the latency constraint — the paper's SLA object
  /// (ClusterMetrics::subquery_miss_rate); rate = sla_misses /
  /// subqueries_completed.
  long long sla_misses = 0;
  long long transition_penalized = 0;
  int epochs = 0;
  /// End-to-end latency over all completed queries, us.
  LatencyStats latency;
  /// Modeled energy over the whole run (CPU + server static + network), J.
  double total_energy_j = 0.0;
  double energy_per_admitted_j = 0.0;
  std::vector<obs::ServingWindowRecord> windows;
  /// Temporal-schedule roll-up (meaningful when `temporal` is true); the
  /// same record emitted as the "schedule_summary" JSONL line.
  bool temporal = false;
  obs::ScheduleSummaryRecord schedule;
};

class ServingHarness : private PartitionAggregate::Listener {
 public:
  ServingHarness(const Topology* topo, const ServiceModel* service_model,
                 const ServerPowerModel* power_model,
                 ServingHarnessConfig config);
  ~ServingHarness();
  ServingHarness(const ServingHarness&) = delete;
  ServingHarness& operator=(const ServingHarness&) = delete;

  /// Runs the full horizon; emits one ServingWindowRecord per window on
  /// the sink and returns the aggregate report.
  ServingReport run();

  /// Cluster-sustainable query rate at f_max, queries/s: each query puts
  /// one subquery on every ISN, so the binding resource is one ISN's cores.
  double sustainable_rate_qps() const { return sustainable_rate_qps_; }

 private:
  using PendingQuery = PartitionAggregate::PendingQuery;

  void init_temporal(Rng& timed_rng);
  void emit_schedule_epoch();
  void begin_epoch();
  void schedule_next_arrival();
  void on_arrival();
  void drain_dispatch_queue();
  void on_subquery_done(const PendingQuery& query,
                        const PartitionAggregate::SubqueryDone& done) override;
  void on_query_done(const PendingQuery& query) override;
  void emit_window(SimTime window_end);
  /// Accrues (static + network) energy at the current power level up to
  /// `now` — call before the network power changes and before windows.
  void accrue_fixed_energy(SimTime now);
  AdmissionContext admission_context(SimTime now) const;

  const Topology* topo_;
  const ServiceModel* service_model_;
  const ServerPowerModel* power_model_;
  ServingHarnessConfig config_;

  std::unique_ptr<ArrivalGenerator> arrivals_;
  std::unique_ptr<EpochController> controller_;
  std::unique_ptr<AdmissionPolicy> admission_;
  std::unique_ptr<ShedPolicy> shed_;

  Rng ctrl_rng_;  // epoch-controller observation noise
  Rng bg_rng_;    // background-flow draws

  // Temporal layer (null when config_.temporal.enabled is false). The
  // schedule is computed once in the constructor from the 4th Rng split.
  std::unique_ptr<TemporalScheduler> scheduler_;
  std::unique_ptr<TemporalSchedule> schedule_;

  // Plan-derived state, refreshed each epoch. The core samples latency
  // from offered_load_, so it is declared first and outlives the core.
  PolicySnapshot snapshot_;
  LinkUtilization offered_load_;
  SimTime server_budget_ = 0.0;   // per fan-out, from the plan
  SimTime request_budget_ = 0.0;
  Power network_power_w_ = 0.0;
  int epoch_index_ = -1;

  double sustainable_rate_qps_ = 0.0;

  // Serving state: the DES core (queries in flight, servers, event queue)
  // and, in front of it, the dispatch queue of admission times.
  std::unique_ptr<PartitionAggregate> des_;
  std::deque<SimTime> dispatch_queue_;

  // Window + total accounting.
  obs::ServingWindowRecord window_;
  SimTime window_start_ = 0.0;
  int window_index_ = 0;
  PercentileEstimator window_latency_;
  PercentileEstimator total_latency_;
  double fixed_energy_uj_ = 0.0;   // static + network, since window start
  double cpu_energy_mark_uj_ = 0.0;
  SimTime energy_mark_ = 0.0;
  ServingReport report_;
};

}  // namespace eprons
