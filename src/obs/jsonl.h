// Per-epoch JSONL export for the Fig. 7 control loop.
//
// One JSON object per line, one line per planner epoch — the format every
// log-ingestion pipeline (jq, pandas.read_json(lines=True), Vector, ...)
// consumes directly. EpochController streams a record per control epoch;
// TraceReplay streams one per DES calibration point. Records carry the
// quantities the paper's evaluation reasons about: chosen K, feasibility,
// switches wanted vs. actually powered, predicted vs. realized power, the
// demand predictor's conservatism ratio, and the slack estimator's tails.
#pragma once

#include <iosfwd>
#include <mutex>
#include <string>

namespace eprons::obs {

struct AttributionRecord;   // obs/attribution.h
struct PlanExplainRecord;   // obs/attribution.h

struct EpochRecord {
  /// Producer tag: "epoch_controller" | "trace_replay".
  const char* source = "epoch_controller";
  int epoch = 0;
  double chosen_k = 0.0;
  bool feasible = false;
  int wanted_switches = 0;
  int actual_switches = 0;
  /// Optimizer's predicted total power vs. the power actually drawn by the
  /// realized subnet (watts).
  double predicted_total_w = 0.0;
  double realized_network_w = 0.0;
  /// Mean predicted/true demand ratio (demand predictor conservatism).
  double prediction_ratio = 0.0;
  /// Slack estimator round-trip tails for the chosen plan, us.
  double slack_total_p95_us = 0.0;
  double slack_total_p99_us = 0.0;
  /// Server budget handed to the DVFS layer, us.
  double server_budget_us = 0.0;
  /// Operating point.
  double utilization = 0.0;
};

/// One emergency re-plan triggered by a fault notification, interleaved
/// with EpochRecords in the same JSONL stream ("source" disambiguates).
struct FaultRecord {
  const char* source = "fault_recovery";
  /// Epoch during which the failure was noticed.
  int epoch = 0;
  int failed_switches = 0;
  int failed_links = 0;
  /// Whether a connected surviving subnet exists at all.
  bool connected = false;
  /// Recovery served entirely by already-on switches (lingering backups).
  bool hot_recovery = false;
  bool replanned = false;
  double chosen_k = 0.0;
  bool k_bumped = false;
  /// Lingering backup switches promoted onto the datapath.
  int woken_backups = 0;
  /// Cold boots the recovery had to start (each costs power_on_time).
  int emergency_boots = 0;
  int flows_rerouted = 0;
  /// Modeled detection-to-recovery window, us (poll interval, plus the
  /// boot window when any cold boot was needed).
  double time_to_replan_us = 0.0;
  /// Modeled queries arriving inside that window while query paths were
  /// down — each misses the SLA.
  double estimated_outage_violations = 0.0;
};

/// One serving report window from the open-loop harness (serve/), on the
/// same JSONL stream as EpochRecords ("source" disambiguates). Counts are
/// per window, not cumulative; the conservation invariant
/// arrivals == admitted + shed + dropped holds exactly per record.
struct ServingWindowRecord {
  const char* source = "serving_window";
  int window = 0;
  /// Planner epoch in effect during the window.
  int epoch = 0;
  double window_start_us = 0.0;
  double window_end_us = 0.0;
  /// Mean offered rate over the window (from the arrival generator's exact
  /// integrated rate), queries/s.
  double offered_qps = 0.0;
  long long arrivals = 0;
  long long admitted = 0;
  /// Admitted but parked in the dispatch queue at least once.
  long long queued = 0;
  /// Shed at admission (policy said no).
  long long shed = 0;
  /// Dropped at admission: the dispatch queue was full.
  long long dropped = 0;
  /// Admitted earlier but dropped stale from the dispatch queue by the
  /// ShedPolicy before issue (subset of a previous window's `admitted`, so
  /// deliberately outside the arrivals == admitted + shed + dropped
  /// conservation check).
  long long late_shed = 0;
  long long completed = 0;
  /// Sub-queries whose replies landed this window (completed queries
  /// contribute num_isns each; the counter advances as replies arrive).
  long long subqueries = 0;
  /// Sub-queries exceeding the latency constraint — the paper's SLA object
  /// (matches ClusterMetrics::subquery_miss_rate), counted against
  /// `subqueries`, not `completed`.
  long long sla_misses = 0;
  /// End-to-end latency of completions in the window, us (0 when none).
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  /// Total modeled energy spent in the window over admitted queries, J
  /// (0 when nothing was admitted).
  double energy_per_admitted_j = 0.0;
  /// In-flight queries that paid a plan-transition penalty this window.
  long long transition_penalized = 0;
};

/// One temporal-scheduler epoch (schedule/temporal_scheduler.h), on the
/// same JSONL stream as EpochRecords ("source" disambiguates). Volumes
/// are integer Mbit, so carried + backlog + expired roll-ups reconcile
/// exactly against the summary record's totals.
struct ScheduleEpochRecord {
  const char* source = "schedule_epoch";
  int epoch = 0;
  /// Elastic volume the schedule moves in this epoch, Mbit.
  long long carried_mbit = 0;
  /// Released-but-unfinished volume at epoch end (expired excluded), Mbit.
  long long backlog_mbit = 0;
  /// Volume whose deadline expired unserved in this epoch, Mbit.
  long long expired_mbit = 0;
  int flows_active = 0;
  int flows_completed = 0;
  /// Effective aggregate elastic budget for the epoch, Mbit.
  long long cap_mbit = 0;
  /// Marginal cost level the trough-filler saw for this epoch.
  double cost_level = 0.0;
  /// Mean elastic demand injected into the planner, Mbps.
  double demand_mbps = 0.0;
};

/// One temporal-scheduler run summary (one per scheduling horizon), after
/// the ScheduleEpochRecords it summarizes. carried_total_mbit +
/// missed_total_mbit == total_volume_mbit exactly (integer conservation;
/// eprons_report.py --check re-verifies).
struct ScheduleSummaryRecord {
  const char* source = "schedule_summary";
  int epochs = 0;
  int flows = 0;
  long long carried_total_mbit = 0;
  long long missed_total_mbit = 0;
  long long total_volume_mbit = 0;
  /// Flows with any volume unplaced at their deadline.
  int deadline_misses = 0;
  /// Volume-weighted deferral sum(mbit * (epoch - release)), Mbit-epochs.
  long long deferred_mbit_epochs = 0;
  /// Greedy stranded volume; the fluid-EDF repair pass produced the plan.
  bool used_edf_fallback = false;
  /// sum(cost[e] * mbit) over allocations, flow-id-major order.
  double objective_cost = 0.0;
};

/// Serializes `record` as a single JSON object line (no trailing spaces,
/// '\n'-terminated). Field order is fixed, output is deterministic.
std::string to_jsonl(const EpochRecord& record);
std::string to_jsonl(const FaultRecord& record);
std::string to_jsonl(const ServingWindowRecord& record);
std::string to_jsonl(const ScheduleEpochRecord& record);
std::string to_jsonl(const ScheduleSummaryRecord& record);

/// Streams records to an ostream, one line each. Thread-safe at the line
/// level; the stream is borrowed and must outlive the writer.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::ostream* os) : os_(os) {}

  void write(const EpochRecord& record);
  void write(const FaultRecord& record);
  void write(const ServingWindowRecord& record);
  void write(const ScheduleEpochRecord& record);
  void write(const ScheduleSummaryRecord& record);
  void write(const AttributionRecord& record);
  void write(const PlanExplainRecord& record);
  std::size_t records_written() const;

 private:
  void write_line(const std::string& line);

  std::ostream* os_;
  mutable std::mutex mutex_;
  std::size_t records_ = 0;
};

}  // namespace eprons::obs
