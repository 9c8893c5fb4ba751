// Per-epoch JSONL export for the Fig. 7 control loop.
//
// One JSON object per line, one line per planner epoch — the format every
// log-ingestion pipeline (jq, pandas.read_json(lines=True), Vector, ...)
// consumes directly. EpochController streams a record per control epoch;
// TraceReplay streams one per DES calibration point. Records carry the
// quantities the paper's evaluation reasons about: chosen K, feasibility,
// switches wanted vs. actually powered, predicted vs. realized power, the
// demand predictor's conservatism ratio, and the slack estimator's tails.
//
// Every record type (these five and the two in obs/attribution.h) is one
// declaration inside its struct:
//   * `sources` — the "source" values that mark its lines in a mixed log;
//   * `fields(f)` — its field table: f(name, member) for each JSON field in
//     output order. A nested struct's table is spliced in flat by calling
//     its fields(f); a vector of structs is written as an array of row
//     objects, one per element, each from the element's table;
//   * `identities` (optional) — rules every record obeys, each a chain of
//     `==`, `<=` or `<` relations between operands. An operand is `0`, a
//     field, a sum `a + b + c` re-added left to right (so an ordered sum
//     compares bit-exactly: "total_w == network_total_w + server_total_w"),
//     or a list `a, b, c` that each of its members must satisfy
//     ("0 <= shed, dropped").
// The serializer (to_jsonl, JsonlWriter::write) and record_schema_json()
// are both driven by these declarations. The schema is committed as
// tools/record_schema.json (obs_test fails when it drifts), and
// tools/eprons_report.py --check verifies every logged record against it.
#pragma once

#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/strings.h"

namespace eprons::obs {

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

  static constexpr const char* sources[] = {"epoch_controller", "trace_replay"};
  void fields(auto&& f) const {
    f("source", source);
    f("epoch", epoch);
    f("chosen_k", chosen_k);
    f("feasible", feasible);
    f("wanted_switches", wanted_switches);
    f("actual_switches", actual_switches);
    f("predicted_total_w", predicted_total_w);
    f("realized_network_w", realized_network_w);
    f("prediction_ratio", prediction_ratio);
    f("slack_total_p95_us", slack_total_p95_us);
    f("slack_total_p99_us", slack_total_p99_us);
    f("server_budget_us", server_budget_us);
    f("utilization", utilization);
  }
};

/// One emergency re-plan triggered by a fault notification, interleaved
/// with EpochRecords in the same JSONL stream ("source" disambiguates).
struct FaultRecord {
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

  static constexpr const char* sources[] = {"fault_recovery"};
  void fields(auto&& f) const {
    f("source", sources[0]);
    f("epoch", epoch);
    f("failed_switches", failed_switches);
    f("failed_links", failed_links);
    f("connected", connected);
    f("hot_recovery", hot_recovery);
    f("replanned", replanned);
    f("chosen_k", chosen_k);
    f("k_bumped", k_bumped);
    f("woken_backups", woken_backups);
    f("emergency_boots", emergency_boots);
    f("flows_rerouted", flows_rerouted);
    f("time_to_replan_us", time_to_replan_us);
    f("estimated_outage_violations", estimated_outage_violations);
  }
};

/// One serving report window from the open-loop harness (serve/), on the
/// same JSONL stream as EpochRecords ("source" disambiguates). Counts are
/// per window, not cumulative.
struct ServingWindowRecord {
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
  /// deliberately outside the arrivals identity).
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

  static constexpr const char* sources[] = {"serving_window"};
  /// Arrivals are classified once, at arrival time, so the conservation
  /// identity holds exactly per record.
  static constexpr const char* identities[] = {
      "arrivals == admitted + shed + dropped",
      "0 <= admitted, shed, dropped, late_shed, completed",
      "0 <= sla_misses <= subqueries",
      "latency_p50_us <= latency_p95_us <= latency_p99_us",
      "window_start_us < window_end_us",
  };
  void fields(auto&& f) const {
    f("source", sources[0]);
    f("window", window);
    f("epoch", epoch);
    f("window_start_us", window_start_us);
    f("window_end_us", window_end_us);
    f("offered_qps", offered_qps);
    f("arrivals", arrivals);
    f("admitted", admitted);
    f("queued", queued);
    f("shed", shed);
    f("dropped", dropped);
    f("late_shed", late_shed);
    f("completed", completed);
    f("subqueries", subqueries);
    f("sla_misses", sla_misses);
    f("latency_p50_us", latency_p50_us);
    f("latency_p95_us", latency_p95_us);
    f("latency_p99_us", latency_p99_us);
    f("energy_per_admitted_j", energy_per_admitted_j);
    f("transition_penalized", transition_penalized);
  }
};

/// One temporal-scheduler epoch (schedule/temporal_scheduler.h), on the
/// same JSONL stream as EpochRecords ("source" disambiguates). Volumes
/// are integer Mbit, so carried + backlog + expired roll-ups reconcile
/// exactly against the summary record's totals.
struct ScheduleEpochRecord {
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

  static constexpr const char* sources[] = {"schedule_epoch"};
  static constexpr const char* identities[] = {
      "0 <= carried_mbit <= cap_mbit",
      "0 <= backlog_mbit, expired_mbit, flows_active, flows_completed",
  };
  void fields(auto&& f) const {
    f("source", sources[0]);
    f("epoch", epoch);
    f("carried_mbit", carried_mbit);
    f("backlog_mbit", backlog_mbit);
    f("expired_mbit", expired_mbit);
    f("flows_active", flows_active);
    f("flows_completed", flows_completed);
    f("cap_mbit", cap_mbit);
    f("cost_level", cost_level);
    f("demand_mbps", demand_mbps);
  }
};

/// One temporal-scheduler run summary (one per scheduling horizon), after
/// the ScheduleEpochRecords it summarizes.
struct ScheduleSummaryRecord {
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

  static constexpr const char* sources[] = {"schedule_summary"};
  /// Integer conservation: the producer defines the total as this sum.
  static constexpr const char* identities[] = {
      "total_volume_mbit == carried_total_mbit + missed_total_mbit",
      "0 <= carried_total_mbit, missed_total_mbit, deferred_mbit_epochs",
      "0 <= deadline_misses <= flows",
      "0 <= epochs",
  };
  void fields(auto&& f) const {
    f("source", sources[0]);
    f("epochs", epochs);
    f("flows", flows);
    f("carried_total_mbit", carried_total_mbit);
    f("missed_total_mbit", missed_total_mbit);
    f("total_volume_mbit", total_volume_mbit);
    f("deadline_misses", deadline_misses);
    f("deferred_mbit_epochs", deferred_mbit_epochs);
    f("used_edf_fallback", used_edf_fallback);
    f("objective_cost", objective_cost);
  }
};

/// A type with `sources` and a field table is a top-level JSONL record.
template <class R>
concept JsonlRecord = requires { R::sources; };

/// The JSON type a field of C++ type T is written as (and declared as in
/// the schema).
template <class T>
constexpr std::string_view json_type() {
  if constexpr (std::is_same_v<T, bool>) return "boolean";
  if constexpr (std::is_integral_v<T>) return "integer";
  if constexpr (std::is_floating_point_v<T>) return "number";
  return "string";
}

/// Visits a field table and appends `"name": value` pairs, ", "-separated:
/// doubles in json_number's round-tripping %.17g form, integers in decimal,
/// strings escaped, a vector as an array of row objects.
class JsonFieldWriter {
 public:
  explicit JsonFieldWriter(std::string* out) : out_(out) {}

  template <class T>
  void operator()(const char* name, const T& value) {
    append_name(name);
    constexpr std::string_view type = json_type<T>();
    if constexpr (type == "boolean") {
      *out_ += value ? "true" : "false";
    } else if constexpr (type == "integer") {
      *out_ += std::to_string(value);
    } else if constexpr (type == "number") {
      *out_ += json_number(value);
    } else {
      *out_ += '"';
      *out_ += json_escape(value);
      *out_ += '"';
    }
  }
  template <class Row>
  void operator()(const char* name, const std::vector<Row>& rows) {
    append_name(name);
    *out_ += '[';
    for (std::size_t i = 0; i < rows.size(); ++i) {
      *out_ += i == 0 ? "{" : ", {";
      rows[i].fields(JsonFieldWriter(out_));
      *out_ += '}';
    }
    *out_ += ']';
  }

 private:
  void append_name(const char* name) {
    *out_ += first_ ? "\"" : ", \"";
    first_ = false;
    *out_ += name;
    *out_ += "\": ";
  }

  std::string* out_;
  bool first_ = true;
};

/// Serializes `record` as a single JSON object line (no trailing spaces,
/// '\n'-terminated). Field order is fixed, output is deterministic.
template <JsonlRecord R>
std::string to_jsonl(const R& record) {
  std::string out = "{";
  record.fields(JsonFieldWriter(&out));
  out += "}\n";
  return out;
}

/// Every record type's sources, field names and JSON types, and identities,
/// as the JSON document committed at tools/record_schema.json.
std::string record_schema_json();

/// Streams records to an ostream, one line each. Thread-safe at the line
/// level; the stream is borrowed and must outlive the writer.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::ostream* os) : os_(os) {}

  template <JsonlRecord R>
  void write(const R& record) {
    write_line(to_jsonl(record));
  }
  std::size_t records_written() const;

 private:
  void write_line(const std::string& line);

  std::ostream* os_;
  mutable std::mutex mutex_;
  std::size_t records_ = 0;
};

}  // namespace eprons::obs
