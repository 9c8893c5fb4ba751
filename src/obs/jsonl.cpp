#include "obs/jsonl.h"

#include <ostream>

#include "obs/attribution.h"
#include "util/strings.h"

namespace eprons::obs {

namespace {

// Every record serializes as `{"source": "<tag>"` followed by
// `, "<name>": <value>` fields in a fixed order: doubles in json_number's
// round-tripping %.17g form, integers in decimal, strings escaped.

std::string open_record(std::string_view source) {
  std::string out = "{\"source\": \"";
  out += json_escape(source);
  out += "\"";
  return out;
}

void append_name(std::string& out, const char* name) {
  out += ", \"";
  out += name;
  out += "\": ";
}

void append_field(std::string& out, const char* name, double value) {
  append_name(out, name);
  out += json_number(value);
}

void append_field(std::string& out, const char* name, int value) {
  append_name(out, name);
  out += std::to_string(value);
}

void append_field(std::string& out, const char* name, long long value) {
  append_name(out, name);
  out += std::to_string(value);
}

void append_field(std::string& out, const char* name, bool value) {
  append_name(out, name);
  out += value ? "true" : "false";
}

void append_field(std::string& out, const char* name,
                  const std::string& value) {
  append_name(out, name);
  out += "\"";
  out += json_escape(value);
  out += "\"";
}

// A C string would silently bind to the bool overload.
void append_field(std::string& out, const char* name, const char* value) =
    delete;

}  // namespace

std::string to_jsonl(const EpochRecord& r) {
  std::string out = open_record(r.source);
  append_field(out, "epoch", r.epoch);
  append_field(out, "chosen_k", r.chosen_k);
  append_field(out, "feasible", r.feasible);
  append_field(out, "wanted_switches", r.wanted_switches);
  append_field(out, "actual_switches", r.actual_switches);
  append_field(out, "predicted_total_w", r.predicted_total_w);
  append_field(out, "realized_network_w", r.realized_network_w);
  append_field(out, "prediction_ratio", r.prediction_ratio);
  append_field(out, "slack_total_p95_us", r.slack_total_p95_us);
  append_field(out, "slack_total_p99_us", r.slack_total_p99_us);
  append_field(out, "server_budget_us", r.server_budget_us);
  append_field(out, "utilization", r.utilization);
  out += "}\n";
  return out;
}

std::string to_jsonl(const FaultRecord& r) {
  std::string out = open_record(r.source);
  append_field(out, "epoch", r.epoch);
  append_field(out, "failed_switches", r.failed_switches);
  append_field(out, "failed_links", r.failed_links);
  append_field(out, "connected", r.connected);
  append_field(out, "hot_recovery", r.hot_recovery);
  append_field(out, "replanned", r.replanned);
  append_field(out, "chosen_k", r.chosen_k);
  append_field(out, "k_bumped", r.k_bumped);
  append_field(out, "woken_backups", r.woken_backups);
  append_field(out, "emergency_boots", r.emergency_boots);
  append_field(out, "flows_rerouted", r.flows_rerouted);
  append_field(out, "time_to_replan_us", r.time_to_replan_us);
  append_field(out, "estimated_outage_violations",
               r.estimated_outage_violations);
  out += "}\n";
  return out;
}

std::string to_jsonl(const ServingWindowRecord& r) {
  std::string out = open_record(r.source);
  append_field(out, "window", r.window);
  append_field(out, "epoch", r.epoch);
  append_field(out, "window_start_us", r.window_start_us);
  append_field(out, "window_end_us", r.window_end_us);
  append_field(out, "offered_qps", r.offered_qps);
  append_field(out, "arrivals", r.arrivals);
  append_field(out, "admitted", r.admitted);
  append_field(out, "queued", r.queued);
  append_field(out, "shed", r.shed);
  append_field(out, "dropped", r.dropped);
  append_field(out, "late_shed", r.late_shed);
  append_field(out, "completed", r.completed);
  append_field(out, "subqueries", r.subqueries);
  append_field(out, "sla_misses", r.sla_misses);
  append_field(out, "latency_p50_us", r.latency_p50_us);
  append_field(out, "latency_p95_us", r.latency_p95_us);
  append_field(out, "latency_p99_us", r.latency_p99_us);
  append_field(out, "energy_per_admitted_j", r.energy_per_admitted_j);
  append_field(out, "transition_penalized", r.transition_penalized);
  out += "}\n";
  return out;
}

std::string to_jsonl(const ScheduleEpochRecord& r) {
  std::string out = open_record(r.source);
  append_field(out, "epoch", r.epoch);
  append_field(out, "carried_mbit", r.carried_mbit);
  append_field(out, "backlog_mbit", r.backlog_mbit);
  append_field(out, "expired_mbit", r.expired_mbit);
  append_field(out, "flows_active", r.flows_active);
  append_field(out, "flows_completed", r.flows_completed);
  append_field(out, "cap_mbit", r.cap_mbit);
  append_field(out, "cost_level", r.cost_level);
  append_field(out, "demand_mbps", r.demand_mbps);
  out += "}\n";
  return out;
}

std::string to_jsonl(const ScheduleSummaryRecord& r) {
  std::string out = open_record(r.source);
  append_field(out, "epochs", r.epochs);
  append_field(out, "flows", r.flows);
  append_field(out, "carried_total_mbit", r.carried_total_mbit);
  append_field(out, "missed_total_mbit", r.missed_total_mbit);
  append_field(out, "total_volume_mbit", r.total_volume_mbit);
  append_field(out, "deadline_misses", r.deadline_misses);
  append_field(out, "deferred_mbit_epochs", r.deferred_mbit_epochs);
  append_field(out, "used_edf_fallback", r.used_edf_fallback);
  append_field(out, "objective_cost", r.objective_cost);
  out += "}\n";
  return out;
}

std::string to_jsonl(const AttributionRecord& r) {
  std::string out = open_record("attribution");
  append_field(out, "producer", r.source);
  append_field(out, "epoch", r.epoch);
  append_field(out, "chosen_k", r.chosen_k);
  append_field(out, "feasible", r.feasible);
  // Power ledger. The *_total_w fields are the producers' headline totals;
  // the components sum to them bit-identically by construction.
  append_field(out, "edge_w", r.power.edge_w);
  append_field(out, "agg_w", r.power.agg_w);
  append_field(out, "core_w", r.power.core_w);
  append_field(out, "link_w", r.power.link_w);
  append_field(out, "network_total_w", r.power.network_total_w);
  append_field(out, "linger_overhead_w", r.power.linger_overhead_w);
  append_field(out, "edge_switches", r.power.edge_switches);
  append_field(out, "agg_switches", r.power.agg_switches);
  append_field(out, "core_switches", r.power.core_switches);
  append_field(out, "active_links", r.power.active_links);
  append_field(out, "linger_switches", r.power.linger_switches);
  append_field(out, "server_idle_w", r.power.server_idle_w);
  append_field(out, "server_dynamic_w", r.power.server_dynamic_w);
  append_field(out, "server_dvfs_residual_w", r.power.server_dvfs_residual_w);
  append_field(out, "server_total_w", r.power.server_total_w);
  append_field(out, "hosts", r.power.hosts);
  append_field(out, "total_w", r.power.total_w);
  // Latency ledger.
  append_field(out, "constraint_us", r.latency.constraint_us);
  append_field(out, "network_p95_us", r.latency.network_p95_us);
  append_field(out, "network_p99_us", r.latency.network_p99_us);
  append_field(out, "request_p95_us", r.latency.request_p95_us);
  append_field(out, "server_budget_us", r.latency.server_budget_us);
  append_field(out, "miss_charged_to", r.latency.miss_charged_to);
  out += "}\n";
  return out;
}

std::string to_jsonl(const PlanExplainRecord& r) {
  std::string out = open_record("plan_explain");
  append_field(out, "producer", r.source);
  append_field(out, "epoch", r.epoch);
  append_field(out, "path", r.path);
  append_field(out, "chosen_k", r.chosen_k);
  append_field(out, "feasible", r.feasible);
  append_field(out, "chosen_total_w", r.chosen_total_w);
  append_field(out, "consolidation_on_w", r.consolidation_on_w);
  append_field(out, "consolidation_off_w", r.consolidation_off_w);
  out += ", \"candidates\": [";
  for (std::size_t i = 0; i < r.candidates.size(); ++i) {
    const PlanCandidateExplain& c = r.candidates[i];
    out += i == 0 ? "{" : ", {";
    out += "\"k\": " + json_number(c.k);
    append_field(out, "feasible", c.feasible);
    append_field(out, "from_cache", c.from_cache);
    append_field(out, "reject_reason", c.reject_reason);
    append_field(out, "total_w", c.total_w);
    append_field(out, "network_w", c.network_w);
    append_field(out, "server_w", c.server_w);
    append_field(out, "violation_probability", c.violation_probability);
    append_field(out, "slack_p95_us", c.slack_p95_us);
    append_field(out, "server_budget_us", c.server_budget_us);
    append_field(out, "active_switches", c.active_switches);
    out += "}";
  }
  out += "]}\n";
  return out;
}

void JsonlWriter::write(const EpochRecord& record) {
  write_line(to_jsonl(record));
}

void JsonlWriter::write(const ServingWindowRecord& record) {
  write_line(to_jsonl(record));
}

void JsonlWriter::write(const FaultRecord& record) {
  write_line(to_jsonl(record));
}

void JsonlWriter::write(const ScheduleEpochRecord& record) {
  write_line(to_jsonl(record));
}

void JsonlWriter::write(const ScheduleSummaryRecord& record) {
  write_line(to_jsonl(record));
}

void JsonlWriter::write(const AttributionRecord& record) {
  write_line(to_jsonl(record));
}

void JsonlWriter::write(const PlanExplainRecord& record) {
  write_line(to_jsonl(record));
}

void JsonlWriter::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  (*os_) << line;
  os_->flush();  // streaming: each epoch is visible as soon as it happens
  ++records_;
}

std::size_t JsonlWriter::records_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

}  // namespace eprons::obs
