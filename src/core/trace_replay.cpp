#include "core/trace_replay.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/scenario.h"
#include "obs/telemetry.h"
#include "topo/aggregation.h"

namespace eprons {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::NoPowerManagement: return "no-power-management";
    case Scheme::TimeTrader: return "timetrader";
    case Scheme::Eprons: return "eprons";
  }
  return "?";
}

TraceReplay::TraceReplay(const FatTree* topo,
                         const ServiceModel* service_model,
                         const ServerPowerModel* power_model,
                         TraceReplayConfig config)
    : topo_(topo),
      service_model_(service_model),
      power_model_(power_model),
      config_(std::move(config)) {}

FlowSet TraceReplay::background_at(double background_util, Rng& rng) const {
  return make_background_flows(
      topology_flow_gen(*topo_, config_.scenario.cluster.aggregator_host),
      config_.background_flows, background_util, /*jitter=*/0.1, rng);
}

CalibrationPoint TraceReplay::calibrate_point(Scheme scheme,
                                              double shape) const {
  // scheme_name() returns string literals, satisfying the tracer's static-
  // lifetime requirement.
  const obs::ScopedSpan span(obs::tracer(), scheme_name(scheme), "calibrate",
                             "shape", shape);
  CalibrationPoint point;
  point.shape = shape;
  const auto& tc = config_.trace;
  const double search_load =
      tc.search_trough + (tc.search_peak - tc.search_trough) * shape;
  point.utilization =
      std::max(0.02, config_.peak_utilization * search_load);
  point.background_util =
      tc.background_trough +
      (tc.background_peak - tc.background_trough) * shape;

  Rng rng(config_.seed + static_cast<std::uint64_t>(shape * 1000.0));
  const FlowSet background = background_at(point.background_util, rng);

  ScenarioConfig scenario = config_.scenario;
  scenario.cluster.target_utilization = point.utilization;

  const AggregationPolicies policies(topo_);
  const std::vector<bool> full = policies.policy(0).switch_on;

  switch (scheme) {
    case Scheme::NoPowerManagement:
    case Scheme::TimeTrader: {
      scenario.cluster.policy =
          scheme == Scheme::NoPowerManagement ? "max" : "timetrader";
      // No DCN power management: the full topology stays on.
      const ScenarioResult run = run_search_scenario(
          *topo_, *service_model_, *power_model_, background, scenario,
          &full);
      point.cpu_power_per_server = run.metrics.avg_cpu_power_per_server;
      point.network_power = run.metrics.network_power;
      point.active_switches = topo_->num_switches();
      point.subquery_miss_rate = run.metrics.subquery_miss_rate;
      break;
    }
    case Scheme::Eprons: {
      // The joint optimizer picks K (and thus the subnet) for this epoch.
      const JointOptimizer optimizer(topo_, service_model_, power_model_,
                                     config_.joint);
      PlanRequest request;
      request.background = &background;
      request.utilization = point.utilization;
      const JointPlan plan = optimizer.optimize(request);
      point.chosen_k = plan.k;
      point.plan_feasible = plan.feasible;
      point.predicted_total = plan.total_power;
      point.slack_total_p95 = plan.slack.total_p95;
      point.slack_total_p99 = plan.slack.total_p99;
      point.server_budget = plan.effective_server_budget;
      scenario.cluster.policy = "eprons";
      if (plan.feasible) {
        // Give the servers the budget the optimizer measured as available
        // after the network's p95 share.
        scenario.cluster.server_budget =
            std::min(scenario.cluster.latency_constraint,
                     plan.effective_server_budget);
      }
      // Simulate on the optimizer's placement: restrict routing to its
      // active subnet so the DES sees the same consolidation.
      const ScenarioResult run = run_search_scenario(
          *topo_, *service_model_, *power_model_, background, scenario,
          plan.placement.feasible ? &plan.placement.switch_on : &full);
      point.cpu_power_per_server = run.metrics.avg_cpu_power_per_server;
      point.network_power = run.metrics.network_power;
      point.active_switches = plan.placement.feasible
                                  ? plan.placement.active_switches
                                  : topo_->num_switches();
      point.subquery_miss_rate = run.metrics.subquery_miss_rate;
      break;
    }
  }
  return point;
}

namespace {

// Piecewise-linear interpolation over calibration points sorted by shape.
double interpolate(const std::vector<CalibrationPoint>& points, double shape,
                   double CalibrationPoint::*field) {
  if (points.empty()) return 0.0;
  if (shape <= points.front().shape) return points.front().*field;
  if (shape >= points.back().shape) return points.back().*field;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (shape <= points[i].shape) {
      const double t = (shape - points[i - 1].shape) /
                       (points[i].shape - points[i - 1].shape);
      return points[i - 1].*field +
             t * (points[i].*field - points[i - 1].*field);
    }
  }
  return points.back().*field;
}

// Network power switches in discrete steps; use the nearest point.
double nearest(const std::vector<CalibrationPoint>& points, double shape,
               double CalibrationPoint::*field) {
  double best = std::numeric_limits<double>::infinity();
  double value = 0.0;
  for (const CalibrationPoint& p : points) {
    const double d = std::abs(p.shape - shape);
    if (d < best) {
      best = d;
      value = p.*field;
    }
  }
  return value;
}

}  // namespace

ReplayResult TraceReplay::replay(Scheme scheme) const {
  const obs::ScopedSpan span(obs::tracer(), "replay", "replay");
  ReplayResult result;
  result.scheme = scheme;
  for (double shape : config_.calibration_shapes) {
    result.calibration.push_back(calibrate_point(scheme, shape));
  }
  if (obs::JsonlWriter* sink = obs::epoch_log()) {
    // One record per calibration point, in shape order: lets the same JSONL
    // pipeline that consumes control-loop epochs consume Fig. 15 runs.
    for (std::size_t i = 0; i < result.calibration.size(); ++i) {
      const CalibrationPoint& p = result.calibration[i];
      obs::EpochRecord record;
      record.source = "trace_replay";
      record.epoch = static_cast<int>(i);
      record.chosen_k = p.chosen_k;
      record.feasible = p.plan_feasible;
      record.wanted_switches = p.active_switches;
      record.actual_switches = p.active_switches;
      record.predicted_total_w = p.predicted_total;
      record.realized_network_w = p.network_power;
      record.slack_total_p95_us = p.slack_total_p95;
      record.slack_total_p99_us = p.slack_total_p99;
      record.server_budget_us = p.server_budget;
      record.utilization = p.utilization;
      sink->write(record);
    }
  }

  const std::vector<TracePoint> trace = make_diurnal_trace(config_.trace);
  const int hosts = topo_->num_hosts();
  const Power static_total =
      hosts * power_model_->config().static_power;
  const auto& tc = config_.trace;

  double sum_server = 0.0, sum_network = 0.0, sum_total = 0.0;
  result.peak_total_power = 0.0;
  result.min_total_power = std::numeric_limits<double>::infinity();

  for (const TracePoint& point : trace) {
    // Invert the trace point back to a diurnal shape value.
    const double span = tc.search_peak - tc.search_trough;
    const double shape = span <= 0.0
        ? 0.0
        : std::clamp((point.search_load - tc.search_trough) / span, 0.0, 1.0);

    MinutePower minute;
    minute.minute = point.minute;
    const Power cpu = interpolate(result.calibration, shape,
                                  &CalibrationPoint::cpu_power_per_server);
    minute.server_power = static_total + hosts * cpu;
    minute.network_power =
        nearest(result.calibration, shape, &CalibrationPoint::network_power);
    minute.total_power = minute.server_power + minute.network_power;
    result.series.push_back(minute);

    sum_server += minute.server_power;
    sum_network += minute.network_power;
    sum_total += minute.total_power;
    result.peak_total_power =
        std::max(result.peak_total_power, minute.total_power);
    result.min_total_power =
        std::min(result.min_total_power, minute.total_power);
  }

  const double n = static_cast<double>(result.series.size());
  if (n > 0) {
    result.average_server_power = sum_server / n;
    result.average_network_power = sum_network / n;
    result.average_total_power = sum_total / n;
  }
  return result;
}

TraceReplay::Savings TraceReplay::savings(const ReplayResult& baseline,
                                          const ReplayResult& result) {
  Savings out;
  auto pct = [](double base, double value) {
    return base <= 0.0 ? 0.0 : 100.0 * (base - value) / base;
  };
  out.server_pct =
      pct(baseline.average_server_power, result.average_server_power);
  out.network_pct =
      pct(baseline.average_network_power, result.average_network_power);
  out.total_pct =
      pct(baseline.average_total_power, result.average_total_power);

  // Per-minute peak saving: requires matching series lengths.
  const std::size_t n =
      std::min(baseline.series.size(), result.series.size());
  for (std::size_t i = 0; i < n; ++i) {
    out.peak_total_pct =
        std::max(out.peak_total_pct, pct(baseline.series[i].total_power,
                                         result.series[i].total_power));
  }
  return out;
}

}  // namespace eprons
