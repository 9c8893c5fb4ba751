#include "core/epoch_controller.h"

#include <algorithm>
#include <cmath>

#include "core/attribution.h"
#include "obs/telemetry.h"
#include "topo/aggregation.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace eprons {

namespace {

/// All hosts mutually reachable through `switch_on`, minus `overlay`.
bool hosts_connected(const Topology& topo, int aggregator_host,
                     const std::vector<bool>& switch_on,
                     const FailureOverlay* overlay) {
  std::vector<NodeId> targets;
  for (int h = 0; h < topo.num_hosts(); ++h) {
    if (h != aggregator_host) targets.push_back(topo.host(h));
  }
  return topo.graph().connected(topo.host(aggregator_host), targets,
                                switch_on, overlay);
}

// Emergency-recovery telemetry. Counters/histograms record *modeled*
// quantities (poll interval, boot window, query rate), never wall time, so
// snapshots stay bit-identical for any --threads.
struct FaultMetrics {
  obs::Counter& replans = obs::metrics().counter("fault.replans");
  obs::Counter& rerouted = obs::metrics().counter("fault.flows_rerouted");
  obs::Counter& emergency_boots =
      obs::metrics().counter("fault.emergency_boots");
  obs::Counter& outage_violations =
      obs::metrics().counter("fault.sla_violations_during_outage");
  obs::Histogram& time_to_replan =
      obs::metrics().histogram("fault.time_to_replan_us");

  static FaultMetrics& get() {
    static FaultMetrics m;
    return m;
  }
};

obs::FaultRecord make_fault_record(const RecoveryReport& report,
                                   const FailureOverlay& overlay) {
  obs::FaultRecord record;
  record.epoch = report.epoch;
  record.failed_switches = overlay.failed_nodes();
  record.failed_links = overlay.failed_links();
  record.connected = report.connected;
  record.hot_recovery = report.hot_recovery;
  record.replanned = report.replanned;
  record.chosen_k = report.chosen_k;
  record.k_bumped = report.k_bumped;
  record.woken_backups = report.woken_backups;
  record.emergency_boots = report.emergency_boots;
  record.flows_rerouted = report.flows_rerouted;
  record.time_to_replan_us = report.time_to_replan;
  record.estimated_outage_violations = report.estimated_outage_violations;
  return record;
}

}  // namespace

EpochController::EpochController(const Topology* topo,
                                 const ServiceModel* service_model,
                                 const ServerPowerModel* power_model,
                                 EpochControllerConfig config)
    : topo_(topo),
      service_model_(service_model),
      power_model_(power_model),
      config_(std::move(config)),
      predictor_(config_.predictor),
      transitions_(&topo->graph(), config_.transition) {
  if (config_.runtime.threads > 1) {
    config_.joint.runtime = config_.runtime;
  }
  optimizer_ = std::make_unique<JointOptimizer>(
      topo_, service_model_, power_model_, config_.joint,
      config_.consolidator);
}

EpochReport EpochController::run_epoch(const FlowSet& true_background,
                                       double utilization, Rng& rng) {
  EpochReport report;
  report.epoch = epoch_++;
  const obs::ScopedSpan span(obs::tracer(), "epoch", "control", "epoch",
                             static_cast<double>(report.epoch));
  static obs::Counter& epochs_run = obs::metrics().counter("epoch.runs");
  static obs::Counter& infeasible_epochs =
      obs::metrics().counter("epoch.infeasible");
  static obs::Histogram& ratio_pct =
      obs::metrics().histogram("epoch.prediction_ratio_pct");
  epochs_run.add();

  // (i) Measure: noisy rate observations -> 90th percentile prediction.
  // Flow by flow, each flow's samples are successive lognormal draws from
  // `rng`. Their Box–Muller uniforms are drawn here serially, in stream
  // order; the draws, each flow's window (looked up once, new ones created
  // serially) and its percentile are evaluated per flow on the optimizer's
  // pool; the predictions are summed serially in flow order. FlowSet ids
  // are distinct, so each flow fills its own window.
  const std::vector<Flow>& flows = true_background.flows();
  const std::size_t per_flow = static_cast<std::size_t>(
      std::max(0, config_.samples_per_epoch));
  rng.draw_normals(flows.size() * per_flow, &draws_);
  const NormalDraws& draws = draws_;
  std::vector<WindowedPercentile*> windows(flows.size(), nullptr);
  if (per_flow > 0) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      windows[i] = &predictor_.window(flows[i].id);
    }
  }
  std::vector<Bandwidth> demands(flows.size());
  parallel_for(optimizer_->pool(), flows.size(), [&](std::size_t i) {
    const Flow& flow = flows[i];
    if (windows[i] == nullptr) {
      demands[i] = predictor_.predict(flow.id);
      return;
    }
    constexpr std::size_t kChunk = 64;
    double factor[kChunk];
    for (std::size_t s0 = 0; s0 < per_flow; s0 += kChunk) {
      const std::size_t n = std::min(kChunk, per_flow - s0);
      draws.lognormal(i * per_flow + s0, n, 0.0, config_.observation_sigma,
                      factor);
      for (std::size_t s = 0; s < n; ++s) {
        windows[i]->add(flow.demand * factor[s]);
      }
    }
    demands[i] = predictor_.predict(*windows[i]);
  });
  FlowSet predicted;
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& flow = flows[i];
    predicted.add(flow.src_host, flow.dst_host, demands[i], flow.cls);
    if (flow.demand > 0.0) ratio_sum += demands[i] / flow.demand;
  }
  report.prediction_ratio =
      true_background.empty()
          ? 0.0
          : ratio_sum / static_cast<double>(true_background.size());
  ratio_pct.observe(report.prediction_ratio * 100.0);
  EPRONS_LOG(Info) << "epoch " << report.epoch
                   << ": demand predictor conservatism ratio "
                   << report.prediction_ratio << " over "
                   << true_background.size() << " flows";

  // (ii) Optimize on the predicted demands; while faults are active the
  // search is restricted to the surviving subnet.
  // The previous epoch's plan warm-starts this one (incremental planning,
  // when enabled): clean flows keep their routing, only the demand delta is
  // re-packed. Never under active faults — the constraint overlay changes
  // what "previous routing" even means there, so the emergency path plans
  // cold against the surviving subnet.
  const JointPlan* warm_previous =
      (have_plan_ && !faults_active_ &&
       config_.joint.incremental.enabled)
          ? &last_plan_
          : nullptr;
  JointPlan plan;
  obs::PlanExplainRecord explain;
  PlanRequest request;
  request.background = &predicted;
  request.utilization = utilization;
  request.explain = &explain;
  if (faults_active_) {
    request.constraints.allowed_switches = active_overlay_.surviving_switches();
    request.constraints.blocked_links = active_overlay_.down_link_mask();
  } else {
    request.previous = warm_previous;
  }
  plan = optimizer_->optimize(request);
  report.chosen_k = plan.k;
  report.feasible = plan.feasible;
  report.predicted_total = plan.total_power;
  report.slack_total_p95 = plan.slack.total_p95;
  report.slack_total_p99 = plan.slack.total_p99;
  report.server_budget = plan.effective_server_budget;
  if (!plan.feasible) infeasible_epochs.add();

  // (iii) Reconfigure through the transition controller. Under faults, a
  // plan that cannot connect the hosts (or an empty fallback plan) is
  // replaced by the whole surviving subnet — serving degraded beats
  // reporting a disconnected active mask.
  std::vector<bool> wanted = plan.placement.switch_on;
  if (faults_active_ &&
      (wanted.empty() ||
       !hosts_connected(*topo_, config_.joint.aggregator_host, wanted,
                        &active_overlay_))) {
    wanted = surviving_fallback_mask();
    EPRONS_LOG(Info) << "epoch " << report.epoch
                     << ": plan disconnected under faults; powering the "
                        "whole surviving subnet";
  }
  report.wanted_switches = count_active_switches(topo_->graph(), wanted);
  const std::vector<bool>& previous = transitions_.current_mask();
  report.transition = plan_transition(topo_->graph(), previous, wanted,
                                      config_.transition);
  const std::vector<bool>& actual = transitions_.step(
      wanted, faults_active_ ? &failed_switch_mask_ : nullptr);
  report.actual_switches = count_active_switches(topo_->graph(), actual);
  // Realized network power is *defined* as the per-layer fixed-order sum so
  // the attribution ledger's layer components sum to it bit-identically
  // (byte-identical to the old flat count * P under integral calibrations).
  const LayeredNetworkPower realized = layered_network_power(
      topo_->graph(), actual, config_.joint.consolidation.switch_power);
  report.network_power = realized.total_w;

  obs::EpochRecord record;
  record.source = "epoch_controller";
  record.epoch = report.epoch;
  record.chosen_k = report.chosen_k;
  record.feasible = report.feasible;
  record.wanted_switches = report.wanted_switches;
  record.actual_switches = report.actual_switches;
  record.predicted_total_w = report.predicted_total;
  record.realized_network_w = report.network_power;
  record.prediction_ratio = report.prediction_ratio;
  record.slack_total_p95_us = report.slack_total_p95;
  record.slack_total_p99_us = report.slack_total_p99;
  record.server_budget_us = report.server_budget;
  record.utilization = utilization;
  obs::JsonlWriter* sink =
      config_.epoch_log ? config_.epoch_log : obs::epoch_log();
  if (sink) {
    sink->write(record);
    // The per-epoch ledger: where every watt and microsecond went, plus
    // why the planner picked this K over every rejected candidate.
    sink->write(make_epoch_attribution(topo_->graph(), config_.joint, plan,
                                       actual, wanted, "epoch_controller",
                                       report.epoch));
    explain.source = "epoch_controller";
    explain.epoch = report.epoch;
    sink->write(explain);
  }

  // Snapshot for the emergency re-plan path: on_failure re-plans against
  // the demands this epoch planned with (the 2 s poll has no fresher ones).
  last_predicted_ = std::move(predicted);
  last_utilization_ = utilization;
  last_plan_ = std::move(plan);
  have_plan_ = true;
  return report;
}

RecoveryReport EpochController::on_failure(const FailureOverlay& overlay) {
  FaultMetrics& fm = FaultMetrics::get();
  const Graph& graph = topo_->graph();

  RecoveryReport report;
  report.epoch = epoch_ > 0 ? epoch_ - 1 : 0;
  report.previous_k = have_plan_ ? last_plan_.k : config_.joint.k_min;
  report.chosen_k = report.previous_k;

  if (!overlay.any_failed()) {
    // Everything repaired: back to unconstrained planning.
    clear_faults();
    report.connected = true;
    report.time_to_replan = config_.recovery.poll_interval;
    report.actual_switches =
        count_active_switches(graph, transitions_.current_mask());
    report.network_power =
        layered_network_power(graph, transitions_.current_mask(),
                              config_.joint.consolidation.switch_power)
            .total_w;
    return report;
  }

  faults_active_ = true;
  active_overlay_ = overlay;
  failed_switch_mask_.assign(graph.num_nodes(), false);
  for (const Node& n : graph.nodes()) {
    if (is_switch_type(n.type) && overlay.node_failed(n.id)) {
      failed_switch_mask_[static_cast<std::size_t>(n.id)] = true;
    }
  }

  std::vector<bool> all_on(graph.num_nodes(), true);
  report.connected = hosts_connected(*topo_, config_.joint.aggregator_host,
                                     all_on, &overlay);

  // Which of the current plan's flows lost their path?
  if (have_plan_) {
    std::vector<bool> is_query(last_plan_.flows.size(), false);
    for (const std::vector<FlowId>* ids :
         {&last_plan_.request_flow, &last_plan_.reply_flow}) {
      for (FlowId f : *ids) {
        if (f != kInvalidFlow) is_query[static_cast<std::size_t>(f)] = true;
      }
    }
    for (std::size_t i = 0; i < last_plan_.placement.flow_paths.size(); ++i) {
      const Path& path = last_plan_.placement.flow_paths[i];
      if (path.empty() || !overlay.blocks(path)) continue;
      ++report.flows_rerouted;
      if (i < is_query.size() && is_query[i]) ++report.affected_query_flows;
    }
  }

  // The shortcut below is only safe while the surviving active mask still
  // connects the hosts: after an infeasible fallback re-plan the stored
  // plan has no routable paths to diff against, so `flows_rerouted == 0`
  // alone cannot prove the failures (or a repair of a switch the fallback
  // left off) did not sever the datapath.
  bool datapath_intact = report.flows_rerouted == 0;
  if (have_plan_ && datapath_intact && report.connected) {
    std::vector<bool> projected = transitions_.current_mask();
    for (std::size_t i = 0;
         i < projected.size() && i < failed_switch_mask_.size(); ++i) {
      if (failed_switch_mask_[i]) projected[i] = false;
    }
    datapath_intact = hosts_connected(*topo_, config_.joint.aggregator_host,
                                      projected, &overlay);
  }

  if (!have_plan_ || datapath_intact) {
    // Nothing on the datapath was hit (an off switch crashed, or a
    // lingering backup): drop failed elements from the actual mask and
    // keep the plan. Detection still costs one poll interval.
    transitions_.apply_emergency(
        have_plan_ ? last_plan_.placement.switch_on : std::vector<bool>{},
        &failed_switch_mask_, nullptr);
    report.time_to_replan = config_.recovery.poll_interval;
    report.hot_recovery = true;
    report.actual_switches =
        count_active_switches(graph, transitions_.current_mask());
    report.network_power =
        layered_network_power(graph, transitions_.current_mask(),
                              config_.joint.consolidation.switch_power)
            .total_w;
    fm.time_to_replan.observe(report.time_to_replan);
    obs::JsonlWriter* sink =
        config_.epoch_log ? config_.epoch_log : obs::epoch_log();
    if (sink) sink->write(make_fault_record(report, overlay));
    return report;
  }

  report.replanned = true;
  fm.replans.add();
  const std::vector<bool> surviving = overlay.surviving_switches();
  const std::vector<bool> blocked = overlay.down_link_mask();
  const std::vector<bool> actual_before = transitions_.current_mask();
  const std::vector<bool> previous_wanted = last_plan_.placement.switch_on;

  // Phase 1 (hot): re-place on switches that are *already on* and alive —
  // the lingering backup pool plus the surviving datapath — so no boot
  // window sits between detection and recovery.
  PlanConstraints hot;
  hot.allowed_switches.assign(graph.num_nodes(), false);
  for (std::size_t i = 0; i < hot.allowed_switches.size(); ++i) {
    const bool alive = i < surviving.size() && surviving[i];
    const bool on = !graph.is_switch(static_cast<NodeId>(i)) ||
                    (i < actual_before.size() && actual_before[i]);
    hot.allowed_switches[i] = alive && on;
  }
  hot.blocked_links = blocked;
  PlanRequest hot_request;
  hot_request.background = &last_predicted_;
  hot_request.utilization = last_utilization_;
  hot_request.constraints = std::move(hot);
  JointPlan plan = optimizer_->optimize(hot_request);
  bool hot_feasible = plan.feasible;

  // Phase 2 (cold): the already-on pool is not enough — open the whole
  // surviving subnet and bump K to win back the slack the lost capacity
  // ate (section II: larger K reserves more headroom per flow).
  if (!hot_feasible) {
    PlanConstraints cold;
    cold.allowed_switches = surviving;
    cold.blocked_links = blocked;
    cold.k_min =
        std::min(last_plan_.k + config_.recovery.k_bump, config_.joint.k_max);
    PlanRequest cold_request;
    cold_request.background = &last_predicted_;
    cold_request.utilization = last_utilization_;
    cold_request.constraints = std::move(cold);
    plan = optimizer_->optimize(cold_request);
  }
  report.chosen_k = plan.k;
  report.k_bumped = plan.k > report.previous_k;

  std::vector<bool> wanted = plan.placement.switch_on;
  if (wanted.empty() ||
      !hosts_connected(*topo_, config_.joint.aggregator_host, wanted,
                       &overlay)) {
    wanted = surviving_fallback_mask();
  }
  for (const Node& n : graph.nodes()) {
    if (!is_switch_type(n.type)) continue;
    const auto i = static_cast<std::size_t>(n.id);
    const bool newly_wanted = i < wanted.size() && wanted[i] &&
                              !(i < previous_wanted.size() &&
                                previous_wanted[i]);
    if (newly_wanted && i < actual_before.size() && actual_before[i]) {
      ++report.woken_backups;  // a lingering backup promoted, boot-free
    }
  }
  int boots = 0;
  transitions_.apply_emergency(wanted, &failed_switch_mask_, &boots);
  report.emergency_boots = boots;
  report.hot_recovery = hot_feasible && boots == 0;
  // Modeled window, not wall time (determinism): the poll that noticed the
  // failure, plus the boot window if any switch had to cold-start.
  report.time_to_replan =
      config_.recovery.poll_interval +
      (boots > 0 ? config_.transition.power_on_time : 0.0);
  if (report.affected_query_flows > 0) {
    // Every query fans out to all leaf servers (partition/aggregate), so
    // one broken query path makes each arriving query miss the SLA.
    const double lambda = query_arrival_rate_per_us(
        *service_model_, power_model_->num_cores(), last_utilization_);
    report.estimated_outage_violations = lambda * report.time_to_replan;
  }
  report.actual_switches =
      count_active_switches(graph, transitions_.current_mask());
  report.network_power =
      layered_network_power(graph, transitions_.current_mask(),
                            config_.joint.consolidation.switch_power)
          .total_w;

  fm.rerouted.add(static_cast<std::uint64_t>(report.flows_rerouted));
  fm.emergency_boots.add(static_cast<std::uint64_t>(boots));
  fm.time_to_replan.observe(report.time_to_replan);
  fm.outage_violations.add(static_cast<std::uint64_t>(
      std::llround(report.estimated_outage_violations)));

  EPRONS_LOG(Info) << "fault recovery: " << overlay.failed_nodes()
                   << " switches / " << overlay.failed_links()
                   << " links down, " << report.flows_rerouted
                   << " flows rerouted, "
                   << (report.hot_recovery ? "hot" : "cold")
                   << " recovery with K=" << report.chosen_k << " in "
                   << report.time_to_replan << " us";

  obs::JsonlWriter* sink =
      config_.epoch_log ? config_.epoch_log : obs::epoch_log();
  if (sink) sink->write(make_fault_record(report, overlay));

  // Later failures diff against the recovered plan, not the broken one.
  last_plan_ = std::move(plan);
  return report;
}

void EpochController::clear_faults() {
  faults_active_ = false;
  active_overlay_ = FailureOverlay();
  failed_switch_mask_.assign(topo_->graph().num_nodes(), false);
}

std::vector<bool> EpochController::surviving_fallback_mask() const {
  if (faults_active_) return active_overlay_.surviving_switches();
  return std::vector<bool>(topo_->graph().num_nodes(), true);
}

}  // namespace eprons
