#include "core/joint_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/telemetry.h"
#include "util/log.h"

namespace eprons {

namespace {

// K-search telemetry (see DESIGN.md "Observability"). All counters and
// histograms record logical quantities only, so snapshots are bit-identical
// for any --threads value.
struct PlannerMetrics {
  obs::Counter& candidates = obs::metrics().counter("planner.k_candidates");
  obs::Counter& feasible = obs::metrics().counter("planner.k_feasible");
  obs::Counter& infeasible_placement =
      obs::metrics().counter("planner.k_infeasible_placement");
  obs::Counter& infeasible_budget =
      obs::metrics().counter("planner.k_infeasible_budget");
  obs::Counter& searches = obs::metrics().counter("planner.searches");
  obs::Counter& searches_infeasible =
      obs::metrics().counter("planner.searches_infeasible");
  obs::Counter& warm_accepts = obs::metrics().counter("planner.warm_accepts");
  obs::Counter& warm_fallbacks =
      obs::metrics().counter("planner.warm_fallbacks");
  obs::Gauge& chosen_k = obs::metrics().gauge("planner.chosen_k");
  obs::Gauge& chosen_total_w = obs::metrics().gauge("planner.chosen_total_w");
  obs::Histogram& slack_p95 =
      obs::metrics().histogram("planner.slack_total_p95_us");
  obs::Histogram& plan_total_w =
      obs::metrics().histogram("planner.plan_total_w");

  static PlannerMetrics& get() {
    static PlannerMetrics m;
    return m;
  }
};

}  // namespace

const char* plan_reject_name(PlanReject reason) {
  switch (reason) {
    case PlanReject::None: return "";
    case PlanReject::BudgetExhausted: return "budget_exhausted";
    case PlanReject::PlacementInfeasible: return "placement_infeasible";
    case PlanReject::DvfsInfeasible: return "dvfs_infeasible";
  }
  return "";
}

namespace {

/// One candidate-K table row for the PlanExplain record.
obs::PlanCandidateExplain explain_candidate(const JointPlan& plan) {
  obs::PlanCandidateExplain row;
  row.k = plan.k;
  row.feasible = plan.feasible;
  row.reject_reason = plan_reject_name(plan.reject);
  row.total_w = plan.total_power;
  row.network_w = plan.network_power;
  row.server_w = plan.server_power_w;
  row.violation_probability = plan.server.achieved_vp;
  row.slack_p95_us = plan.slack.total_p95;
  row.server_budget_us = plan.effective_server_budget;
  row.active_switches = plan.placement.active_switches;
  return row;
}

/// The config, once its K sweep is known to be finite and non-empty and
/// its slack sampling and server power prediction well-formed.
JointOptimizerConfig validated(JointOptimizerConfig config) {
  if (!std::isfinite(config.k_step) || config.k_step <= 0.0) {
    throw std::invalid_argument(
        "JointOptimizerConfig.k_step must be a positive finite number");
  }
  if (!std::isfinite(config.k_min) || !std::isfinite(config.k_max)) {
    throw std::invalid_argument(
        "JointOptimizerConfig.k_min and k_max must be finite");
  }
  if (config.k_min > config.k_max) {
    throw std::invalid_argument(
        "JointOptimizerConfig.k_min must not exceed k_max");
  }
  if (config.slack.shards < 1 || config.slack.samples_per_pair < 0) {
    throw std::invalid_argument(
        "JointOptimizerConfig.slack needs shards >= 1 and samples_per_pair "
        ">= 0");
  }
  if (config.predictor.max_queue_depth < 1) {
    throw std::invalid_argument(
        "JointOptimizerConfig.predictor.max_queue_depth must be >= 1");
  }
  if (!(config.predictor.target_vp >= 0.0)) {
    throw std::invalid_argument(
        "JointOptimizerConfig.predictor.target_vp must be >= 0");
  }
  return config;
}

}  // namespace

// Background + query flows, identical for every K candidate of one
// optimize() call — assembled once and copied into each candidate's plan.
struct JointOptimizer::Assembly {
  FlowSet flows;
  std::vector<FlowId> request_flow;
  std::vector<FlowId> reply_flow;
};

JointOptimizer::JointOptimizer(const Topology* topo,
                               const ServiceModel* service_model,
                               const ServerPowerModel* power_model,
                               JointOptimizerConfig config,
                               const Consolidator* consolidator)
    : topo_(topo),
      service_model_(service_model),
      power_model_(power_model),
      config_(validated(std::move(config))),
      consolidator_(consolidator ? consolidator : &default_consolidator_),
      path_catalog_(topo),
      slack_estimator_(config_.slack) {
  // The predictor reads fresh_convolution at depths up to max_queue_depth;
  // building them here, serially, leaves every later read a plain read.
  service_model_->fresh_convolution(config_.predictor.max_queue_depth);
  if (config_.runtime.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.runtime.threads);
  }
}

JointOptimizer::Assembly JointOptimizer::assemble_flows(
    const FlowSet& background) const {
  Assembly assembly;
  assembly.flows = background;
  QueryFlows query = add_query_flows(
      assembly.flows, config_.aggregator_host, topo_->num_hosts(),
      config_.query_request_demand, config_.query_reply_demand);
  assembly.request_flow = std::move(query.request);
  assembly.reply_flow = std::move(query.reply);
  return assembly;
}

void JointOptimizer::consolidate_into(JointPlan& plan,
                                      const Assembly& assembly, double k,
                                      const PlanConstraints& constraints,
                                      const WarmStartHint* warm,
                                      bool reference_enumeration) const {
  plan.k = k;
  plan.flows = assembly.flows;
  plan.request_flow = assembly.request_flow;
  plan.reply_flow = assembly.reply_flow;

  ConsolidationConfig consolidation = config_.consolidation;
  consolidation.scale_factor_k = k;
  // The catalog only memoizes what the consolidator would enumerate anyway
  // (candidate paths in identical order), so wiring it in never changes
  // the placement — reference_enumeration exists to prove that.
  if (reference_enumeration) {
    consolidation.path_catalog = nullptr;
  } else if (consolidation.path_catalog == nullptr) {
    consolidation.path_catalog = &path_catalog_;
  }
  if (!constraints.allowed_switches.empty()) {
    consolidation.allowed_switches = constraints.allowed_switches;
  }
  if (!constraints.blocked_links.empty()) {
    consolidation.blocked_links = constraints.blocked_links;
  }
  plan.placement =
      warm != nullptr
          ? consolidator_->consolidate_incremental(*topo_, plan.flows,
                                                   consolidation, warm)
          : consolidator_->consolidate(*topo_, plan.flows, consolidation);
  plan.network_power = plan.placement.network_power;
}

LinkUtilization JointOptimizer::offered_load_for(const JointPlan& plan,
                                                 double utilization) const {
  // Latency model sees actual average query rates, not reservations.
  const double lambda = query_arrival_rate_per_us(
      *service_model_, power_model_->num_cores(), utilization);
  return scenario_offered_load(topo_->graph(), plan.placement, plan.flows,
                               plan.request_flow, plan.reply_flow,
                               query_stream_rate(lambda, 1000.0),
                               query_stream_rate(lambda, 2000.0));
}

void JointOptimizer::finalize_plan(JointPlan& plan, double utilization,
                                   bool reference_dvfs) const {
  PlannerMetrics& pm = PlannerMetrics::get();
  pm.slack_p95.observe(plan.slack.total_p95);

  // A margin-violating placement is never SLA-feasible, but it still has
  // best-effort paths — evaluate them so optimize() can rank fallbacks.
  const bool placement_ok = plan.placement.feasible;

  // Server budget: the SLA minus what the network actually needs at its
  // 95th percentile round trip.
  plan.effective_server_budget =
      config_.latency_constraint - plan.slack.total_p95;
  if (plan.effective_server_budget <= 0.0) {
    plan.feasible = false;
    plan.reject = PlanReject::BudgetExhausted;
    // Charge the fleet at peak (no budget means no DVFS headroom), but
    // still as a component decomposition so the attribution ledger holds
    // on infeasible epochs too.
    plan.server = peak_power_prediction(*power_model_,
                                        service_model_->config().f_max);
    finalize_power_totals(plan);
    pm.infeasible_budget.add();
    EPRONS_LOG(Debug) << "K=" << plan.k << " rejected: network p95 "
                      << plan.slack.total_p95 << " us consumes the whole "
                      << config_.latency_constraint << " us SLA";
    return;
  }

  {
    const obs::ScopedSpan predict_span(obs::tracer(), "server_power_predict",
                                       "planner", "k", plan.k);
    const ServerPowerPredictor predictor(service_model_, power_model_,
                                         config_.predictor);
    plan.server = predictor.predict(utilization, plan.effective_server_budget,
                                    reference_dvfs);
  }
  plan.feasible = placement_ok && !plan.server.budget_infeasible;
  finalize_power_totals(plan);
  pm.plan_total_w.observe(plan.total_power);
  if (plan.feasible) {
    plan.reject = PlanReject::None;
    pm.feasible.add();
  } else if (!placement_ok) {
    plan.reject = PlanReject::PlacementInfeasible;
    pm.infeasible_placement.add();
    EPRONS_LOG(Debug) << "K=" << plan.k
                      << " rejected: consolidation violated the safety "
                         "margin or disconnected a pair";
  } else {
    plan.reject = PlanReject::DvfsInfeasible;
    pm.infeasible_budget.add();
    EPRONS_LOG(Debug) << "K=" << plan.k << " rejected: server budget "
                      << plan.effective_server_budget
                      << " us unreachable even at f_max";
  }
}

void JointOptimizer::finalize_power_totals(JointPlan& plan) const {
  const int hosts = topo_->num_hosts();
  plan.server_idle_w = hosts * plan.server.idle_w;
  plan.server_dynamic_w = hosts * plan.server.dynamic_w;
  plan.server_dvfs_residual_w = hosts * plan.server.dvfs_residual_w;
  plan.server_power_w = (plan.server_idle_w + plan.server_dynamic_w) +
                        plan.server_dvfs_residual_w;
  plan.total_power = plan.network_power + plan.server_power_w;
}

void JointOptimizer::explain_header(obs::PlanExplainRecord& explain,
                                    const char* path,
                                    const JointPlan& chosen) const {
  explain.path = path;
  explain.chosen_k = chosen.k;
  explain.feasible = chosen.feasible;
  explain.chosen_total_w = chosen.total_power;
  explain.consolidation_on_w = chosen.network_power;
  // The "consolidation off" baseline: every switch and link powered.
  int switches = 0;
  for (const Node& n : topo_->graph().nodes()) {
    if (is_switch_type(n.type)) ++switches;
  }
  explain.consolidation_off_w =
      switches * config_.consolidation.switch_power +
      static_cast<double>(topo_->graph().num_links()) *
          config_.consolidation.link_power;
  explain.candidates.clear();
}

std::vector<JointPlan> JointOptimizer::evaluate(
    const Assembly& assembly, const PlanRequest& request,
    const std::vector<double>& ks, const WarmStartHint* warm) const {
  PlannerMetrics& pm = PlannerMetrics::get();
  std::vector<JointPlan> plans(ks.size());
  // Candidate i's prepare item consolidates at its K and builds the
  // placement's offered load; the slack units follow it on the same pool,
  // so the candidates' consolidations overlap each other and the sampling
  // of earlier candidates. Identical routings (flow_paths) see identical
  // offered load, and the estimate is a pure function of (routing, load,
  // seed) — so a candidate that routes like an earlier one shares that
  // one's estimate. At moderate load every K often consolidates to the
  // same routing, collapsing the sweep's Monte-Carlo cost to one estimate.
  // Leaders are decided in candidate order, so the plans and counters
  // match the serial order.
  std::vector<std::optional<LinkUtilization>> loads(ks.size());
  const std::vector<SlackEstimate> estimates = slack_estimator_.estimate_many(
      ks.size(),
      [&](std::size_t i) {
        const obs::ScopedSpan k_span(obs::tracer(), "plan_k", "planner", "k",
                                     ks[i]);
        pm.candidates.add();
        JointPlan& plan = plans[i];
        consolidate_into(plan, assembly, ks[i], request.constraints, warm,
                         request.use_reference_enumeration);
        loads[i].emplace(offered_load_for(plan, request.utilization));
        SlackEstimator::Query query;
        query.placement = &plan.placement;
        query.offered_load = &*loads[i];
        query.request_flows = &plan.request_flow;
        query.reply_flows = &plan.reply_flow;
        return query;
      },
      [&](std::size_t leader, std::size_t i) {
        return plans[leader].placement.flow_paths ==
               plans[i].placement.flow_paths;
      },
      pool_.get(), request.use_reference_slack);

  // Budget split, prediction and classification per candidate, serially
  // in candidate order (telemetry order matches the K order).
  for (std::size_t i = 0; i < ks.size(); ++i) {
    plans[i].slack = estimates[i];
    finalize_plan(plans[i], request.utilization, request.use_reference_dvfs);
  }
  return plans;
}

JointPlan JointOptimizer::plan_for_k(const FlowSet& background,
                                     double utilization, double k) const {
  PlanRequest request;
  request.background = &background;
  request.utilization = utilization;
  return std::move(
      evaluate(assemble_flows(background), request, {k}, /*warm=*/nullptr)
          .front());
}

JointPlan JointOptimizer::optimize(const PlanRequest& request) const {
  if (request.background == nullptr) {
    throw std::invalid_argument(
        "PlanRequest.background must point to the background FlowSet");
  }
  const Assembly assembly = assemble_flows(*request.background);
  if (!config_.incremental.enabled) {
    return cold_search(assembly, request);
  }

  PlannerMetrics& pm = PlannerMetrics::get();
  const double k_floor = std::max(config_.k_min, request.constraints.k_min);
  const JointPlan* previous = request.previous;
  const bool warm_eligible =
      previous != nullptr && previous->feasible &&
      previous->k >= k_floor - 1e-9 && previous->k <= config_.k_max + 1e-9;
  if (warm_eligible) {
    const obs::ScopedSpan span(obs::tracer(), "k_search_warm", "planner",
                               "utilization", request.utilization);
    WarmStartHint hint;
    hint.previous_flows = &previous->flows;
    hint.previous = &previous->placement;
    hint.max_extra_switches = config_.incremental.max_extra_switches;
    JointPlan plan =
        std::move(evaluate(assembly, request, {previous->k}, &hint).front());
    if (plan.feasible) {
      pm.searches.add();
      pm.warm_accepts.add();
      pm.chosen_k.set(plan.k);
      pm.chosen_total_w.set(plan.total_power);
      if (request.explain != nullptr) {
        explain_header(*request.explain, "warm", plan);
        request.explain->candidates.push_back(explain_candidate(plan));
      }
      EPRONS_LOG(Info) << "k-search (warm): kept K=" << plan.k << " ("
                       << plan.placement.active_switches << " switches, "
                       << plan.total_power << " W predicted total, "
                       << (plan.placement.warm_started ? "incremental"
                                                       : "cold")
                       << " pack); full sweep skipped";
      return plan;
    }
    pm.warm_fallbacks.add();
    EPRONS_LOG(Info) << "k-search (warm): previous K=" << previous->k
                     << " no longer feasible; falling back to the cold "
                        "full sweep";
  }
  return cold_search(assembly, request);
}

JointPlan JointOptimizer::cold_search(const Assembly& assembly,
                                      const PlanRequest& request) const {
  const obs::ScopedSpan span(obs::tracer(), "k_search", "planner",
                             "utilization", request.utilization);
  PlannerMetrics& pm = PlannerMetrics::get();
  pm.searches.add();

  const double k_floor = std::max(config_.k_min, request.constraints.k_min);
  std::vector<double> candidates;
  for (double k = k_floor; k <= config_.k_max + 1e-9; k += config_.k_step) {
    candidates.push_back(k);
  }
  if (candidates.empty()) candidates.push_back(config_.k_max);

  std::vector<JointPlan> plans;
  if (request.use_reference_slack) {
    // The reference sweep: one one-candidate pass per K, in K order, so no
    // candidate shares an estimate or a multi-candidate schedule.
    for (const double k : candidates) {
      plans.push_back(
          std::move(evaluate(assembly, request, {k}, /*warm=*/nullptr).front()));
    }
  } else {
    plans = evaluate(assembly, request, candidates, /*warm=*/nullptr);
  }

  // The candidate-K table must be captured before the reduction below
  // moves plans out of the vector.
  std::vector<obs::PlanCandidateExplain> explain_rows;
  if (request.explain != nullptr) {
    explain_rows.reserve(plans.size());
    for (const JointPlan& plan : plans) {
      explain_rows.push_back(explain_candidate(plan));
    }
  }

  // Deterministic serial reduction in candidate order.
  JointPlan best;
  bool have_best = false;
  JointPlan fallback;
  SimTime fallback_p95 = std::numeric_limits<double>::infinity();
  for (JointPlan& plan : plans) {
    if (plan.feasible) {
      if (!have_best || plan.total_power < best.total_power) {
        best = std::move(plan);
        have_best = true;
      }
    } else if (!plan.flows.empty() && plan.slack.total_p95 > 0.0 &&
               plan.slack.total_p95 < fallback_p95) {
      fallback_p95 = plan.slack.total_p95;
      fallback = std::move(plan);
    }
  }
  // Telemetry for the serial reduction: gauges are only ever set here (in
  // program order), so they are deterministic for any worker count.
  if (have_best) {
    pm.chosen_k.set(best.k);
    pm.chosen_total_w.set(best.total_power);
    if (request.explain != nullptr) {
      explain_header(*request.explain, "cold", best);
      request.explain->candidates = std::move(explain_rows);
    }
    EPRONS_LOG(Info) << "k-search: chose K=" << best.k << " ("
                     << best.placement.active_switches << " switches, "
                     << best.total_power << " W predicted total, server "
                        "budget "
                     << best.effective_server_budget << " us) among "
                     << candidates.size() << " candidates";
    return best;
  }
  // Nothing met the SLA: surface the least-bad network (largest K that
  // still placed flows), marked infeasible so callers can alarm.
  pm.searches_infeasible.add();
  pm.chosen_k.set(fallback.k);
  pm.chosen_total_w.set(fallback.total_power);
  if (request.explain != nullptr) {
    explain_header(*request.explain, "cold", fallback);
    request.explain->candidates = std::move(explain_rows);
  }
  EPRONS_LOG(Info) << "k-search: no feasible K in [" << config_.k_min << ", "
                   << config_.k_max << "]; falling back to K=" << fallback.k
                   << " (network p95 " << fallback.slack.total_p95
                   << " us, marked infeasible)";
  return fallback;
}

}  // namespace eprons
