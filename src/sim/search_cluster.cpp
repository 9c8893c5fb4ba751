#include "sim/search_cluster.h"

#include <algorithm>
#include <stdexcept>

#include "consolidate/greedy_consolidator.h"
#include "dvfs/policies.h"
#include "obs/telemetry.h"
#include "topo/aggregation.h"

namespace eprons {

namespace {

PartitionAggregateConfig core_config(const SearchClusterConfig& config,
                                     const SearchClusterInputs& inputs) {
  PartitionAggregateConfig core;
  core.topo = inputs.topo;
  core.service_model = inputs.service_model;
  core.power_model = inputs.power_model;
  core.policy = config.policy;
  core.target_vp = config.target_vp;
  core.aggregator_host = config.aggregator_host;
  core.latency_constraint = config.latency_constraint;
  core.network_budget = config.latency_constraint - config.server_budget;
  core.fault_timeline = inputs.fault_timeline;
  return core;
}

}  // namespace

SearchCluster::SearchCluster(const SearchClusterConfig& config,
                             const SearchClusterInputs& inputs)
    : config_(config),
      inputs_(inputs),
      des_(core_config(config, inputs), Rng(config.seed), this) {
  if (!inputs_.placement || !inputs_.offered_load) {
    throw std::invalid_argument("search cluster inputs incomplete");
  }
  if (config_.server_budget > config_.latency_constraint) {
    throw std::invalid_argument("server budget exceeds latency constraint");
  }
  // Every query puts one sub-request on each ISN.
  arrival_rate_ = query_arrival_rate_per_us(*inputs_.service_model,
                                            inputs_.power_model->num_cores(),
                                            config_.target_utilization);
  warmup_ = policy_uses_feedback(config_.policy)
                ? std::max(config_.warmup, config_.feedback_warmup)
                : config_.warmup;
  request_budget_ = (config_.latency_constraint - config_.server_budget) *
                    config_.request_budget_fraction;
}

void SearchCluster::schedule_next_arrival() {
  const SimTime gap = des_.rng().exponential(1.0 / arrival_rate_);
  des_.events().schedule_in(gap, [this] {
    des_.fan_out(des_.events().now(), config_.server_budget,
                 request_budget_);
    schedule_next_arrival();
  });
}

void SearchCluster::on_subquery_done(
    const PendingQuery& query, const PartitionAggregate::SubqueryDone& done) {
  const SimTime now = des_.events().now();
  if (now < warmup_) return;
  if (!done.dropped) {
    network_latency_.add(done.net_total);
    server_latency_.add(done.server_time);
    ++subqueries_done_;
  }
  const SimTime latency = now - query.issued;
  subquery_latency_.add(latency);
  if (latency > config_.latency_constraint) {
    ++subquery_misses_;
    // An outage miss: the sub-query was dropped outright, or missed while
    // at least one failure was outstanding.
    if (done.dropped || des_.outage()) ++outage_misses_;
  }
}

void SearchCluster::on_query_done(const PendingQuery& query) {
  if (query.issued < warmup_) return;
  const SimTime latency = des_.events().now() - query.issued;
  query_latency_.add(latency);
  ++queries_done_;
  if (latency > config_.latency_constraint) ++query_misses_;
}

ClusterMetrics SearchCluster::run() {
  const obs::ScopedSpan span(obs::tracer(), "sim_run", "sim", "utilization",
                             config_.target_utilization);
  EventQueue& events = des_.events();
  des_.adopt_plan(*inputs_.placement, inputs_.request_flow,
                  inputs_.reply_flow, inputs_.offered_load);
  schedule_next_arrival();
  des_.schedule_next_fault();
  events.run_until(warmup_);
  for (auto& server : des_.servers()) server->reset_energy(events.now());
  events.run_until(warmup_ + config_.duration);

  const SimTime end = events.now();
  ClusterMetrics metrics;
  Power cpu_total = 0.0;
  double util_total = 0.0;
  int isn_count = 0;
  const int hosts = inputs_.topo->num_hosts();
  for (int h = 0; h < hosts; ++h) {
    SimServer& server = *des_.servers()[static_cast<std::size_t>(h)];
    server.sync_energy(end);
    cpu_total += server.average_cpu_power();
    if (h != config_.aggregator_host) {
      util_total += server.average_core_utilization();
      ++isn_count;
    }
  }
  const Power static_total =
      hosts * inputs_.power_model->config().static_power;

  metrics.query_latency = summarize(query_latency_);
  metrics.subquery_latency = summarize(subquery_latency_);
  metrics.network_latency = summarize(network_latency_);
  metrics.server_latency = summarize(server_latency_);
  metrics.query_miss_rate =
      queries_done_ == 0
          ? 0.0
          : static_cast<double>(query_misses_) / queries_done_;
  metrics.subquery_miss_rate =
      subquery_latency_.count() == 0
          ? 0.0
          : static_cast<double>(subquery_misses_) / subquery_latency_.count();
  metrics.avg_cpu_power_per_server = cpu_total / hosts;
  metrics.avg_server_power =
      metrics.avg_cpu_power_per_server +
      inputs_.power_model->config().static_power;
  metrics.total_server_power = cpu_total + static_total;
  metrics.network_power = inputs_.network_power;
  metrics.total_system_power =
      metrics.total_server_power + metrics.network_power;
  metrics.measured_core_utilization =
      isn_count == 0 ? 0.0 : util_total / isn_count;
  metrics.queries_completed = queries_done_;
  metrics.subqueries_completed = subqueries_done_;
  metrics.flows_rerouted = des_.flows_rerouted();
  metrics.subqueries_dropped = des_.subqueries_dropped();
  metrics.outage_sla_misses = outage_misses_;

  // Aggregated once per run (not per DES event) so the event loop stays
  // untouched; the totals themselves are seed-deterministic.
  static obs::Counter& sim_runs = obs::metrics().counter("sim.runs");
  static obs::Counter& sim_queries = obs::metrics().counter("sim.queries");
  static obs::Counter& sim_subqueries =
      obs::metrics().counter("sim.subqueries");
  static obs::Counter& sim_query_misses =
      obs::metrics().counter("sim.query_misses");
  static obs::Counter& sim_subquery_misses =
      obs::metrics().counter("sim.subquery_misses");
  sim_runs.add();
  sim_queries.add(static_cast<std::uint64_t>(queries_done_));
  sim_subqueries.add(static_cast<std::uint64_t>(subqueries_done_));
  sim_query_misses.add(static_cast<std::uint64_t>(query_misses_));
  sim_subquery_misses.add(static_cast<std::uint64_t>(subquery_misses_));
  des_.report_clamps();
  if (des_.replays_faults()) {
    static obs::Counter& sim_rerouted =
        obs::metrics().counter("fault.flows_rerouted");
    static obs::Counter& sim_dropped =
        obs::metrics().counter("fault.flows_dropped");
    static obs::Counter& sim_outage_misses =
        obs::metrics().counter("fault.sla_violations_during_outage");
    sim_rerouted.add(static_cast<std::uint64_t>(des_.flows_rerouted()));
    sim_dropped.add(static_cast<std::uint64_t>(des_.subqueries_dropped()));
    sim_outage_misses.add(static_cast<std::uint64_t>(outage_misses_));
  }
  return metrics;
}

double query_arrival_rate_per_us(const ServiceModel& service_model,
                                 int cores, double utilization) {
  const SimTime mean_service =
      service_model.mean_service_time(service_model.config().f_max);
  return utilization * cores / mean_service;
}

Bandwidth query_stream_rate(double lambda_per_us, double bytes) {
  return lambda_per_us * bytes * 8.0;
}

LinkUtilization scenario_offered_load(const Graph& graph,
                                      const ConsolidationResult& placement,
                                      const FlowSet& flows,
                                      const std::vector<FlowId>& request_flow,
                                      const std::vector<FlowId>& reply_flow,
                                      Bandwidth request_rate,
                                      Bandwidth reply_rate) {
  std::vector<char> is_request(flows.size(), 0), is_reply(flows.size(), 0);
  for (FlowId id : request_flow) {
    if (id >= 0) is_request[static_cast<std::size_t>(id)] = 1;
  }
  for (FlowId id : reply_flow) {
    if (id >= 0) is_reply[static_cast<std::size_t>(id)] = 1;
  }
  LinkUtilization load(&graph);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (i >= placement.flow_paths.size() ||
        placement.flow_paths[i].size() < 2) {
      continue;
    }
    Bandwidth rate = flows[i].demand;
    if (is_request[i]) rate = request_rate;
    if (is_reply[i]) rate = reply_rate;
    const bool bursty = flows[i].cls == FlowClass::LatencyTolerant;
    load.add_path_load(placement.flow_paths[i], rate, bursty);
  }
  return load;
}

ScenarioResult run_search_scenario(const Topology& topo,
                                   const ServiceModel& service_model,
                                   const ServerPowerModel& power_model,
                                   const FlowSet& background,
                                   const ScenarioConfig& config,
                                   const std::vector<bool>* subnet) {
  FlowSet flows = background;
  QueryFlows query = add_query_flows(
      flows, config.cluster.aggregator_host, topo.num_hosts(),
      config.query_request_demand, config.query_reply_demand);

  ConsolidationConfig consolidation = config.consolidation;
  GreedyConsolidatorOptions placement_options;
  if (subnet) {
    // A pinned subnet fixes network power; spread traffic across it
    // (ECMP-like) instead of consolidating further.
    consolidation.allowed_switches = *subnet;
    placement_options.objective = PlacementObjective::BalanceLoad;
  }
  const GreedyConsolidator consolidator(&topo, placement_options);
  ScenarioResult result;
  result.placement = consolidator.consolidate(flows, consolidation);
  result.placement_feasible = result.placement.feasible;

  const double lambda = query_arrival_rate_per_us(
      service_model, power_model.num_cores(),
      config.cluster.target_utilization);
  const LinkUtilization load = scenario_offered_load(
      topo.graph(), result.placement, flows, query.request, query.reply,
      query_stream_rate(lambda, kQueryRequestBytes),
      query_stream_rate(lambda, kQueryReplyBytes));

  SearchClusterInputs inputs;
  inputs.topo = &topo;
  inputs.service_model = &service_model;
  inputs.power_model = &power_model;
  inputs.placement = &result.placement;
  inputs.request_flow = std::move(query.request);
  inputs.reply_flow = std::move(query.reply);
  inputs.offered_load = &load;
  // Network power: a pinned subnet keeps all its switches on regardless of
  // routed flows; free consolidation pays only for what it activated.
  if (subnet) {
    inputs.network_power =
        count_active_switches(topo.graph(), *subnet) * config.switch_power;
  } else {
    inputs.network_power =
        result.placement.active_switches * config.switch_power;
  }
  inputs.fault_timeline = config.fault_timeline;

  SearchCluster cluster(config.cluster, inputs);
  result.metrics = cluster.run();
  return result;
}

}  // namespace eprons
