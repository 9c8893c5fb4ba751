#include "sim/search_cluster.h"

#include <algorithm>
#include <stdexcept>

#include "consolidate/greedy_consolidator.h"
#include "obs/telemetry.h"
#include "topo/aggregation.h"
#include "util/log.h"

namespace eprons {

SearchCluster::SearchCluster(const SearchClusterConfig& config,
                             const SearchClusterInputs& inputs)
    : config_(config),
      inputs_(inputs),
      rng_(config.seed),
      latency_(inputs.offered_load, inputs.link_model) {
  ecn_window_ = WindowedPercentile(config_.ecn_window);
  if (!inputs_.topo || !inputs_.service_model || !inputs_.power_model ||
      !inputs_.placement || !inputs_.offered_load) {
    throw std::invalid_argument("search cluster inputs incomplete");
  }
  const int hosts = inputs_.topo->num_hosts();
  if (config_.aggregator_host < 0 || config_.aggregator_host >= hosts) {
    throw std::invalid_argument("aggregator host out of range");
  }
  if (config_.server_budget > config_.latency_constraint) {
    throw std::invalid_argument("server budget exceeds latency constraint");
  }

  // Arrival rate from the utilization target: every query puts one
  // sub-request (mean service s at f_max) on each ISN, which has C cores.
  //   u = lambda * s / C  =>  lambda = u * C / s     (queries per us)
  const SimTime mean_service = inputs_.service_model->mean_service_time(
      inputs_.service_model->config().f_max);
  arrival_rate_ = config_.target_utilization *
                  inputs_.power_model->num_cores() / mean_service;

  if (inputs_.fault_timeline && !inputs_.fault_timeline->empty()) {
    faults_ = std::make_unique<FaultCursor>(&inputs_.topo->graph(),
                                            inputs_.fault_timeline);
    request_down_.assign(static_cast<std::size_t>(hosts), 0);
    reply_down_.assign(static_cast<std::size_t>(hosts), 0);
  }

  servers_.reserve(static_cast<std::size_t>(hosts));
  for (int h = 0; h < hosts; ++h) {
    auto handler = [this, h](const ServerCompletion& completion) {
      on_subquery_complete(h, completion);
    };
    auto factory = [this](const ServiceModel* model) {
      return make_policy(config_.policy, model, config_.target_vp);
    };
    servers_.push_back(std::make_unique<SimServer>(
        &events_, inputs_.service_model, inputs_.power_model, factory,
        handler));
  }
}

const Path& SearchCluster::path_for(FlowId flow) const {
  const auto& paths = inputs_.placement->flow_paths;
  if (flow < 0 || static_cast<std::size_t>(flow) >= paths.size() ||
      paths[static_cast<std::size_t>(flow)].size() < 2) {
    throw std::invalid_argument("query flow has no routed path");
  }
  return paths[static_cast<std::size_t>(flow)];
}

const Path& SearchCluster::effective_path(FlowId flow) const {
  if (faults_) {
    const auto it = path_override_.find(flow);
    if (it != path_override_.end()) return it->second;
  }
  return path_for(flow);
}

SimTime SearchCluster::drop_penalty() const {
  return config_.fault_drop_penalty > 0.0 ? config_.fault_drop_penalty
                                          : 2.0 * config_.latency_constraint;
}

void SearchCluster::recompute_query_paths() {
  const FailureOverlay& overlay = faults_->overlay();
  const int agg = config_.aggregator_host;
  // Deterministic per-flow rule: keep the planned path while it survives
  // (so a repair restores it exactly), else the leftmost surviving path of
  // the active subnet, else mark the flow down. Ordered host-by-host so
  // the reroute count is identical for any run.
  auto update = [&](FlowId flow, int src_host, int dst_host,
                    std::vector<char>& down, std::size_t slot) {
    const Path& planned = path_for(flow);
    if (!overlay.blocks(planned)) {
      down[slot] = 0;
      path_override_.erase(flow);
      return;
    }
    const std::vector<Path> candidates = inputs_.topo->active_paths(
        src_host, dst_host, inputs_.placement->switch_on);
    for (const Path& candidate : candidates) {
      if (overlay.blocks(candidate)) continue;
      const auto it = path_override_.find(flow);
      if (it == path_override_.end() || it->second != candidate) {
        path_override_[flow] = candidate;
        ++flows_rerouted_;
      }
      down[slot] = 0;
      return;
    }
    down[slot] = 1;
    path_override_.erase(flow);
  };
  for (int h = 0; h < inputs_.topo->num_hosts(); ++h) {
    if (h == agg) continue;
    const auto slot = static_cast<std::size_t>(h);
    update(inputs_.request_flow[slot], agg, h, request_down_, slot);
    update(inputs_.reply_flow[slot], h, agg, reply_down_, slot);
  }
  prepare_query_hops();
}

void SearchCluster::prepare_query_hops() {
  const auto hosts = static_cast<std::size_t>(inputs_.topo->num_hosts());
  request_hops_.resize(hosts);
  reply_hops_.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    if (static_cast<int>(h) == config_.aggregator_host) continue;
    latency_.prepare(effective_path(inputs_.request_flow[h]),
                     &request_hops_[h]);
    latency_.prepare(effective_path(inputs_.reply_flow[h]), &reply_hops_[h]);
  }
}

void SearchCluster::schedule_next_fault() {
  if (!faults_ || faults_->exhausted()) return;
  const SimTime when = std::max(faults_->next_time(), events_.now());
  events_.schedule(when, [this] {
    faults_->advance_to(events_.now());
    recompute_query_paths();
    schedule_next_fault();
  });
}

void SearchCluster::schedule_next_arrival() {
  const SimTime gap = rng_.exponential(1.0 / arrival_rate_);
  events_.schedule_in(gap, [this] {
    issue_query();
    schedule_next_arrival();
  });
}

void SearchCluster::issue_query() {
  if (config_.max_inflight_queries > 0 &&
      inflight_.size() >= config_.max_inflight_queries) {
    // Saturation guard: refuse before touching the RNG or the query
    // counter, so a bounded run's accepted-query stream is a prefix-stable
    // subsequence of the unbounded run's.
    ++queries_overflowed_;
    return;
  }
  const SimTime now = events_.now();
  const RequestId query = next_query_++;
  const int hosts = inputs_.topo->num_hosts();
  inflight_[query] = PendingQuery{now, hosts - 1, now};

  for (int h = 0; h < hosts; ++h) {
    if (h == config_.aggregator_host) continue;
    if (faults_ && request_down_[static_cast<std::size_t>(h)]) {
      // No surviving path to this ISN: the sub-query is dropped and
      // charged the timeout penalty (always an SLA miss).
      ++subqueries_dropped_;
      events_.schedule_in(drop_penalty(), [this, query] {
        complete_subquery(query, 0.0, 0.0, /*dropped=*/true);
      });
      continue;
    }
    const SimTime net_req = latency_.sample_prepared(
        request_hops_[static_cast<std::size_t>(h)], rng_);

    ServerRequest request;
    request.meta.id = next_subrequest_++;
    request.tag = query;
    request.net_request_latency = net_req;
    request.work = std::max(1.0, inputs_.service_model->work().sample(rng_));

    events_.schedule_in(net_req, [this, h, request]() mutable {
      const SimTime arrival = events_.now();
      const SimTime network_budget_total =
          config_.latency_constraint - config_.server_budget;
      const SimTime req_budget =
          network_budget_total * config_.request_budget_fraction;
      request.meta.arrival = arrival;
      request.meta.deadline_server = arrival + config_.server_budget;
      // Latency monitor: only unused *request* budget is donated as slack.
      const SimTime slack =
          std::max(0.0, req_budget - request.net_request_latency);
      request.meta.deadline_with_slack =
          request.meta.deadline_server + slack;
      servers_[static_cast<std::size_t>(h)]->submit(request);
    });
  }
}

SimTime SearchCluster::reply_transmission_time() const {
  const NodeId agg = inputs_.topo->host(config_.aggregator_host);
  const LinkId downlink = inputs_.topo->graph().links_of(agg).front();
  const Bandwidth capacity = inputs_.topo->graph().link(downlink).capacity;
  return config_.reply_bytes * 8.0 / capacity;  // bits / Mbps == us
}

SimTime SearchCluster::effective_warmup() const {
  if (config_.auto_warmup && config_.policy == "timetrader") {
    return std::max(config_.warmup, config_.feedback_warmup);
  }
  return config_.warmup;
}

void SearchCluster::on_subquery_complete(int isn_host,
                                         const ServerCompletion& completion) {
  const SimTime now = completion.completed_at;
  if (faults_ && reply_down_[static_cast<std::size_t>(isn_host)]) {
    // The reply leg is severed: the aggregator times the sub-query out.
    ++subqueries_dropped_;
    const RequestId dropped_query = completion.request.tag;
    events_.schedule(now + drop_penalty(), [this, dropped_query] {
      complete_subquery(dropped_query, 0.0, 0.0, /*dropped=*/true);
    });
    return;
  }
  SimTime net_rep = latency_.sample_prepared(
      reply_hops_[static_cast<std::size_t>(isn_host)], rng_);
  if (config_.model_incast) {
    // The reply queues behind other replies converging on the aggregator's
    // downlink (partition-aggregate incast), then serializes.
    const SimTime tx = reply_transmission_time();
    const SimTime start =
        std::max(now + net_rep, agg_downlink_busy_until_);
    agg_downlink_busy_until_ = start + tx;
    net_rep = (start + tx) - now;
  }
  const SimTime reply_arrival = now + net_rep;

  const RequestId query = completion.request.tag;
  const SimTime server_time = now - completion.request.meta.arrival;
  const SimTime net_total = completion.request.net_request_latency + net_rep;

  // ECN monitor: compare recent network tails against the network budget
  // and broadcast congestion transitions to the servers. The quantile is
  // re-evaluated every ecn_check_stride samples (sorting the window per
  // completion would dominate the simulation).
  if (config_.ecn_monitor) {
    ecn_window_.add(net_total);
    if (++ecn_samples_ % kEcnCheckStride == 0) {
      const SimTime net_budget =
          config_.latency_constraint - config_.server_budget;
      const bool congested =
          ecn_window_.quantile(0.95) > config_.ecn_threshold * net_budget;
      if (congested != ecn_congested_) {
        ecn_congested_ = congested;
        for (auto& server : servers_) {
          server->signal_network_congestion(congested);
        }
      }
    }
  }

  // Feedback for TimeTrader-style policies: this sub-request's end-to-end
  // latency vs the end-to-end constraint.
  const auto it = inflight_.find(query);
  if (it != inflight_.end()) {
    const SimTime subquery_e2e = reply_arrival - it->second.issued;
    servers_[static_cast<std::size_t>(isn_host)]->report_latency(
        servers_[static_cast<std::size_t>(isn_host)]->last_completion_core(),
        now, subquery_e2e, config_.latency_constraint);
  }

  events_.schedule(reply_arrival, [this, query, server_time, net_total] {
    complete_subquery(query, net_total, server_time, /*dropped=*/false);
  });
}

void SearchCluster::complete_subquery(RequestId query, SimTime net_total,
                                      SimTime server_time, bool dropped) {
  const SimTime now2 = events_.now();
  const bool measured = now2 >= effective_warmup();
  if (measured && !dropped) {
    network_latency_.add(net_total);
    server_latency_.add(server_time);
    ++subqueries_done_;
  }
  const auto entry = inflight_.find(query);
  if (entry == inflight_.end()) return;
  if (measured) {
    const SimTime sub_e2e = now2 - entry->second.issued;
    subquery_latency_.add(sub_e2e);
    if (sub_e2e > config_.latency_constraint) {
      ++subquery_misses_;
      // An outage miss: the sub-query was dropped outright, or missed
      // while at least one failure was outstanding.
      if (dropped || (faults_ && faults_->overlay().any_failed())) {
        ++outage_misses_;
      }
    }
  }
  entry->second.last_reply = now2;
  if (--entry->second.outstanding == 0) {
    const SimTime e2e = now2 - entry->second.issued;
    if (entry->second.issued >= effective_warmup()) {
      query_latency_.add(e2e);
      ++queries_done_;
      if (e2e > config_.latency_constraint) ++query_misses_;
    }
    inflight_.erase(entry);
  }
}

ClusterMetrics SearchCluster::run() {
  const obs::ScopedSpan span(obs::tracer(), "sim_run", "sim", "utilization",
                             config_.target_utilization);
  const SimTime warmup = effective_warmup();
  prepare_query_hops();
  schedule_next_arrival();
  if (faults_) schedule_next_fault();
  events_.run_until(warmup);
  for (auto& server : servers_) server->reset_energy(events_.now());
  events_.run_until(warmup + config_.duration);

  const SimTime end = events_.now();
  ClusterMetrics metrics;
  Power cpu_total = 0.0;
  double util_total = 0.0;
  int isn_count = 0;
  for (int h = 0; h < inputs_.topo->num_hosts(); ++h) {
    auto& server = servers_[static_cast<std::size_t>(h)];
    server->sync_energy(end);
    cpu_total += server->average_cpu_power();
    if (h != config_.aggregator_host) {
      util_total += server->average_core_utilization();
      ++isn_count;
    }
  }
  const int hosts = inputs_.topo->num_hosts();
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
  metrics.queries_overflowed = queries_overflowed_;
  metrics.flows_rerouted = flows_rerouted_;
  metrics.subqueries_dropped = subqueries_dropped_;
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
  if (faults_) {
    static obs::Counter& sim_rerouted =
        obs::metrics().counter("fault.flows_rerouted");
    static obs::Counter& sim_dropped =
        obs::metrics().counter("fault.flows_dropped");
    static obs::Counter& sim_outage_misses =
        obs::metrics().counter("fault.sla_violations_during_outage");
    sim_rerouted.add(static_cast<std::uint64_t>(flows_rerouted_));
    sim_dropped.add(static_cast<std::uint64_t>(subqueries_dropped_));
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
  // Assemble the flow set: background first, then query request/reply flows
  // for the fixed aggregator.
  FlowSet flows;
  for (const Flow& f : background.flows()) {
    flows.add(f.src_host, f.dst_host, f.demand, f.cls);
  }
  const int hosts = topo.num_hosts();
  std::vector<FlowId> request_flow(static_cast<std::size_t>(hosts),
                                   kInvalidFlow);
  std::vector<FlowId> reply_flow(static_cast<std::size_t>(hosts),
                                 kInvalidFlow);
  for (int h = 0; h < hosts; ++h) {
    if (h == config.cluster.aggregator_host) continue;
    request_flow[static_cast<std::size_t>(h)] =
        flows.add(config.cluster.aggregator_host, h,
                  config.query_request_demand, FlowClass::LatencySensitive);
    reply_flow[static_cast<std::size_t>(h)] =
        flows.add(h, config.cluster.aggregator_host,
                  config.query_reply_demand, FlowClass::LatencySensitive);
  }

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
      topo.graph(), result.placement, flows, request_flow, reply_flow,
      query_stream_rate(lambda, config.cluster.request_bytes),
      query_stream_rate(lambda, config.cluster.reply_bytes));

  SearchClusterInputs inputs;
  inputs.topo = &topo;
  inputs.service_model = &service_model;
  inputs.power_model = &power_model;
  inputs.placement = &result.placement;
  inputs.request_flow = std::move(request_flow);
  inputs.reply_flow = std::move(reply_flow);
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
