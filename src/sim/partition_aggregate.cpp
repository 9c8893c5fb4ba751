#include "sim/partition_aggregate.h"

#include <algorithm>
#include <stdexcept>

#include "dvfs/policies.h"
#include "obs/telemetry.h"

namespace eprons {

PartitionAggregate::PartitionAggregate(const PartitionAggregateConfig& config,
                                       Rng rng, Listener* listener)
    : config_(config),
      listener_(listener),
      rng_(rng),
      latency_(nullptr, LinkLatencyModel{}) {
  if (!config_.topo || !config_.service_model || !config_.power_model ||
      !listener_) {
    throw std::invalid_argument("partition-aggregate inputs incomplete");
  }
  const Topology& topo = *config_.topo;
  const int hosts = topo.num_hosts();
  if (config_.aggregator_host < 0 || config_.aggregator_host >= hosts) {
    throw std::invalid_argument("aggregator host out of range");
  }
  feedback_ = policy_uses_feedback(config_.policy);
  const LinkId downlink =
      topo.graph().links_of(topo.host(config_.aggregator_host)).front();
  reply_tx_ = kQueryReplyBytes * 8.0 /
              topo.graph().link(downlink).capacity;  // bits / Mbps == us
  drop_penalty_ = 2.0 * config_.latency_constraint;
  if (config_.fault_timeline && !config_.fault_timeline->empty()) {
    faults_ = std::make_unique<FaultCursor>(&topo.graph(),
                                            config_.fault_timeline);
  }

  request_.resize(static_cast<std::size_t>(hosts));
  reply_.resize(static_cast<std::size_t>(hosts));
  servers_.reserve(static_cast<std::size_t>(hosts));
  for (int h = 0; h < hosts; ++h) {
    auto handler = [this, h](const ServerCompletion& completion) {
      on_server_complete(h, completion);
    };
    auto factory = [this](const ServiceModel* model) {
      return make_policy(config_.policy, model, config_.target_vp);
    };
    servers_.push_back(std::make_unique<SimServer>(
        &events_, config_.service_model, config_.power_model, factory,
        handler));
  }
}

bool PartitionAggregate::adopt_plan(const ConsolidationResult& placement,
                                    const std::vector<FlowId>& request_flow,
                                    const std::vector<FlowId>& reply_flow,
                                    const LinkUtilization* offered_load) {
  const auto& paths = placement.flow_paths;
  auto routed = [&](const std::vector<FlowId>& flows,
                    std::size_t slot) -> const Path* {
    if (slot >= flows.size()) return nullptr;
    const FlowId flow = flows[slot];
    if (flow < 0 || static_cast<std::size_t>(flow) >= paths.size() ||
        paths[static_cast<std::size_t>(flow)].size() < 2) {
      return nullptr;
    }
    return &paths[static_cast<std::size_t>(flow)];
  };
  bool changed = false;
  auto adopt = [&](Leg& leg, const Path* planned) {
    if (planned != nullptr && *planned != leg.planned) {
      if (!leg.planned.empty()) changed = true;
      leg.planned = *planned;
    }
    if (leg.planned.size() < 2) {
      throw std::runtime_error("plan left a query flow unrouted");
    }
  };
  for (int h = 0; h < config_.topo->num_hosts(); ++h) {
    if (h == config_.aggregator_host) continue;
    const auto slot = static_cast<std::size_t>(h);
    adopt(request_[slot], routed(request_flow, slot));
    adopt(reply_[slot], routed(reply_flow, slot));
  }
  switch_on_ = placement.switch_on;
  latency_ = PathLatencyEstimator(offered_load, LinkLatencyModel{});
  refresh_routes();
  return changed;
}

void PartitionAggregate::reroute(Leg& leg, int src_host, int dst_host) {
  const FailureOverlay& overlay = faults_->overlay();
  leg.down = false;
  if (!overlay.blocks(leg.planned)) {
    leg.detour.clear();
    return;
  }
  for (const Path& candidate :
       config_.topo->active_paths(src_host, dst_host, switch_on_)) {
    if (overlay.blocks(candidate)) continue;
    if (leg.detour != candidate) {
      leg.detour = candidate;
      ++flows_rerouted_;
    }
    return;
  }
  leg.down = true;
  leg.detour.clear();
}

void PartitionAggregate::refresh_routes() {
  // Deterministic per-flow rule, host by host, so the reroute count is
  // identical for any run: keep the planned path while it survives (so a
  // repair restores it exactly), else the leftmost surviving path of the
  // active subnet, else the flow is down.
  const int agg = config_.aggregator_host;
  for (int h = 0; h < config_.topo->num_hosts(); ++h) {
    if (h == agg) continue;
    Leg& request = request_[static_cast<std::size_t>(h)];
    Leg& reply = reply_[static_cast<std::size_t>(h)];
    if (faults_) {
      reroute(request, agg, h);
      reroute(reply, h, agg);
    }
    latency_.prepare(request.path(), &request.hops);
    latency_.prepare(reply.path(), &reply.hops);
  }
}

void PartitionAggregate::schedule_next_fault() {
  if (!faults_ || faults_->exhausted()) return;
  const SimTime when = std::max(faults_->next_time(), events_.now());
  events_.schedule(when, [this] {
    faults_->advance_to(events_.now());
    refresh_routes();
    schedule_next_fault();
  });
}

void PartitionAggregate::fan_out(SimTime arrived, SimTime server_budget,
                                 SimTime request_budget) {
  const SimTime now = events_.now();
  const RequestId query = next_query_++;
  const int hosts = config_.topo->num_hosts();
  inflight_[query] = PendingQuery{arrived, now, hosts - 1, 0.0};

  for (int h = 0; h < hosts; ++h) {
    if (h == config_.aggregator_host) continue;
    const Leg& leg = request_[static_cast<std::size_t>(h)];
    if (leg.down) {
      drop(query);  // no surviving path to this ISN
      continue;
    }
    const SimTime net_req = latency_.sample_prepared(leg.hops, rng_);

    ServerRequest request;
    request.meta.id = next_subrequest_++;
    request.tag = query;
    request.net_request_latency = net_req;
    request.work = std::max(1.0, config_.service_model->work().sample(rng_));

    events_.schedule_in(net_req, [this, h, request, server_budget,
                                  request_budget]() mutable {
      const SimTime arrival = events_.now();
      request.meta.arrival = arrival;
      request.meta.deadline_server = arrival + server_budget;
      // Latency monitor: only unused *request* budget is donated as slack.
      const SimTime slack =
          std::max(0.0, request_budget - request.net_request_latency);
      request.meta.deadline_with_slack = request.meta.deadline_server + slack;
      servers_[static_cast<std::size_t>(h)]->submit(request);
    });
  }
}

void PartitionAggregate::drop(RequestId query) {
  // The aggregator times the sub-query out: charged the drop penalty,
  // always an SLA miss.
  ++subqueries_dropped_;
  events_.schedule(events_.now() + drop_penalty_, [this, query] {
    subquery_done(query, SubqueryDone{0.0, 0.0, /*dropped=*/true});
  });
}

void PartitionAggregate::on_server_complete(
    int isn, const ServerCompletion& completion) {
  const SimTime now = completion.completed_at;
  const RequestId query = completion.request.tag;
  const Leg& leg = reply_[static_cast<std::size_t>(isn)];
  if (leg.down) {
    drop(query);  // the reply leg is severed
    return;
  }
  // The reply queues behind other replies converging on the aggregator's
  // downlink (partition-aggregate incast), then serializes.
  SimTime net_rep = latency_.sample_prepared(leg.hops, rng_);
  const SimTime start = std::max(now + net_rep, agg_downlink_busy_until_);
  agg_downlink_busy_until_ = start + reply_tx_;
  net_rep = agg_downlink_busy_until_ - now;
  const SimTime reply_arrival = now + net_rep;
  const SimTime net_total = completion.request.net_request_latency + net_rep;

  if (feedback_) report_feedback(isn, query, now, reply_arrival, net_total);

  const SimTime server_time = now - completion.request.meta.arrival;
  events_.schedule(reply_arrival, [this, query, net_total, server_time] {
    subquery_done(query, SubqueryDone{net_total, server_time, false});
  });
}

void PartitionAggregate::report_feedback(int isn, RequestId query,
                                         SimTime now, SimTime reply_arrival,
                                         SimTime net_total) {
  // ECN monitor: compare recent network tails against the network budget
  // and broadcast congestion transitions to the servers. The quantile is
  // re-evaluated every kEcnCheckStride samples (sorting the window per
  // completion would dominate the simulation).
  ecn_window_.add(net_total);
  if (++ecn_samples_ % kEcnCheckStride == 0) {
    const bool congested =
        ecn_window_.quantile(0.95) > config_.network_budget;
    if (congested != ecn_congested_) {
      ecn_congested_ = congested;
      for (auto& server : servers_) {
        server->signal_network_congestion(congested);
      }
    }
  }
  // Completion feedback: this sub-query's end-to-end latency vs the
  // end-to-end constraint, to the core that served it.
  const auto it = inflight_.find(query);
  if (it != inflight_.end()) {
    SimServer& server = *servers_[static_cast<std::size_t>(isn)];
    server.report_latency(server.last_completion_core(), now,
                          reply_arrival - it->second.issued,
                          config_.latency_constraint);
  }
}

void PartitionAggregate::subquery_done(RequestId query,
                                       const SubqueryDone& done) {
  const auto entry = inflight_.find(query);
  if (entry == inflight_.end()) return;
  listener_->on_subquery_done(entry->second, done);
  if (--entry->second.outstanding > 0) return;
  const PendingQuery finished = entry->second;
  inflight_.erase(entry);
  listener_->on_query_done(finished);
}

void PartitionAggregate::report_clamps() const {
  // The counter is created on the first clamp, so a clean run's metrics
  // snapshot carries no such key.
  if (events_.clamped() == 0) return;
  static obs::Counter& clamped = obs::metrics().counter("sim.clamped_events");
  clamped.add(events_.clamped());
}

std::size_t PartitionAggregate::charge_inflight(SimTime penalty) {
  for (auto& [id, pending] : inflight_) pending.penalty += penalty;
  return inflight_.size();
}

}  // namespace eprons
