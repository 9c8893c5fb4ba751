// Partition-aggregate search cluster simulation (the paper's section V-A
// "search engine simulator", rebuilt as a discrete-event simulation).
//
// One host acts as the aggregator; every user query fans out one sub-query
// to each of the other N-1 index-serving nodes (ISNs). Sub-requests and
// sub-replies traverse the network paths chosen by the consolidation layer
// and sample latency from the utilization-dependent link model; each ISN
// runs the configured DVFS policy. A query completes when the last reply
// reaches the aggregator.
//
// Deadline plumbing (section IV-A + Fig. 7): the end-to-end SLA constraint
// L splits into a server budget and a network budget; the network budget
// splits between request and reply. The latency monitor measures each
// sub-request's actual network latency l_req and hands the server
//
//   deadline_server     = arrival + server_budget
//   deadline_with_slack = arrival + server_budget
//                         + max(0, request_net_budget - l_req)
//
// "To be more conservative, we only use the request slack" — the reply
// budget is never borrowed.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "consolidate/consolidation.h"
#include "dvfs/policies.h"
#include "fault/fault_injector.h"
#include "net/path_latency.h"
#include "power/server_power.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/server.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace eprons {

struct SearchClusterConfig {
  /// DVFS policy on every ISN: "max" | "rubik" | "rubik+" | "eprons" |
  /// "timetrader".
  std::string policy = "eprons";
  double target_vp = 0.05;

  /// End-to-end tail latency constraint L, us (Fig. 12 default: 30 ms).
  SimTime latency_constraint = ms(30.0);
  /// Server-side budget, us (Fig. 12 default: 25 ms).
  SimTime server_budget = ms(25.0);
  /// Fraction of the remaining network budget allotted to the request leg.
  double request_budget_fraction = 0.5;

  /// Target mean core utilization on the ISNs (sets the query arrival rate).
  double target_utilization = 0.3;

  /// Which host aggregates (the paper picks one; ISNs are the rest).
  int aggregator_host = 0;

  /// Model reply incast: the aggregator's edge downlink serializes the
  /// fan-in of replies (partition-aggregate incast). Reply transmission
  /// time is reply_bytes * 8 / downlink capacity; cross-traffic queueing on
  /// the hops themselves is already covered by the link latency model.
  bool model_incast = true;
  double reply_bytes = 2000.0;
  /// Sub-request message size (for offered-load accounting only).
  double request_bytes = 1000.0;

  /// ECN monitor: the cluster tracks recent per-request network latency;
  /// when its p95 exceeds `ecn_threshold` x the network budget, servers
  /// receive a congestion signal (drives TimeTrader's conservatism).
  bool ecn_monitor = true;
  double ecn_threshold = 1.0;
  std::size_t ecn_window = 500;

  /// Latency charged to a sub-query issued (or replied) while its flow has
  /// no surviving path: the query times out and is retried out-of-band.
  /// 0 means 2 x latency_constraint (always an SLA miss).
  SimTime fault_drop_penalty = 0.0;

  /// Open-loop saturation guard: maximum queries simultaneously in flight
  /// (fanned out, replies pending). The closed bench scenarios are
  /// self-limiting, but an open-loop arrival stream above the service rate
  /// would otherwise grow the pending-query map without bound; with the
  /// guard, a query arriving at the bound is refused and counted in
  /// ClusterMetrics::queries_overflowed. 0 = unbounded (legacy behavior).
  std::size_t max_inflight_queries = 0;

  SimTime warmup = sec(2.0);
  SimTime duration = sec(20.0);
  /// Feedback policies converge slowly (TimeTrader adjusts every 5 s);
  /// when true the warmup is extended to `feedback_warmup` for them.
  bool auto_warmup = true;
  SimTime feedback_warmup = sec(300.0);
  std::uint64_t seed = 1;
};

struct SearchClusterInputs {
  const Topology* topo = nullptr;
  const ServiceModel* service_model = nullptr;
  const ServerPowerModel* power_model = nullptr;
  /// Per-ISN request/reply paths + subnet; from a consolidator. Background
  /// flow load must already be included in `offered_load`.
  const ConsolidationResult* placement = nullptr;
  /// Query flow ids within the placement's FlowSet: request_flow[h] is the
  /// aggregator->h flow, reply_flow[h] the h->aggregator flow (index by
  /// host id; aggregator slots unused).
  std::vector<FlowId> request_flow;
  std::vector<FlowId> reply_flow;
  /// Link load to drive the latency model (background + query demands).
  const LinkUtilization* offered_load = nullptr;
  LinkLatencyModel link_model;
  /// Network power reported in metrics (computed by the caller from the
  /// placement and switch power model).
  Power network_power = 0.0;
  /// Optional fault timeline (from generate_fault_schedule) replayed
  /// inside the DES: query flows crossing failed elements are rerouted
  /// onto surviving paths of the active subnet, or dropped when none
  /// exists. Null = healthy run (bit-identical to pre-fault behavior).
  const std::vector<FaultTransition>* fault_timeline = nullptr;
};

class SearchCluster {
 public:
  SearchCluster(const SearchClusterConfig& config,
                const SearchClusterInputs& inputs);

  /// Runs warmup + measurement; returns aggregate metrics.
  ClusterMetrics run();

  /// Query arrival rate (queries/us) implied by the target utilization.
  double arrival_rate() const { return arrival_rate_; }

 private:
  struct PendingQuery {
    SimTime issued = 0.0;
    int outstanding = 0;
    SimTime last_reply = 0.0;
  };

  void issue_query();
  void schedule_next_arrival();
  void on_subquery_complete(int isn_host, const ServerCompletion& completion);
  /// The plan's routed path of a query flow (throws when unrouted).
  const Path& path_for(FlowId flow) const;
  SimTime effective_warmup() const;

  /// Reply-arrival bookkeeping shared by real replies and fault drops.
  void complete_subquery(RequestId query, SimTime net_total,
                         SimTime server_time, bool dropped);
  /// The flow's current path: its fault-reroute override, else the plan's.
  const Path& effective_path(FlowId flow) const;
  /// Re-derives per-flow routes/down flags from the current overlay state.
  void recompute_query_paths();
  /// Prepares every ISN's request and reply hops on its effective path.
  void prepare_query_hops();
  void schedule_next_fault();
  SimTime drop_penalty() const;

  /// Serialization delay of one reply crossing the aggregator's edge
  /// downlink, accounting for residual capacity after background load.
  SimTime reply_transmission_time() const;

  SearchClusterConfig config_;
  SearchClusterInputs inputs_;
  EventQueue events_;
  Rng rng_;
  PathLatencyEstimator latency_;
  std::vector<std::unique_ptr<SimServer>> servers_;  // index by host id

  double arrival_rate_ = 0.0;  // queries per us
  RequestId next_query_ = 0;
  RequestId next_subrequest_ = 0;
  std::unordered_map<RequestId, PendingQuery> inflight_;
  std::size_t queries_overflowed_ = 0;
  // Per-hop sampling constants of each ISN's effective request and reply
  // path (by host id), prepared at run start and after every reroute;
  // sample_prepared draws the bits sample_latency would.
  std::vector<std::vector<PreparedHop>> request_hops_;
  std::vector<std::vector<PreparedHop>> reply_hops_;

  // Fault replay state (unused when inputs.fault_timeline is null).
  std::unique_ptr<FaultCursor> faults_;
  std::unordered_map<FlowId, Path> path_override_;
  std::vector<char> request_down_;  // by host id
  std::vector<char> reply_down_;
  std::size_t flows_rerouted_ = 0;
  std::size_t subqueries_dropped_ = 0;
  std::size_t outage_misses_ = 0;

  SimTime agg_downlink_busy_until_ = 0.0;
  static constexpr std::size_t kEcnCheckStride = 128;
  WindowedPercentile ecn_window_{500};
  std::size_t ecn_samples_ = 0;
  bool ecn_congested_ = false;

  // Measurement (samples recorded only after warmup).
  PercentileEstimator query_latency_;
  PercentileEstimator subquery_latency_;
  PercentileEstimator network_latency_;
  PercentileEstimator server_latency_;
  std::size_t queries_done_ = 0;
  std::size_t query_misses_ = 0;
  std::size_t subqueries_done_ = 0;
  std::size_t subquery_misses_ = 0;
};

/// Convenience one-call runner used by benches: consolidates background +
/// query flows, wires the inputs, runs the cluster. `background` flows are
/// placed together with the query flows by the greedy consolidator at the
/// given K (or along a fixed aggregation-policy subnet when `subnet` is
/// non-null, in which case consolidation routes within that subnet).
struct ScenarioConfig {
  SearchClusterConfig cluster;
  ConsolidationConfig consolidation;
  /// Demand reserved per query flow direction, Mbps.
  Bandwidth query_request_demand = 10.0;
  Bandwidth query_reply_demand = 20.0;
  /// Per-switch power for metrics, W.
  Power switch_power = 36.0;
  /// Optional fault timeline replayed inside the DES (see
  /// SearchClusterInputs::fault_timeline). Must outlive the run.
  const std::vector<FaultTransition>* fault_timeline = nullptr;
};

struct ScenarioResult {
  ClusterMetrics metrics;
  ConsolidationResult placement;
  bool placement_feasible = false;
};

/// Query arrival rate (queries per us) implied by a utilization target:
/// u = lambda * mean_service(f_max) / cores.
double query_arrival_rate_per_us(const ServiceModel& service_model,
                                 int cores, double utilization);

/// Actual average rate of a per-query message stream, Mbps:
/// lambda (1/us) * bytes * 8 bits == bits/us == Mbps.
Bandwidth query_stream_rate(double lambda_per_us, double bytes);

/// Offered load for the latency model: background flows at their demands,
/// query flows at their *actual* average rates (reservations via the scale
/// factor K affect placement only, mirroring the paper: K reserves
/// headroom, real traffic stays 1x).
LinkUtilization scenario_offered_load(const Graph& graph,
                                      const ConsolidationResult& placement,
                                      const FlowSet& flows,
                                      const std::vector<FlowId>& request_flow,
                                      const std::vector<FlowId>& reply_flow,
                                      Bandwidth request_rate,
                                      Bandwidth reply_rate);

ScenarioResult run_search_scenario(const Topology& topo,
                                   const ServiceModel& service_model,
                                   const ServerPowerModel& power_model,
                                   const FlowSet& background,
                                   const ScenarioConfig& config,
                                   const std::vector<bool>* subnet = nullptr);

}  // namespace eprons
