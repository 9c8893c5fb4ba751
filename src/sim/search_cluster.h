// Closed-loop partition-aggregate search cluster (the paper's section V-A
// "search engine simulator"): a driver over the PartitionAggregate core
// (sim/partition_aggregate.h), which owns fan-out, deadlines, the reply and
// incast leg, feedback and fault replay.
//
// The driver derives a Poisson query rate from a utilization target, so the
// load can never outrun the servers; it runs a warm-up window, then measures
// query, sub-query, network and server latency and the cluster's power into
// ClusterMetrics.
#pragma once

#include <vector>

#include "consolidate/consolidation.h"
#include "fault/fault_injector.h"
#include "power/server_power.h"
#include "sim/metrics.h"
#include "sim/partition_aggregate.h"
#include "topo/topology.h"

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

  SimTime warmup = sec(2.0);
  SimTime duration = sec(20.0);
  /// Feedback policies converge slowly (TimeTrader adjusts every 5 s), so
  /// their warmup extends to at least `feedback_warmup`.
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
  /// Network power reported in metrics (computed by the caller from the
  /// placement and switch power model).
  Power network_power = 0.0;
  /// Optional fault timeline (from generate_fault_schedule) replayed
  /// inside the DES: query flows crossing failed elements are rerouted
  /// onto surviving paths of the active subnet, or dropped when none
  /// exists. Null = healthy run (bit-identical to pre-fault behavior).
  const std::vector<FaultTransition>* fault_timeline = nullptr;
};

class SearchCluster : private PartitionAggregate::Listener {
 public:
  SearchCluster(const SearchClusterConfig& config,
                const SearchClusterInputs& inputs);
  SearchCluster(const SearchCluster&) = delete;
  SearchCluster& operator=(const SearchCluster&) = delete;

  /// Runs warmup + measurement; returns aggregate metrics.
  ClusterMetrics run();

 private:
  using PendingQuery = PartitionAggregate::PendingQuery;

  void schedule_next_arrival();
  void on_subquery_done(const PendingQuery& query,
                        const PartitionAggregate::SubqueryDone& done) override;
  void on_query_done(const PendingQuery& query) override;

  SearchClusterConfig config_;
  SearchClusterInputs inputs_;
  PartitionAggregate des_;
  double arrival_rate_ = 0.0;  // queries per us
  SimTime warmup_ = 0.0;
  SimTime request_budget_ = 0.0;

  // Measurement (samples recorded only after warmup).
  PercentileEstimator query_latency_;
  PercentileEstimator subquery_latency_;
  PercentileEstimator network_latency_;
  PercentileEstimator server_latency_;
  std::size_t queries_done_ = 0;
  std::size_t query_misses_ = 0;
  std::size_t subqueries_done_ = 0;
  std::size_t subquery_misses_ = 0;
  std::size_t outage_misses_ = 0;
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
