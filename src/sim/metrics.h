// Run-level metrics for cluster simulations: latency percentiles, SLA miss
// rates, power breakdowns.
#pragma once

#include "stats/percentile.h"
#include "util/types.h"

namespace eprons {

struct LatencyStats {
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

LatencyStats summarize(const PercentileEstimator& estimator);

struct ClusterMetrics {
  /// End-to-end query latency (aggregator fan-out to last reply), us.
  LatencyStats query_latency;
  /// Per-subquery network latency (request + reply hops), us.
  LatencyStats network_latency;
  /// Per-subquery server residence time (queue + service), us.
  LatencyStats server_latency;
  /// Per-subquery end-to-end latency (issue to reply arrival), us. This is
  /// the paper's SLA object: the tail latency of individual search
  /// requests at the ISNs.
  LatencyStats subquery_latency;
  /// Fraction of queries (max over the fan-out) exceeding the constraint.
  double query_miss_rate = 0.0;
  /// Fraction of sub-requests exceeding the constraint (the SLA miss rate).
  double subquery_miss_rate = 0.0;

  /// Average CPU power per server (cores only), W.
  Power avg_cpu_power_per_server = 0.0;
  /// Average total server power (cores + static), W.
  Power avg_server_power = 0.0;
  /// Whole-cluster server power (all servers), W.
  Power total_server_power = 0.0;
  /// Network power of the active subnet, W.
  Power network_power = 0.0;
  /// total_server_power + network_power.
  Power total_system_power = 0.0;

  /// Measured mean core busy fraction across all servers.
  double measured_core_utilization = 0.0;

  std::size_t queries_completed = 0;
  std::size_t subqueries_completed = 0;

  // Fault-injection accounting (all zero without a fault timeline).
  /// Query flows moved onto an alternate surviving path mid-run.
  std::size_t flows_rerouted = 0;
  /// Sub-queries dropped because no surviving path existed when issued
  /// (each is charged the drop penalty and counted as an SLA miss).
  std::size_t subqueries_dropped = 0;
  /// SLA misses recorded while any failure was outstanding (dropped
  /// sub-queries plus organic misses during the outage window).
  std::size_t outage_sla_misses = 0;
};

}  // namespace eprons
