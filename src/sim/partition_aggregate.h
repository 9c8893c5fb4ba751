// Partition-aggregate DES core (the paper's section V-A "search engine
// simulator"), shared by the closed-loop SearchCluster and the open-loop
// ServingHarness.
//
// One host aggregates; every query fans out one sub-query to each of the
// other N-1 index-serving nodes (ISNs). A sub-request draws its network
// latency from the plan's request path, runs on the ISN's SimServer under
// the configured DVFS policy, and its reply draws the reply path's latency,
// then serializes on the aggregator's edge downlink behind the replies
// already converging there (partition-aggregate incast; cross-traffic
// queueing on the hops themselves is covered by the link latency model).
// A query completes when its last reply reaches the aggregator.
//
// Deadline plumbing (section IV-A + Fig. 7): the driver passes a server
// budget and a request-leg network budget with every fan-out. The latency
// monitor measures each sub-request's network latency l_req and hands the
// server
//
//   deadline_server     = arrival + server_budget
//   deadline_with_slack = deadline_server + max(0, request_budget - l_req)
//
// "To be more conservative, we only use the request slack" — the reply
// budget is never borrowed.
//
// Feedback: when the DVFS policy consumes it (policy_uses_feedback), each
// reply reports its sub-query latency to the core that served it, and an
// ECN monitor broadcasts congestion whenever the recent network-latency p95
// crosses the network budget.
//
// Faults: an optional timeline is replayed inside the DES. At each
// transition a query flow keeps its planned path while that survives, else
// takes the leftmost surviving path of the active subnet, else is down. A
// sub-query issued or replied over a down flow is charged a timeout of twice
// the latency constraint (always an SLA miss).
//
// Arrivals, admission, warm-up and metrics stay in the drivers, which see
// sub-query and query completions through Listener. The per-fan-out draw
// order is fixed here (docs/DETERMINISM.md): per ISN in host order, the
// request-latency draw, then the work draw.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "consolidate/consolidation.h"
#include "fault/fault_injector.h"
#include "net/path_latency.h"
#include "power/server_power.h"
#include "sim/event_queue.h"
#include "sim/server.h"
#include "stats/percentile.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace eprons {

/// Query message sizes, bytes: the offered-load accounting of both drivers
/// and the incast serialization of every reply.
inline constexpr double kQueryRequestBytes = 1000.0;
inline constexpr double kQueryReplyBytes = 2000.0;

struct PartitionAggregateConfig {
  const Topology* topo = nullptr;
  const ServiceModel* service_model = nullptr;
  const ServerPowerModel* power_model = nullptr;
  /// DVFS policy on every ISN (make_policy name) and its VP target.
  std::string policy = "eprons";
  double target_vp = 0.05;
  int aggregator_host = 0;
  /// End-to-end constraint L, us: TimeTrader's feedback target; a dropped
  /// sub-query is charged 2 L.
  SimTime latency_constraint = ms(30.0);
  /// Network budget the ECN monitor holds the network-latency p95 to, us.
  SimTime network_budget = ms(5.0);
  /// Optional fault timeline (generate_fault_schedule); must outlive the
  /// core. Null or empty = healthy run.
  const std::vector<FaultTransition>* fault_timeline = nullptr;
};

class PartitionAggregate {
 public:
  struct PendingQuery {
    SimTime arrived = 0.0;  // admission; a queue wait counts toward latency
    SimTime issued = 0.0;   // fan-out; sub-query latency is measured here
    int outstanding = 0;    // sub-queries not yet replied
    SimTime penalty = 0.0;  // plan-transition cost charged while in flight
  };
  struct SubqueryDone {
    /// Request + reply network time (incast included) and server residence
    /// time, us; 0 for a dropped sub-query.
    SimTime net_total = 0.0;
    SimTime server_time = 0.0;
    /// No surviving path: charged the drop timeout instead of served.
    bool dropped = false;
  };
  /// The driver's view of completions, in event order.
  class Listener {
   public:
    /// A sub-query's reply reached the aggregator, or its drop timed out.
    virtual void on_subquery_done(const PendingQuery& query,
                                  const SubqueryDone& done) = 0;
    /// The query's last reply arrived; it has left the pending map.
    virtual void on_query_done(const PendingQuery& query) = 0;

   protected:
    ~Listener() = default;
  };

  /// `rng` draws every latency and work sample; `listener` must outlive
  /// the core.
  PartitionAggregate(const PartitionAggregateConfig& config, Rng rng,
                     Listener* listener);
  PartitionAggregate(const PartitionAggregate&) = delete;
  PartitionAggregate& operator=(const PartitionAggregate&) = delete;

  /// Adopts a plan: every ISN's request and reply path from `placement`
  /// (a flow the plan leaves unrouted keeps its previous path, and throws
  /// when it has none), and the link load that drives latency sampling
  /// under the default LinkLatencyModel (`offered_load` must stay valid
  /// until the next adopt_plan). Returns whether any previously adopted
  /// path changed.
  bool adopt_plan(const ConsolidationResult& placement,
                  const std::vector<FlowId>& request_flow,
                  const std::vector<FlowId>& reply_flow,
                  const LinkUtilization* offered_load);

  /// Schedules the fault timeline's next transition, which re-derives the
  /// routes and schedules the one after (none without a timeline).
  void schedule_next_fault();

  /// Fans a query admitted at `arrived` out to every ISN now; the budgets
  /// set each sub-request's deadlines (see the top of this file).
  void fan_out(SimTime arrived, SimTime server_budget,
               SimTime request_budget);

  /// Adds `penalty` to every query in flight; returns how many there are.
  std::size_t charge_inflight(SimTime penalty);

  EventQueue& events() { return events_; }
  /// Adds the run's schedules into the past beyond round-off
  /// (EventQueue::clamped) to the sim.clamped_events counter. Drivers call
  /// it once, at the end of a run.
  void report_clamps() const;
  /// The sampling stream; the closed-loop driver draws its arrival gaps
  /// from it too.
  Rng& rng() { return rng_; }
  /// One server per host (by host id), the aggregator's included.
  std::vector<std::unique_ptr<SimServer>>& servers() { return servers_; }
  std::size_t inflight() const { return inflight_.size(); }

  bool replays_faults() const { return faults_ != nullptr; }
  /// True while at least one failure is outstanding.
  bool outage() const { return faults_ && faults_->overlay().any_failed(); }
  /// Query flows moved onto a surviving path, and sub-queries dropped.
  std::size_t flows_rerouted() const { return flows_rerouted_; }
  std::size_t subqueries_dropped() const { return subqueries_dropped_; }

 private:
  /// One direction of one ISN's query flow.
  struct Leg {
    Path planned;   // the adopted plan's path
    Path detour;    // fault reroute; empty = none
    bool down = false;
    // Sampling constants of the effective path under the offered load,
    // prepared on every route refresh and drawn by sample_prepared.
    std::vector<PreparedHop> hops;
    const Path& path() const { return detour.empty() ? planned : detour; }
  };

  void on_server_complete(int isn, const ServerCompletion& completion);
  /// Drops a sub-query of `query` whose leg has no surviving path.
  void drop(RequestId query);
  void report_feedback(int isn, RequestId query, SimTime now,
                       SimTime reply_arrival, SimTime net_total);
  void subquery_done(RequestId query, const SubqueryDone& done);
  /// Re-derives fault detours (when replaying faults) and prepares every
  /// leg's hops.
  void refresh_routes();
  void reroute(Leg& leg, int src_host, int dst_host);

  PartitionAggregateConfig config_;
  Listener* listener_;
  EventQueue events_;
  Rng rng_;
  PathLatencyEstimator latency_;
  std::vector<std::unique_ptr<SimServer>> servers_;  // by host id
  std::vector<Leg> request_;  // by host id (aggregator slot unused)
  std::vector<Leg> reply_;
  std::vector<bool> switch_on_;  // the plan's subnet, for detours
  bool feedback_ = false;
  SimTime reply_tx_ = 0.0;      // one reply's serialization on the downlink
  SimTime drop_penalty_ = 0.0;

  RequestId next_query_ = 0;
  RequestId next_subrequest_ = 0;
  std::unordered_map<RequestId, PendingQuery> inflight_;
  SimTime agg_downlink_busy_until_ = 0.0;

  static constexpr std::size_t kEcnCheckStride = 128;
  WindowedPercentile ecn_window_{500};
  std::size_t ecn_samples_ = 0;
  bool ecn_congested_ = false;

  std::unique_ptr<FaultCursor> faults_;
  std::size_t flows_rerouted_ = 0;
  std::size_t subqueries_dropped_ = 0;
};

}  // namespace eprons
