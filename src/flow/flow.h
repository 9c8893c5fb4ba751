// Flow records and traffic matrices for the consolidation layer.
//
// The paper's traffic mix (section II): long-lived latency-tolerant
// "elephant" background flows plus latency-sensitive search request/reply
// flows between the aggregator and the index-serving nodes. Consolidation
// treats each as a (src, dst, bandwidth demand, class) record; the scale
// factor K (section II) multiplies the demand of latency-sensitive flows.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace eprons {

enum class FlowClass {
  /// Search queries and replies; bandwidth demand is scaled by K.
  LatencySensitive,
  /// Elephant background transfers; never scaled.
  LatencyTolerant,
};

const char* flow_class_name(FlowClass cls);

struct Flow {
  FlowId id = kInvalidFlow;
  int src_host = -1;
  int dst_host = -1;
  /// Predicted bandwidth demand for the next epoch, Mbps.
  Bandwidth demand = 0.0;
  FlowClass cls = FlowClass::LatencyTolerant;

  /// Effective demand after scale-factor inflation (only latency-sensitive
  /// flows are inflated; K >= 1).
  Bandwidth scaled_demand(double k) const {
    return cls == FlowClass::LatencySensitive ? demand * k : demand;
  }
};

/// A consistent set of flows to be placed by the consolidation optimizer.
class FlowSet {
 public:
  FlowId add(int src_host, int dst_host, Bandwidth demand, FlowClass cls);
  /// Makes room for `count` flows, so that many add() calls do not
  /// reallocate.
  void reserve(std::size_t count) { flows_.reserve(count); }

  std::size_t size() const { return flows_.size(); }
  bool empty() const { return flows_.empty(); }
  const Flow& operator[](std::size_t i) const { return flows_[i]; }
  const std::vector<Flow>& flows() const { return flows_; }

  /// Sum of (scaled) demands, Mbps.
  Bandwidth total_demand(double k = 1.0) const;
  std::size_t count(FlowClass cls) const;

 private:
  std::vector<Flow> flows_;
};

/// Generators for the paper's workload shapes.
struct FlowGenConfig {
  int num_hosts = 16;
  /// Elephant flows: demand expressed as a fraction of link capacity.
  Bandwidth link_capacity = 1000.0;
  /// Hosts per edge switch (k/2 on a k-ary fat-tree); used to spread
  /// elephant sources across edge switches.
  int hosts_per_edge = 2;
  /// Host whose whole edge-switch group is excluded from elephant
  /// endpoints (set to the aggregator host: its edge downlinks must carry
  /// the full query-reply fan-in, which elephants would saturate).
  int exclude_host = -1;
};

/// The elephant endpoint layout shared by make_background_flows and the
/// timed-flow generator (flow/timed_flow.h): sources cycle edge-major
/// across edge switches (one elephant per edge uplink until count exceeds
/// the edge count), destinations sit half the host space away and are kept
/// unique, and the excluded host's whole edge group carries no elephant
/// endpoint. Pure function of the config — no RNG involved.
std::vector<std::pair<int, int>> background_endpoints(
    const FlowGenConfig& config, int count);

/// `count` background elephants, each with demand =
/// `utilization_of_capacity` * capacity (+/- jitter fraction). Sources
/// cycle across edge switches and destinations sit half the host space
/// away, so "X% background traffic" means ~X% utilization on the links the
/// elephants use — one elephant per edge uplink per direction until count
/// exceeds the edge count — matching the paper's notion of background
/// load and keeping instances placeable below the safety margin.
FlowSet make_background_flows(const FlowGenConfig& config, int count,
                              double utilization_of_capacity, double jitter,
                              Rng& rng);

/// Ids of the partition-aggregate query flows, by host id (the
/// aggregator's slot holds kInvalidFlow).
struct QueryFlows {
  std::vector<FlowId> request;  // aggregator -> host
  std::vector<FlowId> reply;    // host -> aggregator
};

/// Partition-aggregate query flows, appended after whatever `flows` holds
/// (the background): for each host other than the aggregator, in host
/// order, one request flow aggregator->host then one reply flow
/// host->aggregator. Replies are typically larger than requests (fan-in of
/// result lists). The one query-flow layout the planner and the DES share.
QueryFlows add_query_flows(FlowSet& flows, int aggregator_host, int num_hosts,
                           Bandwidth request_demand, Bandwidth reply_demand);

}  // namespace eprons
