// Per-link load accounting for a routed flow placement.
//
// After consolidation assigns each flow a path, this tracker accumulates the
// offered load on every (directed) link so the latency model can be queried
// per hop. Directions matter: a fat-tree uplink can be hot while its
// downlink is idle. Loads are indexed by (link id, direction) where
// direction 0 means a->b in the underlying undirected link.
#pragma once

#include <vector>

#include "topo/graph.h"
#include "util/types.h"

namespace eprons {

class LinkUtilization {
 public:
  explicit LinkUtilization(const Graph* graph);

  /// Adds `rate` Mbps along the directed hops of `path` (node sequence).
  /// `bursty` marks elephant/background traffic that transmits in
  /// line-rate ON/OFF trains: its average rate counts toward utilization
  /// like any load, but the latency model additionally charges packets
  /// that collide with an ON period (see LinkLatencyModel).
  /// A negative accumulation is clamped at 0.
  void add_path_load(const Path& path, Bandwidth rate, bool bursty = false);
  void clear();

  /// Offered load on the directed link from `from` to `to` (must be
  /// adjacent), Mbps.
  Bandwidth directed_load(NodeId from, NodeId to) const;

  /// Both utilizations of one directed hop, from one link lookup (the
  /// nodes must be adjacent).
  struct DirectedUtilization {
    /// In [0, inf): load / capacity (can exceed 1 if oversubscribed; the
    /// latency model clamps).
    double utilization = 0.0;
    /// Contributed by bursty (elephant) flows only; approximates the
    /// fraction of time the link is occupied by a line-rate burst.
    double bursty = 0.0;
  };
  DirectedUtilization directed_utilizations(NodeId from, NodeId to) const;

  /// Highest directed utilization anywhere.
  double max_utilization() const;

  const Graph& graph() const { return *graph_; }

 private:
  std::size_t slot(LinkId link, bool forward) const;

  const Graph* graph_;
  std::vector<Bandwidth> load_;         // 2 slots per undirected link
  std::vector<Bandwidth> bursty_load_;  // subset of load_ from elephants
};

}  // namespace eprons
