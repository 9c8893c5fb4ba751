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
  void add_path_load(const Path& path, Bandwidth rate, bool bursty = false);
  /// Removes load previously added (negative accumulation clamped at 0).
  void remove_path_load(const Path& path, Bandwidth rate, bool bursty = false);
  void clear();

  /// Offered load on the directed link from `from` to `to` (must be
  /// adjacent), Mbps.
  Bandwidth directed_load(NodeId from, NodeId to) const;
  /// Utilization in [0, inf): load / capacity (can exceed 1 if
  /// oversubscribed; latency model clamps).
  double directed_utilization(NodeId from, NodeId to) const;
  /// Utilization contributed by bursty (elephant) flows only; approximates
  /// the fraction of time the link is occupied by a line-rate burst.
  double directed_bursty_utilization(NodeId from, NodeId to) const;

  /// Both utilizations of one directed hop, from one link lookup: the
  /// values directed_utilization and directed_bursty_utilization return.
  struct DirectedUtilization {
    double utilization = 0.0;
    double bursty = 0.0;
  };
  DirectedUtilization directed_utilizations(NodeId from, NodeId to) const;

  /// Max directed utilization along a node path.
  double max_path_utilization(const Path& path) const;

  /// Highest directed utilization anywhere.
  double max_utilization() const;
  /// Number of directed links with nonzero load.
  int active_directed_links() const;

  const Graph& graph() const { return *graph_; }

 private:
  std::size_t slot(LinkId link, bool forward) const;
  void accumulate(const Path& path, Bandwidth delta, bool bursty);

  const Graph* graph_;
  std::vector<Bandwidth> load_;         // 2 slots per undirected link
  std::vector<Bandwidth> bursty_load_;  // subset of load_ from elephants
};

}  // namespace eprons
