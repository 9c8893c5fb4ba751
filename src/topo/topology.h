// Abstract multipath data-center topology.
//
// The paper notes its optimization model "is independent of the network
// topology" (section IV-B); this interface is what makes that true in
// code: consolidators, the simulator, and the joint optimizer only need a
// graph, host handles, and loop-free path enumeration. `FatTree` is the
// paper's evaluation topology; `LeafSpine` demonstrates portability.
#pragma once

#include <vector>

#include "topo/graph.h"

namespace eprons {

class Topology {
 public:
  virtual ~Topology() = default;

  virtual const Graph& graph() const = 0;
  virtual int num_hosts() const = 0;
  virtual int num_switches() const = 0;
  /// Uniform link capacity, Mbps (all paper topologies are homogeneous).
  virtual Bandwidth link_capacity() const = 0;
  /// NodeId of host `index` in [0, num_hosts).
  virtual NodeId host(int index) const = 0;
  /// Hosts attached to the same access switch as host 0, 1, ... — used by
  /// workload generators to spread elephants across access switches.
  virtual int hosts_per_access_switch() const = 0;

  /// Every loop-free shortest path between two distinct hosts. Throws
  /// std::invalid_argument when src_host == dst_host.
  ///
  /// Contract (the PathCatalog shares route lists on it): every host is
  /// single-homed — one link, to its access switch — so each path is
  /// `host, access switch, ..., access switch, host` with only switches
  /// between its ends. The switch part of the list, paths and order alike,
  /// depends only on the two hosts' access switches: two host pairs on the
  /// same access switches get the same routes in the same order.
  virtual std::vector<Path> all_paths(int src_host, int dst_host) const = 0;
  /// As all_paths, filtered to paths whose switches are all on.
  virtual std::vector<Path> active_paths(
      int src_host, int dst_host,
      const std::vector<bool>& switch_on) const = 0;
};

}  // namespace eprons
