// Two-tier leaf-spine (folded Clos) topology.
//
// Demonstrates the topology-independence claim of section IV-B: the same
// consolidation model, simulator, and joint optimizer run unchanged on this
// fabric. `leaves` access switches each attach `hosts_per_leaf` hosts and
// uplink to every one of `spines` spine switches; host pairs on different
// leaves have exactly `spines` equal-length paths.
#pragma once

#include <vector>

#include "topo/topology.h"

namespace eprons {

class LeafSpine final : public Topology {
 public:
  LeafSpine(int leaves, int spines, int hosts_per_leaf,
            Bandwidth link_capacity = 1000.0);

  int num_hosts() const override { return leaves_ * hosts_per_leaf_; }
  int num_switches() const override { return leaves_ + spines_; }
  Bandwidth link_capacity() const override { return capacity_; }
  int hosts_per_access_switch() const override { return hosts_per_leaf_; }

  const Graph& graph() const override { return graph_; }

  NodeId host(int index) const override;
  NodeId leaf(int index) const;
  NodeId spine(int index) const;
  int leaf_of_host(int host_index) const { return host_index / hosts_per_leaf_; }

  std::vector<Path> all_paths(int src_host, int dst_host) const override;
  std::vector<Path> active_paths(
      int src_host, int dst_host,
      const std::vector<bool>& switch_on) const override;

 private:
  int leaves_;
  int spines_;
  int hosts_per_leaf_;
  Bandwidth capacity_;
  Graph graph_;
  std::vector<NodeId> hosts_;
  std::vector<NodeId> leaf_ids_;
  std::vector<NodeId> spine_ids_;
};

}  // namespace eprons
