// k-ary fat-tree topology builder (Al-Fares et al. construction).
//
// The paper's platform is a 4-ary fat-tree with 16 servers (section V-A):
// k pods, each with k/2 edge and k/2 aggregation switches; (k/2)^2 core
// switches; k/2 hosts per edge switch -> k^3/4 hosts total.
//
// Wiring convention (needed by the aggregation policies of Fig. 9):
// core switches are arranged in a (k/2) x (k/2) grid; core (i, j) connects
// to aggregation switch i of every pod. So cores with the same row index i
// form the uplink group of "agg row i".
#pragma once

#include <vector>

#include "topo/topology.h"

namespace eprons {

class FatTree final : public Topology {
 public:
  /// k must be even and >= 2. All links get `link_capacity` Mbps.
  explicit FatTree(int k, Bandwidth link_capacity = 1000.0);

  int k() const { return k_; }
  int num_pods() const { return k_; }
  int num_hosts() const override { return k_ * k_ * k_ / 4; }
  int num_core() const { return (k_ / 2) * (k_ / 2); }
  int num_agg() const { return k_ * (k_ / 2); }
  int num_edge() const { return k_ * (k_ / 2); }
  int num_switches() const override {
    return num_core() + num_agg() + num_edge();
  }
  Bandwidth link_capacity() const override { return capacity_; }
  int hosts_per_access_switch() const override { return k_ / 2; }

  const Graph& graph() const override { return graph_; }

  /// Node-id accessors. host index in [0, num_hosts); pod in [0, k);
  /// position indices in [0, k/2).
  NodeId host(int index) const override;
  NodeId edge(int pod, int index) const;
  NodeId agg(int pod, int index) const;
  /// Core grid accessors: row = which agg it uplinks, col = replica.
  NodeId core(int row, int col) const;

  /// Hosts under one pod's k/2 edge switches: (k/2)^2.
  int hosts_per_pod() const { return (k_ / 2) * (k_ / 2); }

  int pod_of_host(int host_index) const { return host_index / hosts_per_pod(); }

  /// NodeId-indexed mask of the pod's edge and aggregation switches (cores
  /// belong to no pod). This is the allowed_switches restriction the
  /// hierarchical consolidator hands each per-pod solve.
  std::vector<bool> pod_switch_mask(int pod) const;

  /// Every loop-free shortest path between two distinct hosts:
  ///   same edge switch  -> 1 path (h, e, h')
  ///   same pod          -> k/2 paths via each agg switch
  ///   different pods    -> (k/2)^2 paths via each core switch
  std::vector<Path> all_paths(int src_host, int dst_host) const override;

  /// As all_paths, but keeps only paths whose switches are all `on`.
  /// `switch_on` is indexed by NodeId.
  std::vector<Path> active_paths(
      int src_host, int dst_host,
      const std::vector<bool>& switch_on) const override;

 private:
  int hosts_per_edge() const { return k_ / 2; }

  int k_;
  Bandwidth capacity_;
  Graph graph_;
  std::vector<NodeId> hosts_;
  std::vector<std::vector<NodeId>> edges_;  // [pod][index]
  std::vector<std::vector<NodeId>> aggs_;   // [pod][index]
  std::vector<std::vector<NodeId>> cores_;  // [row][col]
};

}  // namespace eprons
