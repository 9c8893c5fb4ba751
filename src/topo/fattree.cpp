#include "topo/fattree.h"

#include <stdexcept>

#include "util/strings.h"

namespace eprons {

FatTree::FatTree(int k, Bandwidth link_capacity)
    : k_(k), capacity_(link_capacity) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("fat-tree k must be even and >= 2");
  }
  const int half = k_ / 2;

  // Hosts, edge and agg switches, pod by pod.
  edges_.resize(static_cast<std::size_t>(k_));
  aggs_.resize(static_cast<std::size_t>(k_));
  for (int pod = 0; pod < k_; ++pod) {
    for (int i = 0; i < half; ++i) {
      edges_[static_cast<std::size_t>(pod)].push_back(graph_.add_node(
          NodeType::EdgeSwitch, pod, i, strformat("e%d_%d", pod, i)));
      aggs_[static_cast<std::size_t>(pod)].push_back(graph_.add_node(
          NodeType::AggSwitch, pod, i, strformat("a%d_%d", pod, i)));
    }
    for (int e = 0; e < half; ++e) {
      for (int h = 0; h < half; ++h) {
        const int host_index = pod * half * half + e * half + h;
        const NodeId hid = graph_.add_node(NodeType::Host, pod, host_index,
                                           strformat("h%d", host_index));
        hosts_.push_back(hid);
        graph_.add_link(hid, edges_[static_cast<std::size_t>(pod)]
                                   [static_cast<std::size_t>(e)],
                        capacity_);
      }
    }
    // Full bipartite edge <-> agg inside the pod.
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        graph_.add_link(
            edges_[static_cast<std::size_t>(pod)][static_cast<std::size_t>(e)],
            aggs_[static_cast<std::size_t>(pod)][static_cast<std::size_t>(a)],
            capacity_);
      }
    }
  }

  // Core grid: core (row, col) links to agg `row` of every pod.
  cores_.resize(static_cast<std::size_t>(half));
  for (int row = 0; row < half; ++row) {
    for (int col = 0; col < half; ++col) {
      const NodeId cid = graph_.add_node(NodeType::CoreSwitch, -1,
                                         row * half + col,
                                         strformat("c%d_%d", row, col));
      cores_[static_cast<std::size_t>(row)].push_back(cid);
      for (int pod = 0; pod < k_; ++pod) {
        graph_.add_link(cid,
                        aggs_[static_cast<std::size_t>(pod)]
                             [static_cast<std::size_t>(row)],
                        capacity_);
      }
    }
  }
}

NodeId FatTree::host(int index) const {
  return hosts_.at(static_cast<std::size_t>(index));
}

NodeId FatTree::edge(int pod, int index) const {
  return edges_.at(static_cast<std::size_t>(pod))
      .at(static_cast<std::size_t>(index));
}

NodeId FatTree::agg(int pod, int index) const {
  return aggs_.at(static_cast<std::size_t>(pod))
      .at(static_cast<std::size_t>(index));
}

NodeId FatTree::core(int row, int col) const {
  return cores_.at(static_cast<std::size_t>(row))
      .at(static_cast<std::size_t>(col));
}

std::vector<bool> FatTree::pod_switch_mask(int pod) const {
  std::vector<bool> mask(static_cast<std::size_t>(graph_.num_nodes()), false);
  for (NodeId e : edges_.at(static_cast<std::size_t>(pod))) {
    mask[static_cast<std::size_t>(e)] = true;
  }
  for (NodeId a : aggs_.at(static_cast<std::size_t>(pod))) {
    mask[static_cast<std::size_t>(a)] = true;
  }
  return mask;
}

std::vector<Path> FatTree::all_paths(int src_host, int dst_host) const {
  if (src_host == dst_host) {
    throw std::invalid_argument("src and dst hosts must differ");
  }
  const int half = k_ / 2;
  const int hosts_per_pod = half * half;
  const int src_pod = src_host / hosts_per_pod;
  const int dst_pod = dst_host / hosts_per_pod;
  const int src_edge = (src_host % hosts_per_pod) / half;
  const int dst_edge = (dst_host % hosts_per_pod) / half;
  const NodeId s = host(src_host);
  const NodeId t = host(dst_host);

  std::vector<Path> paths;
  if (src_pod == dst_pod && src_edge == dst_edge) {
    paths.push_back({s, edge(src_pod, src_edge), t});
    return paths;
  }
  if (src_pod == dst_pod) {
    for (int a = 0; a < half; ++a) {
      paths.push_back(
          {s, edge(src_pod, src_edge), agg(src_pod, a), edge(dst_pod, dst_edge), t});
    }
    return paths;
  }
  for (int row = 0; row < half; ++row) {
    for (int col = 0; col < half; ++col) {
      paths.push_back({s, edge(src_pod, src_edge), agg(src_pod, row),
                       core(row, col), agg(dst_pod, row),
                       edge(dst_pod, dst_edge), t});
    }
  }
  return paths;
}

std::vector<Path> FatTree::active_paths(
    int src_host, int dst_host, const std::vector<bool>& switch_on) const {
  std::vector<Path> out;
  for (Path& path : all_paths(src_host, dst_host)) {
    bool ok = true;
    for (NodeId n : path) {
      if (graph_.is_switch(n) &&
          (static_cast<std::size_t>(n) >= switch_on.size() ||
           !switch_on[static_cast<std::size_t>(n)])) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(std::move(path));
  }
  return out;
}

}  // namespace eprons
