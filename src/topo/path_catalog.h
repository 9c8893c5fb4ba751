// Memoized, annotated path enumeration shared across planner calls.
//
// Topology::all_paths(src, dst) is a pure function of the wiring, yet the
// greedy packer re-enumerates it — and re-resolves every hop through
// Graph::find_link — once per flow per consolidate() call, i.e. once per K
// candidate per epoch. A PathCatalog enumerates each host pair exactly once
// (on first use, thread-safely) and precomputes the per-hop constants the
// consolidators need, so the K sweep's path work collapses to array reads.
//
// Each annotated path keeps its per-hop and per-node data inline, in
// arrays sized for the longest path either topology enumerates, so a
// pair's candidate list is one contiguous allocation that a placement
// scans front to back. A longer path is rejected with std::length_error.
//
// The cached list preserves Topology::all_paths order exactly; filtering it
// by an allowed-switch or blocked-link mask yields the same candidate
// sequence as Topology::active_paths followed by the blocked-link erase
// (both topologies implement active_paths as an order-preserving filter of
// all_paths). That order equivalence is what keeps catalog-backed packing
// byte-identical to reference enumeration (docs/DETERMINISM.md).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "topo/topology.h"

namespace eprons {

/// One enumerated path plus the per-hop/per-node constants consolidation
/// re-derives from the Graph on every visit, stored inline.
class CatalogPath {
 public:
  /// The longest path either topology enumerates: a fat-tree's cross-pod
  /// host-edge-agg-core-agg-edge-host route.
  static constexpr std::size_t kMaxNodes = 7;
  static constexpr std::size_t kMaxHops = kMaxNodes - 1;

  /// Annotates `path` against `graph`. Throws std::length_error when the
  /// path has more than kMaxNodes nodes.
  CatalogPath(const Graph& graph, const Path& path);

  /// The node sequence, exactly as Topology::all_paths returned it.
  std::span<const NodeId> nodes() const { return {nodes_.data(), node_count_}; }
  /// Per hop: directed-arc slot (LinkId * 2, +1 for the b->a direction) —
  /// the residual-capacity index the greedy packer charges.
  std::span<const std::uint32_t> arc_slots() const {
    return {arc_slots_.data(), hop_count_};
  }
  /// Per hop: the undirected link id (blocked-link filtering, activation).
  std::span<const LinkId> links() const { return {links_.data(), hop_count_}; }
  /// Per hop: 1 when either endpoint is a host (such hops are charged the
  /// unscaled demand — no routing alternative exists there).
  std::span<const std::uint8_t> host_adjacent() const {
    return {host_adjacent_.data(), hop_count_};
  }
  /// The switch nodes on the path, in path order (subnet filtering and
  /// MinimizeSwitches scoring).
  std::span<const NodeId> switches() const {
    return {switches_.data(), switch_count_};
  }

 private:
  // What a placement's candidate scan reads (counts, host adjacency, arc
  // slots, switches) comes first; the nodes and links only matter once a
  // path is chosen.
  std::uint8_t node_count_ = 0;
  std::uint8_t hop_count_ = 0;
  std::uint8_t switch_count_ = 0;
  std::array<std::uint8_t, kMaxHops> host_adjacent_{};
  std::array<std::uint32_t, kMaxHops> arc_slots_{};
  std::array<NodeId, kMaxNodes> switches_{};
  std::array<NodeId, kMaxNodes> nodes_{};
  std::array<LinkId, kMaxHops> links_{};
};

class PathCatalog {
 public:
  /// The topology must outlive the catalog. Storage is sparse: one shard
  /// per source host, each a hash map keyed by destination, populated only
  /// for pairs actually planned. A k=32 fat-tree has 8192 hosts — a dense
  /// hosts x hosts entry table would be 67M slots before the first flow is
  /// placed; the sparse layout is O(hosts) empty shards up front and
  /// O(pairs used) thereafter.
  explicit PathCatalog(const Topology* topo);

  const Topology& topology() const { return *topo_; }

  /// The annotated all_paths(src_host, dst_host) list. First use per pair
  /// enumerates and annotates (a short shard-lock to find-or-create the
  /// entry, then a std::call_once fill); later uses — from any thread — are
  /// read-only map lookups plus a passed call_once. Host indices must be in
  /// [0, num_hosts). Throws std::length_error, on this and every later
  /// lookup of the pair, when the topology enumerates a path longer than
  /// CatalogPath::kMaxNodes.
  const std::vector<CatalogPath>& pair(int src_host, int dst_host) const;

 private:
  struct Entry {
    std::once_flag once;
    std::vector<CatalogPath> paths;
    /// What the fill threw, if it threw.
    std::exception_ptr failure;
  };
  /// All destinations reachable from one source host. Entries are
  /// heap-pinned so the returned reference stays valid across rehashes.
  struct Shard {
    std::mutex mu;
    std::unordered_map<int, std::unique_ptr<Entry>> by_dst;
  };

  const Topology* topo_;
  int hosts_;
  mutable std::unique_ptr<Shard[]> shards_;  // hosts_ shards, indexed by src
};

}  // namespace eprons
