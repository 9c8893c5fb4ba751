// Memoized, annotated path enumeration shared across planner calls.
//
// Topology::all_paths(src, dst) is a pure function of the wiring, yet the
// greedy packer re-enumerates it — and re-resolves every hop through
// Graph::find_link — once per flow per consolidate() call, i.e. once per K
// candidate per epoch. A PathCatalog enumerates each route list exactly
// once (on first use, thread-safely) and precomputes the per-hop constants
// the consolidators need, so the K sweep's path work collapses to array
// reads.
//
// Every path is `host -> switch route -> host`, and by the
// Topology::all_paths contract the route list depends only on the two
// hosts' access switches. So the catalog stores each host's one access
// link once, and each (source access switch, destination access switch)
// pair's switch-level routes once, taken from all_paths of the first host
// pair that asks with the two host hops stripped. A k=16 fat-tree's
// planned host pairs then share a few hundred route lists instead of
// holding one path list each. A route keeps its per-hop and per-node data
// inline, in arrays sized for the longest route either topology
// enumerates, so an access pair's routes are one contiguous allocation
// that a placement scans front to back. A longer path is rejected with
// std::length_error.
//
// pair(src, dst) returns a view whose per-path sequences — nodes, links,
// arc slots, host adjacency, switches — are exactly what annotating
// all_paths(src, dst) hop by hop gives, in all_paths order. Filtering that
// list by an allowed-switch or blocked-link mask yields the same candidate
// sequence as Topology::active_paths followed by the blocked-link erase
// (both topologies implement active_paths as an order-preserving filter of
// all_paths). That order equivalence is what keeps catalog-backed packing
// byte-identical to reference enumeration (docs/DETERMINISM.md).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "topo/topology.h"

namespace eprons {

/// A host's one access link: the first hop of every path the host sends
/// and the last hop of every path it receives.
struct HostAccess {
  NodeId host = kInvalidNode;
  NodeId access_switch = kInvalidNode;
  LinkId link = kInvalidLink;
  /// Directed-arc slot of the host -> switch direction (LinkId * 2, +1 for
  /// the b->a direction).
  std::uint32_t uplink_slot = 0;
  /// The switch -> host direction: the link's other slot.
  std::uint32_t downlink_slot() const { return uplink_slot ^ 1u; }
};

/// The switch-level part of one path — every node strictly between the two
/// hosts — plus the constants consolidation re-derives from the Graph on
/// every visit, stored inline.
class SwitchRoute {
 public:
  /// The longest route either topology enumerates: a fat-tree's cross-pod
  /// edge-agg-core-agg-edge route (a 7-node host-to-host path).
  static constexpr std::size_t kMaxSwitches = 5;
  static constexpr std::size_t kMaxHops = kMaxSwitches - 1;

  /// Annotates path[1 .. size-2] against `graph`. Throws std::length_error
  /// when the path has more than kMaxSwitches + 2 nodes, and
  /// std::invalid_argument when it has fewer than 3 or a node between its
  /// ends is not a switch.
  SwitchRoute(const Graph& graph, const Path& path);

  /// The switch nodes, in path order (subnet filtering and
  /// MinimizeSwitches scoring).
  std::span<const NodeId> switches() const {
    return {switches_.data(), switch_count_};
  }
  /// Per inter-switch hop: the directed-arc slot — the residual-capacity
  /// index the greedy packer charges.
  std::span<const std::uint32_t> arc_slots() const {
    return {arc_slots_.data(), hop_count()};
  }
  /// Per inter-switch hop: the undirected link id (blocked-link filtering,
  /// activation).
  std::span<const LinkId> links() const { return {links_.data(), hop_count()}; }

 private:
  std::size_t hop_count() const { return switch_count_ - 1u; }

  // What a placement's candidate scan reads (count, arc slots, switches)
  // comes first; the links only matter once a path is chosen.
  std::uint8_t switch_count_ = 0;
  std::array<std::uint32_t, kMaxHops> arc_slots_{};
  std::array<NodeId, kMaxSwitches> switches_{};
  std::array<LinkId, kMaxHops> links_{};
};

/// One catalog path: the source's access uplink, a switch route, the
/// destination's access downlink. A view into the catalog, valid as long as
/// the catalog is. Hop h is one of those three parts: hop 0 is the uplink,
/// hops 1 .. hop_count()-2 the route's inter-switch hops, the last the
/// downlink; hot loops read the parts directly, in that order.
class CatalogPath {
 public:
  /// The longest path either topology enumerates: a fat-tree's cross-pod
  /// host-edge-agg-core-agg-edge-host path.
  static constexpr std::size_t kMaxNodes = SwitchRoute::kMaxSwitches + 2;

  CatalogPath(const HostAccess& source, const SwitchRoute& route,
              const HostAccess& destination)
      : source_(&source), route_(&route), destination_(&destination) {}

  const HostAccess& source() const { return *source_; }
  const SwitchRoute& route() const { return *route_; }
  const HostAccess& destination() const { return *destination_; }

  std::size_t node_count() const { return route_->switches().size() + 2; }
  std::size_t hop_count() const { return node_count() - 1; }
  LinkId link(std::size_t hop) const;
  std::uint32_t arc_slot(std::size_t hop) const;
  /// 1 when either endpoint of the hop is a host: the two access hops.
  /// Such hops are charged the unscaled demand — no routing alternative
  /// exists there.
  bool host_adjacent(std::size_t hop) const {
    return hop == 0 || hop + 1 == hop_count();
  }
  /// The node sequence, exactly as Topology::all_paths returned it.
  Path nodes() const;

 private:
  const HostAccess* source_;
  const SwitchRoute* route_;
  const HostAccess* destination_;
};

class PathCatalog {
 public:
  /// The candidate paths of one host pair: the two hosts' access links and
  /// the route list of their access-switch pair, in all_paths order. A
  /// view into the catalog, valid as long as the catalog is.
  class Paths {
   public:
    std::size_t size() const { return routes_.size(); }
    CatalogPath operator[](std::size_t p) const {
      return {*source_, routes_[p], *destination_};
    }
    const HostAccess& source() const { return *source_; }
    const HostAccess& destination() const { return *destination_; }
    /// The shared switch routes (same object for every host pair on the
    /// same two access switches).
    std::span<const SwitchRoute> routes() const { return routes_; }

   private:
    friend class PathCatalog;
    Paths(const HostAccess& source, std::span<const SwitchRoute> routes,
          const HostAccess& destination)
        : source_(&source), routes_(routes), destination_(&destination) {}

    const HostAccess* source_;
    std::span<const SwitchRoute> routes_;
    const HostAccess* destination_;
  };

  /// The topology must outlive the catalog. Throws std::invalid_argument
  /// when a host is not attached to exactly one switch by exactly one link
  /// (the sharing rests on single-homed hosts). Up front the catalog holds
  /// each host's access link; the first lookup allocates one entry pointer
  /// per ordered pair of access switches (128^2 at k=16), and route lists
  /// are filled only for the access pairs actually planned.
  explicit PathCatalog(const Topology* topo);

  const Topology& topology() const { return *topo_; }

  /// The annotated all_paths(src_host, dst_host) list. The first lookup of
  /// an access-switch pair enumerates and annotates its routes under a
  /// catalog-wide lock; every later lookup of any host pair on those two
  /// switches — from any thread — is two acquire loads (the table, then
  /// the entry) and takes no lock.
  /// Host indices must be in [0, num_hosts) (std::out_of_range) and must
  /// differ (std::invalid_argument). Throws std::length_error, on this and
  /// every later lookup of the access pair, when the topology enumerates a
  /// path longer than CatalogPath::kMaxNodes.
  Paths pair(int src_host, int dst_host) const;

 private:
  struct Entry {
    std::vector<SwitchRoute> routes;
    /// What the fill threw, if it threw.
    std::exception_ptr failure;
  };

  const Entry& fill(std::size_t slot, int src_host, int dst_host) const;

  const Topology* topo_;
  std::vector<HostAccess> access_;
  /// Per host: the dense index of its access switch.
  std::vector<std::uint32_t> access_index_;
  std::size_t access_switches_ = 0;
  /// access_switches_^2 slots, row-major by source access switch: null
  /// until filled, then pointing into owned_ and never changed. The table
  /// itself is allocated by the first fill (entry_table_, guarded by
  /// fill_mu_) and published through entries_.
  mutable std::atomic<std::atomic<const Entry*>*> entries_{nullptr};
  mutable std::unique_ptr<std::atomic<const Entry*>[]> entry_table_;
  mutable std::mutex fill_mu_;
  /// The filled entries, guarded by fill_mu_.
  mutable std::vector<std::unique_ptr<const Entry>> owned_;
};

}  // namespace eprons
