// Unit tests for src/topo: graph primitives, fat-tree construction, path
// enumeration, and the Fig. 9 aggregation policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "topo/aggregation.h"
#include "topo/fattree.h"
#include "topo/graph.h"
#include "topo/leaf_spine.h"
#include "topo/path_catalog.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace eprons {
namespace {

TEST(Graph, AddAndQuery) {
  Graph g;
  const NodeId a = g.add_node(NodeType::Host, 0, 0, "a");
  const NodeId b = g.add_node(NodeType::EdgeSwitch, 0, 0, "b");
  const LinkId l = g.add_link(a, b, 1000.0);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_links(), 1u);
  EXPECT_EQ(g.other_end(l, a), b);
  EXPECT_EQ(g.other_end(l, b), a);
  EXPECT_EQ(g.find_link(a, b), l);
  EXPECT_EQ(g.find_link(b, a), l);
  EXPECT_FALSE(g.is_switch(a));
  EXPECT_TRUE(g.is_switch(b));
}

TEST(Graph, RejectsBadLinks) {
  Graph g;
  const NodeId a = g.add_node(NodeType::Host, 0, 0, "a");
  const NodeId b = g.add_node(NodeType::Host, 0, 1, "b");
  EXPECT_THROW(g.add_link(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_link(a, b, 0.0), std::invalid_argument);
  g.add_link(a, b, 1.0);
  EXPECT_THROW(g.add_link(b, a, 1.0), std::invalid_argument);  // duplicate
}

TEST(Graph, PathLinksValidatesAdjacency) {
  Graph g;
  const NodeId a = g.add_node(NodeType::Host, 0, 0, "a");
  const NodeId b = g.add_node(NodeType::EdgeSwitch, 0, 0, "b");
  const NodeId c = g.add_node(NodeType::Host, 0, 1, "c");
  g.add_link(a, b, 1.0);
  g.add_link(b, c, 1.0);
  const auto links = g.path_links({a, b, c});
  EXPECT_EQ(links.size(), 2u);
  EXPECT_THROW(g.path_links({a, c}), std::invalid_argument);
}

TEST(FatTree, K4Dimensions) {
  const FatTree ft(4);
  EXPECT_EQ(ft.num_hosts(), 16);
  EXPECT_EQ(ft.num_core(), 4);
  EXPECT_EQ(ft.num_agg(), 8);
  EXPECT_EQ(ft.num_edge(), 8);
  EXPECT_EQ(ft.num_switches(), 20);
  EXPECT_EQ(ft.graph().num_nodes(), 36u);  // 16 hosts + 20 switches
  // Links: 16 host-edge + 16 edge-agg (4 per pod * 4 pods) + 16 agg-core.
  EXPECT_EQ(ft.graph().num_links(), 48u);
}

TEST(FatTree, K8Dimensions) {
  const FatTree ft(8);
  EXPECT_EQ(ft.num_hosts(), 128);
  EXPECT_EQ(ft.num_core(), 16);
  EXPECT_EQ(ft.num_switches(), 16 + 32 + 32);
}

TEST(FatTree, K16Dimensions) {
  // The hierarchical consolidator's target scale: no dense hosts^2
  // structure anywhere in the topology layer may be hit building it.
  const FatTree ft(16);
  EXPECT_EQ(ft.num_hosts(), 1024);
  EXPECT_EQ(ft.num_core(), 64);
  EXPECT_EQ(ft.num_agg(), 128);
  EXPECT_EQ(ft.num_edge(), 128);
  EXPECT_EQ(ft.num_pods(), 16);
  EXPECT_EQ(ft.hosts_per_pod(), 64);
  // 1024 host-edge + 1024 edge-agg + 1024 agg-core links.
  EXPECT_EQ(ft.graph().num_links(), 3072u);
}

TEST(FatTree, PodOfHostMatchesNodeMetadata) {
  // Regression: pod_of_host used a wrong divisor (k/4 instead of
  // (k/2)^2), mis-bucketing every host for every k. The node's own pod
  // annotation is ground truth.
  for (const int k : {4, 6, 8, 16}) {
    const FatTree ft(k);
    EXPECT_EQ(ft.hosts_per_pod() * ft.num_pods(), ft.num_hosts()) << k;
    for (int h = 0; h < ft.num_hosts(); ++h) {
      EXPECT_EQ(ft.pod_of_host(h), ft.graph().node(ft.host(h)).pod)
          << "k=" << k << " host " << h;
    }
  }
}

TEST(FatTree, PodSwitchMaskCoversExactlyThePodsEdgeAndAgg) {
  for (const int k : {4, 8}) {
    const FatTree ft(k);
    const Graph& g = ft.graph();
    for (int pod = 0; pod < ft.num_pods(); ++pod) {
      const std::vector<bool> mask = ft.pod_switch_mask(pod);
      ASSERT_EQ(mask.size(), static_cast<std::size_t>(g.num_nodes()));
      for (const Node& n : g.nodes()) {
        const bool expected =
            (n.type == NodeType::EdgeSwitch || n.type == NodeType::AggSwitch) &&
            n.pod == pod;
        EXPECT_EQ(mask[static_cast<std::size_t>(n.id)], expected)
            << "k=" << k << " pod " << pod << " node " << n.name;
      }
    }
  }
}

// Asserts that the catalog's view of one host pair is exactly the
// topology's all_paths list — same order, same annotations, read both hop
// by hop and through the three parts the packer reads (access uplink,
// route hops, access downlink) — and that a second lookup returns the
// memoized route list.
void expect_catalog_matches_all_paths(const Topology& topo,
                                      const PathCatalog& catalog, int src,
                                      int dst) {
  const Graph& g = topo.graph();
  const PathCatalog::Paths cached = catalog.pair(src, dst);
  const auto reference = topo.all_paths(src, dst);
  ASSERT_EQ(cached.size(), reference.size()) << src << "->" << dst;
  ASSERT_EQ(cached.routes().size(), reference.size()) << src << "->" << dst;
  for (std::size_t p = 0; p < cached.size(); ++p) {
    const Path& path = reference[p];
    const CatalogPath cp = cached[p];
    EXPECT_EQ(cp.nodes(), path) << src << "->" << dst;
    ASSERT_EQ(cp.node_count(), path.size());
    ASSERT_EQ(cp.hop_count(), path.size() - 1);

    std::vector<LinkId> links;
    std::vector<std::uint32_t> arc_slots;
    std::vector<bool> host_adjacent;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const LinkId link = g.find_link(path[h], path[h + 1]);
      const bool forward = g.link(link).a == path[h];
      links.push_back(link);
      arc_slots.push_back(static_cast<std::uint32_t>(link) * 2 +
                          (forward ? 0u : 1u));
      host_adjacent.push_back(!g.is_switch(path[h]) ||
                              !g.is_switch(path[h + 1]));
    }
    std::vector<LinkId> hop_links;
    std::vector<std::uint32_t> hop_slots;
    std::vector<bool> hop_host_adjacent;
    for (std::size_t h = 0; h < cp.hop_count(); ++h) {
      hop_links.push_back(cp.link(h));
      hop_slots.push_back(cp.arc_slot(h));
      hop_host_adjacent.push_back(cp.host_adjacent(h));
    }
    EXPECT_EQ(hop_links, links) << src << "->" << dst;
    EXPECT_EQ(hop_slots, arc_slots) << src << "->" << dst;
    EXPECT_EQ(hop_host_adjacent, host_adjacent) << src << "->" << dst;

    // The parts, in the packer's hop order.
    const SwitchRoute& route = cp.route();
    EXPECT_EQ(&route, &cached.routes()[p]);
    EXPECT_EQ(cp.source().host, path.front());
    EXPECT_EQ(cp.source().access_switch, path[1]);
    EXPECT_EQ(cp.destination().host, path.back());
    EXPECT_EQ(cp.destination().access_switch, path[path.size() - 2]);
    std::vector<LinkId> part_links{cp.source().link};
    part_links.insert(part_links.end(), route.links().begin(),
                      route.links().end());
    part_links.push_back(cp.destination().link);
    EXPECT_EQ(part_links, links) << src << "->" << dst;
    std::vector<std::uint32_t> part_slots{cp.source().uplink_slot};
    part_slots.insert(part_slots.end(), route.arc_slots().begin(),
                      route.arc_slots().end());
    part_slots.push_back(cp.destination().downlink_slot());
    EXPECT_EQ(part_slots, arc_slots) << src << "->" << dst;

    Path switches;
    for (NodeId n : path) {
      if (g.is_switch(n)) switches.push_back(n);
    }
    EXPECT_EQ(Path(route.switches().begin(), route.switches().end()),
              switches)
        << src << "->" << dst;
  }
  // Second lookup hits the memoized entry and must be the same route list.
  const PathCatalog::Paths again = catalog.pair(src, dst);
  EXPECT_EQ(again.routes().data(), cached.routes().data());
  EXPECT_EQ(again.routes().size(), cached.routes().size());
}

void expect_every_pair_matches_all_paths(const Topology& topo) {
  const PathCatalog catalog(&topo);
  for (int src = 0; src < topo.num_hosts(); ++src) {
    for (int dst = 0; dst < topo.num_hosts(); ++dst) {
      if (src == dst) continue;
      expect_catalog_matches_all_paths(topo, catalog, src, dst);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(PathCatalog, EveryPairMatchesAllPathsOnFatTreeK4) {
  expect_every_pair_matches_all_paths(FatTree(4));
}

TEST(PathCatalog, EveryPairMatchesAllPathsOnFatTreeK8) {
  expect_every_pair_matches_all_paths(FatTree(8));
}

TEST(PathCatalog, EveryPairMatchesAllPathsOnLeafSpine) {
  expect_every_pair_matches_all_paths(LeafSpine(4, 3, 2));
}

TEST(PathCatalog, SparseStorageMatchesAllPathsAtK16) {
  // The catalog's entries must return exactly the all_paths list — same
  // order, same annotations — at the planner's largest scale.
  const FatTree ft(16);
  const PathCatalog catalog(&ft);
  // Same edge, same pod, cross pod; plus the last pair in the machine.
  const std::pair<int, int> pairs[] = {
      {0, 1}, {0, 9}, {0, 1023}, {517, 201}, {1023, 0}};
  for (const auto& [src, dst] : pairs) {
    expect_catalog_matches_all_paths(ft, catalog, src, dst);
  }
}

TEST(PathCatalog, MatchesAllPathsOnLeafSpine) {
  const LeafSpine ls(4, 3, 2);
  const PathCatalog catalog(&ls);
  // Same leaf (one path), different leaves (one per spine), both ways.
  const std::pair<int, int> pairs[] = {{0, 1}, {0, 7}, {7, 0}, {2, 5}};
  for (const auto& [src, dst] : pairs) {
    expect_catalog_matches_all_paths(ls, catalog, src, dst);
  }
}

TEST(PathCatalog, HostPairsOnTheSameAccessSwitchesShareOneRouteList) {
  // FatTree(4): hosts 0, 1 sit on edge (0, 0), hosts 2, 3 on edge (0, 1),
  // hosts 4, 5 on edge (1, 0).
  const FatTree ft(4);
  const PathCatalog catalog(&ft);
  const PathCatalog::Paths a = catalog.pair(0, 2);
  const PathCatalog::Paths b = catalog.pair(1, 3);
  EXPECT_EQ(a.routes().data(), b.routes().data());
  EXPECT_EQ(catalog.pair(0, 3).routes().data(), a.routes().data());
  // The views still carry their own hosts.
  EXPECT_EQ(a[0].nodes().front(), ft.host(0));
  EXPECT_EQ(b[0].nodes().front(), ft.host(1));
  EXPECT_EQ(b[0].nodes().back(), ft.host(3));
  // The reverse direction and another destination switch are other lists.
  EXPECT_NE(catalog.pair(2, 0).routes().data(), a.routes().data());
  EXPECT_NE(catalog.pair(0, 4).routes().data(), a.routes().data());
  // Both directions within one edge switch share its one-switch route.
  EXPECT_EQ(catalog.pair(0, 1).routes().data(),
            catalog.pair(1, 0).routes().data());

  // Across every ordered host pair there is one list per ordered pair of
  // edge switches: 240 host pairs, 8 x 8 route lists.
  std::set<const SwitchRoute*> lists;
  for (int src = 0; src < ft.num_hosts(); ++src) {
    for (int dst = 0; dst < ft.num_hosts(); ++dst) {
      if (src != dst) lists.insert(catalog.pair(src, dst).routes().data());
    }
  }
  EXPECT_EQ(lists.size(), static_cast<std::size_t>(ft.num_edge() *
                                                   ft.num_edge()));
}

TEST(PathCatalog, RejectsSameHostAndOutOfRangePairs) {
  const FatTree ft(4);
  const PathCatalog catalog(&ft);
  EXPECT_THROW(catalog.pair(3, 3), std::invalid_argument);
  // Filling the access pair (edge of host 3, same edge) changes nothing.
  ASSERT_EQ(catalog.pair(2, 3).size(), 1u);
  EXPECT_THROW(catalog.pair(3, 3), std::invalid_argument);
  EXPECT_THROW(catalog.pair(-1, 3), std::out_of_range);
  EXPECT_THROW(catalog.pair(3, ft.num_hosts()), std::out_of_range);
}

// A hand-wired topology for the catalog's edge cases: the graph is built
// by the test, all_paths returns the one path given per direction.
class WiredTopology final : public Topology {
 public:
  Graph& mutable_graph() { return graph_; }
  void set_hosts(NodeId h0, NodeId h1) { hosts_ = {h0, h1}; }
  void set_path(Path path) { path_ = std::move(path); }

  const Graph& graph() const override { return graph_; }
  int num_hosts() const override { return 2; }
  int num_switches() const override {
    return static_cast<int>(graph_.switches().size());
  }
  Bandwidth link_capacity() const override { return 1000.0; }
  NodeId host(int index) const override {
    return hosts_[static_cast<std::size_t>(index)];
  }
  int hosts_per_access_switch() const override { return 1; }
  std::vector<Path> all_paths(int src_host, int) const override {
    return {src_host == 0 ? path_ : Path(path_.rbegin(), path_.rend())};
  }
  std::vector<Path> active_paths(int src_host, int dst_host,
                                 const std::vector<bool>&) const override {
    return all_paths(src_host, dst_host);
  }

 private:
  Graph graph_;
  std::array<NodeId, 2> hosts_{};
  Path path_;
};

// Two hosts joined by a chain of `switches` switches.
void wire_chain(WiredTopology& topo, int switches) {
  Graph& g = topo.mutable_graph();
  Path path{g.add_node(NodeType::Host, 0, 0, "h0")};
  for (int i = 0; i < switches; ++i) {
    std::string name = "s";  // appended: "s" + ... trips GCC 12 -Wrestrict
    name += std::to_string(i);
    path.push_back(g.add_node(NodeType::EdgeSwitch, 0, i, std::move(name)));
  }
  path.push_back(g.add_node(NodeType::Host, 0, 1, "h1"));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    g.add_link(path[i], path[i + 1], 1000.0);
  }
  topo.set_hosts(path.front(), path.back());
  topo.set_path(std::move(path));
}

TEST(PathCatalog, RejectsPathLongerThanCapacity) {
  // Six switches: the one path has 8 nodes, one more than the catalog
  // holds.
  WiredTopology chain;
  wire_chain(chain, 6);
  ASSERT_EQ(chain.all_paths(0, 1).front().size(), CatalogPath::kMaxNodes + 1);
  const PathCatalog catalog(&chain);
  EXPECT_THROW(catalog.pair(0, 1), std::length_error);
  // A later lookup throws again rather than returning an empty list.
  EXPECT_THROW(catalog.pair(0, 1), std::length_error);

  // Five switches fit exactly.
  WiredTopology longest;
  wire_chain(longest, 5);
  const PathCatalog fits(&longest);
  expect_catalog_matches_all_paths(longest, fits, 0, 1);
  expect_catalog_matches_all_paths(longest, fits, 1, 0);
}

TEST(PathCatalog, RejectsHostsNotSingleHomed) {
  // Host h0 is dual-homed on s0 and s1.
  WiredTopology dual;
  Graph& g = dual.mutable_graph();
  const NodeId h0 = g.add_node(NodeType::Host, 0, 0, "h0");
  const NodeId s0 = g.add_node(NodeType::EdgeSwitch, 0, 0, "s0");
  const NodeId s1 = g.add_node(NodeType::EdgeSwitch, 0, 1, "s1");
  const NodeId h1 = g.add_node(NodeType::Host, 0, 1, "h1");
  g.add_link(h0, s0, 1000.0);
  g.add_link(h0, s1, 1000.0);
  g.add_link(s0, s1, 1000.0);
  g.add_link(s1, h1, 1000.0);
  dual.set_hosts(h0, h1);
  dual.set_path({h0, s1, h1});
  EXPECT_THROW(PathCatalog{&dual}, std::invalid_argument);

  // Two hosts wired to each other have no access switch.
  WiredTopology direct;
  Graph& d = direct.mutable_graph();
  const NodeId a = d.add_node(NodeType::Host, 0, 0, "a");
  const NodeId b = d.add_node(NodeType::Host, 0, 1, "b");
  d.add_link(a, b, 1000.0);
  direct.set_hosts(a, b);
  direct.set_path({a, b});
  EXPECT_THROW(PathCatalog{&direct}, std::invalid_argument);
}

// True when two views list the same paths: same hosts, same per-hop and
// per-node data, same order.
bool same_paths(const PathCatalog::Paths& a, const PathCatalog::Paths& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const CatalogPath x = a[p];
    const CatalogPath y = b[p];
    if (x.nodes() != y.nodes() || x.hop_count() != y.hop_count()) {
      return false;
    }
    for (std::size_t h = 0; h < x.hop_count(); ++h) {
      if (x.link(h) != y.link(h) || x.arc_slot(h) != y.arc_slot(h) ||
          x.host_adjacent(h) != y.host_adjacent(h)) {
        return false;
      }
    }
  }
  return true;
}

TEST(PathCatalog, ConcurrentFirstUseMatchesSerialFill) {
  // Pool workers race to fill fresh catalogs: every ordered host pair of
  // FatTree(8), shuffled, so many lookups of one access pair are in flight
  // while its entry is filled. Each view must equal the serially filled
  // catalog's, and all host pairs of an access pair must end on one list.
  const FatTree ft(8);
  const PathCatalog serial(&ft);
  std::vector<std::pair<int, int>> pairs;
  for (int src = 0; src < ft.num_hosts(); ++src) {
    for (int dst = 0; dst < ft.num_hosts(); ++dst) {
      if (src == dst) continue;
      pairs.emplace_back(src, dst);
      serial.pair(src, dst);
    }
  }
  ThreadPool pool(4);
  Rng rng(2024);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(pairs.begin(), pairs.end(), rng);
    const PathCatalog concurrent(&ft);
    std::vector<const SwitchRoute*> lists(pairs.size());
    std::vector<std::uint8_t> equal(pairs.size(), 0);
    parallel_for(&pool, pairs.size(), [&](std::size_t i) {
      const auto [src, dst] = pairs[i];
      const PathCatalog::Paths view = concurrent.pair(src, dst);
      lists[i] = view.routes().data();
      equal[i] = same_paths(view, serial.pair(src, dst)) ? 1 : 0;
    });
    std::map<std::pair<NodeId, NodeId>, const SwitchRoute*> by_access;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto [src, dst] = pairs[i];
      EXPECT_EQ(equal[i], 1) << "round " << round << " " << src << "->"
                             << dst;
      const PathCatalog::Paths view = serial.pair(src, dst);
      const auto key = std::make_pair(view.source().access_switch,
                                      view.destination().access_switch);
      const auto [it, inserted] = by_access.emplace(key, lists[i]);
      if (!inserted) {
        EXPECT_EQ(it->second, lists[i]) << src << "->" << dst;
      }
    }
    EXPECT_EQ(by_access.size(),
              static_cast<std::size_t>(ft.num_edge() * ft.num_edge()));
  }
}

TEST(FatTree, RejectsOddK) {
  EXPECT_THROW(FatTree(3), std::invalid_argument);
  EXPECT_THROW(FatTree(0), std::invalid_argument);
}

TEST(FatTree, NodeDegrees) {
  const FatTree ft(4);
  const Graph& g = ft.graph();
  for (const Node& n : g.nodes()) {
    const auto degree = g.links_of(n.id).size();
    switch (n.type) {
      case NodeType::Host: EXPECT_EQ(degree, 1u); break;
      case NodeType::EdgeSwitch: EXPECT_EQ(degree, 4u); break;  // 2 hosts+2 agg
      case NodeType::AggSwitch: EXPECT_EQ(degree, 4u); break;   // 2 edge+2 core
      case NodeType::CoreSwitch: EXPECT_EQ(degree, 4u); break;  // 1 agg per pod
    }
  }
}

TEST(FatTree, CoreWiringRowConvention) {
  // core(row, col) must connect to agg `row` of every pod.
  const FatTree ft(4);
  const Graph& g = ft.graph();
  for (int row = 0; row < 2; ++row) {
    for (int col = 0; col < 2; ++col) {
      for (int pod = 0; pod < 4; ++pod) {
        EXPECT_NE(g.find_link(ft.core(row, col), ft.agg(pod, row)),
                  kInvalidLink);
        EXPECT_EQ(g.find_link(ft.core(row, col), ft.agg(pod, 1 - row)),
                  kInvalidLink);
      }
    }
  }
}

TEST(FatTree, PathCounts) {
  const FatTree ft(4);
  // Same edge switch (hosts 0 and 1): one 2-hop path.
  EXPECT_EQ(ft.all_paths(0, 1).size(), 1u);
  // Same pod, different edge (hosts 0 and 2): k/2 = 2 paths.
  EXPECT_EQ(ft.all_paths(0, 2).size(), 2u);
  // Different pods (hosts 0 and 15): (k/2)^2 = 4 paths.
  EXPECT_EQ(ft.all_paths(0, 15).size(), 4u);
}

TEST(FatTree, PathsAreValidAndLoopFree) {
  const FatTree ft(4);
  const Graph& g = ft.graph();
  for (int dst = 1; dst < 16; ++dst) {
    for (const Path& p : ft.all_paths(0, dst)) {
      EXPECT_EQ(p.front(), ft.host(0));
      EXPECT_EQ(p.back(), ft.host(dst));
      EXPECT_NO_THROW(g.path_links(p));  // adjacency holds hop by hop
      const std::set<NodeId> unique(p.begin(), p.end());
      EXPECT_EQ(unique.size(), p.size());  // loop-free
    }
  }
}

TEST(FatTree, RejectsSelfPath) {
  const FatTree ft(4);
  EXPECT_THROW(ft.all_paths(3, 3), std::invalid_argument);
}

TEST(FatTree, ActivePathsFilterBySwitchMask) {
  const FatTree ft(4);
  std::vector<bool> all_on(ft.graph().num_nodes(), true);
  EXPECT_EQ(ft.active_paths(0, 15, all_on).size(), 4u);
  // Turn off core row 1: only paths through row 0 cores remain.
  std::vector<bool> mask = all_on;
  mask[static_cast<std::size_t>(ft.core(1, 0))] = false;
  mask[static_cast<std::size_t>(ft.core(1, 1))] = false;
  EXPECT_EQ(ft.active_paths(0, 15, mask).size(), 2u);
}

TEST(Aggregation, ActiveSwitchCountsMatchDesign) {
  const FatTree ft(4);
  const AggregationPolicies policies(&ft);
  EXPECT_EQ(policies.max_level(), 3);
  const std::vector<int> expect = {20, 18, 14, 13};
  for (int level = 0; level <= 3; ++level) {
    EXPECT_EQ(policies.policy(level).active_switches, expect[static_cast<std::size_t>(level)])
        << "level " << level;
  }
}

TEST(Aggregation, MonotoneShrinking) {
  const FatTree ft(4);
  const AggregationPolicies policies(&ft);
  // Every switch on at level L+1 is also on at level L.
  for (int level = 0; level < policies.max_level(); ++level) {
    const auto a = policies.policy(level).switch_on;
    const auto b = policies.policy(level + 1).switch_on;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (b[i]) {
        EXPECT_TRUE(a[i]) << "node " << i << " level " << level;
      }
    }
  }
}

TEST(Aggregation, AllLevelsKeepHostsConnected) {
  const FatTree ft(4);
  const AggregationPolicies policies(&ft);
  const auto hosts = ft.graph().hosts();
  for (int level = 0; level <= policies.max_level(); ++level) {
    const auto policy = policies.policy(level);
    EXPECT_TRUE(ft.graph().connected(hosts[0], hosts, policy.switch_on))
        << "level " << level;
  }
}

TEST(Aggregation, EdgeSwitchesNeverTurnOff) {
  const FatTree ft(4);
  const AggregationPolicies policies(&ft);
  for (int level = 0; level <= policies.max_level(); ++level) {
    const auto policy = policies.policy(level);
    for (int pod = 0; pod < 4; ++pod) {
      for (int e = 0; e < 2; ++e) {
        EXPECT_TRUE(policy.switch_on[static_cast<std::size_t>(ft.edge(pod, e))]);
      }
    }
  }
}

TEST(Aggregation, OutOfRangeThrows) {
  const FatTree ft(4);
  const AggregationPolicies policies(&ft);
  EXPECT_THROW(policies.policy(-1), std::out_of_range);
  EXPECT_THROW(policies.policy(4), std::out_of_range);
}

TEST(Aggregation, LargerFatTreeHasMoreLevels) {
  const FatTree ft(8);
  const AggregationPolicies policies(&ft);
  EXPECT_EQ(policies.max_level(), 7);
  const auto hosts = ft.graph().hosts();
  for (int level = 0; level <= policies.max_level(); ++level) {
    const auto policy = policies.policy(level);
    EXPECT_TRUE(ft.graph().connected(hosts[0], hosts, policy.switch_on))
        << "level " << level;
  }
  // Minimal level for k=8: 1 core + 8 agg (1 per pod) + 32 edge = 41.
  EXPECT_EQ(policies.policy(7).active_switches, 41);
}

}  // namespace
}  // namespace eprons
