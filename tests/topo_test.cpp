// Unit tests for src/topo: graph primitives, fat-tree construction, path
// enumeration, and the Fig. 9 aggregation policies.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "topo/aggregation.h"
#include "topo/fattree.h"
#include "topo/graph.h"
#include "topo/leaf_spine.h"
#include "topo/path_catalog.h"

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

// Asserts that the catalog's entry for one host pair is exactly the
// topology's all_paths list — same order, same annotations — and that a
// second lookup returns the memoized object.
void expect_catalog_matches_all_paths(const Topology& topo,
                                      const PathCatalog& catalog, int src,
                                      int dst) {
  const Graph& g = topo.graph();
  const auto& cached = catalog.pair(src, dst);
  const auto reference = topo.all_paths(src, dst);
  ASSERT_EQ(cached.size(), reference.size()) << src << "->" << dst;
  for (std::size_t p = 0; p < cached.size(); ++p) {
    const Path& path = reference[p];
    EXPECT_EQ(Path(cached[p].nodes().begin(), cached[p].nodes().end()), path)
        << src << "->" << dst;
    ASSERT_EQ(cached[p].arc_slots().size(), path.size() - 1);
    ASSERT_EQ(cached[p].links().size(), path.size() - 1);
    ASSERT_EQ(cached[p].host_adjacent().size(), path.size() - 1);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const LinkId link = g.find_link(path[h], path[h + 1]);
      const bool forward = g.link(link).a == path[h];
      EXPECT_EQ(cached[p].links()[h], link);
      EXPECT_EQ(cached[p].arc_slots()[h],
                static_cast<std::uint32_t>(link) * 2 + (forward ? 0u : 1u));
      EXPECT_EQ(cached[p].host_adjacent()[h] != 0,
                !g.is_switch(path[h]) || !g.is_switch(path[h + 1]));
    }
    Path switches;
    for (NodeId n : path) {
      if (g.is_switch(n)) switches.push_back(n);
    }
    EXPECT_EQ(
        Path(cached[p].switches().begin(), cached[p].switches().end()),
        switches)
        << src << "->" << dst;
  }
  // Second lookup hits the memoized entry and must be the same object.
  EXPECT_EQ(&catalog.pair(src, dst), &cached);
}

TEST(PathCatalog, SparseStorageMatchesAllPathsAtK16) {
  // The catalog's sparse shards must return exactly the all_paths list —
  // same order, same annotations — at the scale the dense layout could
  // not reach (1024 hosts would be 1M dense slots).
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

// Two hosts joined by a chain of six switches: its one path has 8 nodes,
// one more than CatalogPath holds.
class ChainTopology final : public Topology {
 public:
  ChainTopology() {
    path_.push_back(graph_.add_node(NodeType::Host, 0, 0, "h0"));
    for (int i = 0; i < 6; ++i) {
      path_.push_back(graph_.add_node(NodeType::EdgeSwitch, 0, i,
                                      "s" + std::to_string(i)));
    }
    path_.push_back(graph_.add_node(NodeType::Host, 0, 1, "h1"));
    for (std::size_t i = 0; i + 1 < path_.size(); ++i) {
      graph_.add_link(path_[i], path_[i + 1], 1000.0);
    }
  }
  const Graph& graph() const override { return graph_; }
  int num_hosts() const override { return 2; }
  int num_switches() const override { return 6; }
  Bandwidth link_capacity() const override { return 1000.0; }
  NodeId host(int index) const override {
    return index == 0 ? path_.front() : path_.back();
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
  Path path_;
};

TEST(PathCatalog, RejectsPathLongerThanCapacity) {
  const ChainTopology chain;
  ASSERT_EQ(chain.all_paths(0, 1).front().size(), CatalogPath::kMaxNodes + 1);
  const PathCatalog catalog(&chain);
  EXPECT_THROW(catalog.pair(0, 1), std::length_error);
  // A later lookup throws again rather than returning an empty list.
  EXPECT_THROW(catalog.pair(0, 1), std::length_error);
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
