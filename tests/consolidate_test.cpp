// Tests for src/consolidate: the Fig. 2 scenario end-to-end on the exact
// MILP, greedy-vs-MILP agreement, the arc LP lower bound, and edge cases.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "consolidate/arc_lp.h"
#include "consolidate/greedy_consolidator.h"
#include "consolidate/hierarchical_consolidator.h"
#include "consolidate/milp_consolidator.h"
#include "golden_digest.h"
#include "sim/search_cluster.h"
#include "topo/aggregation.h"
#include "topo/path_catalog.h"
#include "util/rng.h"

namespace eprons {
namespace {

// The Fig. 2 flow mix: one 900 Mbps latency-tolerant elephant plus two
// 20 Mbps latency-sensitive flows on a 4-ary fat-tree with 1 Gbps links and
// a 50 Mbps safety margin. Endpoints chosen in different pods so paths
// traverse the core (as drawn in the figure).
FlowSet fig2_flows() {
  FlowSet flows;
  flows.add(0, 12, 900.0, FlowClass::LatencyTolerant);   // red elephant
  flows.add(1, 13, 20.0, FlowClass::LatencySensitive);   // green
  flows.add(2, 14, 20.0, FlowClass::LatencySensitive);   // blue
  return flows;
}

ConsolidationConfig fig2_config(double k) {
  ConsolidationConfig config;
  config.scale_factor_k = k;
  config.safety_margin = 50.0;
  config.switch_power = 36.0;
  return config;
}

TEST(MilpConsolidator, Fig2AtK1SharesPath) {
  const FatTree ft(4);
  const MilpConsolidator milp(&ft);
  const auto result = milp.consolidate(fig2_flows(), fig2_config(1.0));
  ASSERT_TRUE(result.feasible);
  // 900 + 20 + 20 = 940 <= 950: all three flows share one agg/core spine.
  // Hosts 0,1 sit under edge e0_0 and host 2 under e0_1 (likewise pod 3),
  // so the minimal subnet is 4 edge + 2 agg + 1 core = 7 switches.
  EXPECT_EQ(result.active_switches, 7);
}

TEST(MilpConsolidator, Fig2AtK2SplitsOneFlow) {
  const FatTree ft(4);
  const MilpConsolidator milp(&ft);
  const auto result = milp.consolidate(fig2_flows(), fig2_config(2.0));
  ASSERT_TRUE(result.feasible);
  // 900 + 40 + 40 = 980 > 950: at least one latency-sensitive flow must
  // move to a second path, activating more switches.
  EXPECT_GT(result.active_switches, 7);
  // Verify capacity respected: no directed arc carries more than 950 of
  // *scaled* demand.
  LinkUtilization scaled(&ft.graph());
  const FlowSet flows = fig2_flows();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    scaled.add_path_load(result.flow_paths[i], flows[i].scaled_demand(2.0));
  }
  EXPECT_LE(scaled.max_utilization(), 0.95 + 1e-9);
}

TEST(MilpConsolidator, Fig2ActiveSwitchesMonotoneInK) {
  const FatTree ft(4);
  const MilpConsolidator milp(&ft);
  int prev = 0;
  for (double k = 1.0; k <= 3.0; k += 1.0) {
    const auto result = milp.consolidate(fig2_flows(), fig2_config(k));
    ASSERT_TRUE(result.feasible) << "K=" << k;
    EXPECT_GE(result.active_switches, prev) << "K=" << k;
    prev = result.active_switches;
  }
}

TEST(MilpConsolidator, EmptyFlowSetTurnsEverythingOff) {
  const FatTree ft(4);
  const MilpConsolidator milp(&ft);
  const auto result = milp.consolidate(FlowSet{}, fig2_config(1.0));
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.active_switches, 0);
  EXPECT_DOUBLE_EQ(result.network_power, 0.0);
}

TEST(MilpConsolidator, InfeasibleWhenDemandExceedsAllCuts) {
  const FatTree ft(4);
  FlowSet flows;
  // Host 0 has a single 1 Gbps uplink; 2 x 600 Mbps from host 0 can never fit.
  flows.add(0, 5, 600.0, FlowClass::LatencyTolerant);
  flows.add(0, 9, 600.0, FlowClass::LatencyTolerant);
  const MilpConsolidator milp(&ft);
  const auto result = milp.consolidate(flows, fig2_config(1.0));
  EXPECT_FALSE(result.feasible);
}

TEST(MilpConsolidator, PathsConnectEndpoints) {
  const FatTree ft(4);
  const MilpConsolidator milp(&ft);
  const FlowSet flows = fig2_flows();
  const auto result = milp.consolidate(flows, fig2_config(2.0));
  ASSERT_TRUE(result.feasible);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ASSERT_GE(result.flow_paths[i].size(), 2u);
    EXPECT_EQ(result.flow_paths[i].front(), ft.host(flows[i].src_host));
    EXPECT_EQ(result.flow_paths[i].back(), ft.host(flows[i].dst_host));
  }
}

TEST(MilpConsolidator, ZeroDemandFlowStillGetsAPoweredPath) {
  const FatTree ft(4);
  FlowSet flows;
  flows.add(0, 15, 0.0, FlowClass::LatencySensitive);
  const MilpConsolidator milp(&ft);
  const auto result = milp.consolidate(flows, fig2_config(1.0));
  ASSERT_TRUE(result.feasible);
  ASSERT_GE(result.flow_paths[0].size(), 2u);
  // Its whole path must be marked on.
  for (NodeId n : result.flow_paths[0]) {
    EXPECT_TRUE(result.switch_on[static_cast<std::size_t>(n)]);
  }
}

TEST(GreedyConsolidator, Fig2MatchesMilpSwitchCountAtK1) {
  const FatTree ft(4);
  const GreedyConsolidator greedy(&ft);
  const auto result = greedy.consolidate(fig2_flows(), fig2_config(1.0));
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.active_switches, 7);
}

TEST(GreedyConsolidator, NeverBeatsMilp) {
  // Property: on random feasible instances the greedy objective is >= MILP.
  const FatTree ft(4);
  const MilpConsolidator milp(&ft);
  const GreedyConsolidator greedy(&ft);
  Rng rng(53);
  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    FlowSet flows;
    const int n = 4 + static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < n; ++i) {
      const int src = static_cast<int>(rng.uniform_int(0, 15));
      int dst = src;
      while (dst == src) dst = static_cast<int>(rng.uniform_int(0, 15));
      flows.add(src, dst, rng.uniform(50.0, 400.0),
                rng.bernoulli(0.5) ? FlowClass::LatencySensitive
                                   : FlowClass::LatencyTolerant);
    }
    const auto config = fig2_config(1.0);
    const auto exact = milp.consolidate(flows, config);
    const auto heur = greedy.consolidate(flows, config);
    if (!exact.feasible || !heur.feasible) continue;
    EXPECT_GE(heur.active_switches, exact.active_switches) << "trial " << trial;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(GreedyConsolidator, RespectsCapacityWhenFeasible) {
  const FatTree ft(4);
  const GreedyConsolidator greedy(&ft);
  Rng rng(59);
  FlowSet flows;
  for (int i = 0; i < 12; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, 15));
    int dst = src;
    while (dst == src) dst = static_cast<int>(rng.uniform_int(0, 15));
    flows.add(src, dst, rng.uniform(10.0, 200.0), FlowClass::LatencyTolerant);
  }
  const auto config = fig2_config(1.0);
  const auto result = greedy.consolidate(flows, config);
  ASSERT_TRUE(result.feasible);
  LinkUtilization load(&ft.graph());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    load.add_path_load(result.flow_paths[i], flows[i].demand);
  }
  EXPECT_LE(load.max_utilization(), 0.95 + 1e-9);
}

TEST(GreedyConsolidator, OverflowReportedWhenImpossible) {
  const FatTree ft(4);
  const GreedyConsolidator greedy(&ft);
  FlowSet flows;
  flows.add(0, 5, 600.0, FlowClass::LatencyTolerant);
  flows.add(0, 9, 600.0, FlowClass::LatencyTolerant);
  const auto result = greedy.consolidate(flows, fig2_config(1.0));
  EXPECT_FALSE(result.feasible);
  // Best-effort still produced usable paths for the simulator.
  EXPECT_GE(result.flow_paths[0].size(), 2u);
  EXPECT_GE(result.flow_paths[1].size(), 2u);
}

TEST(ArcLp, LowerBoundsMilp) {
  const FatTree ft(4);
  const ArcLpRelaxation relax(&ft);
  const MilpConsolidator milp(&ft);
  const auto config = fig2_config(2.0);
  const FlowSet flows = fig2_flows();
  const auto bound = relax.solve(flows, config);
  ASSERT_EQ(bound.status, lp::SolveStatus::Optimal);
  const auto exact = milp.consolidate(flows, config);
  ASSERT_TRUE(exact.feasible);
  EXPECT_LE(bound.network_power_bound, exact.network_power + 1e-6);
  EXPECT_GT(bound.network_power_bound, 0.0);
}

TEST(ArcLp, InfeasibleDetected) {
  const FatTree ft(4);
  const ArcLpRelaxation relax(&ft);
  FlowSet flows;
  flows.add(0, 5, 600.0, FlowClass::LatencyTolerant);
  flows.add(0, 9, 600.0, FlowClass::LatencyTolerant);
  const auto bound = relax.solve(flows, fig2_config(1.0));
  EXPECT_EQ(bound.status, lp::SolveStatus::Infeasible);
}

// Differential harness: on seeded random instances — healthy and degraded
// (one agg + one core switch disallowed, one fabric link blocked, the shape
// the fault-recovery path feeds the consolidators) — greedy and MILP must
// both produce capacity-respecting, connected placements, with the greedy
// objective within a bounded factor of the exact optimum.
struct DifferentialStats {
  int compared = 0;
  double worst_ratio = 1.0;
};

void check_placement_valid(const Graph& g, const FlowSet& flows,
                           const ConsolidationConfig& config,
                           const ConsolidationResult& result,
                           const char* tag) {
  LinkUtilization scaled(&g);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Path& path = result.flow_paths[i];
    ASSERT_GE(path.size(), 2u) << tag << " flow " << i;
    // Connected: consecutive hops are adjacent, all switches powered,
    // none disallowed, no hop over a blocked link.
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const LinkId link = g.find_link(path[h], path[h + 1]);
      ASSERT_NE(link, kInvalidLink) << tag << " flow " << i << " hop " << h;
      if (!config.blocked_links.empty()) {
        EXPECT_FALSE(config.blocked_links[static_cast<std::size_t>(link)])
            << tag << " flow " << i << " crosses blocked link " << link;
      }
    }
    for (const NodeId n : path) {
      if (!g.is_switch(n)) continue;
      EXPECT_TRUE(result.switch_on[static_cast<std::size_t>(n)])
          << tag << " flow " << i << " uses powered-off switch " << n;
      if (!config.allowed_switches.empty()) {
        EXPECT_TRUE(config.allowed_switches[static_cast<std::size_t>(n)])
            << tag << " flow " << i << " uses disallowed switch " << n;
      }
    }
    scaled.add_path_load(path, flows[i].scaled_demand(config.scale_factor_k));
  }
  EXPECT_LE(scaled.max_utilization(), 0.95 + 1e-9) << tag;
}

DifferentialStats run_differential(bool degraded, int trials) {
  const FatTree ft(4);
  const Graph& g = ft.graph();
  const MilpConsolidator milp(&ft);
  const GreedyConsolidator greedy(&ft);
  DifferentialStats stats;
  Rng rng(degraded ? 211 : 101);
  for (int trial = 0; trial < trials; ++trial) {
    FlowSet flows;
    const int n = 3 + static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < n; ++i) {
      const int src = static_cast<int>(rng.uniform_int(0, 15));
      int dst = src;
      while (dst == src) dst = static_cast<int>(rng.uniform_int(0, 15));
      flows.add(src, dst, rng.uniform(20.0, 250.0),
                rng.bernoulli(0.5) ? FlowClass::LatencySensitive
                                   : FlowClass::LatencyTolerant);
    }
    ConsolidationConfig config = fig2_config(1.0);
    if (degraded) {
      // Knock out one aggregation switch, one core switch, and one fabric
      // link — chosen per-trial, like a FailureOverlay would report.
      std::vector<NodeId> aggs, cores;
      for (const Node& node : g.nodes()) {
        if (node.type == NodeType::AggSwitch) aggs.push_back(node.id);
        if (node.type == NodeType::CoreSwitch) cores.push_back(node.id);
      }
      config.allowed_switches.assign(g.num_nodes(), true);
      const NodeId dead_agg = aggs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(aggs.size()) - 1))];
      const NodeId dead_core = cores[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(cores.size()) - 1))];
      config.allowed_switches[static_cast<std::size_t>(dead_agg)] = false;
      config.allowed_switches[static_cast<std::size_t>(dead_core)] = false;
      config.blocked_links.assign(g.num_links(), false);
      std::vector<LinkId> fabric;
      for (const Link& l : g.links()) {
        if (g.is_switch(l.a) && g.is_switch(l.b)) fabric.push_back(l.id);
      }
      config.blocked_links[static_cast<std::size_t>(
          fabric[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<int>(fabric.size()) - 1))])] = true;
    }

    const auto exact = milp.consolidate(flows, config);
    const auto heur = greedy.consolidate(flows, config);
    // Feasibility must agree in the easy direction: if the exact solver
    // found nothing, the heuristic cannot claim success on valid paths.
    if (!exact.feasible || !heur.feasible) continue;
    check_placement_valid(g, flows, config, exact, "milp");
    check_placement_valid(g, flows, config, heur, "greedy");
    EXPECT_GE(heur.network_power, exact.network_power - 1e-9)
        << "trial " << trial;
    EXPECT_GT(exact.network_power, 0.0) << "trial " << trial;
    if (exact.network_power <= 0.0) continue;
    const double ratio = heur.network_power / exact.network_power;
    EXPECT_LE(ratio, 2.0) << "trial " << trial << " greedy "
                          << heur.network_power << " W vs milp "
                          << exact.network_power << " W";
    stats.worst_ratio = std::max(stats.worst_ratio, ratio);
    ++stats.compared;
  }
  return stats;
}

// 50 seeded scenarios split across the two regimes (the healthy MILP
// instances dominate the runtime; the degraded ones prune fast).
TEST(Differential, GreedyWithinBoundedFactorOfMilpHealthy) {
  const DifferentialStats stats = run_differential(/*degraded=*/false, 25);
  // Random instances are occasionally infeasible; most must compare.
  EXPECT_GE(stats.compared, 17);
}

TEST(Differential, GreedyWithinBoundedFactorOfMilpDegraded) {
  const DifferentialStats stats = run_differential(/*degraded=*/true, 25);
  EXPECT_GE(stats.compared, 12);
}

TEST(ConsolidationResult, OfferedLoadUsesUnscaledDemand) {
  // The load the latency model sees (scenario_offered_load, which the
  // planner and both DES drivers build) carries each flow's demand, not
  // the capacity K reserved for it; a query flow carries its stream rate.
  const FatTree ft(4);
  const GreedyConsolidator greedy(&ft);
  FlowSet flows;
  const FlowId query = flows.add(0, 15, 100.0, FlowClass::LatencySensitive);
  const auto config = fig2_config(3.0);  // reserve 300, carry 100
  const auto result = greedy.consolidate(flows, config);
  ASSERT_TRUE(result.feasible);
  const LinkUtilization load =
      scenario_offered_load(ft.graph(), result, flows, {}, {}, 0.0, 0.0);
  EXPECT_NEAR(load.max_utilization(), 0.1, 1e-9);
  const LinkUtilization streamed = scenario_offered_load(
      ft.graph(), result, flows, {query}, {}, 40.0, 0.0);
  EXPECT_NEAR(streamed.max_utilization(), 0.04, 1e-9);
}

// Packer goldens: placement fingerprints of the greedy packer, flat and
// under the hierarchical pod decomposition, pinned bit for bit to the
// values the full-scan packer produced. Every case runs at K = 1..5 under
// both objectives, through both the catalog-backed and the enumerating
// candidate scan (which must agree), so any change to the scan — an early
// exit that can change a winner, a different tie-break — moves a digest.
FlowSet packer_golden_flows(const FatTree& ft, std::uint64_t seed,
                            int rounds, double sensitive_hi,
                            double tolerant_hi) {
  // Each round sends one flow from every host to a random derangement
  // partner, so every host sources and sinks exactly `rounds` flows.
  Rng rng(seed);
  const int hosts = ft.num_hosts();
  FlowSet flows;
  std::vector<int> dst(static_cast<std::size_t>(hosts));
  for (int round = 0; round < rounds; ++round) {
    for (int h = 0; h < hosts; ++h) dst[static_cast<std::size_t>(h)] = h;
    for (int h = hosts - 1; h > 0; --h) {
      std::swap(dst[static_cast<std::size_t>(h)],
                dst[static_cast<std::size_t>(rng.uniform_int(0, h))]);
    }
    for (int h = 0; h < hosts; ++h) {
      if (dst[static_cast<std::size_t>(h)] == h) {
        std::swap(dst[static_cast<std::size_t>(h)],
                  dst[static_cast<std::size_t>((h + 1) % hosts)]);
      }
    }
    for (int src = 0; src < hosts; ++src) {
      const int to = dst[static_cast<std::size_t>(src)];
      if (rng.bernoulli(0.5)) {
        flows.add(src, to, rng.uniform(5.0, sensitive_hi),
                  FlowClass::LatencySensitive);
      } else {
        flows.add(src, to, rng.uniform(40.0, tolerant_hi),
                  FlowClass::LatencyTolerant);
      }
    }
  }
  return flows;
}

struct PackerGoldenRun {
  std::uint64_t digest = 0;
  int infeasible = 0;
  int results = 0;
};

// Digests greedy and hierarchical placements of `flows` under both
// objectives at K = 1..5; `base` carries the case's masks and options.
PackerGoldenRun packer_golden_digest(const FatTree& ft, const FlowSet& flows,
                                     const ConsolidationConfig& base) {
  const PathCatalog catalog(&ft);
  BitDigest digest;
  PackerGoldenRun run;
  for (const PlacementObjective objective :
       {PlacementObjective::MinimizeSwitches,
        PlacementObjective::BalanceLoad}) {
    GreedyConsolidatorOptions options;
    options.objective = objective;
    const GreedyConsolidator greedy(&ft, options);
    const HierarchicalConsolidator hierarchical(&greedy);
    const Consolidator* consolidators[] = {&greedy, &hierarchical};
    for (const Consolidator* consolidator : consolidators) {
      for (int k = 1; k <= 5; ++k) {
        ConsolidationConfig config = base;
        config.scale_factor_k = k;
        const ConsolidationResult enumerated =
            consolidator->consolidate(ft, flows, config);
        config.path_catalog = &catalog;
        const ConsolidationResult cataloged =
            consolidator->consolidate(ft, flows, config);
        const std::uint64_t fp = placement_fingerprint(cataloged);
        EXPECT_EQ(fp, placement_fingerprint(enumerated))
            << consolidator->name() << " K=" << k;
        digest.mix(fp);
        ++run.results;
        if (!cataloged.feasible) ++run.infeasible;
      }
    }
  }
  run.digest = digest.value();
  return run;
}

TEST(PackerGolden, HealthyFabricMatchesReferenceBits) {
  const FatTree ft(8);
  const FlowSet flows = packer_golden_flows(ft, 21, 2, 50.0, 300.0);
  const PackerGoldenRun run =
      packer_golden_digest(ft, flows, fig2_config(1.0));
  EXPECT_LT(run.infeasible, run.results);
  EXPECT_EQ(run.digest, 0xc7e1ab078cc0efe9ull);
}

TEST(PackerGolden, AllowedSwitchMaskMatchesReferenceBits) {
  const FatTree ft(8);
  const FlowSet flows = packer_golden_flows(ft, 22, 2, 40.0, 300.0);
  ConsolidationConfig config = fig2_config(1.0);
  config.allowed_switches = AggregationPolicies(&ft).policy(1).switch_on;
  int off = 0;
  for (const Node& n : ft.graph().nodes()) {
    if (ft.graph().is_switch(n.id) &&
        !config.allowed_switches[static_cast<std::size_t>(n.id)]) {
      ++off;
    }
  }
  ASSERT_GT(off, 0);
  const PackerGoldenRun run = packer_golden_digest(ft, flows, config);
  EXPECT_LT(run.infeasible, run.results);
  EXPECT_EQ(run.digest, 0x796485ba9822e0f1ull);
}

TEST(PackerGolden, BlockedLinksMatchReferenceBits) {
  const FatTree ft(8);
  const FlowSet flows = packer_golden_flows(ft, 23, 2, 50.0, 300.0);
  ConsolidationConfig config = fig2_config(1.0);
  const Graph& g = ft.graph();
  config.blocked_links.assign(g.num_links(), false);
  int blocked = 0;
  for (const Link& l : g.links()) {
    if (g.is_switch(l.a) && g.is_switch(l.b) && l.id % 5 == 2) {
      config.blocked_links[static_cast<std::size_t>(l.id)] = true;
      ++blocked;
    }
  }
  ASSERT_GT(blocked, 0);
  const PackerGoldenRun run = packer_golden_digest(ft, flows, config);
  EXPECT_LT(run.infeasible, run.results);
  EXPECT_EQ(run.digest, 0xea793d25bd4036f0ull);
}

TEST(PackerGolden, OverflowMatchesReferenceBits) {
  // Demands no fabric can carry: every pack overflows onto the widest path.
  const FatTree ft(8);
  const FlowSet flows = packer_golden_flows(ft, 24, 3, 150.0, 700.0);
  const PackerGoldenRun run =
      packer_golden_digest(ft, flows, fig2_config(1.0));
  EXPECT_EQ(run.infeasible, run.results);
  EXPECT_EQ(run.digest, 0x508aa981118f488bull);
}

TEST(PackerGolden, WarmIncrementalMatchesReferenceBits) {
  // A warm re-pack keeps clean flows and re-packs the dirty ones with the
  // cold placement rules; both objectives, flat and hierarchical.
  const FatTree ft(8);
  const FlowSet previous_flows = packer_golden_flows(ft, 25, 2, 50.0, 300.0);
  Rng rng(26);
  FlowSet flows;
  for (std::size_t i = 0; i < previous_flows.size(); ++i) {
    const Flow& f = previous_flows[i];
    int dst = f.dst_host;
    if (i % 7 == 3) dst = (f.src_host + 1 + static_cast<int>(i)) % ft.num_hosts();
    if (dst == f.src_host) dst = (dst + 1) % ft.num_hosts();
    const double scale = i % 3 == 0 ? rng.uniform(0.5, 1.6) : 1.0;
    flows.add(f.src_host, dst, f.demand * scale, f.cls);
  }
  const PathCatalog catalog(&ft);
  BitDigest digest;
  int warm = 0;
  for (const PlacementObjective objective :
       {PlacementObjective::MinimizeSwitches,
        PlacementObjective::BalanceLoad}) {
    GreedyConsolidatorOptions options;
    options.objective = objective;
    const GreedyConsolidator greedy(&ft, options);
    const HierarchicalConsolidator hierarchical(&greedy);
    const Consolidator* consolidators[] = {&greedy, &hierarchical};
    for (const Consolidator* consolidator : consolidators) {
      for (int k = 1; k <= 5; ++k) {
        ConsolidationConfig config = fig2_config(k);
        config.path_catalog = &catalog;
        const ConsolidationResult previous =
            consolidator->consolidate(ft, previous_flows, config);
        WarmStartHint hint;
        hint.previous_flows = &previous_flows;
        hint.previous = &previous;
        hint.max_extra_switches = 4;
        const ConsolidationResult result =
            consolidator->consolidate_incremental(ft, flows, config, &hint);
        if (result.warm_started) ++warm;
        digest.mix(placement_fingerprint(result));
      }
    }
  }
  EXPECT_GT(warm, 0);
  EXPECT_EQ(digest.value(), 0x98d5a7825feb25b1ull);
}

}  // namespace
}  // namespace eprons
