// Tests for the incremental planning layer: demand diffing
// (flow/demand_delta.h), warm-started greedy consolidation, and the joint
// optimizer's warm short-circuit — including the differential guarantee
// that incremental plans match cold plans across seeded churn scenarios,
// and that a plan depends on its request alone, not on earlier calls.
#include <gtest/gtest.h>

#include <vector>

#include "consolidate/greedy_consolidator.h"
#include "core/joint_optimizer.h"
#include "dvfs/synthetic_workload.h"
#include "flow/demand_delta.h"
#include "net/link_utilization.h"
#include "util/rng.h"

namespace eprons {
namespace {

// ---------------------------------------------------------------------------
// DemandDelta

FlowSet three_flows() {
  FlowSet flows;
  flows.add(0, 12, 900.0, FlowClass::LatencyTolerant);
  flows.add(1, 13, 20.0, FlowClass::LatencySensitive);
  flows.add(2, 14, 20.0, FlowClass::LatencySensitive);
  return flows;
}

TEST(DemandDelta, IdenticalSetsHaveEqualFingerprintsAndEmptyDelta) {
  const FlowSet a = three_flows();
  const FlowSet b = three_flows();
  const DemandDelta delta = diff_demands(a, b);
  EXPECT_TRUE(delta.identical());
  EXPECT_EQ(delta.unchanged, 3);
}

TEST(DemandDelta, ResizeChangesFingerprintAndMarksResized) {
  const FlowSet a = three_flows();
  FlowSet b;
  b.add(0, 12, 900.0, FlowClass::LatencyTolerant);
  b.add(1, 13, 25.0, FlowClass::LatencySensitive);  // resized
  b.add(2, 14, 20.0, FlowClass::LatencySensitive);
  const DemandDelta delta = diff_demands(a, b);
  EXPECT_FALSE(delta.identical());
  ASSERT_EQ(delta.resized.size(), 1u);
  EXPECT_EQ(delta.resized[0], 1);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(delta.unchanged, 2);
}

TEST(DemandDelta, AppendedFlowIsAddedTruncatedTailIsRemoved) {
  const FlowSet a = three_flows();
  FlowSet grown = three_flows();
  grown.add(3, 15, 40.0, FlowClass::LatencyTolerant);
  const DemandDelta growth = diff_demands(a, grown);
  ASSERT_EQ(growth.added.size(), 1u);
  EXPECT_EQ(growth.added[0], 3);
  EXPECT_TRUE(growth.removed.empty());

  const DemandDelta shrink = diff_demands(grown, a);
  ASSERT_EQ(shrink.removed.size(), 1u);
  EXPECT_EQ(shrink.removed[0], 3);
  EXPECT_TRUE(shrink.added.empty());
}

TEST(DemandDelta, EndpointMismatchCountsAsRemovedPlusAdded) {
  const FlowSet a = three_flows();
  FlowSet b;
  b.add(0, 12, 900.0, FlowClass::LatencyTolerant);
  b.add(5, 9, 20.0, FlowClass::LatencySensitive);  // different endpoints
  b.add(2, 14, 20.0, FlowClass::LatencySensitive);
  const DemandDelta delta = diff_demands(a, b);
  ASSERT_EQ(delta.added.size(), 1u);
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.added[0], 1);
  EXPECT_EQ(delta.removed[0], 1);
}

// ---------------------------------------------------------------------------
// Warm-started greedy consolidation: differential against the cold pack.

ConsolidationConfig churn_config(double k) {
  ConsolidationConfig config;
  config.scale_factor_k = k;
  return config;
}

/// Random placeable flow mix on the 4-ary fat-tree: a handful of moderate
/// tolerant flows plus latency-sensitive mice.
FlowSet random_flows(Rng& rng) {
  FlowSet flows;
  const int n = static_cast<int>(rng.uniform_int(3, 8));
  for (int i = 0; i < n; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, 15));
    int dst = static_cast<int>(rng.uniform_int(0, 15));
    if (dst == src) dst = (dst + 1) % 16;
    const bool sensitive = rng.bernoulli(0.5);
    const double demand = sensitive ? rng.uniform(5.0, 40.0)
                                    : rng.uniform(50.0, 400.0);
    flows.add(src, dst, demand,
              sensitive ? FlowClass::LatencySensitive
                        : FlowClass::LatencyTolerant);
  }
  return flows;
}

/// Gentle epoch churn: resize ~20% of flows by up to +/-5%.
FlowSet churned(const FlowSet& base, Rng& rng) {
  FlowSet out;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const Flow& f = base[i];
    double demand = f.demand;
    if (rng.bernoulli(0.2)) demand *= rng.uniform(0.95, 1.05);
    out.add(f.src_host, f.dst_host, demand, f.cls);
  }
  return out;
}

/// Asserts `result` routes every flow within capacity minus the margin.
void expect_valid_placement(const FatTree& ft, const FlowSet& flows,
                            const ConsolidationConfig& config,
                            const ConsolidationResult& result) {
  ASSERT_EQ(result.flow_paths.size(), flows.size());
  LinkUtilization scaled(&ft.graph());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    ASSERT_FALSE(result.flow_paths[i].empty()) << "flow " << i << " unrouted";
    scaled.add_path_load(result.flow_paths[i],
                         flows[i].scaled_demand(config.scale_factor_k));
  }
  // Host access links are charged unscaled demand by the packer, so only
  // assert the fabric-level invariant loosely: nothing exceeds capacity.
  EXPECT_LE(scaled.max_utilization(), 1.0 + 1e-9);
}

TEST(GreedyWarmStart, MatchesColdAcrossFiftySeededChurnScenarios) {
  const FatTree ft(4);
  const GreedyConsolidator greedy(&ft);
  const ConsolidationConfig config = churn_config(2.0);

  int warm_packs = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const FlowSet previous_flows = random_flows(rng);
    const ConsolidationResult previous =
        greedy.consolidate(ft, previous_flows, config);
    if (!previous.feasible) continue;  // unplaceable draw; skip

    const FlowSet next_flows = churned(previous_flows, rng);
    const ConsolidationResult cold = greedy.consolidate(ft, next_flows,
                                                        config);

    WarmStartHint hint;
    hint.previous_flows = &previous_flows;
    hint.previous = &previous;
    hint.max_extra_switches = 2;
    const ConsolidationResult warm =
        greedy.consolidate_incremental(ft, next_flows, config, &hint);

    // The differential contract: identical feasibility, and when feasible
    // the warm pack stays within the regression bound of the previous
    // plan and routes everything within capacity.
    EXPECT_EQ(warm.feasible, cold.feasible) << "seed " << seed;
    if (!warm.feasible) continue;
    expect_valid_placement(ft, next_flows, config, warm);
    if (warm.warm_started) {
      ++warm_packs;
      EXPECT_LE(warm.active_switches,
                previous.active_switches + hint.max_extra_switches)
          << "seed " << seed;
      // Resize-only churn keeps every previous path inheritable, so the
      // warm pack must not cost more switches than the cold pack plus the
      // bound (cold re-derives the previous routing).
      EXPECT_LE(warm.network_power,
                cold.network_power +
                    hint.max_extra_switches * config.switch_power)
          << "seed " << seed;
    } else {
      // Fallback path must be byte-equivalent to the cold pack.
      EXPECT_EQ(warm.network_power, cold.network_power) << "seed " << seed;
      EXPECT_EQ(warm.flow_paths, cold.flow_paths) << "seed " << seed;
    }
  }
  // The scenarios are gentle: the warm path must actually engage.
  EXPECT_GT(warm_packs, 25);
}

TEST(GreedyWarmStart, ResizeOnlyChurnKeepsThePreviousRouting) {
  const FatTree ft(4);
  const GreedyConsolidator greedy(&ft);
  const ConsolidationConfig config = churn_config(2.0);
  const FlowSet previous_flows = three_flows();
  const ConsolidationResult previous =
      greedy.consolidate(ft, previous_flows, config);
  ASSERT_TRUE(previous.feasible);

  FlowSet next;
  next.add(0, 12, 900.0, FlowClass::LatencyTolerant);
  next.add(1, 13, 20.2, FlowClass::LatencySensitive);  // +1%
  next.add(2, 14, 20.0, FlowClass::LatencySensitive);

  WarmStartHint hint;
  hint.previous_flows = &previous_flows;
  hint.previous = &previous;
  const ConsolidationResult warm =
      greedy.consolidate_incremental(ft, next, config, &hint);
  ASSERT_TRUE(warm.feasible);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.flow_paths, previous.flow_paths);
  EXPECT_EQ(warm.active_switches, previous.active_switches);
}

TEST(GreedyWarmStart, UnusableHintDegradesToCold) {
  const FatTree ft(4);
  const GreedyConsolidator greedy(&ft);
  const ConsolidationConfig config = churn_config(1.0);
  const FlowSet flows = three_flows();
  const ConsolidationResult cold = greedy.consolidate(ft, flows, config);

  const ConsolidationResult null_hint =
      greedy.consolidate_incremental(ft, flows, config, nullptr);
  EXPECT_FALSE(null_hint.warm_started);
  EXPECT_EQ(null_hint.flow_paths, cold.flow_paths);

  WarmStartHint misaligned;  // previous paths not index-aligned
  FlowSet other = three_flows();
  ConsolidationResult empty_previous;
  misaligned.previous_flows = &other;
  misaligned.previous = &empty_previous;
  EXPECT_FALSE(misaligned.usable());
  const ConsolidationResult fallback =
      greedy.consolidate_incremental(ft, flows, config, &misaligned);
  EXPECT_FALSE(fallback.warm_started);
  EXPECT_EQ(fallback.flow_paths, cold.flow_paths);
}

TEST(GreedyWarmStart, RegressionBoundForcesFullRepack) {
  const FatTree ft(4);
  const GreedyConsolidator greedy(&ft);
  const ConsolidationConfig config = churn_config(1.0);

  // Previous epoch: two mice sharing the left spine.
  FlowSet previous_flows;
  previous_flows.add(0, 12, 20.0, FlowClass::LatencySensitive);
  previous_flows.add(1, 13, 20.0, FlowClass::LatencySensitive);
  const ConsolidationResult previous =
      greedy.consolidate(ft, previous_flows, config);
  ASSERT_TRUE(previous.feasible);

  // Next epoch: four new elephants join — far beyond what a 0-extra-switch
  // incremental pack can absorb without regressing.
  FlowSet next = previous_flows;
  next.add(4, 8, 900.0, FlowClass::LatencyTolerant);
  next.add(5, 9, 900.0, FlowClass::LatencyTolerant);
  next.add(6, 10, 900.0, FlowClass::LatencyTolerant);
  next.add(7, 11, 900.0, FlowClass::LatencyTolerant);

  WarmStartHint hint;
  hint.previous_flows = &previous_flows;
  hint.previous = &previous;
  hint.max_extra_switches = 0;
  const ConsolidationResult warm =
      greedy.consolidate_incremental(ft, next, config, &hint);
  const ConsolidationResult cold = greedy.consolidate(ft, next, config);
  // The bound rejected the incremental pack; the result is the cold pack.
  EXPECT_FALSE(warm.warm_started);
  EXPECT_EQ(warm.feasible, cold.feasible);
  EXPECT_EQ(warm.flow_paths, cold.flow_paths);
}

// ---------------------------------------------------------------------------
// JointOptimizer warm short-circuit: incremental == cold, end to end.

ServiceModel incremental_model() {
  Rng rng(31);
  SyntheticWorkloadConfig config;
  config.samples = 20000;
  config.bins = 256;
  return make_search_service_model(config, rng);
}

TEST(JointOptimizerIncremental, WarmPlanMatchesColdPlanOnLowChurnEpochs) {
  const FatTree topo(4);
  const ServiceModel model = incremental_model();
  const ServerPowerModel power;

  JointOptimizerConfig cold_cfg;
  cold_cfg.slack.samples_per_pair = 150;
  JointOptimizerConfig warm_cfg = cold_cfg;
  warm_cfg.incremental.enabled = true;
  const JointOptimizer cold_opt(&topo, &model, &power, cold_cfg);
  const JointOptimizer warm_opt(&topo, &model, &power, warm_cfg);

  FlowSet epoch0;
  epoch0.add(0, 12, 300.0, FlowClass::LatencyTolerant);
  epoch0.add(5, 9, 200.0, FlowClass::LatencyTolerant);
  FlowSet epoch1;
  epoch1.add(0, 12, 303.0, FlowClass::LatencyTolerant);  // +1%
  epoch1.add(5, 9, 200.0, FlowClass::LatencyTolerant);

  PlanRequest request0;
  request0.background = &epoch0;
  request0.utilization = 0.3;
  const JointPlan cold0 = cold_opt.optimize(request0);
  const JointPlan warm0 = warm_opt.optimize(request0);
  ASSERT_TRUE(cold0.feasible);
  EXPECT_EQ(warm0.k, cold0.k);
  EXPECT_DOUBLE_EQ(warm0.total_power, cold0.total_power);

  PlanRequest request1;
  request1.background = &epoch1;
  request1.utilization = 0.3;
  const JointPlan cold1 = cold_opt.optimize(request1);
  request1.previous = &warm0;
  const JointPlan warm1 = warm_opt.optimize(request1);
  ASSERT_TRUE(cold1.feasible);
  ASSERT_TRUE(warm1.feasible);
  EXPECT_EQ(warm1.k, cold1.k);
  EXPECT_DOUBLE_EQ(warm1.total_power, cold1.total_power);
  EXPECT_EQ(warm1.placement.switch_on, cold1.placement.switch_on);
}

TEST(JointOptimizerIncremental, PlanDependsOnlyOnTheRequest) {
  const FatTree topo(4);
  const ServiceModel model = incremental_model();
  const ServerPowerModel power;
  JointOptimizerConfig cfg;
  cfg.slack.samples_per_pair = 150;
  cfg.incremental.enabled = true;

  FlowSet flows;
  flows.add(0, 12, 300.0, FlowClass::LatencyTolerant);

  // Optimizer A first plans these demands cold, evaluating every K. An
  // optimizer that kept evaluated plans would now hold one at each K.
  const JointOptimizer a(&topo, &model, &power, cfg);
  PlanRequest cold_request;
  cold_request.background = &flows;
  cold_request.utilization = 0.3;
  const JointPlan cold = a.optimize(cold_request);
  ASSERT_TRUE(cold.feasible);

  // The previous plan: the cold plan at the same K with the background
  // flow moved to another fitting path, so a warm re-pack that keeps its
  // routing differs from the cold candidate at that K.
  JointPlan previous = cold;
  Path& moved = previous.placement.flow_paths[0];
  for (const Path& path : topo.all_paths(0, 12)) {
    if (path != moved) {
      moved = path;
      break;
    }
  }
  ASSERT_NE(moved, cold.placement.flow_paths[0]);
  activate_path(topo.graph(), moved, previous.placement);
  finalize_result(topo.graph(), cfg.consolidation, previous.placement);

  PlanRequest warm_request = cold_request;
  warm_request.previous = &previous;
  const JointPlan after_history = a.optimize(warm_request);

  // A fresh optimizer B serves only the warm request.
  const JointOptimizer b(&topo, &model, &power, cfg);
  const JointPlan fresh = b.optimize(warm_request);
  ASSERT_TRUE(fresh.feasible);
  ASSERT_TRUE(fresh.placement.warm_started);
  ASSERT_NE(placement_fingerprint(fresh.placement),
            placement_fingerprint(cold.placement));

  EXPECT_EQ(placement_fingerprint(after_history.placement),
            placement_fingerprint(fresh.placement));
  EXPECT_EQ(after_history.k, fresh.k);
  EXPECT_EQ(after_history.total_power, fresh.total_power);
}

}  // namespace
}  // namespace eprons
