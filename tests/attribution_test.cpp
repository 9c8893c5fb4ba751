// Tests for the energy & SLA attribution ledger: the bit-exact
// component-sum invariant of obs/attribution.h across seeds and thread
// counts, the core/attribution.h builders (per-layer network power,
// linger accounting, miss charging), and the planner's PlanExplain
// records (candidate coverage, reject reasons, path tags, and a golden
// serialization the JSONL consumers can rely on).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/attribution.h"
#include "core/joint_optimizer.h"
#include "dvfs/synthetic_workload.h"
#include "obs/attribution.h"

namespace eprons {
namespace {

ServiceModel test_model(std::uint64_t seed = 31) {
  Rng rng(seed);
  SyntheticWorkloadConfig config;
  config.samples = 20000;
  config.bins = 256;
  return make_search_service_model(config, rng);
}

JointOptimizerConfig ledger_config(std::uint64_t seed, int threads) {
  JointOptimizerConfig config;
  config.slack.samples_per_pair = 150;
  config.slack.seed = seed;
  config.runtime.threads = threads;
  return config;
}

void expect_ledger_sums_exact(const obs::AttributionRecord& rec) {
  // Exact float equality on purpose: the producers define their headline
  // totals as these fixed-order sums, so == must hold bit-for-bit.
  const obs::PowerAttribution& p = rec.power;
  EXPECT_EQ(p.network_total_w, ((p.edge_w + p.agg_w) + p.core_w) + p.link_w);
  EXPECT_EQ(p.server_total_w,
            (p.server_idle_w + p.server_dynamic_w) + p.server_dvfs_residual_w);
  EXPECT_EQ(p.total_w, p.network_total_w + p.server_total_w);
}

TEST(AttributionLedger, SumsBitIdenticallyAcrossSeedsAndThreads) {
  // The acceptance contract: for any seed and any --threads, the per-layer
  // and per-component breakdowns sum *byte-identically* to the plan's
  // headline totals, and the serialized JSONL line is identical too.
  const FatTree topo(4);
  const ServiceModel model = test_model();
  const ServerPowerModel power;
  for (const std::uint64_t seed : {1ull, 42ull, 99ull}) {
    Rng rng(seed);
    const FlowSet background =
        make_background_flows(FlowGenConfig{}, 6, 0.25, 0.1, rng);
    std::string baseline;
    for (const int threads : {1, 4, 8}) {
      const JointOptimizerConfig config = ledger_config(seed, threads);
      const JointOptimizer optimizer(&topo, &model, &power, config);
      obs::PlanExplainRecord explain;
      PlanRequest request;
      request.background = &background;
      request.utilization = 0.3;
      request.explain = &explain;
      const JointPlan plan = optimizer.optimize(request);

      const obs::AttributionRecord rec =
          make_plan_attribution(config, plan, "test", 0);
      expect_ledger_sums_exact(rec);
      EXPECT_EQ(rec.power.network_total_w, plan.network_power);
      EXPECT_EQ(rec.power.server_total_w, plan.server_power_w);
      EXPECT_EQ(rec.power.total_w, plan.total_power);

      const std::string lines = to_jsonl(rec) + to_jsonl(explain);
      if (baseline.empty()) {
        baseline = lines;
      } else {
        EXPECT_EQ(lines, baseline)
            << "ledger bytes diverged at seed=" << seed
            << " threads=" << threads;
      }
    }
  }
}

TEST(AttributionLedger, LayeredNetworkPowerPartitionsActiveSwitches) {
  const FatTree topo(4);
  const ServiceModel model = test_model();
  const ServerPowerModel power;
  const JointOptimizerConfig config = ledger_config(7, 1);
  const JointOptimizer optimizer(&topo, &model, &power, config);
  Rng rng(7);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 6, 0.2, 0.0, rng);
  PlanRequest request;
  request.background = &background;
  request.utilization = 0.3;
  const JointPlan plan = optimizer.optimize(request);
  ASSERT_TRUE(plan.feasible);

  const LayeredNetworkPower net = layered_network_power(
      topo.graph(), plan.placement.switch_on, config.consolidation.switch_power);
  EXPECT_EQ(net.edge_switches + net.agg_switches + net.core_switches,
            plan.placement.active_switches);
  EXPECT_EQ(net.active_switches, plan.placement.active_switches);
  EXPECT_EQ(net.total_w, ((net.edge_w + net.agg_w) + net.core_w));
  // The placement's own per-layer fields agree with a recount of its mask.
  EXPECT_EQ(net.edge_switches, plan.placement.edge_switches);
  EXPECT_EQ(net.agg_switches, plan.placement.agg_switches);
  EXPECT_EQ(net.core_switches, plan.placement.core_switches);
}

TEST(AttributionLedger, LayeredPowerToleratesShortMasksAtScale) {
  // Regression for the k=16 path: a mask shorter than the node table
  // (e.g. a pod-local sub-result before the hierarchical stitch resizes
  // it) must count only the prefix it covers, never read past its end.
  const FatTree topo(16);
  const Graph& g = topo.graph();
  std::vector<bool> on(static_cast<std::size_t>(g.num_nodes()), true);
  const LayeredNetworkPower full = layered_network_power(g, on, 36.0);
  EXPECT_EQ(full.active_switches, topo.num_switches());
  EXPECT_EQ(full.total_w, topo.num_switches() * 36.0);
  on.resize(on.size() / 2);
  const LayeredNetworkPower half = layered_network_power(g, on, 36.0);
  EXPECT_LT(half.active_switches, full.active_switches);
  EXPECT_EQ(half.total_w, ((half.edge_w + half.agg_w) + half.core_w));
  EXPECT_EQ(layered_network_power(g, {}, 36.0).active_switches, 0);
}

TEST(AttributionLedger, LingerChargedToTransitionPolicy) {
  const FatTree topo(4);
  const ServiceModel model = test_model();
  const ServerPowerModel power;
  const JointOptimizerConfig config = ledger_config(11, 1);
  const JointOptimizer optimizer(&topo, &model, &power, config);
  Rng rng(11);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.1, 0.0, rng);
  PlanRequest request;
  request.background = &background;
  request.utilization = 0.3;
  const JointPlan plan = optimizer.optimize(request);
  ASSERT_TRUE(plan.feasible);

  // The transition policy holds one switch the plan did not ask for.
  const std::vector<bool>& wanted = plan.placement.switch_on;
  std::vector<bool> actual = wanted;
  int extra = -1;
  for (const Node& n : topo.graph().nodes()) {
    const auto i = static_cast<std::size_t>(n.id);
    if (is_switch_type(n.type) && i < actual.size() && !actual[i]) {
      actual[i] = true;
      extra = n.id;
      break;
    }
  }
  ASSERT_GE(extra, 0) << "plan already powers every switch";

  const obs::AttributionRecord rec = make_epoch_attribution(
      topo.graph(), config, plan, actual, wanted, "test", 3);
  expect_ledger_sums_exact(rec);
  EXPECT_EQ(rec.power.linger_switches, 1);
  EXPECT_EQ(rec.power.linger_overhead_w, config.consolidation.switch_power);
  // The realized mask carries one more switch than the plan asked for.
  EXPECT_EQ(rec.power.edge_switches + rec.power.agg_switches +
                rec.power.core_switches,
            plan.placement.active_switches + 1);
  EXPECT_EQ(rec.power.network_total_w,
            layered_network_power(topo.graph(), actual,
                                  config.consolidation.switch_power)
                .total_w);
  // Feasible epoch: no layer is charged for a miss.
  EXPECT_EQ(rec.latency.miss_charged_to, "");
  EXPECT_EQ(rec.latency.constraint_us, config.latency_constraint);
}

TEST(PlanExplain, ColdPathNamesEveryCandidateAndReason) {
  const FatTree topo(4);
  const ServiceModel model = test_model();
  const ServerPowerModel power;
  const JointOptimizerConfig config = ledger_config(42, 1);
  const JointOptimizer optimizer(&topo, &model, &power, config);
  Rng rng(42);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 6, 0.25, 0.1, rng);
  obs::PlanExplainRecord explain;
  PlanRequest request;
  request.background = &background;
  request.utilization = 0.3;
  request.explain = &explain;
  const JointPlan plan = optimizer.optimize(request);

  EXPECT_EQ(explain.path, "cold");
  EXPECT_EQ(explain.chosen_k, plan.k);
  EXPECT_EQ(explain.feasible, plan.feasible);
  EXPECT_EQ(explain.chosen_total_w, plan.total_power);
  EXPECT_EQ(explain.consolidation_on_w, plan.network_power);
  // Consolidation never costs more than the everything-on baseline.
  EXPECT_GE(explain.consolidation_off_w, explain.consolidation_on_w);

  std::size_t expected = 0;
  for (double k = config.k_min; k <= config.k_max + 1e-9; k += config.k_step) {
    ++expected;
  }
  ASSERT_EQ(explain.candidates.size(), expected);
  bool saw_chosen = false;
  for (const obs::PlanCandidateExplain& c : explain.candidates) {
    if (c.feasible) {
      EXPECT_TRUE(c.reject_reason.empty())
          << "feasible K=" << c.k << " carries '" << c.reject_reason << "'";
    } else {
      EXPECT_TRUE(c.reject_reason == "budget_exhausted" ||
                  c.reject_reason == "placement_infeasible" ||
                  c.reject_reason == "dvfs_infeasible")
          << "rejected K=" << c.k << " reason '" << c.reject_reason << "'";
    }
    if (plan.feasible && c.k == plan.k) {
      saw_chosen = true;
      EXPECT_TRUE(c.feasible);
      EXPECT_EQ(c.total_w, plan.total_power);
      EXPECT_EQ(c.network_w, plan.network_power);
      EXPECT_EQ(c.server_w, plan.server_power_w);
      EXPECT_EQ(c.active_switches, plan.placement.active_switches);
    }
  }
  EXPECT_EQ(saw_chosen, plan.feasible);
}

TEST(PlanExplain, CacheHitAndWarmPathsAreTagged) {
  const FatTree topo(4);
  const ServiceModel model = test_model();
  const ServerPowerModel power;
  JointOptimizerConfig config = ledger_config(42, 1);
  config.incremental.enabled = true;
  const JointOptimizer optimizer(&topo, &model, &power, config);
  Rng rng(42);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 6, 0.25, 0.1, rng);

  obs::PlanExplainRecord cold;
  PlanRequest request;
  request.background = &background;
  request.utilization = 0.3;
  request.explain = &cold;
  const JointPlan plan = optimizer.optimize(request);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(cold.path, "cold");

  // New utilization with the previous plan: re-evaluates the previous K warm.
  obs::PlanExplainRecord warm;
  request.previous = &plan;
  request.utilization = 0.35;
  request.explain = &warm;
  const JointPlan replanned = optimizer.optimize(request);
  if (replanned.feasible && warm.path == "warm") {
    ASSERT_EQ(warm.candidates.size(), 1u);
    EXPECT_EQ(warm.chosen_k, plan.k);
  } else {
    // Warm re-evaluation fell back; the cold sweep must explain itself.
    EXPECT_EQ(warm.path, "cold");
    EXPECT_GT(warm.candidates.size(), 1u);
  }
}

TEST(PlanExplain, GoldenRecordSerialization) {
  // A consumer-facing golden: field order, names, and %.17g number
  // formatting are a contract with tools/eprons_report.py and any other
  // JSONL reader. Dyadic values print exactly.
  obs::PlanExplainRecord record;
  record.source = "golden";
  record.epoch = 7;
  record.path = "cold";
  record.chosen_k = 2.0;
  record.feasible = true;
  record.chosen_total_w = 1007.5;
  record.consolidation_on_w = 468.0;
  record.consolidation_off_w = 720.0;
  obs::PlanCandidateExplain rejected;
  rejected.k = 1.0;
  rejected.feasible = false;
  rejected.reject_reason = "dvfs_infeasible";
  rejected.total_w = 1130.25;
  rejected.network_w = 396.0;
  rejected.server_w = 734.25;
  rejected.violation_probability = 1.0;
  rejected.slack_p95_us = 9289.5;
  rejected.server_budget_us = 20710.5;
  rejected.active_switches = 11;
  obs::PlanCandidateExplain chosen;
  chosen.k = 2.0;
  chosen.feasible = true;
  chosen.total_w = 1007.5;
  chosen.network_w = 468.0;
  chosen.server_w = 539.5;
  chosen.violation_probability = 0.046875;
  chosen.slack_p95_us = 5286.625;
  chosen.server_budget_us = 24213.375;
  chosen.active_switches = 13;
  record.candidates = {rejected, chosen};

  EXPECT_EQ(
      to_jsonl(record),
      "{\"source\": \"plan_explain\", \"producer\": \"golden\", "
      "\"epoch\": 7, \"path\": \"cold\", \"chosen_k\": 2, "
      "\"feasible\": true, \"chosen_total_w\": 1007.5, "
      "\"consolidation_on_w\": 468, \"consolidation_off_w\": 720, "
      "\"candidates\": [{\"k\": 1, \"feasible\": false, "
      "\"reject_reason\": \"dvfs_infeasible\", "
      "\"total_w\": 1130.25, \"network_w\": 396, \"server_w\": 734.25, "
      "\"violation_probability\": 1, \"slack_p95_us\": 9289.5, "
      "\"server_budget_us\": 20710.5, \"active_switches\": 11}, "
      "{\"k\": 2, \"feasible\": true, "
      "\"reject_reason\": \"\", \"total_w\": 1007.5, \"network_w\": 468, "
      "\"server_w\": 539.5, \"violation_probability\": 0.046875, "
      "\"slack_p95_us\": 5286.625, \"server_budget_us\": 24213.375, "
      "\"active_switches\": 13}]}\n");
}

TEST(PlanExplain, GoldenAttributionSerialization) {
  obs::AttributionRecord record;
  record.source = "golden";
  record.epoch = 2;
  record.chosen_k = 3.0;
  record.feasible = true;
  record.power.edge_w = 288.0;
  record.power.agg_w = 144.0;
  record.power.core_w = 36.0;
  record.power.network_total_w = 468.0;
  record.power.linger_overhead_w = 36.0;
  record.power.edge_switches = 8;
  record.power.agg_switches = 4;
  record.power.core_switches = 1;
  record.power.linger_switches = 1;
  record.power.server_idle_w = 416.0;
  record.power.server_dynamic_w = 340.25;
  record.power.server_dvfs_residual_w = -195.5;
  record.power.server_total_w = 560.75;
  record.power.hosts = 16;
  record.power.total_w = 1028.75;
  record.latency.constraint_us = 30000.0;
  record.latency.network_p95_us = 5286.5;
  record.latency.network_p99_us = 7309.5;
  record.latency.request_p95_us = 2643.25;
  record.latency.server_budget_us = 24713.5;

  EXPECT_EQ(
      to_jsonl(record),
      "{\"source\": \"attribution\", \"producer\": \"golden\", "
      "\"epoch\": 2, \"chosen_k\": 3, \"feasible\": true, "
      "\"edge_w\": 288, \"agg_w\": 144, \"core_w\": 36, \"link_w\": 0, "
      "\"network_total_w\": 468, \"linger_overhead_w\": 36, "
      "\"edge_switches\": 8, \"agg_switches\": 4, \"core_switches\": 1, "
      "\"active_links\": 0, \"linger_switches\": 1, "
      "\"server_idle_w\": 416, \"server_dynamic_w\": 340.25, "
      "\"server_dvfs_residual_w\": -195.5, \"server_total_w\": 560.75, "
      "\"hosts\": 16, \"total_w\": 1028.75, \"constraint_us\": 30000, "
      "\"network_p95_us\": 5286.5, \"network_p99_us\": 7309.5, "
      "\"request_p95_us\": 2643.25, \"server_budget_us\": 24713.5, "
      "\"miss_charged_to\": \"\"}\n");
}

TEST(PlanExplain, RejectNamesCoverEveryEnumerator) {
  EXPECT_STREQ(plan_reject_name(PlanReject::None), "");
  EXPECT_STREQ(plan_reject_name(PlanReject::BudgetExhausted),
               "budget_exhausted");
  EXPECT_STREQ(plan_reject_name(PlanReject::PlacementInfeasible),
               "placement_infeasible");
  EXPECT_STREQ(plan_reject_name(PlanReject::DvfsInfeasible),
               "dvfs_infeasible");
}

}  // namespace
}  // namespace eprons
