// Tests for src/core and src/trace: slack estimation, the analytical server
// power predictor, the joint K optimizer (including the paper's
// "turning on switches can lower total power" behavior), and diurnal
// trace generation / replay plumbing.
#include <gtest/gtest.h>

#include <cmath>

#include "core/epoch_controller.h"
#include "core/joint_optimizer.h"
#include "core/server_power_predictor.h"
#include "core/slack_estimator.h"
#include "core/trace_replay.h"
#include "dvfs/synthetic_workload.h"
#include "fault/fault_injector.h"
#include "obs/telemetry.h"
#include "trace/diurnal.h"

namespace eprons {
namespace {

ServiceModel core_model(std::uint64_t seed = 31) {
  Rng rng(seed);
  SyntheticWorkloadConfig config;
  config.samples = 20000;
  config.bins = 256;
  return make_search_service_model(config, rng);
}

TEST(Diurnal, ShapePeaksAtConfiguredMinute) {
  DiurnalTraceConfig config;
  EXPECT_NEAR(diurnal_shape(config, config.peak_minute), 1.0, 1e-12);
  EXPECT_NEAR(diurnal_shape(config, config.peak_minute + 720), 0.0, 1e-12);
}

TEST(Diurnal, TraceBoundsRespected) {
  DiurnalTraceConfig config;
  const auto trace = make_diurnal_trace(config);
  ASSERT_EQ(trace.size(), 1440u);
  for (const TracePoint& p : trace) {
    EXPECT_GE(p.search_load, 0.0);
    EXPECT_LE(p.search_load, 1.0);
    EXPECT_GE(p.background_util, 0.0);
    EXPECT_LE(p.background_util, 1.0);
  }
}

TEST(Diurnal, PeakToTroughRatioMatchesFig14) {
  DiurnalTraceConfig config;
  config.noise = 0.0;
  const auto trace = make_diurnal_trace(config);
  double lo = 1.0, hi = 0.0;
  for (const TracePoint& p : trace) {
    lo = std::min(lo, p.search_load);
    hi = std::max(hi, p.search_load);
  }
  EXPECT_NEAR(lo, config.search_trough, 1e-9);
  EXPECT_NEAR(hi, config.search_peak, 1e-3);
}

TEST(Diurnal, DeterministicForSeed) {
  DiurnalTraceConfig config;
  const auto a = make_diurnal_trace(config);
  const auto b = make_diurnal_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].search_load, b[i].search_load);
  }
}

TEST(SlackEstimator, LoadedPathSlowerThanIdle) {
  const FatTree topo(4);
  FlowSet flows;
  const FlowId req = flows.add(0, 15, 10.0, FlowClass::LatencySensitive);
  const FlowId rep = flows.add(15, 0, 40.0, FlowClass::LatencySensitive);
  const GreedyConsolidator greedy(&topo);
  ConsolidationConfig config;
  const auto placement = greedy.consolidate(flows, config);
  ASSERT_TRUE(placement.feasible);

  const SlackEstimator estimator(SlackEstimatorConfig{});
  const std::vector<FlowId> requests = {req};
  const std::vector<FlowId> replies = {rep};

  // Idle network.
  LinkUtilization idle(&topo.graph());
  const SlackEstimate idle_est =
      estimator.estimate({&placement, &idle, &requests, &replies});

  // Same paths with a hot elephant on them.
  LinkUtilization hot(&topo.graph());
  hot.add_path_load(placement.flow_paths[static_cast<std::size_t>(req)], 940.0);
  hot.add_path_load(placement.flow_paths[static_cast<std::size_t>(rep)], 940.0);
  const SlackEstimate hot_est =
      estimator.estimate({&placement, &hot, &requests, &replies});

  EXPECT_GT(hot_est.total_p95, idle_est.total_p95);
  EXPECT_GT(idle_est.total_p95, 0.0);
  EXPECT_GE(idle_est.total_p95, idle_est.total_mean);
}

TEST(SlackEstimator, UnroutedFlowsSkippedGracefully) {
  const FatTree topo(4);
  ConsolidationResult placement;  // nothing routed
  LinkUtilization load(&topo.graph());
  const std::vector<FlowId> requests = {0};
  const std::vector<FlowId> replies = {1};
  const SlackEstimate est = SlackEstimator(SlackEstimatorConfig{}).estimate(
      {&placement, &load, &requests, &replies});
  EXPECT_DOUBLE_EQ(est.total_p95, 0.0);
}

TEST(ServerPowerPredictor, MorePowerAtHigherUtilization) {
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const ServerPowerPredictor predictor(&model, &power);
  const auto lo = predictor.predict(0.1, ms(25.0));
  const auto hi = predictor.predict(0.5, ms(25.0));
  EXPECT_GT(hi.server_power, lo.server_power);
}

TEST(ServerPowerPredictor, TighterBudgetCostsMorePower) {
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const ServerPowerPredictor predictor(&model, &power);
  const auto tight = predictor.predict(0.3, ms(14.0));
  const auto loose = predictor.predict(0.3, ms(40.0));
  EXPECT_GE(tight.frequency, loose.frequency);
  EXPECT_GE(tight.server_power, loose.server_power - 1e-9);
}

TEST(ServerPowerPredictor, ImpossibleBudgetFlagged) {
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const ServerPowerPredictor predictor(&model, &power);
  const auto result = predictor.predict(0.3, 10.0);  // 10 us budget
  EXPECT_TRUE(result.budget_infeasible);
  EXPECT_DOUBLE_EQ(result.frequency, 2.7);
}

TEST(ServerPowerPredictor, BoundedByPeakAndIdle) {
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const ServerPowerPredictor predictor(&model, &power);
  for (double u : {0.05, 0.2, 0.4, 0.6}) {
    const auto p = predictor.predict(u, ms(25.0));
    EXPECT_GE(p.server_power, power.idle_power() - 1e-9);
    EXPECT_LE(p.server_power, power.peak_power() + 1e-9);
  }
}

JointOptimizerConfig fast_joint_config() {
  JointOptimizerConfig config;
  config.slack.samples_per_pair = 150;
  return config;
}

JointPlan optimize_plan(const JointOptimizer& optimizer,
                        const FlowSet& background, double utilization) {
  PlanRequest request;
  request.background = &background;
  request.utilization = utilization;
  return optimizer.optimize(request);
}

TEST(JointOptimizer, PrefersSmallSubnetWhenTrafficIsLight) {
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const JointOptimizer optimizer(&topo, &model, &power, fast_joint_config());
  Rng rng(13);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.01, 0.0, rng);
  const JointPlan plan = optimize_plan(optimizer, background, 0.1);
  ASSERT_TRUE(plan.feasible);
  // Light traffic: no reason to light up the whole fabric.
  EXPECT_LT(plan.placement.active_switches, 20);
}

TEST(JointOptimizer, HeavierBackgroundActivatesMoreSwitches) {
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const JointOptimizer optimizer(&topo, &model, &power, fast_joint_config());
  Rng rng(13);
  const FlowSet light =
      make_background_flows(FlowGenConfig{}, 4, 0.01, 0.0, rng);
  Rng rng2(13);
  const FlowSet heavy =
      make_background_flows(FlowGenConfig{}, 12, 0.45, 0.0, rng2);
  const JointPlan light_plan = optimize_plan(optimizer, light, 0.3);
  const JointPlan heavy_plan = optimize_plan(optimizer, heavy, 0.3);
  EXPECT_GE(heavy_plan.placement.active_switches,
            light_plan.placement.active_switches);
}

TEST(JointOptimizer, PlanForKMonotoneSwitchCount) {
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const JointOptimizer optimizer(&topo, &model, &power, fast_joint_config());
  Rng rng(17);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 8, 0.2, 0.0, rng);
  int prev = 0;
  for (double k = 1.0; k <= 4.0; k += 1.0) {
    const JointPlan plan = optimizer.plan_for_k(background, 0.3, k);
    if (!plan.placement.feasible) continue;
    EXPECT_GE(plan.placement.active_switches, prev) << "K=" << k;
    prev = plan.placement.active_switches;
  }
}

TEST(JointOptimizer, LargerKBuysNetworkSlack) {
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const JointOptimizer optimizer(&topo, &model, &power, fast_joint_config());
  Rng rng(19);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 10, 0.35, 0.0, rng);
  const JointPlan k1 = optimizer.plan_for_k(background, 0.3, 1.0);
  const JointPlan k4 = optimizer.plan_for_k(background, 0.3, 4.0);
  if (k1.placement.feasible && k4.placement.feasible) {
    EXPECT_LE(k4.slack.total_p95, k1.slack.total_p95 * 1.25);
    EXPECT_GE(k4.effective_server_budget,
              k1.effective_server_budget - ms(1.0));
  }
}

TEST(JointOptimizer, TotalPowerIncludesServersAndNetwork) {
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const JointOptimizer optimizer(&topo, &model, &power, fast_joint_config());
  Rng rng(23);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.1, 0.0, rng);
  const JointPlan plan = optimize_plan(optimizer, background, 0.3);
  ASSERT_TRUE(plan.feasible);
  EXPECT_NEAR(plan.total_power,
              plan.network_power + 16 * plan.server.server_power, 1e-6);
  EXPECT_GT(plan.network_power, 0.0);
}

TEST(JointOptimizer, TelemetryMatchesReturnedPlan) {
  // The metrics the K search records must agree with the JointPlan it
  // returns: one k_candidate per candidate K, the chosen_k/chosen_total_w
  // gauges set from the serial reduction, and candidate classifications
  // that partition the candidate count.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const JointOptimizerConfig config = fast_joint_config();
  const JointOptimizer optimizer(&topo, &model, &power, config);
  Rng rng(23);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.1, 0.0, rng);

  const obs::MetricsSnapshot before = obs::metrics().snapshot();
  auto counter_at = [](const obs::MetricsSnapshot& snap,
                       const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0u : it->second;
  };

  const JointPlan plan = optimize_plan(optimizer, background, 0.3);
  const obs::MetricsSnapshot after = obs::metrics().snapshot();

  std::uint64_t expected_candidates = 0;
  for (double k = config.k_min; k <= config.k_max + 1e-9; k += config.k_step) {
    ++expected_candidates;
  }
  const std::uint64_t candidates =
      counter_at(after, "planner.k_candidates") -
      counter_at(before, "planner.k_candidates");
  EXPECT_EQ(candidates, expected_candidates);
  EXPECT_EQ(counter_at(after, "planner.searches") -
                counter_at(before, "planner.searches"),
            1u);
  // Feasible + infeasible classifications partition the candidates.
  const std::uint64_t classified =
      (counter_at(after, "planner.k_feasible") -
       counter_at(before, "planner.k_feasible")) +
      (counter_at(after, "planner.k_infeasible_placement") -
       counter_at(before, "planner.k_infeasible_placement")) +
      (counter_at(after, "planner.k_infeasible_budget") -
       counter_at(before, "planner.k_infeasible_budget"));
  EXPECT_EQ(classified, candidates);
  // Gauges are set in the serial reduction from the winning plan.
  EXPECT_EQ(after.gauges.at("planner.chosen_k"), plan.k);
  EXPECT_EQ(after.gauges.at("planner.chosen_total_w"), plan.total_power);
}

TEST(JointOptimizer, ParallelSearchMatchesSerialExactly) {
  // The tentpole determinism contract: optimize() with runtime.threads=N
  // must return a plan bit-identical to the serial search, for any seed.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  for (const std::uint64_t seed : {1ull, 42ull, 99ull}) {
    Rng rng(seed);
    const FlowSet background =
        make_background_flows(FlowGenConfig{}, 6, 0.25, 0.1, rng);

    JointOptimizerConfig serial_config = fast_joint_config();
    serial_config.slack.seed = seed;
    const JointOptimizer serial(&topo, &model, &power, serial_config);
    const JointPlan a = optimize_plan(serial, background, 0.3);

    JointOptimizerConfig parallel_config = serial_config;
    parallel_config.runtime.threads = 4;
    const JointOptimizer parallel(&topo, &model, &power, parallel_config);
    const JointPlan b = optimize_plan(parallel, background, 0.3);

    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.placement.switch_on, b.placement.switch_on);
    EXPECT_EQ(a.placement.flow_paths, b.placement.flow_paths);
    EXPECT_EQ(a.placement.active_switches, b.placement.active_switches);
    EXPECT_EQ(a.slack.request_p95, b.slack.request_p95);
    EXPECT_EQ(a.slack.total_p95, b.slack.total_p95);
    EXPECT_EQ(a.slack.total_p99, b.slack.total_p99);
    EXPECT_EQ(a.slack.request_mean, b.slack.request_mean);
    EXPECT_EQ(a.effective_server_budget, b.effective_server_budget);
    EXPECT_EQ(a.network_power, b.network_power);
    EXPECT_EQ(a.server.server_power, b.server.server_power);
    EXPECT_EQ(a.total_power, b.total_power);
  }
}

TEST(JointOptimizer, InjectedConsolidatorIsUsed) {
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const GreedyConsolidator greedy;
  const JointOptimizer optimizer(&topo, &model, &power, fast_joint_config(),
                                 &greedy);
  EXPECT_STREQ(optimizer.consolidator().name(), "greedy");
  Rng rng(5);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.1, 0.0, rng);
  const JointPlan plan = optimize_plan(optimizer, background, 0.2);
  EXPECT_GT(plan.placement.active_switches, 0);
}

TEST(TraceReplay, SchemeNames) {
  EXPECT_STREQ(scheme_name(Scheme::NoPowerManagement), "no-power-management");
  EXPECT_STREQ(scheme_name(Scheme::Eprons), "eprons");
}

TEST(EpochController, InvariantsHoldUnderFailureStorm) {
  // Property test: whatever a dense fault storm does to the fabric, every
  // epoch report keeps the controller's core invariants — lingering
  // backups mean actual >= wanted switches, the scale factor never drops
  // below 1, predicted power stays finite, and the active mask is never
  // disconnected while a connected surviving subnet exists.
  const FatTree topo(4);
  const Graph& g = topo.graph();
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  EpochControllerConfig config;
  config.joint.slack.samples_per_pair = 60;
  config.samples_per_epoch = 40;
  config.transition.linger_epochs = 1;
  EpochController controller(&topo, &model, &power, config);

  FaultInjectorConfig faults;
  faults.mtbf = sec(40.0);  // storm: many overlapping outages
  faults.mttr = sec(120.0);
  faults.horizon = 6 * sec(600.0);
  faults.seed = 3;
  const FaultSchedule schedule = generate_fault_schedule(g, faults);
  ASSERT_GT(schedule.events.size(), 20u);
  FaultCursor cursor(&g, &schedule.timeline);

  FlowGenConfig gen;
  gen.exclude_host = 0;
  Rng flows_rng(5);
  const FlowSet background =
      make_background_flows(gen, 6, 0.2, 0.1, flows_rng);
  const std::vector<NodeId> hosts = g.hosts();
  const std::vector<NodeId> targets(hosts.begin() + 1, hosts.end());
  const std::vector<bool> all_on(g.num_nodes(), true);

  Rng rng(17);
  for (int e = 0; e < 6; ++e) {
    const EpochReport report = controller.run_epoch(background, 0.25, rng);
    EXPECT_GE(report.actual_switches, report.wanted_switches) << "epoch " << e;
    EXPECT_GE(report.chosen_k, 1.0) << "epoch " << e;
    EXPECT_TRUE(std::isfinite(report.predicted_total)) << "epoch " << e;
    if (g.connected(hosts[0], targets, all_on, &cursor.overlay())) {
      EXPECT_TRUE(g.connected(hosts[0], targets, controller.current_mask(),
                              &cursor.overlay()))
          << "epoch " << e << ": active mask disconnected";
    }

    const SimTime epoch_end = (e + 1) * sec(600.0);
    while (!cursor.exhausted() && cursor.next_time() <= epoch_end) {
      cursor.advance_to(cursor.next_time());
      const RecoveryReport r = controller.on_failure(cursor.overlay());
      if (r.replanned) {
        EXPECT_GE(r.chosen_k, 1.0) << "epoch " << e;
      }
      EXPECT_GE(r.time_to_replan, 0.0);
      EXPECT_GE(r.emergency_boots, 0);
      EXPECT_TRUE(std::isfinite(r.estimated_outage_violations));
      EXPECT_GE(r.estimated_outage_violations, 0.0);
      if (r.connected) {
        EXPECT_TRUE(g.connected(hosts[0], targets, controller.current_mask(),
                                &cursor.overlay()))
            << "epoch " << e << ": recovery left hosts disconnected";
      }
    }
  }
}

}  // namespace
}  // namespace eprons
