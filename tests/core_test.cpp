// Tests for src/core and src/trace: slack estimation, the analytical server
// power predictor, the joint K optimizer (including the paper's
// "turning on switches can lower total power" behavior), and diurnal
// trace generation / replay plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

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

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0u : it->second;
}

// Routed (request, reply) pairs of a plan: the pairs the slack estimator
// samples.
std::uint64_t routed_pairs(const JointPlan& plan) {
  const auto routed = [&](FlowId id) {
    return id >= 0 &&
           static_cast<std::size_t>(id) < plan.placement.flow_paths.size() &&
           plan.placement.flow_paths[static_cast<std::size_t>(id)].size() >= 2;
  };
  std::uint64_t pairs = 0;
  for (std::size_t i = 0;
       i < plan.request_flow.size() && i < plan.reply_flow.size(); ++i) {
    if (routed(plan.request_flow[i]) && routed(plan.reply_flow[i])) ++pairs;
  }
  return pairs;
}

TEST(JointOptimizer, SweepSamplesEachUniqueRoutingOnce) {
  // At light load several K candidates consolidate to the same routing;
  // the cold sweep must sample each unique routing once (its leader is the
  // first candidate that routes so) and hand the estimate to the others,
  // at every thread count, with the same plan.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  Rng rng(1);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.05, 0.1, rng);
  JointOptimizerConfig config = fast_joint_config();
  config.slack.samples_per_pair = 41;

  // The unique routings and their samples, one candidate at a time.
  std::vector<std::vector<Path>> routings;
  std::uint64_t unique_samples = 0;
  std::size_t candidates = 0;
  {
    const JointOptimizer probe(&topo, &model, &power, config);
    for (double k = config.k_min; k <= config.k_max + 1e-9;
         k += config.k_step) {
      ++candidates;
      const JointPlan plan = probe.plan_for_k(background, 0.3, k);
      if (std::find(routings.begin(), routings.end(),
                    plan.placement.flow_paths) == routings.end()) {
        routings.push_back(plan.placement.flow_paths);
        unique_samples += routed_pairs(plan) * 41u;
      }
    }
  }
  ASSERT_GT(routings.size(), 1u);
  ASSERT_LT(routings.size(), candidates);

  JointPlan serial_plan;
  for (const int threads : {1, 2, 4, 8}) {
    JointOptimizerConfig threaded = config;
    threaded.runtime.threads = threads;
    const JointOptimizer optimizer(&topo, &model, &power, threaded);
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    const JointPlan plan = optimize_plan(optimizer, background, 0.3);
    const obs::MetricsSnapshot after = obs::metrics().snapshot();
    const auto delta = [&](const std::string& name) {
      return counter_value(after, name) - counter_value(before, name);
    };
    EXPECT_EQ(delta("slack.estimates"), routings.size())
        << "threads=" << threads;
    EXPECT_EQ(delta("slack.samples"), unique_samples) << "threads=" << threads;
    EXPECT_EQ(delta("planner.k_candidates"), candidates)
        << "threads=" << threads;
    if (threads == 1) {
      serial_plan = plan;
      continue;
    }
    EXPECT_EQ(plan.k, serial_plan.k) << "threads=" << threads;
    EXPECT_EQ(plan.feasible, serial_plan.feasible) << "threads=" << threads;
    EXPECT_EQ(plan.placement.flow_paths, serial_plan.placement.flow_paths)
        << "threads=" << threads;
    EXPECT_EQ(plan.slack.request_mean, serial_plan.slack.request_mean);
    EXPECT_EQ(plan.slack.request_p95, serial_plan.slack.request_p95);
    EXPECT_EQ(plan.slack.total_mean, serial_plan.slack.total_mean);
    EXPECT_EQ(plan.slack.total_p95, serial_plan.slack.total_p95);
    EXPECT_EQ(plan.slack.total_p99, serial_plan.slack.total_p99);
    EXPECT_EQ(plan.total_power, serial_plan.total_power)
        << "threads=" << threads;
  }
}

TEST(JointOptimizer, ColdSweepRowsMatchPlanForK) {
  // Every caller evaluates a candidate through one pipeline, so each row
  // of the cold sweep's candidate table is plan_for_k at its K, bit for
  // bit: at any thread count, with or without the reference slack sweep.
  // The background is light enough that K 1-3 share one routing (and K 8-9
  // another) and the top of the sweep overflows, so shared estimates and
  // infeasible candidates both appear in the table.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  Rng rng(1);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.05, 0.1, rng);
  JointOptimizerConfig config = fast_joint_config();
  config.slack.samples_per_pair = 41;
  config.k_max = 9.0;

  for (const int threads : {1, 4}) {
    JointOptimizerConfig threaded = config;
    threaded.runtime.threads = threads;
    const JointOptimizer optimizer(&topo, &model, &power, threaded);
    std::vector<std::vector<Path>> routings;
    int feasible = 0;
    for (const bool reference : {false, true}) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " reference_slack=" + std::to_string(reference);
      obs::PlanExplainRecord explain;
      PlanRequest request;
      request.background = &background;
      request.utilization = 0.3;
      request.use_reference_slack = reference;
      request.explain = &explain;
      optimizer.optimize(request);
      ASSERT_EQ(explain.candidates.size(), 9u) << label;
      for (const obs::PlanCandidateExplain& row : explain.candidates) {
        const JointPlan plan = optimizer.plan_for_k(background, 0.3, row.k);
        const std::string at = label + " K=" + std::to_string(row.k);
        EXPECT_EQ(row.feasible, plan.feasible) << at;
        EXPECT_EQ(row.reject_reason, plan_reject_name(plan.reject)) << at;
        EXPECT_EQ(row.total_w, plan.total_power) << at;
        EXPECT_EQ(row.network_w, plan.network_power) << at;
        EXPECT_EQ(row.server_w, plan.server_power_w) << at;
        EXPECT_EQ(row.violation_probability, plan.server.achieved_vp) << at;
        EXPECT_EQ(row.slack_p95_us, plan.slack.total_p95) << at;
        EXPECT_EQ(row.server_budget_us, plan.effective_server_budget) << at;
        EXPECT_EQ(row.active_switches, plan.placement.active_switches) << at;
        if (!reference) {
          if (std::find(routings.begin(), routings.end(),
                        plan.placement.flow_paths) == routings.end()) {
            routings.push_back(plan.placement.flow_paths);
          }
          if (plan.feasible) ++feasible;
        }
      }
    }
    // The background must keep both cases the test is about.
    EXPECT_LT(routings.size(), 8u) << "threads=" << threads;
    EXPECT_GT(feasible, 0) << "threads=" << threads;
    EXPECT_LT(feasible, 9) << "threads=" << threads;
  }
}

// Greedy placement, except that consolidating at one K throws.
class ThrowAtK : public Consolidator {
 public:
  explicit ThrowAtK(double k) : k_(k) {}
  ConsolidationResult consolidate(
      const Topology& topo, const FlowSet& flows,
      const ConsolidationConfig& config) const override {
    if (config.scale_factor_k == k_) {
      throw std::runtime_error("consolidation failed");
    }
    return greedy_.consolidate(topo, flows, config);
  }
  const char* name() const override { return "throw-at-k"; }

 private:
  double k_;
  GreedyConsolidator greedy_;
};

TEST(JointOptimizer, ConsolidatorThrowAtOneKIsRethrown) {
  // A candidate whose consolidation throws must not leave the sweep's
  // sampling units waiting for it: optimize() rethrows, at every thread
  // count, whichever K fails.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  Rng rng(1);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.05, 0.1, rng);
  for (const double bad_k : {1.0, 3.0, 5.0}) {
    const ThrowAtK consolidator(bad_k);
    for (const int threads : {1, 2, 4, 8}) {
      JointOptimizerConfig config = fast_joint_config();
      config.slack.samples_per_pair = 20;
      config.runtime.threads = threads;
      const JointOptimizer optimizer(&topo, &model, &power, config,
                                     &consolidator);
      EXPECT_THROW(optimize_plan(optimizer, background, 0.3),
                   std::runtime_error)
          << "K=" << bad_k << " threads=" << threads;
    }
  }
}

TEST(JointOptimizer, RejectsBadKSweepAtConstruction) {
  // A step <= 0 would sweep forever and a NaN anywhere would sweep one
  // meaningless candidate; the optimizer refuses both when it is built.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto make = [&](const JointOptimizerConfig& config) {
    const JointOptimizer optimizer(&topo, &model, &power, config);
  };
  for (const double step : {0.0, -0.0, -1.0, nan, inf, -inf}) {
    JointOptimizerConfig config;
    config.k_step = step;
    EXPECT_THROW(make(config), std::invalid_argument) << "k_step=" << step;
  }
  for (const double bad : {nan, inf, -inf}) {
    JointOptimizerConfig low;
    low.k_min = bad;
    EXPECT_THROW(make(low), std::invalid_argument) << "k_min=" << bad;
    JointOptimizerConfig high;
    high.k_max = bad;
    EXPECT_THROW(make(high), std::invalid_argument) << "k_max=" << bad;
  }
  JointOptimizerConfig inverted;
  inverted.k_min = 3.0;
  inverted.k_max = 2.0;
  EXPECT_THROW(make(inverted), std::invalid_argument);
  JointOptimizerConfig pinned;
  pinned.k_min = pinned.k_max = 2.0;
  pinned.k_step = 0.5;
  EXPECT_NO_THROW(make(pinned));
}

TEST(JointOptimizer, RejectsBadPredictorConfigAtConstruction) {
  // A zero queue-depth cap would wrap the predictor's depth bound around
  // in size_t and grow the shared convolution cache past what
  // construction built, from the planner's threads; a negative or NaN
  // target VP has no meaning (the DVFS policies refuse it too). Both are
  // refused when the optimizer is built.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  JointOptimizerConfig no_depth;
  no_depth.predictor.max_queue_depth = 0;
  EXPECT_THROW(JointOptimizer(&topo, &model, &power, no_depth),
               std::invalid_argument);
  for (const double target : {-0.01, -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    JointOptimizerConfig config;
    config.predictor.target_vp = target;
    EXPECT_THROW(JointOptimizer(&topo, &model, &power, config),
                 std::invalid_argument)
        << "target_vp=" << target;
  }
  // The boundaries stay legal.
  JointOptimizerConfig edge;
  edge.predictor.max_queue_depth = 1;
  edge.predictor.target_vp = 0.0;
  EXPECT_NO_THROW(JointOptimizer(&topo, &model, &power, edge));
}

// The optimizer's pre-warm contract (run under TSan in CI): once a
// JointOptimizer is built over a model, fresh_convolution up to
// predictor.max_queue_depth, the work spectra that chain used and the
// predictions that read them are plain reads, safe from many threads.
TEST(JointOptimizer, PrewarmedCachesServeConcurrentReaders) {
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  const JointOptimizer optimizer(&topo, &model, &power, fast_joint_config());
  const std::size_t depths = optimizer.config().predictor.max_queue_depth;
  const ServerPowerPredictor predictor(&model, &power,
                                       optimizer.config().predictor);

  // What each reader saw: the address and mean of every fresh
  // convolution, the address and one bin of every work spectrum the chain
  // used, and one prediction per depth-bound utilization.
  struct Reads {
    std::vector<const DiscreteDistribution*> fresh;
    std::vector<double> means;
    std::vector<const Spectrum*> spectra;
    std::vector<double> bins;
    std::vector<double> watts;
  };
  const auto read = [&] {
    Reads r;
    for (std::size_t depth = 1; depth <= depths; ++depth) {
      const DiscreteDistribution& d = model.fresh_convolution(depth);
      r.fresh.push_back(&d);
      r.means.push_back(d.mean());
      const std::size_t n = fft_convolution_size(d.size(), model.work().size());
      if (depth < depths && n != 0) {
        const Spectrum& s = model.work_spectrum(n);
        r.spectra.push_back(&s);
        r.bins.push_back(s.re[1]);
      }
    }
    for (const double u : {0.1, 0.5, 0.9, 0.99}) {
      r.watts.push_back(predictor.predict(u, ms(20.0)).server_power);
    }
    return r;
  };

  std::vector<Reads> seen(4);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    readers.emplace_back([&, t] {
      for (int rep = 0; rep < 20; ++rep) seen[t] = read();
    });
  }
  for (std::thread& reader : readers) reader.join();

  const Reads serial = read();
  ASSERT_EQ(serial.fresh.size(), depths);
  ASSERT_FALSE(serial.spectra.empty());
  for (const Reads& reads : seen) {
    EXPECT_EQ(reads.fresh, serial.fresh);
    EXPECT_EQ(reads.means, serial.means);
    EXPECT_EQ(reads.spectra, serial.spectra);
    EXPECT_EQ(reads.bins, serial.bins);
    EXPECT_EQ(reads.watts, serial.watts);
  }
}

TEST(SlackEstimator, RejectsBadConfigAtConstruction) {
  // The estimator used to run shards < 1 as one shard and a negative
  // sample count as zero; both configs are refused when built, by the
  // estimator and by the optimizer that owns its config.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  for (const int shards : {0, -1}) {
    SlackEstimatorConfig slack;
    slack.shards = shards;
    EXPECT_THROW(SlackEstimator{slack}, std::invalid_argument)
        << "shards=" << shards;
    JointOptimizerConfig config;
    config.slack = slack;
    EXPECT_THROW(JointOptimizer(&topo, &model, &power, config),
                 std::invalid_argument)
        << "shards=" << shards;
  }
  SlackEstimatorConfig negative;
  negative.samples_per_pair = -1;
  EXPECT_THROW(SlackEstimator{negative}, std::invalid_argument);
  JointOptimizerConfig config;
  config.slack = negative;
  EXPECT_THROW(JointOptimizer(&topo, &model, &power, config),
               std::invalid_argument);
  // The boundaries stay legal.
  SlackEstimatorConfig edge;
  edge.shards = 1;
  edge.samples_per_pair = 0;
  EXPECT_NO_THROW(SlackEstimator{edge});
  config.slack = edge;
  EXPECT_NO_THROW(JointOptimizer(&topo, &model, &power, config));
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

// The demand measurement as a serial loop over flows and samples: the
// reference the controller's bulk draws and per-flow pool tasks must match.
struct SerialMeasurement {
  explicit SerialMeasurement(const DemandPredictorConfig& config)
      : predictor(config) {}

  void run(const FlowSet& background, int samples_per_epoch, double sigma,
           Rng& rng) {
    demands.clear();
    double ratio_sum = 0.0;
    for (const Flow& flow : background.flows()) {
      for (int s = 0; s < samples_per_epoch; ++s) {
        const double observed = flow.demand * rng.lognormal(0.0, sigma);
        predictor.add_sample(flow.id, observed);
      }
      const Bandwidth demand = predictor.predict(flow.id);
      demands.push_back(demand);
      if (flow.demand > 0.0) ratio_sum += demand / flow.demand;
    }
    ratio = background.empty()
                ? 0.0
                : ratio_sum / static_cast<double>(background.size());
  }

  DemandPredictor predictor;
  std::vector<Bandwidth> demands;
  double ratio = 0.0;
};

TEST(EpochController, MeasurementMatchesSerialReference) {
  // run_epoch's measurement (serial Box–Muller uniforms, per-flow draws,
  // windows and percentiles on the optimizer's pool) must predict what the
  // serial loop predicts and leave the rng where it leaves it, across
  // epochs (windows filling and turning over, a variate cached or not
  // between epochs) and at every thread count. A 10-sample window makes
  // the order of a flow's samples observable: it keeps only the last ten.
  const FatTree topo(4);
  const ServiceModel model = core_model();
  const ServerPowerModel power;
  FlowGenConfig gen;
  gen.exclude_host = 0;
  Rng flows_rng(5);
  const FlowSet background =
      make_background_flows(gen, 5, 0.2, 0.1, flows_rng);
  ASSERT_FALSE(background.empty());
  for (const std::size_t window : {std::size_t{300}, std::size_t{10}}) {
    for (const int samples : {0, 1, 7, 300}) {
      for (const int threads : {1, 2, 4, 8}) {
        EpochControllerConfig config;
        config.joint.slack.samples_per_pair = 20;
        config.predictor.window = window;
        config.samples_per_epoch = samples;
        config.runtime.threads = threads;
        config.joint.runtime.threads = threads;
        EpochController controller(&topo, &model, &power, config);
        SerialMeasurement reference(config.predictor);
        Rng rng(100 + samples);
        Rng reference_rng(100 + samples);
        // Start the first epoch with a variate cached.
        rng.normal();
        reference_rng.normal();
        for (int e = 0; e < 3; ++e) {
          const std::string label = "window=" + std::to_string(window) +
                                    " samples=" + std::to_string(samples) +
                                    " threads=" + std::to_string(threads) +
                                    " epoch=" + std::to_string(e);
          const EpochReport report =
              controller.run_epoch(background, 0.25, rng);
          reference.run(background, samples, config.observation_sigma,
                        reference_rng);
          EXPECT_EQ(report.prediction_ratio, reference.ratio) << label;
          const std::vector<Flow>& planned =
              controller.last_plan().flows.flows();
          ASSERT_GE(planned.size(), reference.demands.size()) << label;
          for (std::size_t i = 0; i < reference.demands.size(); ++i) {
            EXPECT_EQ(planned[i].demand, reference.demands[i])
                << label << " flow=" << i;
          }
          Rng probe = rng;
          Rng reference_probe = reference_rng;
          EXPECT_EQ(probe.normal(), reference_probe.normal()) << label;
          EXPECT_EQ(probe.next(), reference_probe.next()) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace eprons
