// Differential tests for the planner's fast paths (ISSUE 6 tentpole).
//
// The cold K sweep has three optimized subsystems — batched antithetic
// Monte-Carlo slack estimation, the predictor's per-grid-index violation
// probability, and the memoized PathCatalog — each with a retained
// reference implementation selectable per PlanRequest. The contract: every knob combination, at every thread
// count, returns a byte-identical JointPlan. These tests pin that contract
// across seeds 1/42/99 and threads 1/4/8, and additionally pin the
// low-level parities it rests on (vectorized block logs == scalar logs;
// both slack samplers == the golden estimate bits).
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "consolidate/greedy_consolidator.h"
#include "core/joint_optimizer.h"
#include "dvfs/synthetic_workload.h"
#include "golden_digest.h"
#include "net/path_latency.h"
#include "stats/fast_log.h"
#include "util/simd.h"

namespace eprons {

// Test seam on SlackEstimator (a friend): which instruction-set body the
// fast sampler's units run, and the sizes of what the estimator keeps
// across calls.
struct SlackEstimatorProbe {
  static void use_body(SlackEstimator& estimator, SimdBody body) {
    estimator.body_ = body;
  }
  struct Footprint {
    std::size_t buffers = 0;
    std::size_t buffered_doubles = 0;
    std::size_t checkpoints = 0;
    bool operator==(const Footprint&) const = default;
  };
  static Footprint footprint(const SlackEstimator& estimator) {
    Footprint out;
    {
      const std::lock_guard<std::mutex> lock(estimator.pool_mutex_);
      out.buffers = estimator.pool_.size();
      for (const auto& buffer : estimator.pool_) {
        out.buffered_doubles += buffer.capacity;
      }
    }
    out.checkpoints = estimator.checkpoints_.size();
    return out;
  }
};

namespace {

ServiceModel fastpath_model() {
  Rng rng(31);
  SyntheticWorkloadConfig config;
  config.samples = 20000;
  config.bins = 256;
  return make_search_service_model(config, rng);
}

// Byte-identity: every field that feeds a decision or a report. Doubles are
// compared with ==, not a tolerance — the fast paths reproduce the
// reference arithmetic bit for bit or they are wrong.
void expect_plans_identical(const JointPlan& a, const JointPlan& b,
                            const std::string& label) {
  EXPECT_EQ(a.feasible, b.feasible) << label;
  EXPECT_EQ(a.k, b.k) << label;
  EXPECT_EQ(a.placement.switch_on, b.placement.switch_on) << label;
  EXPECT_EQ(a.placement.link_on, b.placement.link_on) << label;
  EXPECT_EQ(a.placement.flow_paths, b.placement.flow_paths) << label;
  EXPECT_EQ(a.placement.active_switches, b.placement.active_switches)
      << label;
  EXPECT_EQ(a.placement.network_power, b.placement.network_power) << label;
  EXPECT_EQ(a.request_flow, b.request_flow) << label;
  EXPECT_EQ(a.reply_flow, b.reply_flow) << label;
  EXPECT_EQ(a.slack.request_mean, b.slack.request_mean) << label;
  EXPECT_EQ(a.slack.request_p95, b.slack.request_p95) << label;
  EXPECT_EQ(a.slack.total_mean, b.slack.total_mean) << label;
  EXPECT_EQ(a.slack.total_p95, b.slack.total_p95) << label;
  EXPECT_EQ(a.slack.total_p99, b.slack.total_p99) << label;
  EXPECT_EQ(a.server.frequency, b.server.frequency) << label;
  EXPECT_EQ(a.server.busy_fraction, b.server.busy_fraction) << label;
  EXPECT_EQ(a.server.server_power, b.server.server_power) << label;
  EXPECT_EQ(a.server.budget_infeasible, b.server.budget_infeasible) << label;
  EXPECT_EQ(a.effective_server_budget, b.effective_server_budget) << label;
  EXPECT_EQ(a.network_power, b.network_power) << label;
  EXPECT_EQ(a.total_power, b.total_power) << label;
}

// Prepared hops of every routed (request, reply) pair under `load` whose
// burst term (p_burst > 0) or collision term (bursty > 0) can fire — the
// two data-dependent branches of the pair sampler.
struct HopTermCounts {
  int burst = 0;
  int collision = 0;
};

HopTermCounts count_hop_terms(const LinkUtilization& load,
                              const ConsolidationResult& placement,
                              const std::vector<FlowId>& request_flows,
                              const std::vector<FlowId>& reply_flows) {
  const PathLatencyEstimator estimator(&load, LinkLatencyModel{});
  HopTermCounts counts;
  std::vector<PreparedHop> hops;
  for (std::size_t i = 0; i < request_flows.size() && i < reply_flows.size();
       ++i) {
    // Host-indexed ids: the aggregator's own slot holds no flow.
    if (request_flows[i] < 0 || reply_flows[i] < 0) continue;
    const Path& req =
        placement.flow_paths[static_cast<std::size_t>(request_flows[i])];
    const Path& rep =
        placement.flow_paths[static_cast<std::size_t>(reply_flows[i])];
    if (req.size() < 2 || rep.size() < 2) continue;
    for (const Path* path : {&req, &rep}) {
      estimator.prepare(*path, &hops);
      for (const PreparedHop& hop : hops) {
        if (hop.p_burst > 0.0) ++counts.burst;
        if (hop.bursty > 0.0) ++counts.collision;
      }
    }
  }
  return counts;
}

TEST(FastPath, ReferenceKnobsByteIdenticalAcrossSeedsAndThreads) {
  const FatTree topo(4);
  const ServiceModel model = fastpath_model();
  const ServerPowerModel power;
  for (const std::uint64_t seed : {1ull, 42ull, 99ull}) {
    for (const int threads : {1, 4, 8}) {
      JointOptimizerConfig config;
      config.slack.samples_per_pair = 150;
      config.slack.seed = seed;
      config.runtime.threads = threads;
      const JointOptimizer optimizer(&topo, &model, &power, config);

      Rng rng(seed);
      const FlowSet background =
          make_background_flows(FlowGenConfig{}, 6, 0.2, 0.1, rng);
      PlanRequest fast;
      fast.background = &background;
      fast.utilization = 0.3;
      const JointPlan fast_plan = optimizer.optimize(fast);
      ASSERT_TRUE(fast_plan.feasible);

      // Each knob alone, then all three together (the full reference
      // pipeline).
      for (const int mask : {1, 2, 4, 7}) {
        PlanRequest reference = fast;
        reference.use_reference_slack = (mask & 1) != 0;
        reference.use_reference_dvfs = (mask & 2) != 0;
        reference.use_reference_enumeration = (mask & 4) != 0;
        const JointPlan reference_plan = optimizer.optimize(reference);
        expect_plans_identical(
            fast_plan, reference_plan,
            "seed=" + std::to_string(seed) +
                " threads=" + std::to_string(threads) +
                " knobs=" + std::to_string(mask));
      }
    }
  }
}

TEST(FastPath, LoadedPlanFiresBurstAndCollisionTermsByteIdentical) {
  // The light loads above never push a planned hop past the burst knee, so
  // the sampler's burst branch would go undiffed. Here elephants share the
  // query paths at high utilization: the chosen plan must carry hops with
  // the burst term and hops with the collision term, and every knob
  // combination must still return the same bytes at 1/4/8 threads.
  const FatTree topo(4);
  const ServiceModel model = fastpath_model();
  const ServerPowerModel power;
  Rng rng(11);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 8, 0.45, 0.1, rng);
  const double utilization = 0.3;
  for (const int threads : {1, 4, 8}) {
    JointOptimizerConfig config;
    config.slack.samples_per_pair = 150;
    config.runtime.threads = threads;
    const JointOptimizer optimizer(&topo, &model, &power, config);
    PlanRequest fast;
    fast.background = &background;
    fast.utilization = utilization;
    const JointPlan fast_plan = optimizer.optimize(fast);

    const double lambda =
        query_arrival_rate_per_us(model, power.num_cores(), utilization);
    const LinkUtilization load = scenario_offered_load(
        topo.graph(), fast_plan.placement, fast_plan.flows,
        fast_plan.request_flow, fast_plan.reply_flow,
        query_stream_rate(lambda, 1000.0), query_stream_rate(lambda, 2000.0));
    const HopTermCounts counts =
        count_hop_terms(load, fast_plan.placement, fast_plan.request_flow,
                        fast_plan.reply_flow);
    EXPECT_GT(counts.burst, 0) << "threads=" << threads;
    EXPECT_GT(counts.collision, 0) << "threads=" << threads;

    for (int mask = 1; mask <= 7; ++mask) {
      PlanRequest reference = fast;
      reference.use_reference_slack = (mask & 1) != 0;
      reference.use_reference_dvfs = (mask & 2) != 0;
      reference.use_reference_enumeration = (mask & 4) != 0;
      expect_plans_identical(fast_plan, optimizer.optimize(reference),
                             "threads=" + std::to_string(threads) +
                                 " knobs=" + std::to_string(mask));
    }
  }
}

TEST(FastPath, ThreadCountNeverChangesThePlan) {
  // The worker count is an execution detail; seed and shard count are the
  // only sampling inputs. threads=1 vs 4 vs 8 must agree bit for bit.
  const FatTree topo(4);
  const ServiceModel model = fastpath_model();
  const ServerPowerModel power;
  Rng rng(7);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 8, 0.25, 0.1, rng);

  JointPlan serial_plan;
  for (const int threads : {1, 4, 8}) {
    JointOptimizerConfig config;
    config.slack.samples_per_pair = 150;
    config.runtime.threads = threads;
    const JointOptimizer optimizer(&topo, &model, &power, config);
    PlanRequest request;
    request.background = &background;
    request.utilization = 0.3;
    const JointPlan plan = optimizer.optimize(request);
    if (threads == 1) {
      serial_plan = plan;
    } else {
      expect_plans_identical(serial_plan, plan,
                             "threads=" + std::to_string(threads));
    }
  }
}

TEST(FastPath, BlockLogBitIdenticalToScalarLog) {
  // The slack estimator's vectorized block logs must match the scalar
  // fast_log lane for lane — SIMD lanes run the same IEEE op sequence.
  Rng rng(12345);
  std::vector<double> x(1024);
  for (double& v : x) {
    do {
      v = rng.uniform();
    } while (v == 0.0);
  }

  std::vector<double> even(x);
  std::vector<double> odd(x.size());
  fast_log_block_antithetic(even.data(), even.data(), odd.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(even[i], fast_log(x[i])) << "i=" << i;
    EXPECT_EQ(odd[i], fast_log(1.0 - x[i])) << "i=" << i;
  }

  // And fast_log itself must agree with libm to within 1 ulp (it is the
  // fdlibm algorithm; measured max relative error is 2.2e-16).
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double exact = std::log(x[i]);
    EXPECT_NEAR(fast_log(x[i]), exact, std::abs(exact) * 4.5e-16 + 1e-300)
        << "x=" << x[i];
  }
}

TEST(FastPath, BatchEstimateMatchesSingleShot) {
  // estimate_many(queries)[i] must be bit-identical to estimate(queries[i])
  // — the batch seam adds parallelism, never different numbers.
  const FatTree topo(4);
  Rng rng(5);
  FlowSet flows;
  std::vector<FlowId> request_flows;
  std::vector<FlowId> reply_flows;
  for (int host = 1; host <= 4; ++host) {
    request_flows.push_back(
        flows.add(0, host, 10.0, FlowClass::LatencySensitive));
    reply_flows.push_back(
        flows.add(host, 0, 20.0, FlowClass::LatencySensitive));
  }
  const GreedyConsolidator greedy(&topo);
  const auto placement = greedy.consolidate(flows, ConsolidationConfig{});
  ASSERT_TRUE(placement.feasible);
  const LinkUtilization load =
      scenario_offered_load(topo.graph(), placement, flows, {}, {}, 0.0, 0.0);

  SlackEstimatorConfig config;
  config.samples_per_pair = 200;
  const SlackEstimator estimator(config);
  SlackEstimator::Query query;
  query.placement = &placement;
  query.offered_load = &load;
  query.request_flows = &request_flows;
  query.reply_flows = &reply_flows;

  const std::vector<SlackEstimate> batch =
      estimator.estimate_many({query, query});
  const SlackEstimate single = estimator.estimate(query);
  for (const SlackEstimate& est : batch) {
    EXPECT_EQ(est.request_mean, single.request_mean);
    EXPECT_EQ(est.request_p95, single.request_p95);
    EXPECT_EQ(est.total_mean, single.total_mean);
    EXPECT_EQ(est.total_p95, single.total_p95);
    EXPECT_EQ(est.total_p99, single.total_p99);
  }
}

// Slack goldens: estimate_many's five fields, pinned bit for bit to the
// values the per-hop pair sampler produced. Two queries over one k=4
// placement under hot loads — hops past the burst knee, hops shared with
// elephant trains, and hops with both — so every branch of the pair
// combine fires; 101 samples per pair make each pair wrap a draw block
// (51 iterations against blocks of 32) and discard an odd partner.
struct SlackGoldenFixture {
  FatTree topo{4};
  FlowSet flows;
  std::vector<FlowId> request_flows;
  std::vector<FlowId> reply_flows;
  ConsolidationResult placement;
  std::vector<LinkUtilization> loads;

  SlackGoldenFixture() {
    for (int host = 1; host <= 12; ++host) {
      request_flows.push_back(
          flows.add(0, host, 10.0, FlowClass::LatencySensitive));
      reply_flows.push_back(
          flows.add(host, 0, 20.0, FlowClass::LatencySensitive));
    }
    const GreedyConsolidator greedy(&topo);
    placement = greedy.consolidate(flows, ConsolidationConfig{});
    const auto path = [&](FlowId id) -> const Path& {
      return placement.flow_paths[static_cast<std::size_t>(id)];
    };
    // Query 0: a plain hot request path (burst only), an elephant on a
    // reply path (collision only) and a hot elephant (both).
    LinkUtilization hot = scenario_offered_load(topo.graph(), placement, flows,
                                                {}, {}, 0.0, 0.0);
    hot.add_path_load(path(request_flows[4]), 760.0);
    hot.add_path_load(path(reply_flows[8]), 300.0, /*bursty=*/true);
    hot.add_path_load(path(request_flows[11]), 820.0, /*bursty=*/true);
    loads.push_back(hot);
    // Query 1: the same placement one notch hotter.
    hot.add_path_load(path(reply_flows[2]), 900.0, /*bursty=*/true);
    hot.add_path_load(path(request_flows[6]), 250.0);
    loads.push_back(hot);
  }

  std::vector<SlackEstimator::Query> queries() const {
    std::vector<SlackEstimator::Query> out;
    for (const LinkUtilization& load : loads) {
      SlackEstimator::Query query;
      query.placement = &placement;
      query.offered_load = &load;
      query.request_flows = &request_flows;
      query.reply_flows = &reply_flows;
      out.push_back(query);
    }
    return out;
  }
};

std::uint64_t slack_digest(const std::vector<SlackEstimate>& estimates) {
  BitDigest digest;
  digest.mix(estimates.size());
  for (const SlackEstimate& e : estimates) {
    digest.mix_double(e.request_mean);
    digest.mix_double(e.request_p95);
    digest.mix_double(e.total_mean);
    digest.mix_double(e.total_p95);
    digest.mix_double(e.total_p99);
  }
  return digest.value();
}

TEST(SlackGolden, EstimateManyMatchesReferenceBits) {
  const SlackGoldenFixture fixture;
  ASSERT_TRUE(fixture.placement.feasible);
  // The loads must fire both data-dependent terms, alone and together.
  int burst = 0;
  int collision = 0;
  int both = 0;
  for (const LinkUtilization& load : fixture.loads) {
    const PathLatencyEstimator estimator(&load, LinkLatencyModel{});
    std::vector<PreparedHop> hops;
    for (const Path& path : fixture.placement.flow_paths) {
      estimator.prepare(path, &hops);
      for (const PreparedHop& hop : hops) {
        if (hop.p_burst > 0.0) ++burst;
        if (hop.bursty > 0.0) ++collision;
        if (hop.p_burst > 0.0 && hop.bursty > 0.0) ++both;
      }
    }
  }
  ASSERT_GT(burst, both);
  ASSERT_GT(collision, both);
  ASSERT_GT(both, 0);

  for (const bool reference : {false, true}) {
    for (const int threads : {1, 4}) {
      SlackEstimatorConfig config;
      config.samples_per_pair = 101;
      config.shards = 8;
      config.seed = 2024;
      const SlackEstimator estimator(config);
      ThreadPool pool(threads);
      const std::vector<SlackEstimate> estimates =
          estimator.estimate_many(fixture.queries(), &pool, reference);
      ASSERT_EQ(estimates.size(), 2u);
      EXPECT_EQ(slack_digest(estimates), 0x9f3f9a1b462c8282ull)
          << "reference=" << reference << " threads=" << threads;
    }
  }
}

// Under a link model whose burst_coeff exceeds 0.5, a hop past p_burst 0.5
// can land both antithetic partners behind the burst, and a hop whose
// elephant duty cycle exceeds 0.5 can collide both; at or below 0.5 at most
// one partner lands. The default link model never has a burst term past
// 0.5. This load over the golden placement carries hops of all four kinds.
LinkLatencyConfig high_term_link() {
  LinkLatencyConfig link;
  link.burst_coeff = 0.9;
  return link;
}

LinkUtilization high_term_load(const SlackGoldenFixture& fixture) {
  const auto path = [&](FlowId id) -> const Path& {
    return fixture.placement.flow_paths[static_cast<std::size_t>(id)];
  };
  LinkUtilization load =
      scenario_offered_load(fixture.topo.graph(), fixture.placement,
                            fixture.flows, {}, {}, 0.0, 0.0);
  load.add_path_load(path(fixture.request_flows[3]), 780.0);
  load.add_path_load(path(fixture.request_flows[9]), 960.0);
  load.add_path_load(path(fixture.reply_flows[5]), 300.0, /*bursty=*/true);
  load.add_path_load(path(fixture.reply_flows[10]), 700.0, /*bursty=*/true);
  return load;
}

// The digest was captured from the reference sampler.
TEST(SlackGolden, TermsAboveOneHalfMatchPinnedBits) {
  const SlackGoldenFixture fixture;
  ASSERT_TRUE(fixture.placement.feasible);
  const LinkLatencyConfig link = high_term_link();
  const LinkUtilization load = high_term_load(fixture);

  int burst_low = 0;
  int burst_high = 0;
  int collision_low = 0;
  int collision_high = 0;
  const PathLatencyEstimator hops_of(&load, LinkLatencyModel{link});
  std::vector<PreparedHop> hops;
  for (const Path& p : fixture.placement.flow_paths) {
    hops_of.prepare(p, &hops);
    for (const PreparedHop& hop : hops) {
      if (hop.p_burst > 0.0) ++(hop.p_burst <= 0.5 ? burst_low : burst_high);
      if (hop.bursty > 0.0) {
        ++(hop.bursty <= 0.5 ? collision_low : collision_high);
      }
    }
  }
  ASSERT_GT(burst_low, 0);
  ASSERT_GT(burst_high, 0);
  ASSERT_GT(collision_low, 0);
  ASSERT_GT(collision_high, 0);

  std::vector<SlackEstimator::Query> queries = fixture.queries();
  for (SlackEstimator::Query& query : queries) query.offered_load = &load;
  for (const bool reference : {false, true}) {
    for (const int threads : {1, 4}) {
      SlackEstimatorConfig config;
      config.samples_per_pair = 101;
      config.shards = 8;
      config.seed = 2024;
      config.link_model = LinkLatencyModel{link};
      const SlackEstimator estimator(config);
      ThreadPool pool(threads);
      const std::vector<SlackEstimate> estimates =
          estimator.estimate_many(queries, &pool, reference);
      ASSERT_EQ(estimates.size(), 2u);
      EXPECT_EQ(slack_digest(estimates), 0xcd3182608bb3d813ull)
          << "reference=" << reference << " threads=" << threads;
    }
  }
}

// Every body the host runs, at 1, 2, 4 and 8 workers, returns the pinned
// bits of both slack goldens — the default link model's and the one with
// terms above 0.5 — as does the reference sampler, which steps a scalar
// Rng.
TEST(SlackSampler, EveryBodyMatchesPinnedBitsAtEveryThreadCount) {
  const SlackGoldenFixture fixture;
  ASSERT_TRUE(fixture.placement.feasible);
  const LinkUtilization load = high_term_load(fixture);
  std::vector<SlackEstimator::Query> high_terms = fixture.queries();
  for (SlackEstimator::Query& query : high_terms) query.offered_load = &load;
  struct Golden {
    const char* name;
    LinkLatencyConfig link;
    std::vector<SlackEstimator::Query> queries;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"default", LinkLatencyConfig{}, fixture.queries(),
       0x9f3f9a1b462c8282ull},
      {"terms above 0.5", high_term_link(), high_terms,
       0xcd3182608bb3d813ull},
  };
  std::vector<SimdBody> bodies;
  for (const SimdBody body :
       {SimdBody::kBaseline, SimdBody::kAvx2, SimdBody::kAvx512}) {
    if (simd_body_runs(body)) bodies.push_back(body);
  }
  for (const Golden& golden : goldens) {
    for (const int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      SlackEstimatorConfig config;
      config.samples_per_pair = 101;
      config.shards = 8;
      config.seed = 2024;
      config.link_model = LinkLatencyModel{golden.link};
      const std::string label = std::string(golden.name) +
                                " threads=" + std::to_string(threads);
      for (const SimdBody body : bodies) {
        SlackEstimator estimator(config);
        SlackEstimatorProbe::use_body(estimator, body);
        EXPECT_EQ(slack_digest(estimator.estimate_many(golden.queries, &pool)),
                  golden.digest)
            << label << " body=" << static_cast<int>(body);
      }
      const SlackEstimator reference(config);
      EXPECT_EQ(slack_digest(reference.estimate_many(golden.queries, &pool,
                                                     /*reference=*/true)),
                golden.digest)
          << label << " reference";
    }
  }
}

// Epoch after epoch through one optimizer, whose estimator keeps its
// sample buffers and stream checkpoints: the plans equal those of a
// freshly built optimizer, whose estimator has drawn nothing, and once an
// epoch has run, running it again grows neither the buffer pool nor the
// checkpoint table.
TEST(SlackSampler, RepeatedEpochsReuseBuffersAndCheckpoints) {
  const FatTree topo(4);
  const ServiceModel model = fastpath_model();
  const ServerPowerModel power;
  JointOptimizerConfig config;
  config.slack.samples_per_pair = 120;
  config.runtime.threads = 4;
  const JointOptimizer optimizer(&topo, &model, &power, config);
  const SlackEstimator& kept = optimizer.slack_estimator();
  using Footprint = SlackEstimatorProbe::Footprint;
  EXPECT_EQ(SlackEstimatorProbe::footprint(kept), Footprint{});

  std::vector<FlowSet> backgrounds;
  for (int epoch = 0; epoch < 4; ++epoch) {
    Rng rng(100 + epoch);
    backgrounds.push_back(make_background_flows(FlowGenConfig{}, 8,
                                                0.2 + 0.08 * epoch, 0.1, rng));
  }
  BitDigest digest;
  const auto run_epoch = [&](int epoch, bool record) {
    PlanRequest request;
    request.background = &backgrounds[static_cast<std::size_t>(epoch)];
    request.utilization = 0.2 + 0.05 * epoch;
    const JointPlan plan = optimizer.optimize(request);
    const JointOptimizer fresh(&topo, &model, &power, config);
    expect_plans_identical(plan, fresh.optimize(request),
                           "epoch=" + std::to_string(epoch));
    if (!record) return;
    for (const double v : {plan.slack.request_mean, plan.slack.request_p95,
                           plan.slack.total_mean, plan.slack.total_p95,
                           plan.slack.total_p99, plan.total_power}) {
      digest.mix_double(v);
    }
  };

  run_epoch(0, true);
  const Footprint first = SlackEstimatorProbe::footprint(kept);
  EXPECT_GT(first.buffers, 0u);
  EXPECT_GT(first.checkpoints, 0u);
  run_epoch(0, false);
  EXPECT_EQ(SlackEstimatorProbe::footprint(kept), first);
  for (int epoch = 1; epoch < 4; ++epoch) run_epoch(epoch, true);
  EXPECT_EQ(digest.value(), 0xf8c07386b8ad29d6ull);
  const Footprint all = SlackEstimatorProbe::footprint(kept);
  for (int epoch = 0; epoch < 4; ++epoch) run_epoch(epoch, false);
  EXPECT_EQ(SlackEstimatorProbe::footprint(kept), all);
}

}  // namespace
}  // namespace eprons
