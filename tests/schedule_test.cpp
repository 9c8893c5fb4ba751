// Temporal-scheduler battery (ctest label `schedule`):
//   * greedy-vs-exact differentials across 20 seeded instances: the
//     transportation-LP optimum (schedule/exact_scheduler.h) bounds the
//     greedy objective from below, and the two agree on feasibility —
//     whenever the LP places every volume the greedy/EDF path misses no
//     deadline, and every greedy miss is certified by LP infeasibility;
//   * seeded property fuzzing (loose and capacity-tight instances):
//     window containment, epoch-cap and per-flow rate-cap respect, exact
//     integer-Mbit conservation per flow and in the fixed-order totals,
//     and miss charging to the deadline epoch;
//   * byte-identical schedules (dump + fingerprint + per-epoch demand
//     matrices) across runtime.threads 1/4/8;
//   * the no-timed-flows regression: an empty schedule appends nothing, so
//     existing fixed-demand pipelines see byte-identical flow sets;
//   * trough-filling behavior on a hand-built cost valley, EDF-fallback
//     feasibility rescue, diurnal_epoch_cost inversion, config
//     validation, and golden ScheduleEpochRecord/ScheduleSummaryRecord
//     JSONL serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "flow/timed_flow.h"
#include "obs/jsonl.h"
#include "schedule/exact_scheduler.h"
#include "schedule/temporal_scheduler.h"
#include "trace/diurnal.h"
#include "util/rng.h"

namespace eprons {
namespace {

// ---- Instance generator ----------------------------------------------

struct Instance {
  TemporalSchedulerConfig config;
  TimedFlowSet flows;
};

/// Random instance on a small horizon. `tight` draws volumes near (often
/// beyond) the available cap so misses and the EDF fallback are exercised;
/// loose instances are almost always feasible.
Instance random_instance(Rng& rng, bool tight) {
  Instance inst;
  const int epochs = static_cast<int>(rng.uniform_int(6, 16));
  inst.config.epochs = epochs;
  inst.config.epoch_seconds = 60.0;
  inst.config.epoch_cost.resize(static_cast<std::size_t>(epochs));
  for (double& c : inst.config.epoch_cost) c = rng.uniform(0.0, 1.0);
  inst.config.epoch_cap_mbit =
      rng.uniform_int(tight ? 60 : 600, tight ? 240 : 2400);
  if (rng.bernoulli(0.5)) {
    inst.config.flow_rate_cap_mbit = rng.uniform_int(30, 300);
  }
  const int flows = static_cast<int>(rng.uniform_int(1, 8));
  for (int f = 0; f < flows; ++f) {
    const int release = static_cast<int>(rng.uniform_int(0, epochs - 1));
    const int window =
        static_cast<int>(rng.uniform_int(1, epochs - release));
    const long long volume = rng.uniform_int(1, tight ? 900 : 400);
    inst.flows.add(f, flows + f, volume, release, release + window - 1);
  }
  return inst;
}

/// The shared schedule invariants every instance must satisfy, feasible
/// or not: window containment, cap respect, and exact conservation.
void check_schedule_valid(const Instance& inst,
                          const TemporalScheduler& scheduler,
                          const TemporalSchedule& schedule) {
  const int epochs = inst.config.epochs;
  ASSERT_EQ(static_cast<std::size_t>(inst.flows.size()),
            schedule.per_flow.size());

  std::vector<long long> epoch_load(static_cast<std::size_t>(epochs), 0);
  long long carried = 0;
  long long missed = 0;
  for (std::size_t f = 0; f < inst.flows.size(); ++f) {
    const TimedFlow& flow = inst.flows[f];
    long long placed = 0;
    int prev_epoch = -1;
    for (const TemporalSchedule::Allocation& a : schedule.per_flow[f]) {
      EXPECT_GE(a.epoch, flow.release_epoch) << "flow " << f;
      EXPECT_LE(a.epoch, flow.deadline_epoch) << "flow " << f;
      EXPECT_GT(a.mbit, 0) << "flow " << f;
      EXPECT_GT(a.epoch, prev_epoch)
          << "allocations must be strictly epoch-ascending, flow " << f;
      prev_epoch = a.epoch;
      if (inst.config.flow_rate_cap_mbit > 0) {
        EXPECT_LE(a.mbit, inst.config.flow_rate_cap_mbit) << "flow " << f;
      }
      epoch_load[static_cast<std::size_t>(a.epoch)] += a.mbit;
      placed += a.mbit;
    }
    // Exact integer conservation per flow — `==`, no epsilon.
    EXPECT_EQ(placed + schedule.missed_mbit[f], flow.volume_mbit)
        << "flow " << f;
    carried += placed;
    missed += schedule.missed_mbit[f];
  }
  for (int e = 0; e < epochs; ++e) {
    EXPECT_LE(epoch_load[static_cast<std::size_t>(e)],
              scheduler.config().epoch_cap_mbit)
        << "epoch " << e;
    EXPECT_EQ(epoch_load[static_cast<std::size_t>(e)],
              schedule.carried_mbit[static_cast<std::size_t>(e)])
        << "epoch " << e;
  }
  // The totals are DEFINED as fixed-order component sums; re-summing must
  // reproduce them exactly, and they must close against the instance.
  EXPECT_EQ(carried, schedule.carried_total_mbit);
  EXPECT_EQ(missed, schedule.missed_total_mbit);
  EXPECT_EQ(schedule.carried_total_mbit + schedule.missed_total_mbit,
            schedule.total_volume_mbit);
  EXPECT_EQ(schedule.total_volume_mbit, inst.flows.total_volume_mbit());
}

// ---- Greedy vs exact differentials -----------------------------------

TEST(ScheduleDifferential, ExactLpBoundsGreedyAndAgreesOnFeasibility) {
  int feasible_seen = 0;
  int infeasible_seen = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Instance inst = random_instance(rng, /*tight=*/seed % 2 == 0);
    const TemporalScheduler scheduler(inst.config);
    const TemporalSchedule schedule = scheduler.schedule(inst.flows);
    check_schedule_valid(inst, scheduler, schedule);

    const ExactScheduler exact(inst.config);
    const ExactScheduleResult lp = exact.solve(inst.flows);
    if (lp.feasible) {
      ++feasible_seen;
      // EDF fallback is feasibility-optimal: an LP-feasible instance must
      // be scheduled without a single hard-deadline miss.
      EXPECT_EQ(schedule.deadline_misses, 0) << "seed " << seed;
      EXPECT_EQ(schedule.missed_total_mbit, 0) << "seed " << seed;
      // The continuous optimum is a lower bound on the greedy objective.
      const double tol =
          1e-6 * (1.0 + static_cast<double>(schedule.total_volume_mbit));
      EXPECT_LE(lp.objective_cost, schedule.objective_cost + tol)
          << "seed " << seed;
    } else {
      ++infeasible_seen;
      // LP infeasibility certifies the miss is genuine.
      EXPECT_GT(schedule.deadline_misses, 0) << "seed " << seed;
      EXPECT_GT(schedule.missed_total_mbit, 0) << "seed " << seed;
    }
  }
  // The 20-seed mix must actually exercise both verdicts.
  EXPECT_GT(feasible_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
}

// ---- Property fuzzing -------------------------------------------------

TEST(ScheduleProperty, SeededFuzzInvariantsHold) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Rng rng(seed);
    const Instance inst = random_instance(rng, /*tight=*/seed % 3 == 0);
    const TemporalScheduler scheduler(inst.config);
    const TemporalSchedule schedule = scheduler.schedule(inst.flows);
    check_schedule_valid(inst, scheduler, schedule);

    // Missed volume is charged to the epoch the deadline expired in.
    long long expired = 0;
    for (int e = 0; e < inst.config.epochs; ++e) {
      expired += schedule.expired_mbit[static_cast<std::size_t>(e)];
    }
    EXPECT_EQ(expired, schedule.missed_total_mbit) << "seed " << seed;
    for (std::size_t f = 0; f < inst.flows.size(); ++f) {
      if (schedule.missed_mbit[f] > 0) {
        EXPECT_GT(schedule.expired_mbit[static_cast<std::size_t>(
                      inst.flows[f].deadline_epoch)],
                  0)
            << "seed " << seed << " flow " << f;
      }
    }
    EXPECT_GE(schedule.deferred_mbit_epochs, 0) << "seed " << seed;
  }
}

TEST(ScheduleProperty, DemandMatricesMatchAllocationsExactly) {
  Rng rng(7);
  const Instance inst = random_instance(rng, /*tight=*/false);
  const TemporalScheduler scheduler(inst.config);
  const TemporalSchedule schedule = scheduler.schedule(inst.flows);
  for (int e = 0; e < inst.config.epochs; ++e) {
    // Mbps in the epoch's FlowSet re-sum (scaled) to the carried Mbit.
    double mbps = 0.0;
    for (const Flow& f :
         schedule.epoch_flows[static_cast<std::size_t>(e)].flows()) {
      EXPECT_EQ(f.cls, FlowClass::LatencyTolerant);
      mbps += f.demand;
    }
    EXPECT_NEAR(mbps * inst.config.epoch_seconds,
                static_cast<double>(
                    schedule.carried_mbit[static_cast<std::size_t>(e)]),
                1e-6)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(schedule.demand_mbps(e),
                     static_cast<double>(schedule.carried_mbit
                                             [static_cast<std::size_t>(e)]) /
                         inst.config.epoch_seconds);
  }
}

// ---- Thread determinism -----------------------------------------------

TEST(ScheduleDeterminism, ByteIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed : {3ULL, 11ULL, 42ULL}) {
    Rng rng(seed);
    Instance inst = random_instance(rng, /*tight=*/false);
    std::string dumps[3];
    std::uint64_t fingerprints[3] = {0, 0, 0};
    std::vector<std::string> matrices[3];
    const int threads[3] = {1, 4, 8};
    for (int i = 0; i < 3; ++i) {
      TemporalSchedulerConfig config = inst.config;
      config.runtime.threads = threads[i];
      const TemporalScheduler scheduler(config);
      const TemporalSchedule schedule = scheduler.schedule(inst.flows);
      dumps[i] = schedule.dump();
      fingerprints[i] = schedule.fingerprint();
      for (int e = 0; e < config.epochs; ++e) {
        std::string m;
        for (const Flow& f :
             schedule.epoch_flows[static_cast<std::size_t>(e)].flows()) {
          char buf[96];
          std::snprintf(buf, sizeof(buf), "%d->%d:%.17g;", f.src_host,
                        f.dst_host, f.demand);
          m += buf;
        }
        matrices[i].push_back(m);
      }
    }
    ASSERT_FALSE(dumps[0].empty());
    for (int i = 1; i < 3; ++i) {
      EXPECT_EQ(dumps[0], dumps[i]) << "seed " << seed;
      EXPECT_EQ(fingerprints[0], fingerprints[i]) << "seed " << seed;
      EXPECT_EQ(matrices[0], matrices[i]) << "seed " << seed;
    }
  }
}

// ---- No-timed-flows regression ----------------------------------------

TEST(ScheduleRegression, EmptyScheduleAppendsNothing) {
  TemporalSchedulerConfig config;
  config.epochs = 6;
  const TemporalScheduler scheduler(config);
  const TemporalSchedule schedule = scheduler.schedule(TimedFlowSet{});
  EXPECT_EQ(schedule.carried_total_mbit, 0);
  EXPECT_EQ(schedule.missed_total_mbit, 0);
  EXPECT_EQ(schedule.total_volume_mbit, 0);
  EXPECT_EQ(schedule.deadline_misses, 0);
  EXPECT_FALSE(schedule.used_edf_fallback);

  // Appending the empty schedule leaves an existing fixed-demand flow set
  // byte-identical — the pre-temporal pipelines are unaffected.
  FlowSet background;
  background.add(0, 9, 120.0, FlowClass::LatencyTolerant);
  background.add(3, 12, 45.5, FlowClass::LatencySensitive);
  const std::size_t before = background.flows().size();
  const double demand_before = background.total_demand();
  for (int e = 0; e < config.epochs; ++e) {
    schedule.append_epoch_flows(e, &background);
    EXPECT_EQ(schedule.demand_mbps(e), 0.0);
  }
  EXPECT_EQ(background.flows().size(), before);
  EXPECT_EQ(background.total_demand(), demand_before);
}

// ---- Behavior ----------------------------------------------------------

TEST(ScheduleBehavior, GreedyFillsCostTroughFirst) {
  // Cost valley at epochs 2-3; one flow whose window spans everything and
  // whose rate cap forces it across exactly two epochs.
  TemporalSchedulerConfig config;
  config.epochs = 6;
  config.epoch_cost = {0.9, 0.7, 0.1, 0.2, 0.8, 1.0};
  config.epoch_cap_mbit = 1000;
  config.flow_rate_cap_mbit = 500;
  TimedFlowSet flows;
  flows.add(0, 8, 1000, 0, 5);
  const TemporalScheduler scheduler(config);
  const TemporalSchedule schedule = scheduler.schedule(flows);
  ASSERT_EQ(schedule.per_flow.size(), 1u);
  ASSERT_EQ(schedule.per_flow[0].size(), 2u);
  EXPECT_EQ(schedule.per_flow[0][0].epoch, 2);
  EXPECT_EQ(schedule.per_flow[0][0].mbit, 500);
  EXPECT_EQ(schedule.per_flow[0][1].epoch, 3);
  EXPECT_EQ(schedule.per_flow[0][1].mbit, 500);
  EXPECT_EQ(schedule.deadline_misses, 0);
  EXPECT_FALSE(schedule.used_edf_fallback);
  // Deferral: 500 * 2 + 500 * 3 Mbit-epochs past the release.
  EXPECT_EQ(schedule.deferred_mbit_epochs, 2500);
  EXPECT_DOUBLE_EQ(schedule.objective_cost, 0.1 * 500 + 0.2 * 500);
}

TEST(ScheduleBehavior, EdfFallbackRescuesGreedyStranding) {
  // Two flows, caps sized so cost-greedy strands the late-deadline flow:
  // the cheap epoch lies in both windows and greedy gives it to the
  // earlier-deadline flow, leaving the other unable to finish. Fluid EDF
  // places both.
  TemporalSchedulerConfig config;
  config.epochs = 3;
  config.epoch_cost = {0.9, 0.1, 0.9};
  config.epoch_cap_mbit = 100;
  TimedFlowSet flows;
  flows.add(0, 8, 150, 0, 1);   // deadline 1: needs epoch 0 AND 1
  flows.add(1, 9, 150, 1, 2);   // deadline 2: needs epoch 1 AND 2
  const TemporalScheduler scheduler(config);
  const TemporalSchedule schedule = scheduler.schedule(flows);
  EXPECT_TRUE(schedule.used_edf_fallback);
  EXPECT_EQ(schedule.deadline_misses, 0);
  EXPECT_EQ(schedule.missed_total_mbit, 0);
  EXPECT_EQ(schedule.carried_total_mbit, 300);
  // And the LP agrees the instance is feasible.
  const ExactScheduler exact(config);
  EXPECT_TRUE(exact.solve(flows).feasible);
}

TEST(ScheduleBehavior, GenuineInfeasibilityIsDetectedAndCertified) {
  TemporalSchedulerConfig config;
  config.epochs = 4;
  config.epoch_cap_mbit = 100;
  TimedFlowSet flows;
  flows.add(0, 8, 350, 1, 3);  // 3 epochs x 100 cap < 350
  const TemporalScheduler scheduler(config);
  const TemporalSchedule schedule = scheduler.schedule(flows);
  EXPECT_EQ(schedule.deadline_misses, 1);
  EXPECT_EQ(schedule.missed_total_mbit, 50);
  EXPECT_EQ(schedule.carried_total_mbit, 300);
  EXPECT_EQ(schedule.expired_mbit[3], 50);
  const ExactScheduler exact(config);
  EXPECT_FALSE(exact.solve(flows).feasible);
}

TEST(ScheduleBehavior, DiurnalEpochCostInvertsTheShape) {
  const DiurnalTraceConfig diurnal;
  const std::vector<double> cost =
      TemporalScheduler::diurnal_epoch_cost(diurnal, 24, 3600.0);
  ASSERT_EQ(cost.size(), 24u);
  for (const double c : cost) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
  // Night (04:00) must price higher than the query peak (peak_minute 780
  // = 13:00): carrying volume at night keeps an otherwise-sleeping subnet
  // awake, while the daytime subnet is already paid for.
  EXPECT_GT(cost[4], cost[13]);
  // The peak-hour epoch is the cheapest epoch of the day.
  EXPECT_EQ(std::min_element(cost.begin(), cost.end()) - cost.begin(), 13);
}

TEST(ScheduleBehavior, GeneratorRespectsHorizonAndDeterminism) {
  TimedFlowGenConfig config;
  config.epochs = 12;
  config.min_window_epochs = 2;
  config.max_window_epochs = 6;
  Rng a(5);
  Rng b(5);
  const TimedFlowSet fa = make_timed_background_flows(config, 16, a);
  const TimedFlowSet fb = make_timed_background_flows(config, 16, b);
  ASSERT_EQ(fa.size(), 16u);
  ASSERT_EQ(fb.size(), 16u);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].volume_mbit, fb[i].volume_mbit);
    EXPECT_EQ(fa[i].release_epoch, fb[i].release_epoch);
    EXPECT_EQ(fa[i].deadline_epoch, fb[i].deadline_epoch);
    EXPECT_GE(fa[i].release_epoch, 0);
    EXPECT_LT(fa[i].deadline_epoch, config.epochs);
    EXPECT_GE(fa[i].window_epochs(), 1);
    EXPECT_GT(fa[i].volume_mbit, 0);
  }
}

TEST(ScheduleBehavior, GeneratorClampsWindowMinimumToHorizon) {
  // A minimum window longer than the horizon used to reach
  // Rng::uniform_int with an empty release range (and die on a modulo by
  // zero); it is clamped to the horizon, as the config documents.
  TimedFlowGenConfig config;
  config.epochs = 4;
  config.min_window_epochs = 5;
  config.max_window_epochs = 8;
  Rng rng(5);
  const TimedFlowSet flows = make_timed_background_flows(config, 16, rng);
  ASSERT_EQ(flows.size(), 16u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].release_epoch, 0);
    EXPECT_EQ(flows[i].deadline_epoch, config.epochs - 1);
  }
}

TEST(ScheduleConfig, ValidationRejectsMalformedInstances) {
  TemporalSchedulerConfig bad_epochs;
  bad_epochs.epochs = 0;
  EXPECT_THROW(TemporalScheduler{bad_epochs}, std::invalid_argument);

  TemporalSchedulerConfig bad_cost;
  bad_cost.epochs = 4;
  bad_cost.epoch_cost = {0.1, 0.2};  // size mismatch
  EXPECT_THROW(TemporalScheduler{bad_cost}, std::invalid_argument);

  TemporalSchedulerConfig ok;
  ok.epochs = 4;
  const TemporalScheduler scheduler(ok);
  TimedFlowSet beyond;
  beyond.add(0, 8, 10, 2, 7);  // deadline past the horizon
  EXPECT_THROW(scheduler.schedule(beyond), std::invalid_argument);
}

// ---- Golden JSONL serialization ---------------------------------------

TEST(ScheduleJsonl, EpochAndSummaryGolden) {
  obs::ScheduleEpochRecord epoch;
  epoch.epoch = 3;
  epoch.carried_mbit = 4500;
  epoch.backlog_mbit = 1200;
  epoch.expired_mbit = 0;
  epoch.flows_active = 2;
  epoch.flows_completed = 1;
  epoch.cap_mbit = 6000;
  epoch.cost_level = 0.25;
  epoch.demand_mbps = 125.5;
  EXPECT_EQ(obs::to_jsonl(epoch),
            "{\"source\": \"schedule_epoch\", \"epoch\": 3, "
            "\"carried_mbit\": 4500, \"backlog_mbit\": 1200, "
            "\"expired_mbit\": 0, \"flows_active\": 2, "
            "\"flows_completed\": 1, \"cap_mbit\": 6000, "
            "\"cost_level\": 0.25, \"demand_mbps\": 125.5}\n");

  obs::ScheduleSummaryRecord summary;
  summary.epochs = 24;
  summary.flows = 12;
  summary.carried_total_mbit = 170617563;
  summary.missed_total_mbit = 0;
  summary.total_volume_mbit = 170617563;
  summary.deadline_misses = 0;
  summary.deferred_mbit_epochs = 992759418;
  summary.used_edf_fallback = false;
  summary.objective_cost = 0.5;
  std::ostringstream out;
  obs::JsonlWriter writer(&out);
  writer.write(summary);
  EXPECT_EQ(out.str(),
            "{\"source\": \"schedule_summary\", \"epochs\": 24, "
            "\"flows\": 12, \"carried_total_mbit\": 170617563, "
            "\"missed_total_mbit\": 0, \"total_volume_mbit\": 170617563, "
            "\"deadline_misses\": 0, \"deferred_mbit_epochs\": 992759418, "
            "\"used_edf_fallback\": false, \"objective_cost\": 0.5}\n");
}

}  // namespace
}  // namespace eprons
