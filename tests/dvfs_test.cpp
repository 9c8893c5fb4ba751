// Tests for src/dvfs: the service/work model, equivalent-queue convolution
// cache, and all five policies (EPRONS-Server, Rubik, Rubik+, TimeTrader,
// MaxFreq) — including the paper's core claims: average-VP selects a
// frequency no higher than max-VP, and EPRONS-Server's choice still meets
// the average miss budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "dvfs/equivalent_queue.h"
#include "dvfs/policies.h"
#include "dvfs/synthetic_workload.h"
#include "golden_digest.h"
#include "util/rng.h"

namespace eprons {
namespace {

ServiceModel test_model(double mean_ms = 8.0, std::uint64_t seed = 11) {
  Rng rng(seed);
  SyntheticWorkloadConfig config;
  config.mean_service_ms = mean_ms;
  config.samples = 20000;
  config.bins = 256;
  return make_search_service_model(config, rng);
}

TEST(ServiceModel, ServiceTimeScalesWithFrequency) {
  const ServiceModel model = test_model();
  const Work w = 10.0e6;  // 10 Mcycles
  const SimTime fast = model.service_time(w, 2.7);
  const SimTime slow = model.service_time(w, 1.2);
  EXPECT_GT(slow, fast);
  // With mu = 0.15, slowdown is less than the pure frequency ratio.
  EXPECT_LT(slow / fast, 2.7 / 1.2);
  EXPECT_GT(slow / fast, 1.0);
}

TEST(ServiceModel, WorkCapacityInvertsServiceTime) {
  const ServiceModel model = test_model();
  for (Freq f : {1.2, 1.8, 2.7}) {
    const Work w = 5.0e6;
    const SimTime t = model.service_time(w, f);
    EXPECT_NEAR(model.work_capacity(t, f), w, w * 1e-9) << "f=" << f;
  }
}

TEST(ServiceModel, MeanServiceMatchesConfiguredMean) {
  const ServiceModel model = test_model(8.0);
  // At f_max the synthetic distribution was built for ~8 ms mean (the
  // Pareto tail raises it a little above the log-normal body's mean).
  EXPECT_NEAR(model.mean_service_time(2.7), ms(8.0), ms(1.6));
}

TEST(ServiceModel, FrequencyGridMatchesPaper) {
  const ServiceModel model = test_model();
  const auto& grid = model.frequency_grid();
  EXPECT_EQ(grid.size(), 16u);
  EXPECT_DOUBLE_EQ(grid.front(), 1.2);
  EXPECT_DOUBLE_EQ(grid.back(), 2.7);
}

TEST(ServiceModel, ViolationProbabilityMonotoneInFrequency) {
  const ServiceModel model = test_model();
  const auto& work = model.work();
  double prev = 1.1;
  for (Freq f : model.frequency_grid()) {
    const double vp = model.violation_probability(work, 0.0, ms(10.0), f);
    EXPECT_LE(vp, prev + 1e-12);
    prev = vp;
  }
}

TEST(ServiceModel, PastDeadlineIsCertainViolation) {
  const ServiceModel model = test_model();
  EXPECT_DOUBLE_EQ(
      model.violation_probability(model.work(), 100.0, 50.0, 2.7), 1.0);
}

TEST(ServiceModel, FreshConvolutionMeansScale) {
  const ServiceModel model = test_model();
  const double m1 = model.fresh_convolution(1).mean();
  const double m3 = model.fresh_convolution(3).mean();
  EXPECT_NEAR(m3, 3.0 * m1, 3.0 * m1 * 0.01);
}

TEST(ServiceModel, RejectsBadConfig) {
  Rng rng(1);
  SyntheticWorkloadConfig wl;
  wl.samples = 1000;
  ServiceModelConfig bad = wl.service;
  bad.freq_independent_fraction = 1.0;
  EXPECT_THROW(
      ServiceModel(make_search_work_distribution(wl, rng), bad),
      std::invalid_argument);
}

TEST(EquivalentQueue, FreshUsesSharedCache) {
  const ServiceModel model = test_model();
  const EquivalentQueue q(&model, 3, /*in_service_done=*/0.0);
  EXPECT_EQ(&q.at(0), &model.fresh_convolution(1));
  EXPECT_EQ(&q.at(2), &model.fresh_convolution(3));
}

TEST(EquivalentQueue, ResidualShrinksHeadDistribution) {
  const ServiceModel model = test_model();
  const Work done = model.work().mean();
  const EquivalentQueue q(&model, 2, done);
  // The head's remaining-work mean is less than a fresh request's.
  EXPECT_LT(q.at(0).mean(), model.work().mean());
  // And the second request's equivalent still includes one fresh request.
  EXPECT_GT(q.at(1).mean(), q.at(0).mean());
}

TEST(EquivalentQueue, ThrowsOnEmptyOrOutOfRange) {
  const ServiceModel model = test_model();
  EXPECT_THROW(EquivalentQueue(&model, 0, 0.0), std::invalid_argument);
  const EquivalentQueue q(&model, 2, 0.0);
  EXPECT_THROW(q.at(2), std::out_of_range);
}

// Rubik's and Rubik+'s settings of the statistical policy (the defaults
// are EPRONS-Server's).
constexpr StatisticalPolicyConfig kRubik{
    .average_vp = false, .edf = false, .use_network_slack = false};
constexpr StatisticalPolicyConfig kRubikPlus{.average_vp = false,
                                             .edf = false};

QueuedRequest make_request(RequestId id, SimTime arrival, SimTime server_dl,
                           SimTime slack_dl) {
  QueuedRequest r;
  r.id = id;
  r.arrival = arrival;
  r.deadline_server = server_dl;
  r.deadline_with_slack = slack_dl;
  return r;
}

TEST(Policies, MaxFreqAlwaysMax) {
  const ServiceModel model = test_model();
  MaxFreqPolicy policy(&model);
  const QueuedRequest r = make_request(1, 0.0, ms(25.0), ms(27.0));
  EXPECT_DOUBLE_EQ(
      policy.select_frequency(0.0, std::span<const QueuedRequest>(&r, 1), 0.0),
      2.7);
}

TEST(Policies, RubikMeetsPerRequestVp) {
  const ServiceModel model = test_model();
  StatisticalPolicy policy(&model, kRubik);
  const QueuedRequest r = make_request(1, 0.0, ms(25.0), ms(27.0));
  const Freq f =
      policy.select_frequency(0.0, std::span<const QueuedRequest>(&r, 1), 0.0);
  EXPECT_LE(model.violation_probability(model.fresh_convolution(1), 0.0,
                                        ms(25.0), f),
            0.05 + 1e-12);
  // And one grid step lower would violate (minimality), unless already at
  // the grid bottom.
  if (f > 1.2 + 1e-9) {
    EXPECT_GT(model.violation_probability(model.fresh_convolution(1), 0.0,
                                          ms(25.0), f - 0.1),
              0.05);
  }
}

TEST(Policies, RubikIgnoresSlackRubikPlusUsesIt) {
  const ServiceModel model = test_model();
  StatisticalPolicy rubik(&model, kRubik);
  StatisticalPolicy rubik_plus(&model, kRubikPlus);
  // Tight server deadline, generous slack: Rubik must run faster.
  const QueuedRequest r = make_request(1, 0.0, ms(12.0), ms(20.0));
  const Freq f_rubik = rubik.select_frequency(
      0.0, std::span<const QueuedRequest>(&r, 1), 0.0);
  const Freq f_plus = rubik_plus.select_frequency(
      0.0, std::span<const QueuedRequest>(&r, 1), 0.0);
  EXPECT_GE(f_rubik, f_plus);
  EXPECT_GT(f_rubik, f_plus - 1e-12);  // strictly greater in this setup
}

TEST(Policies, EpronsNeverExceedsRubikPlusFrequency) {
  // The paper's Fig. 4 claim: the average-VP frequency f_new is at most
  // the max-VP frequency f2. Property-checked over random queues.
  const ServiceModel model = test_model();
  StatisticalPolicy rubik_plus(&model, kRubikPlus);
  StatisticalPolicy eprons(&model);
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<QueuedRequest> queue;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 3));
    SimTime arrival = 0.0;
    for (int i = 0; i < n; ++i) {
      const SimTime deadline = rng.uniform(ms(15.0), ms(40.0));
      queue.push_back(make_request(i, arrival, deadline, deadline));
      arrival += rng.uniform(0.0, ms(2.0));
    }
    const Freq f_plus = rubik_plus.select_frequency(
        0.0, std::span<const QueuedRequest>(queue.data(), queue.size()), 0.0);
    const Freq f_eprons = eprons.select_frequency(
        0.0, std::span<const QueuedRequest>(queue.data(), queue.size()), 0.0);
    EXPECT_LE(f_eprons, f_plus + 1e-12) << "trial " << trial;
  }
}

TEST(Policies, EpronsMeetsAverageVpBudget) {
  const ServiceModel model = test_model();
  StatisticalPolicy eprons(&model);
  std::vector<QueuedRequest> queue = {
      make_request(1, 0.0, ms(25.0), ms(27.0)),
      make_request(2, ms(1.0), ms(32.0), ms(36.0)),
      make_request(3, ms(2.0), ms(40.0), ms(48.0)),
  };
  const std::span<const QueuedRequest> view(queue.data(), queue.size());
  const Freq f = eprons.select_frequency(0.0, view, 0.0);
  ASSERT_LT(f, 2.7) << "queue should be feasible below f_max";
  EXPECT_LE(eprons.average_vp(0.0, view, 0.0, f), 0.05 + 1e-12);
  if (f > 1.2 + 1e-9) {
    EXPECT_GT(eprons.average_vp(0.0, view, 0.0, f - 0.1), 0.05);
  }
}

TEST(Policies, EpronsAllowsIndividualViolationsAboveBudget) {
  // The defining behavior (Fig. 4): with one tight and one loose request,
  // the chosen frequency may give the tight request VP > 5% as long as the
  // average holds.
  const ServiceModel model = test_model();
  StatisticalPolicy eprons(&model);
  std::vector<QueuedRequest> queue = {
      make_request(1, 0.0, ms(14.0), ms(14.0)),   // tight
      make_request(2, 0.0, ms(60.0), ms(60.0)),   // very loose
  };
  const std::span<const QueuedRequest> view(queue.data(), queue.size());
  const Freq f = eprons.select_frequency(0.0, view, 0.0);
  const double vp_tight = model.violation_probability(
      model.fresh_convolution(1), 0.0, ms(14.0), f);
  const double avg = eprons.average_vp(0.0, view, 0.0, f);
  EXPECT_LE(avg, 0.05 + 1e-12);
  // Rubik+ would have run fast enough for the tight one alone.
  StatisticalPolicy rubik_plus(&model, kRubikPlus);
  const Freq f_plus = rubik_plus.select_frequency(0.0, view, 0.0);
  EXPECT_LE(f, f_plus);
  (void)vp_tight;  // informational; the average bound is the contract
}

TEST(Policies, EpronsRequestsEdfReorder) {
  const ServiceModel model = test_model();
  StatisticalPolicy eprons(&model);
  StatisticalPolicy rubik(&model, kRubik);
  EXPECT_TRUE(eprons.reorder_edf());
  EXPECT_FALSE(rubik.reorder_edf());
}

TEST(Policies, ImpossibleDeadlineFallsBackToMaxFrequency) {
  const ServiceModel model = test_model();
  StatisticalPolicy eprons(&model);
  const QueuedRequest r = make_request(1, 0.0, 1.0, 1.0);  // 1 us deadline
  EXPECT_DOUBLE_EQ(eprons.select_frequency(
                       0.0, std::span<const QueuedRequest>(&r, 1), 0.0),
                   2.7);
}

TEST(Policies, TimeTraderStartsAtMaxAndDecays) {
  const ServiceModel model = test_model();
  TimeTraderPolicy policy(&model);
  EXPECT_DOUBLE_EQ(policy.current_frequency(), 2.7);
  // Feed comfortable latencies over many periods: frequency must decay.
  SimTime now = 0.0;
  for (int i = 0; i < 200; ++i) {
    now += sec(0.5);
    policy.on_request_complete(now, ms(10.0), ms(30.0));
  }
  EXPECT_LT(policy.current_frequency(), 2.7);
}

TEST(Policies, TimeTraderClimbsOnMisses) {
  const ServiceModel model = test_model();
  TimeTraderPolicy policy(&model);
  SimTime now = 0.0;
  for (int i = 0; i < 100; ++i) {
    now += sec(0.5);
    policy.on_request_complete(now, ms(10.0), ms(30.0));
  }
  const Freq low = policy.current_frequency();
  for (int i = 0; i < 100; ++i) {
    now += sec(0.5);
    policy.on_request_complete(now, ms(35.0), ms(30.0));
  }
  EXPECT_GT(policy.current_frequency(), low);
}

TEST(Policies, TimeTraderRespectsAdjustPeriod) {
  const ServiceModel model = test_model();
  TimeTraderPolicy policy(&model);
  // Many completions within one period: at most one adjustment.
  for (int i = 0; i < 50; ++i) {
    policy.on_request_complete(ms(1.0 * i), ms(5.0), ms(30.0));
  }
  EXPECT_GE(policy.current_frequency(), 2.7 - 0.1 - 1e-12);
}

TEST(Policies, FactoryProducesAllNames) {
  const ServiceModel model = test_model();
  for (const char* name :
       {"max", "rubik", "rubik+", "eprons", "timetrader", "eprons-noedf",
        "eprons-noslack", "eprons-maxvp"}) {
    const auto policy = make_policy(name, &model);
    ASSERT_NE(policy, nullptr) << name;
  }
  EXPECT_THROW(make_policy("bogus", &model), std::invalid_argument);
}

TEST(Policies, FactoryNamesReportTheirPolicyAndQueueOrder) {
  const ServiceModel model = test_model();
  struct Expected {
    const char* name;
    const char* policy;
    bool edf;
  };
  for (const Expected& e : {Expected{"max", "no-power-management", false},
                            Expected{"rubik", "rubik", false},
                            Expected{"rubik+", "rubik+", false},
                            Expected{"eprons", "eprons-server", true},
                            Expected{"eprons-noedf", "eprons-server", false},
                            Expected{"eprons-noslack", "eprons-server", true},
                            Expected{"eprons-maxvp", "eprons-server", true},
                            Expected{"timetrader", "timetrader", false}}) {
    const auto policy = make_policy(e.name, &model);
    EXPECT_EQ(policy->name(), e.policy) << e.name;
    EXPECT_EQ(policy->reorder_edf(), e.edf) << e.name;
  }
}

TEST(Policies, EpronsNoSlackUsesServerDeadline) {
  const ServiceModel model = test_model();
  StatisticalPolicy no_slack(&model, {.use_network_slack = false});
  StatisticalPolicy with_slack(&model);
  // Tight server deadline, generous slack: the no-slack variant must run
  // at least as fast.
  const QueuedRequest r = make_request(1, 0.0, ms(14.0), ms(25.0));
  const std::span<const QueuedRequest> view(&r, 1);
  EXPECT_GE(no_slack.select_frequency(0.0, view, 0.0),
            with_slack.select_frequency(0.0, view, 0.0));
}

TEST(Policies, TimeTraderEcnCongestionRaisesFrequency) {
  // Under ECN congestion TimeTrader's effective target shrinks by the
  // network budget, so the same observed latencies stop justifying a
  // step-down (the paper's "overly conservative" behavior).
  const ServiceModel model = test_model();
  TimeTraderPolicy relaxed(&model);
  TimeTraderPolicy congested(&model);
  congested.on_network_congestion(true);
  EXPECT_TRUE(congested.network_congested());
  SimTime now = 0.0;
  for (int i = 0; i < 200; ++i) {
    now += sec(0.5);
    // Latency sits between the congested target (25 ms) and the relaxed
    // 0.9*30 = 27 ms threshold: relaxed steps down, congested does not.
    relaxed.on_request_complete(now, ms(26.0), ms(30.0));
    congested.on_request_complete(now, ms(26.0), ms(30.0));
  }
  EXPECT_LT(relaxed.current_frequency(), congested.current_frequency());
  EXPECT_DOUBLE_EQ(congested.current_frequency(), 2.7);
}

TEST(LowestFeasibleFrequency, BinarySearchMatchesLinearScan) {
  const ServiceModel model = test_model();
  const auto& grid = model.frequency_grid();
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    // Random monotone predicate: feasible above a random threshold.
    const double threshold = rng.uniform(1.0, 3.0);
    auto feasible = [&](std::size_t fi) { return grid[fi] >= threshold; };
    const Freq got = lowest_feasible_frequency(grid, feasible);
    Freq expect = grid.back();
    for (std::size_t fi = 0; fi < grid.size(); ++fi) {
      if (feasible(fi)) {
        expect = grid[fi];
        break;
      }
    }
    EXPECT_DOUBLE_EQ(got, expect) << "threshold " << threshold;
  }
}

// The frequency-valued search the policies ran before the cycle cost was
// cached per grid index: every probe evaluates violation_probability at the
// frequency itself. Kept as the oracle for the index-valued search.
Freq reference_select(const std::string& name, const ServiceModel& model,
                      SimTime now, std::span<const QueuedRequest> queue,
                      Work in_service_done, double target_vp) {
  const bool eprons = name.rfind("eprons", 0) == 0;
  // "max", and "timetrader" before any feedback: f_max.
  if (!eprons && name.rfind("rubik", 0) != 0) return model.config().f_max;
  const bool slack = name != "rubik" && name != "eprons-noslack";
  const bool average = eprons && name != "eprons-maxvp";
  const EquivalentQueue equivalents(&model, queue.size(), in_service_done);
  auto vp = [&](std::size_t i, Freq f) {
    const SimTime deadline =
        slack ? queue[i].deadline_with_slack : queue[i].deadline_server;
    return model.violation_probability(equivalents.at(i), now, deadline, f);
  };
  auto feasible = [&](Freq f) {
    if (average) {
      double total = 0.0;
      for (std::size_t i = 0; i < queue.size(); ++i) total += vp(i, f);
      return total <= target_vp * static_cast<double>(queue.size());
    }
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (vp(i, f) > target_vp) return false;
    }
    return true;
  };
  const std::vector<Freq>& grid = model.frequency_grid();
  if (!feasible(grid.back())) return grid.back();
  std::size_t lo = 0;
  std::size_t hi = grid.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (feasible(grid[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return grid[lo];
}

TEST(LowestFeasibleFrequency, IndexedSearchMatchesFrequencyValuedSearch) {
  // Seeded random queues at departure instants (fresh head, even trials)
  // and arrival instants (head partly served, odd trials), deadlines from
  // already passed to far off: every policy picks the oracle's frequency,
  // and every per-request VP at every grid index matches bit for bit.
  const ServiceModel model = test_model();
  const auto& grid = model.frequency_grid();
  constexpr double kTargetVp = 0.05;
  Rng rng(2024);
  for (const char* name :
       {"max", "rubik", "rubik+", "eprons", "timetrader", "eprons-noedf",
        "eprons-noslack", "eprons-maxvp"}) {
    const auto policy = make_policy(name, &model, kTargetVp);
    for (int trial = 0; trial < 40; ++trial) {
      const SimTime now = rng.uniform(ms(1.0), ms(50.0));
      const auto n = static_cast<int>(rng.uniform_int(1, 8));
      std::vector<QueuedRequest> queue;
      for (int i = 0; i < n; ++i) {
        const SimTime server = now + rng.uniform(-ms(2.0), ms(45.0));
        queue.push_back(make_request(i, now - rng.uniform(0.0, ms(1.0)),
                                     server,
                                     server + rng.uniform(0.0, ms(5.0))));
      }
      const Work done = trial % 2 == 0 ? 0.0 : rng.uniform(1e5, 2e7);
      EXPECT_EQ(policy->select_frequency(now, queue, done),
                reference_select(name, model, now, queue, done, kTargetVp))
          << name << " trial " << trial;
      const EquivalentQueue equivalents(&model, queue.size(), done);
      for (std::size_t i = 0; i < queue.size(); ++i) {
        for (std::size_t fi = 0; fi < grid.size(); ++fi) {
          const SimTime deadline = queue[i].deadline_with_slack;
          ASSERT_EQ(model.violation_probability_at(equivalents.at(i), now,
                                                   deadline, fi),
                    model.violation_probability(equivalents.at(i), now,
                                                deadline, grid[fi]))
              << name << " trial " << trial << " request " << i;
        }
      }
    }
  }
}

// ---- One fresh request: threshold tables ----

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

const char* const kStatisticalPolicies[] = {
    "rubik", "rubik+", "eprons", "eprons-noedf", "eprons-noslack",
    "eprons-maxvp"};

bool meets(const ServiceModel& model, SimTime dt, std::size_t fi,
           double target_vp) {
  return model.violation_probability_at(model.fresh_convolution(1), 0.0, dt,
                                        fi) <= target_vp;
}

TEST(OneRequestThresholds, PredicateTurnsExactlyAtEachThreshold) {
  const ServiceModel model = test_model();
  const std::size_t n = model.frequency_grid().size();
  for (const double target : {0.01, 0.05, 0.5, 1.0}) {
    const std::vector<SimTime>& t = model.one_request_thresholds(target);
    ASSERT_EQ(t.size(), n);
    EXPECT_EQ(&model.one_request_thresholds(target), &t);  // built once
    for (std::size_t fi = 0; fi < n; ++fi) {
      if (fi > 0) {
        EXPECT_LE(t[fi], t[fi - 1]) << target << " fi " << fi;
      }
      if (target >= 1.0) {
        EXPECT_EQ(t[fi], -kInf);
        EXPECT_TRUE(meets(model, -kInf, fi, target));
        continue;
      }
      ASSERT_GT(t[fi], 0.0);
      ASSERT_LT(t[fi], kInf);
      EXPECT_TRUE(meets(model, t[fi], fi, target)) << target << " fi " << fi;
      EXPECT_TRUE(meets(model, std::nextafter(t[fi], kInf), fi, target));
      EXPECT_FALSE(meets(model, std::nextafter(t[fi], -kInf), fi, target))
          << target << " fi " << fi;
      EXPECT_FALSE(meets(model, 0.0, fi, target));
    }
  }
  EXPECT_THROW(model.one_request_thresholds(-0.01), std::invalid_argument);
  EXPECT_THROW(model.one_request_thresholds(std::nan("")),
               std::invalid_argument);
}

// Every statistical policy decides one fresh request as the frequency-valued
// search does: at 10^5 seeded margins around and away from the thresholds,
// at each threshold and its two neighbouring doubles, and at margins <= 0.
TEST(OneRequestThresholds, DecisionsMatchReferenceSearch) {
  const ServiceModel model = test_model();
  for (const double target : {0.01, 0.05, 0.5, 1.0}) {
    const std::vector<SimTime>& t = model.one_request_thresholds(target);
    // (now, server margin, extra slack): boundary cases at now = 0 and no
    // slack, so that each policy's margin is exactly the listed double.
    std::vector<std::array<SimTime, 3>> cases;
    for (const SimTime x : t) {
      for (const SimTime dt : {std::nextafter(x, -kInf), x,
                               std::nextafter(x, kInf)}) {
        cases.push_back({0.0, dt, 0.0});
      }
    }
    for (const SimTime dt : {0.0, -0.0, -1.0, -ms(3.0), -kInf, kInf}) {
      cases.push_back({0.0, dt, 0.0});
      cases.push_back({ms(7.0), dt, 0.0});
    }
    SimTime lo = kInf;
    SimTime hi = 0.0;
    for (const SimTime x : t) {
      if (x > 0.0) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
    }
    Rng rng(77);
    for (int i = 0; i < 100000; ++i) {
      const SimTime now = rng.uniform(0.0, ms(100.0));
      const SimTime dt = i % 2 == 0 && lo < kInf
                             ? rng.uniform(0.9 * lo, 1.1 * hi)
                             : rng.uniform(-ms(5.0), ms(120.0));
      cases.push_back({now, dt, i % 3 == 0 ? 0.0 : rng.uniform(0.0, ms(6.0))});
    }
    for (const char* name : kStatisticalPolicies) {
      const auto policy = make_policy(name, &model, target);
      for (const auto& [now, dt, slack] : cases) {
        const QueuedRequest r =
            make_request(1, now, now + dt, now + dt + slack);
        const std::span<const QueuedRequest> view(&r, 1);
        const Freq got = policy->select_frequency(now, view, 0.0);
        const Freq want = reference_select(name, model, now, view, 0.0, target);
        ASSERT_EQ(got, want) << name << " target " << target << " now "
                             << now << " dt " << dt << " slack " << slack;
      }
    }
  }
}

// A negative or NaN miss budget is invalid input for every statistical
// policy; the policies that ignore the budget still accept it.
TEST(OneRequestThresholds, NegativeOrNanTargetIsRejected) {
  const ServiceModel model = test_model();
  for (const char* name : kStatisticalPolicies) {
    for (const double target : {-0.01, -kInf, std::nan("")}) {
      EXPECT_THROW(make_policy(name, &model, target), std::invalid_argument)
          << name << " target " << target;
    }
  }
  EXPECT_NO_THROW(make_policy("max", &model, -0.01));
  EXPECT_NO_THROW(make_policy("timetrader", &model, std::nan("")));
}

// Policies for one model made from several threads at once (run under TSan
// in CI): each target's table is built once, under the model's lock, and
// every thread's policies decide alike.
TEST(OneRequestThresholds, ConcurrentPolicyConstructionSharesOneTable) {
  const ServiceModel model = test_model();
  constexpr int kThreads = 4;
  const double targets[] = {0.01, 0.05, 0.5, 1.0};
  std::vector<std::vector<const std::vector<SimTime>*>> tables(kThreads);
  std::vector<std::vector<Freq>> decisions(kThreads);
  std::vector<std::thread> makers;
  for (int th = 0; th < kThreads; ++th) {
    makers.emplace_back([&, th] {
      for (int rep = 0; rep < 3; ++rep) {
        for (const double target : targets) {
          for (const char* name : kStatisticalPolicies) {
            const auto policy = make_policy(name, &model, target);
            for (int i = 0; i < 40; ++i) {
              const SimTime dt = ms(0.5 * i) - ms(1.0);
              const QueuedRequest r = make_request(1, 0.0, dt, dt + ms(1.0));
              decisions[th].push_back(policy->select_frequency(
                  0.0, std::span<const QueuedRequest>(&r, 1), 0.0));
            }
          }
          tables[th].push_back(&model.one_request_thresholds(target));
        }
      }
    });
  }
  for (std::thread& maker : makers) maker.join();
  for (int th = 1; th < kThreads; ++th) {
    EXPECT_EQ(tables[th], tables[0]);
    EXPECT_EQ(decisions[th], decisions[0]);
  }
  for (std::size_t i = 0; i < std::size(targets); ++i) {
    EXPECT_EQ(tables[0][i], &model.one_request_thresholds(targets[i]));
  }
}

// Parameterized sweep: with a single queued request, Rubik and
// EPRONS-Server agree exactly (average == max for n = 1).
class SingleRequestAgreement : public ::testing::TestWithParam<double> {};

TEST_P(SingleRequestAgreement, EpronsEqualsRubikPlus) {
  const ServiceModel model = test_model();
  StatisticalPolicy rubik_plus(&model, kRubikPlus);
  StatisticalPolicy eprons(&model);
  const SimTime deadline = ms(GetParam());
  const QueuedRequest r = make_request(1, 0.0, deadline, deadline);
  const std::span<const QueuedRequest> view(&r, 1);
  EXPECT_DOUBLE_EQ(rubik_plus.select_frequency(0.0, view, 0.0),
                   eprons.select_frequency(0.0, view, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Deadlines, SingleRequestAgreement,
                         ::testing::Values(12.0, 16.0, 20.0, 25.0, 30.0,
                                           40.0));

TEST(SyntheticWorkload, ServiceTimesInRange) {
  Rng rng(3);
  SyntheticWorkloadConfig config;
  for (int i = 0; i < 10000; ++i) {
    const double t = sample_service_time_ms(config, rng);
    EXPECT_GT(t, 0.0);
    EXPECT_LE(t, config.tail_span * config.mean_service_ms + 1e-9);
  }
}

TEST(SyntheticWorkload, HeavyTailPresent) {
  Rng rng(5);
  SyntheticWorkloadConfig config;
  const DiscreteDistribution work = make_search_work_distribution(config, rng);
  // p99 service time well above the mean (heavy tail).
  const double p99 = work.quantile(0.99);
  EXPECT_GT(p99, 1.8 * work.mean());
}

// ---- Golden bits of the convolution engine ----
//
// Constants captured from the reference radix-2 butterfly (on-the-fly
// twiddle recurrence, std::complex arithmetic) on the paper-scale 512-bin
// work PDF: the transform may change how it computes, never what.

ServiceModel golden_model() {
  Rng rng(1);
  SyntheticWorkloadConfig config;
  config.samples = 50000;
  config.bins = 512;
  return make_search_service_model(config, rng);
}

TEST(ConvolutionGolden, ResidualEquivalentQueuesMatchReferenceBits) {
  const ServiceModel model = golden_model();
  Rng rng(7);
  BitDigest digest;
  for (int trial = 0; trial < 24; ++trial) {
    // Spans the support and a little past it (the point-mass residual).
    const Work done = rng.uniform(0.0, 1.05 * model.work().max_value());
    for (std::size_t depth = 2; depth <= 4; ++depth) {
      const EquivalentQueue queue(&model, depth, done);
      for (std::size_t i = 0; i < depth; ++i) {
        digest.mix_distribution(queue.at(i));
      }
    }
  }
  EXPECT_EQ(digest.value(), 0xa9eaeaa3b034191bull);
}

TEST(ConvolutionGolden, FreshConvolutionsMatchReferenceBits) {
  const ServiceModel model = golden_model();
  BitDigest digest;
  for (std::size_t count = 1; count <= 8; ++count) {
    digest.mix_distribution(model.fresh_convolution(count));
  }
  EXPECT_EQ(digest.value(), 0xf5e86db715629040ull);
}

// ---- The residual chain cache ----
//
// At an arrival instant EquivalentQueue answers VPs from the model's cached
// residual chain (CDF tables by start bin, offsets recomputed from `done`);
// at() still builds the reference chain with conditional_remaining and
// convolve_work. The two must agree bit for bit at every grid frequency,
// whatever order the cache was filled in.

// A hand-built work PDF with a zero-mass bin inside and a zero-mass tail:
// a `done` in the tail leaves no mass beyond it (the point-mass residual).
ServiceModel zero_tail_model() {
  std::vector<double> pmf = {0.05, 0.2, 0.0, 0.3, 0.25, 0.1, 0.06, 0.04};
  pmf.resize(pmf.size() + 3, 0.0);
  return ServiceModel(DiscreteDistribution(1.5e6, 2.5e5, std::move(pmf)));
}

// `done` values: below and at the offset, every bin boundary and one ulp on
// either side of it, and past max_value.
std::vector<Work> residual_dones(const DiscreteDistribution& work) {
  std::vector<Work> dones = {0.5 * work.offset(),
                             std::nextafter(work.offset(), 0.0)};
  for (std::size_t j = 0; j <= work.size(); ++j) {
    const double boundary =
        work.offset() + static_cast<double>(j) * work.step();
    dones.push_back(std::nextafter(boundary, -kInf));
    dones.push_back(boundary);
    dones.push_back(std::nextafter(boundary, kInf));
  }
  for (const double past : {1.5, 2.0, 1e30}) {
    dones.push_back(past * work.max_value());
  }
  return dones;
}

constexpr std::size_t kMaxResidualDepth = 8;

// The reference chain EquivalentQueue::at builds for `done`, made here so
// that it fills no model's residual cache.
std::vector<DiscreteDistribution> reference_chain(const ServiceModel& model,
                                                  Work done) {
  std::vector<DiscreteDistribution> chain = {
      model.work().conditional_remaining(done)};
  while (chain.size() < kMaxResidualDepth) {
    chain.push_back(model.convolve_work(chain.back()));
  }
  return chain;
}

// One VP probe of the reference chain: link, grid index, deadline, and the
// reference chain's VP there.
struct VpProbe {
  std::size_t link;
  std::size_t fi;
  SimTime deadline;
  double vp;
};

constexpr SimTime kProbeNow = ms(3.0);

// Probes every link at every grid index: deadlines before now, at now, at
// the link's support edges and one ulp on either side, and beyond them.
std::vector<VpProbe> reference_probes(
    const ServiceModel& model, const std::vector<DiscreteDistribution>& chain) {
  const std::vector<Freq>& grid = model.frequency_grid();
  std::vector<VpProbe> probes;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const DiscreteDistribution& link = chain[i];
    for (std::size_t fi = 0; fi < grid.size(); ++fi) {
      std::vector<SimTime> deadlines = {kProbeNow - ms(1.0), kProbeNow};
      for (const Work edge : {link.min_value(), link.max_value()}) {
        const SimTime at = kProbeNow + model.service_time(edge, grid[fi]);
        deadlines.insert(deadlines.end(), {std::nextafter(at, -kInf), at,
                                           std::nextafter(at, kInf)});
      }
      deadlines.push_back(
          kProbeNow + model.service_time(2.0 * link.max_value(), grid[fi]));
      for (const SimTime deadline : deadlines) {
        probes.push_back(
            {i, fi, deadline,
             model.violation_probability_at(link, kProbeNow, deadline, fi)});
      }
    }
  }
  return probes;
}

// Asserts that queue `q` answers every probe of its links bit for bit.
void expect_cached_vps_match(const EquivalentQueue& q,
                             const std::vector<VpProbe>& probes,
                             const std::string& where) {
  for (const VpProbe& p : probes) {
    if (p.link >= q.size()) continue;
    const double got =
        q.violation_probability_at(p.link, kProbeNow, p.deadline, p.fi);
    if (std::bit_cast<std::uint64_t>(got) !=
        std::bit_cast<std::uint64_t>(p.vp)) {
      FAIL() << where << " link " << p.link << " fi " << p.fi
             << " deadline " << p.deadline << ": cached " << got
             << " reference " << p.vp;
    }
  }
}

// at() is the reference chain itself.
void expect_at_is_reference(const EquivalentQueue& q,
                            const std::vector<DiscreteDistribution>& chain,
                            const std::string& where) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    BitDigest got;
    BitDigest want;
    got.mix_distribution(q.at(i));
    want.mix_distribution(chain[i]);
    ASSERT_EQ(got.value(), want.value()) << where << " link " << i;
  }
}

// Runs every (done, depth 1..8) case three ways against the reference
// chain: cold, on a model filled link by link (depth 1, then 2, ..., so
// that each chain is built and then extended); warm, on that model again;
// and on a second model filled deepest-first (depth 8, then its prefixes).
void check_residual_cache(const std::function<ServiceModel()>& make_model,
                          const std::string& name) {
  const ServiceModel model = make_model();
  const ServiceModel deepest_first = make_model();
  const std::vector<Work> dones = residual_dones(model.work());
  for (std::size_t d = 0; d < dones.size(); ++d) {
    const Work done = dones[d];
    const std::vector<DiscreteDistribution> chain =
        reference_chain(model, done);
    const std::vector<VpProbe> probes = reference_probes(model, chain);
    auto check = [&](const ServiceModel& filled, std::size_t depth,
                     const char* pass) {
      const EquivalentQueue q(&filled, depth, done);
      expect_cached_vps_match(q, probes,
                              name + " " + pass + " done " +
                                  std::to_string(done) + " depth " +
                                  std::to_string(depth));
      return !::testing::Test::HasFatalFailure();
    };
    for (const char* pass : {"cold", "warm"}) {
      for (std::size_t depth = 1; depth <= kMaxResidualDepth; ++depth) {
        if (!check(model, depth, pass)) return;
      }
    }
    for (std::size_t depth = kMaxResidualDepth; depth >= 1; --depth) {
      if (!check(deepest_first, depth, "deepest-first")) return;
    }
    if (d % 16 == 0) {  // a sample: each costs the chain's convolutions
      expect_at_is_reference(EquivalentQueue(&model, kMaxResidualDepth, done),
                             chain, name + " done " + std::to_string(done));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ResidualChainCache, MatchesReferenceChainOnTestModel) {
  check_residual_cache([] { return test_model(); }, "test_model");
}

TEST(ResidualChainCache, MatchesReferenceChainOnGoldenModel) {
  check_residual_cache(golden_model, "golden_model");
}

TEST(ResidualChainCache, MatchesReferenceChainWithZeroMassTail) {
  const ServiceModel model = zero_tail_model();
  // The last positive bin is 7: a done just past it leaves the point mass,
  // one just below it keeps bin 7 alone. A done exactly at bin 3's value
  // keeps only the bins above it.
  const DiscreteDistribution& work = model.work();
  const double last = work.offset() + 7.0 * work.step();
  EXPECT_EQ(work.remaining_start(last + 1.0).bin, work.size());
  EXPECT_EQ(work.remaining_start(last - 1.0).bin, 7u);
  EXPECT_EQ(work.remaining_start(work.offset() + 3.0 * work.step()).bin, 4u);
  check_residual_cache(zero_tail_model, "zero_tail_model");
}

TEST(ResidualChainCache, BuiltLinksNeverMove) {
  const ServiceModel model = golden_model();
  const std::size_t start =
      model.work().remaining_start(model.work().mean()).bin;
  std::vector<const ServiceModel::ResidualLink*> links;
  std::vector<const double*> tables;
  for (std::size_t depth = 1; depth <= kMaxResidualDepth; ++depth) {
    const auto chain = model.residual_chain(start, depth);
    ASSERT_EQ(chain.size(), depth);
    for (std::size_t k = 0; k < links.size(); ++k) {
      EXPECT_EQ(chain[k].get(), links[k]) << "depth " << depth << " link " << k;
      EXPECT_EQ(chain[k]->cdf.data(), tables[k]);
    }
    links.push_back(chain.back().get());
    tables.push_back(chain.back()->cdf.data());
  }
  // A queue keeps reading its links while another one grows the chain.
  const Work done = model.work().mean();
  const EquivalentQueue shallow(&model, 2, done);
  const double before = shallow.violation_probability_at(1, 0.0, ms(20.0), 3);
  const EquivalentQueue deep(&model, 3 * kMaxResidualDepth, done);
  EXPECT_EQ(shallow.violation_probability_at(1, 0.0, ms(20.0), 3), before);
  EXPECT_EQ(deep.violation_probability_at(1, 0.0, ms(20.0), 3), before);
  EXPECT_THROW(model.residual_chain(start, 0), std::invalid_argument);
  EXPECT_THROW(shallow.violation_probability_at(2, 0.0, ms(20.0), 3),
               std::out_of_range);
}

}  // namespace
}  // namespace eprons
