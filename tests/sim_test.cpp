// Tests for src/sim: event queue ordering, DVFS-aware server mechanics,
// and end-to-end cluster integration properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "dvfs/policies.h"
#include "dvfs/synthetic_workload.h"
#include "sim/event_queue.h"
#include "sim/search_cluster.h"
#include "sim/server.h"
#include "topo/aggregation.h"

namespace eprons {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue events;
  std::vector<int> order;
  events.schedule(30.0, [&] { order.push_back(3); });
  events.schedule(10.0, [&] { order.push_back(1); });
  events.schedule(20.0, [&] { order.push_back(2); });
  events.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(events.now(), 30.0);
}

TEST(EventQueue, EqualTimesFifoBySchedulingOrder) {
  EventQueue events;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    events.schedule(7.0, [&order, i] { order.push_back(i); });
  }
  events.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue events;
  events.schedule(10.0, [] {});
  events.step();
  bool fired = false;
  events.schedule(5.0, [&] { fired = true; });  // in the past
  events.step();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(events.now(), 10.0);
  EXPECT_EQ(events.clamped(), 1u);
  EXPECT_DOUBLE_EQ(events.max_clamp(), 5.0);
  // One ulp early is round-off: clamped to now, not counted.
  events.schedule(std::nextafter(10.0, 0.0), [] {});
  events.step();
  EXPECT_DOUBLE_EQ(events.now(), 10.0);
  EXPECT_EQ(events.clamped(), 1u);
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock) {
  EventQueue events;
  int fired = 0;
  events.schedule(10.0, [&] { ++fired; });
  events.schedule(50.0, [&] { ++fired; });
  events.run_until(20.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(events.now(), 20.0);
  EXPECT_EQ(events.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue events;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) events.schedule_in(10.0, chain);
  };
  events.schedule(0.0, chain);
  events.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(events.now(), 40.0);
}

TEST(EventQueue, ClosuresAreDestroyedOnceWhenFiredOrDiscarded) {
  auto token = std::make_shared<int>(0);
  {
    EventQueue events;
    for (int i = 0; i < 10; ++i) {
      events.schedule(static_cast<SimTime>(i), [token] { ++*token; });
    }
    EXPECT_EQ(token.use_count(), 11);
    events.run_until(4.0);
    EXPECT_EQ(*token, 5);
    EXPECT_EQ(token.use_count(), 6);  // each fired closure is gone
  }  // the queue dies with five events pending
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 5);
}

TEST(EventQueue, ThrowingCallbackFreesItsCellAndLeavesQueueUsable) {
  auto token = std::make_shared<int>(0);
  EventQueue events;
  events.schedule(1.0, [token] { throw std::runtime_error("callback"); });
  events.schedule(2.0, [token] { ++*token; });
  EXPECT_THROW(events.step(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 2);  // the thrower's capture is destroyed
  EXPECT_DOUBLE_EQ(events.now(), 1.0);
  EXPECT_EQ(events.pending(), 1u);
  events.schedule(3.0, [token] { ++*token; });  // takes the freed cell
  events.run_all();
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_DOUBLE_EQ(events.now(), 3.0);
}

// The queue EventQueue replaced: std::function callbacks in a binary heap
// of (when, seq, callback) entries. Kept as the oracle for fire order.
class ReferenceQueue {
 public:
  void schedule(SimTime when, std::function<void()> callback) {
    if (when < now_) when = now_;
    heap_.push_back(Entry{when, next_seq_++, std::move(callback)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_in(SimTime delay, std::function<void()> callback) {
    schedule(now_ + (delay > 0.0 ? delay : 0.0), std::move(callback));
  }
  SimTime now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    now_ = entry.when;
    entry.callback();
    return true;
  }
  void run_until(SimTime end) {
    while (!heap_.empty() && heap_.front().when <= end) step();
    if (now_ < end) now_ = end;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> callback;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  std::vector<Entry> heap_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// A seeded event cascade on either queue. Timestamps sit on an integer
/// grid, so dozens of events tie at each; every callback logs its id and
/// now(), then schedules up to two children at now() or a few units later,
/// until kEvents have been scheduled. A third of the closures fill a whole
/// cell.
template <typename Queue>
class Cascade {
 public:
  static constexpr std::uint64_t kEvents = 120000;

  explicit Cascade(std::uint64_t seed) : rng_(seed) {}

  /// The fire log ((id, now) per event), then one (pending, now) entry
  /// per run_until boundary.
  std::vector<std::pair<double, double>> run() {
    for (int i = 0; i < 2000; ++i) add(std::floor(rng_.uniform(0.0, 50.0)));
    SimTime end = 0.0;
    std::vector<std::pair<double, double>> boundaries;
    while (queue_.pending() > 0) {
      end += std::floor(rng_.uniform(0.0, 12.0));
      queue_.run_until(end);
      boundaries.emplace_back(static_cast<double>(queue_.pending()),
                              queue_.now());
    }
    EXPECT_EQ(scheduled_, kEvents);
    EXPECT_EQ(log_.size(), kEvents);
    log_.insert(log_.end(), boundaries.begin(), boundaries.end());
    return log_;
  }

 private:
  struct Wide {
    double words[9];
  };

  void add(SimTime when) {
    const std::uint64_t id = scheduled_++;
    if (id % 3 == 0) {
      const Wide wide{{static_cast<double>(id)}};
      auto full = [this, id, wide] { fire(id, wide.words[0]); };
      static_assert(sizeof(full) == EventQueue::kInlineCapture);
      queue_.schedule(when, full);
    } else if (id % 3 == 1) {
      queue_.schedule_in(when - queue_.now(),
                         [this, id] { fire(id, static_cast<double>(id)); });
    } else {
      queue_.schedule(when, [this, id] { fire(id, static_cast<double>(id)); });
    }
  }

  void fire(std::uint64_t id, double payload) {
    EXPECT_EQ(payload, static_cast<double>(id));
    log_.emplace_back(static_cast<double>(id), queue_.now());
    const auto children = rng_.uniform_int(0, 2);
    for (std::int64_t c = 0; c < children && scheduled_ < kEvents; ++c) {
      const bool now = rng_.uniform() < 0.3;
      add(queue_.now() + (now ? 0.0 : std::floor(rng_.uniform(1.0, 8.0))));
    }
  }

  Queue queue_;
  Rng rng_;
  std::uint64_t scheduled_ = 0;
  std::vector<std::pair<double, double>> log_;
};

TEST(EventQueue, FireOrderMatchesReferenceHeapQueue) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto got = Cascade<EventQueue>(seed).run();
    const auto want = Cascade<ReferenceQueue>(seed).run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " entry " << i;
    }
  }
}

/// The times Cascade never schedules, on either queue: bursts at one time,
/// -0.0 and +0.0 at time 0, +inf, and times already past (run at now()).
/// After a few finite boundaries, step() fires the rest, the +inf events
/// last. The log holds (id, now) per event, then (pending, now) per
/// boundary; -0.0 == +0.0, so a time-0 event logs equal either way.
template <typename Queue>
class EdgeCascade {
 public:
  static constexpr std::uint64_t kEvents = 100000;

  explicit EdgeCascade(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::pair<double, double>> run() {
    for (int i = 0; i < 400; ++i) add(i % 2 == 0 ? -0.0 : 0.0, i % 3 == 0);
    for (int i = 0; i < 40; ++i) add(kInf, i % 2 == 0);
    for (int i = 0; i < 600; ++i) {
      add(std::floor(rng_.uniform(0.0, 30.0)), false);
    }
    std::vector<std::pair<double, double>> boundaries;
    SimTime end = 0.0;
    for (int round = 0; round < 300 && queue_.pending() > 0; ++round) {
      end += std::floor(rng_.uniform(0.0, 6.0));
      queue_.run_until(end);
      boundaries.emplace_back(static_cast<double>(queue_.pending()),
                              queue_.now());
    }
    while (queue_.step()) {
    }
    boundaries.emplace_back(static_cast<double>(queue_.pending()),
                            queue_.now());
    EXPECT_EQ(scheduled_, kEvents);
    EXPECT_EQ(log_.size(), kEvents);
    EXPECT_EQ(queue_.now(), kInf);
    log_.insert(log_.end(), boundaries.begin(), boundaries.end());
    return log_;
  }

 private:
  static constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

  void add(SimTime when, bool relative) {
    if (scheduled_ == kEvents) return;
    const std::uint64_t id = scheduled_++;
    auto fire_id = [this, id] { fire(id); };
    if (relative) {
      queue_.schedule_in(when - queue_.now(), fire_id);
    } else {
      queue_.schedule(when, fire_id);
    }
  }

  void fire(std::uint64_t id) {
    log_.emplace_back(static_cast<double>(id), queue_.now());
    const SimTime now = queue_.now();
    const bool relative = rng_.uniform() < 0.5;
    switch (rng_.uniform_int(0, 7)) {
      case 0:  // a burst at one time
        for (int i = 0; i < 6; ++i) {
          add(now + std::floor(rng_.uniform(0.0, 2.0)), relative);
        }
        break;
      case 1:  // already past: runs at now()
        add(now - std::floor(rng_.uniform(1.0, 9.0)), relative);
        add(now - 0.5, relative);
        break;
      case 2:  // -0.0 and +0.0: past unless now() is 0
        add(-0.0, relative);
        add(0.0, relative);
        break;
      case 3:
        if (rng_.uniform() < 0.02) add(kInf, relative);
        break;
      default:
        add(now, relative);
        add(now + std::floor(rng_.uniform(1.0, 8.0)), relative);
        break;
    }
  }

  Queue queue_;
  Rng rng_;
  std::uint64_t scheduled_ = 0;
  std::vector<std::pair<double, double>> log_;
};

TEST(EventQueue, EdgeTimesFireInReferenceOrder) {
  for (const std::uint64_t seed : {4u, 5u}) {
    const auto got = EdgeCascade<EventQueue>(seed).run();
    const auto want = EdgeCascade<ReferenceQueue>(seed).run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " entry " << i;
    }
  }
}

TEST(EventQueue, NegativeZeroRunsAsPositiveZeroInSchedulingOrder) {
  EventQueue events;
  std::vector<int> order;
  events.schedule(0.0, [&] { order.push_back(0); });
  events.schedule(-0.0, [&] { order.push_back(1); });
  events.schedule(0.0, [&] { order.push_back(2); });
  events.schedule(-0.0, [&] {
    order.push_back(3);
    EXPECT_FALSE(std::signbit(events.now()));
  });
  events.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(events.clamped(), 0u);
}

ServiceModel sim_model(std::uint64_t seed = 21) {
  Rng rng(seed);
  SyntheticWorkloadConfig config;
  config.samples = 20000;
  config.bins = 256;
  return make_search_service_model(config, rng);
}

ServerRequest request_with(Work work, SimTime deadline) {
  ServerRequest r;
  r.work = work;
  r.meta.deadline_server = deadline;
  r.meta.deadline_with_slack = deadline;
  return r;
}

TEST(SimServer, ServesAtMaxFrequencyExactly) {
  EventQueue events;
  const ServiceModel model = sim_model();
  const ServerPowerModel power;
  std::vector<ServerCompletion> completions;
  SimServer server(
      &events, &model, &power,
      [](const ServiceModel* m) { return std::make_unique<MaxFreqPolicy>(m); },
      [&](const ServerCompletion& c) { completions.push_back(c); });

  const Work w = 2.7e6;  // exactly 1 ms at 2.7 GHz (with mu folded in)
  server.submit(request_with(w, ms(100.0)));
  events.run_all();
  ASSERT_EQ(completions.size(), 1u);
  EXPECT_NEAR(completions[0].completed_at, model.service_time(w, 2.7), 1e-6);
}

TEST(SimServer, LeastLoadedDispatchSpreadsRequests) {
  EventQueue events;
  const ServiceModel model = sim_model();
  const ServerPowerModel power;  // 12 cores
  int done = 0;
  SimServer server(
      &events, &model, &power,
      [](const ServiceModel* m) { return std::make_unique<MaxFreqPolicy>(m); },
      [&](const ServerCompletion&) { ++done; });
  // 12 simultaneous requests must land one per core.
  for (int i = 0; i < 12; ++i) server.submit(request_with(1e6, ms(100.0)));
  for (int c = 0; c < 12; ++c) EXPECT_EQ(server.queue_length(c), 1u);
  events.run_all();
  EXPECT_EQ(done, 12);
}

TEST(SimServer, QueuedRequestsServeInOrder) {
  EventQueue events;
  const ServiceModel model = sim_model();
  ServerPowerConfig pc;
  pc.num_cores = 1;  // force queueing
  const ServerPowerModel power(pc);
  std::vector<RequestId> completed;
  SimServer server(
      &events, &model, &power,
      [](const ServiceModel* m) { return std::make_unique<MaxFreqPolicy>(m); },
      [&](const ServerCompletion& c) { completed.push_back(c.request.meta.id); });
  for (int i = 0; i < 3; ++i) {
    ServerRequest r = request_with(1e6, ms(100.0));
    r.meta.id = i;
    server.submit(r);
  }
  events.run_all();
  EXPECT_EQ(completed, (std::vector<RequestId>{0, 1, 2}));
}

TEST(SimServer, EdfPolicyReordersWaitingRequests) {
  EventQueue events;
  const ServiceModel model = sim_model();
  ServerPowerConfig pc;
  pc.num_cores = 1;
  const ServerPowerModel power(pc);
  std::vector<RequestId> completed;
  SimServer server(
      &events, &model, &power,
      [](const ServiceModel* m) {
        return std::make_unique<EpronsServerPolicy>(m);
      },
      [&](const ServerCompletion& c) { completed.push_back(c.request.meta.id); });
  // Head (id 0) is in service; ids 1..3 wait with inverted deadlines.
  for (int i = 0; i < 4; ++i) {
    ServerRequest r = request_with(4e6, ms(100.0 - 20.0 * i));
    r.meta.id = i;
    r.meta.deadline_with_slack = ms(100.0 - 20.0 * i);
    server.submit(r);
  }
  events.run_all();
  ASSERT_EQ(completed.size(), 4u);
  EXPECT_EQ(completed[0], 0);  // in-service head cannot be preempted
  // Waiting requests drain earliest-deadline-first: 3 (40ms), 2 (60), 1 (80).
  EXPECT_EQ(completed[1], 3);
  EXPECT_EQ(completed[2], 2);
  EXPECT_EQ(completed[3], 1);
}

TEST(SimServer, EnergyAccountingMatchesBusyTime) {
  EventQueue events;
  const ServiceModel model = sim_model();
  ServerPowerConfig pc;
  pc.num_cores = 1;
  const ServerPowerModel power(pc);
  SimServer server(
      &events, &model, &power,
      [](const ServiceModel* m) { return std::make_unique<MaxFreqPolicy>(m); },
      nullptr);
  const Work w = 5.4e6;
  server.submit(request_with(w, ms(100.0)));
  events.run_all();
  const SimTime busy = model.service_time(w, 2.7);
  server.sync_energy(events.now());
  EXPECT_NEAR(server.total_cpu_energy(),
              busy * power.core_power(true, 2.7), 1.0);
  EXPECT_NEAR(server.average_core_utilization(), 1.0, 1e-6);
}

TEST(SimServer, ArrivalMidServiceReschedulesConsistently) {
  // A second arrival mid-service must not lose or duplicate completions,
  // even though the frequency changes at the arrival instant.
  EventQueue events;
  const ServiceModel model = sim_model();
  ServerPowerConfig pc;
  pc.num_cores = 1;
  const ServerPowerModel power(pc);
  int done = 0;
  SimServer server(
      &events, &model, &power,
      [](const ServiceModel* m) {
        return std::make_unique<RubikPolicy>(m);
      },
      [&](const ServerCompletion&) { ++done; });
  ServerRequest first = request_with(10e6, ms(25.0));
  first.meta.deadline_with_slack = ms(25.0);
  server.submit(first);
  events.schedule(ms(1.0), [&] {
    ServerRequest second = request_with(10e6, ms(26.0));
    second.meta.arrival = events.now();
    second.meta.deadline_server = events.now() + ms(25.0);
    second.meta.deadline_with_slack = second.meta.deadline_server;
    server.submit(second);
  });
  events.run_all();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(server.total_queued(), 0u);
}

// ---- Cluster integration ----

ScenarioConfig fast_scenario(const std::string& policy, double util) {
  ScenarioConfig config;
  config.cluster.policy = policy;
  config.cluster.target_utilization = util;
  config.cluster.warmup = sec(0.5);
  config.cluster.duration = sec(3.0);
  config.cluster.feedback_warmup = sec(60.0);
  config.cluster.seed = 42;
  return config;
}

TEST(SearchCluster, UtilizationTracksTarget) {
  const FatTree topo(4);
  const ServiceModel model = sim_model();
  const ServerPowerModel power;
  Rng rng(9);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 8, 0.1, 0.1, rng);
  const AggregationPolicies policies(&topo);
  const auto subnet = policies.policy(0).switch_on;
  const auto result = run_search_scenario(topo, model, power, background,
                                          fast_scenario("max", 0.3), &subnet);
  EXPECT_NEAR(result.metrics.measured_core_utilization, 0.3, 0.05);
  EXPECT_GT(result.metrics.queries_completed, 100u);
}

TEST(SearchCluster, StatisticalPolicySavesPowerVsMax) {
  const FatTree topo(4);
  const ServiceModel model = sim_model();
  const ServerPowerModel power;
  Rng rng(9);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 8, 0.1, 0.1, rng);
  const AggregationPolicies policies(&topo);
  const auto subnet = policies.policy(0).switch_on;
  const auto max_run = run_search_scenario(topo, model, power, background,
                                           fast_scenario("max", 0.3), &subnet);
  const auto eprons_run = run_search_scenario(
      topo, model, power, background, fast_scenario("eprons", 0.3), &subnet);
  EXPECT_LT(eprons_run.metrics.avg_cpu_power_per_server,
            max_run.metrics.avg_cpu_power_per_server * 0.85);
  // And the SLA holds at roughly the target miss budget.
  EXPECT_LT(eprons_run.metrics.subquery_miss_rate, 0.08);
}

TEST(SearchCluster, SubqueryTailRespectsConstraintShape) {
  const FatTree topo(4);
  const ServiceModel model = sim_model();
  const ServerPowerModel power;
  Rng rng(9);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 8, 0.1, 0.1, rng);
  const AggregationPolicies policies(&topo);
  const auto subnet = policies.policy(0).switch_on;
  const auto run = run_search_scenario(topo, model, power, background,
                                       fast_scenario("eprons", 0.3), &subnet);
  // EPRONS pushes completions toward the deadline but not far past it.
  EXPECT_LT(run.metrics.subquery_latency.p95, ms(32.0));
  EXPECT_GT(run.metrics.subquery_latency.p95, ms(10.0));
}

TEST(SearchCluster, DeterministicForFixedSeed) {
  const FatTree topo(4);
  const ServiceModel model = sim_model();
  const ServerPowerModel power;
  Rng rng(9);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 8, 0.1, 0.1, rng);
  const auto a = run_search_scenario(topo, model, power, background,
                                     fast_scenario("rubik", 0.2));
  const auto b = run_search_scenario(topo, model, power, background,
                                     fast_scenario("rubik", 0.2));
  EXPECT_DOUBLE_EQ(a.metrics.avg_cpu_power_per_server,
                   b.metrics.avg_cpu_power_per_server);
  EXPECT_EQ(a.metrics.queries_completed, b.metrics.queries_completed);
  EXPECT_DOUBLE_EQ(a.metrics.subquery_latency.p95,
                   b.metrics.subquery_latency.p95);
}

TEST(SearchCluster, PinnedSubnetReportsItsFullPower) {
  const FatTree topo(4);
  const ServiceModel model = sim_model();
  const ServerPowerModel power;
  Rng rng(9);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.05, 0.1, rng);
  const AggregationPolicies policies(&topo);
  const auto agg2 = policies.policy(2).switch_on;
  const auto run = run_search_scenario(topo, model, power, background,
                                       fast_scenario("max", 0.1), &agg2);
  // 14 switches at 36 W each, regardless of how few the routing used.
  EXPECT_DOUBLE_EQ(run.metrics.network_power, 14 * 36.0);
}

TEST(SearchCluster, FreeConsolidationPaysOnlyActiveSwitches) {
  const FatTree topo(4);
  const ServiceModel model = sim_model();
  const ServerPowerModel power;
  Rng rng(9);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 4, 0.05, 0.1, rng);
  const auto run = run_search_scenario(topo, model, power, background,
                                       fast_scenario("max", 0.1));
  EXPECT_DOUBLE_EQ(run.metrics.network_power,
                   run.placement.active_switches * 36.0);
  EXPECT_LT(run.placement.active_switches, 20);
}

TEST(SearchCluster, HigherAggregationRaisesNetworkTail) {
  const FatTree topo(4);
  const ServiceModel model = sim_model();
  const ServerPowerModel power;
  Rng rng(9);
  const FlowSet background =
      make_background_flows(FlowGenConfig{}, 12, 0.3, 0.1, rng);
  const AggregationPolicies policies(&topo);
  const auto agg0 = policies.policy(0).switch_on;
  const auto agg3 = policies.policy(3).switch_on;
  const auto run0 = run_search_scenario(topo, model, power, background,
                                        fast_scenario("max", 0.3), &agg0);
  const auto run3 = run_search_scenario(topo, model, power, background,
                                        fast_scenario("max", 0.3), &agg3);
  EXPECT_GT(run3.metrics.network_latency.p95,
            run0.metrics.network_latency.p95);
}

TEST(Metrics, SummarizeEmptyAndFilled) {
  PercentileEstimator estimator;
  LatencyStats empty = summarize(estimator);
  EXPECT_EQ(empty.count, 0u);
  for (int i = 1; i <= 100; ++i) estimator.add(i);
  const LatencyStats stats = summarize(estimator);
  EXPECT_EQ(stats.count, 100u);
  EXPECT_DOUBLE_EQ(stats.p95, 95.0);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
}

}  // namespace
}  // namespace eprons
