// Open-loop serving layer tests (ctest label `serve`):
//   * arrival generator: seed determinism (byte-identical streams), flash
//     placement determinism, process-composition invariants, and a
//     rate-conservation property (counts match the exact integrated rate
//     within Poisson counting error);
//   * policy layer: factory round-trips, token-bucket and SLA-aware
//     shedding behavior, deadline late-shed;
//   * serving harness: end-to-end run through EpochController re-planning,
//     per-window conservation, policy swap changing outcomes on identical
//     arrivals, thread-count byte-equality of the serving JSONL log, and
//     the DES aggregator following the planner's;
//   * golden ServingWindowRecord serialization;
//   * DES golden digests: both drivers of the partition-aggregate core
//     (moderate and overload serving, healthy and faulted cluster,
//     TimeTrader feedback, one cluster run per remaining DVFS policy
//     name) pinned bit for bit.
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "fault/fault_injector.h"
#include "golden_digest.h"
#include "obs/jsonl.h"
#include "obs/telemetry.h"
#include "serve/arrivals.h"
#include "serve/policies.h"
#include "serve/serving_harness.h"
#include "topo/aggregation.h"

namespace eprons {
namespace {

ArrivalStreamConfig short_stream(std::uint64_t seed = 11) {
  ArrivalStreamConfig config;
  config.horizon = sec(600.0);
  config.peak_rate_qps = 50.0;
  config.seed = seed;
  config.flash.events_per_hour = 6.0;  // short horizon still sees events
  return config;
}

std::vector<SimTime> drain(ArrivalGenerator& gen) {
  std::vector<SimTime> times;
  for (SimTime t = gen.next(); t != kNoTime; t = gen.next()) {
    times.push_back(t);
  }
  return times;
}

TEST(Arrivals, SameSeedSameStreamBitIdentical) {
  ArrivalGenerator a(short_stream());
  ArrivalGenerator b(short_stream());
  const auto ta = drain(a);
  const auto tb = drain(b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    // Byte-identical doubles, not approximately equal.
    EXPECT_EQ(ta[i], tb[i]) << "arrival " << i;
  }
  EXPECT_GT(ta.size(), 1000u);
}

TEST(Arrivals, DifferentSeedsDiverge) {
  ArrivalGenerator a(short_stream(11));
  ArrivalGenerator b(short_stream(12));
  const auto ta = drain(a);
  const auto tb = drain(b);
  ASSERT_FALSE(ta.empty());
  ASSERT_FALSE(tb.empty());
  EXPECT_TRUE(ta.size() != tb.size() || ta.front() != tb.front());
}

TEST(Arrivals, FlashPlacementDeterministic) {
  ArrivalGenerator a(short_stream());
  ArrivalGenerator b(short_stream());
  ASSERT_EQ(a.flash_events().size(), b.flash_events().size());
  for (std::size_t i = 0; i < a.flash_events().size(); ++i) {
    EXPECT_EQ(a.flash_events()[i].start, b.flash_events()[i].start);
    EXPECT_EQ(a.flash_events()[i].magnitude, b.flash_events()[i].magnitude);
  }
  ASSERT_EQ(a.burst_toggles().size(), b.burst_toggles().size());
  for (std::size_t i = 0; i < a.burst_toggles().size(); ++i) {
    EXPECT_EQ(a.burst_toggles()[i], b.burst_toggles()[i]);
  }
  // Flash events are sorted and inside the horizon; magnitudes respect the
  // bounded-Pareto range.
  const auto& config = a.config();
  SimTime prev = -1.0;
  for (const FlashCrowdEvent& event : a.flash_events()) {
    EXPECT_GE(event.start, prev);
    prev = event.start;
    EXPECT_LT(event.start, config.horizon);
    EXPECT_GE(event.magnitude, config.flash.magnitude_min);
    EXPECT_LE(event.magnitude, config.flash.magnitude_max);
  }
}

TEST(Arrivals, TogglingOneProcessKeepsOthersFixed) {
  // Dedicated Rng::split streams: disabling bursts must not move the flash
  // events (and vice versa).
  ArrivalStreamConfig with = short_stream();
  ArrivalStreamConfig without = short_stream();
  without.burst.enabled = false;
  ArrivalGenerator a(with);
  ArrivalGenerator b(without);
  ASSERT_EQ(a.flash_events().size(), b.flash_events().size());
  for (std::size_t i = 0; i < a.flash_events().size(); ++i) {
    EXPECT_EQ(a.flash_events()[i].start, b.flash_events()[i].start);
    EXPECT_EQ(a.flash_events()[i].magnitude, b.flash_events()[i].magnitude);
  }
  EXPECT_TRUE(b.burst_toggles().empty());
}

TEST(Arrivals, RateCeilingHolds) {
  ArrivalGenerator gen(short_stream());
  for (SimTime t = 0.0; t < gen.config().horizon; t += sec(1.0)) {
    EXPECT_LE(gen.rate_at(t), gen.max_rate() * (1.0 + 1e-12)) << "t=" << t;
  }
}

TEST(Arrivals, ArrivalsAreStrictlyIncreasingWithinHorizon) {
  ArrivalGenerator gen(short_stream());
  const auto times = drain(gen);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
  EXPECT_LT(times.back(), gen.config().horizon);
  EXPECT_EQ(gen.next(), kNoTime);  // exhausted stays exhausted
}

TEST(Arrivals, RateConservationProperty) {
  // Counting property: over seeds, |N - integral(rate)| should look like
  // Poisson noise. Allow 6 sigma per seed — a deterministic bias (e.g. a
  // wrong integral or a broken thinning ceiling) blows through this for
  // every seed at these expectations (~30000).
  for (const std::uint64_t seed : {1ULL, 42ULL, 99ULL, 7ULL}) {
    ArrivalStreamConfig config = short_stream(seed);
    config.peak_rate_qps = 80.0;
    ArrivalGenerator gen(config);
    const double expected = gen.integrated_rate(0.0, config.horizon);
    ASSERT_GT(expected, 1000.0);
    const auto times = drain(gen);
    const double n = static_cast<double>(times.size());
    EXPECT_LE(std::abs(n - expected), 6.0 * std::sqrt(expected))
        << "seed " << seed << ": N=" << n << " expected=" << expected;
  }
}

TEST(Arrivals, IntegratedRateIsAdditive) {
  ArrivalGenerator gen(short_stream());
  const SimTime mid = sec(237.5);
  const double whole = gen.integrated_rate(0.0, gen.config().horizon);
  const double split = gen.integrated_rate(0.0, mid) +
                       gen.integrated_rate(mid, gen.config().horizon);
  EXPECT_NEAR(whole, split, 1e-9 * whole);
}

TEST(Arrivals, FlashEnvelopeShape) {
  FlashCrowdEvent event;
  event.start = 100.0;
  event.ramp = 10.0;
  event.hold = 20.0;
  event.decay = 40.0;
  event.magnitude = 5.0;
  EXPECT_EQ(event.envelope(99.0), 0.0);
  EXPECT_DOUBLE_EQ(event.envelope(105.0), 0.5);   // mid-ramp
  EXPECT_DOUBLE_EQ(event.envelope(120.0), 1.0);   // hold
  EXPECT_DOUBLE_EQ(event.envelope(150.0), 0.5);   // mid-decay
  EXPECT_EQ(event.envelope(170.0), 0.0);          // past end
  EXPECT_DOUBLE_EQ(event.end(), 170.0);
}

TEST(Policies, FactoriesRoundTripAndRejectUnknown) {
  for (const char* name : {"always", "token-bucket", "sla-aware"}) {
    auto policy = make_admission_policy(name);
    EXPECT_STREQ(policy->name(), name);
  }
  for (const char* name : {"never", "deadline"}) {
    auto policy = make_shed_policy(name);
    EXPECT_STREQ(policy->name(), name);
  }
  EXPECT_THROW(make_admission_policy("nope"), std::invalid_argument);
  EXPECT_THROW(make_shed_policy("nope"), std::invalid_argument);
}

TEST(Policies, TokenBucketShedsAboveRate) {
  PolicyConfig config;
  config.bucket_rate_qps = 10.0;
  config.bucket_burst = 5.0;
  config.queue_bound = 0;
  TokenBucketPolicy policy(config);
  AdmissionContext ctx;
  int admitted = 0;
  // 100 arrivals in one second: the bucket holds 5 + refills 10.
  for (int i = 0; i < 100; ++i) {
    ctx.now = i * 1.0e4;  // 10 ms apart
    if (policy.decide(ctx) == AdmissionDecision::Admit) ++admitted;
  }
  EXPECT_GE(admitted, 14);
  EXPECT_LE(admitted, 16);
}

TEST(Policies, TokenBucketQueueBound) {
  PolicyConfig config;
  config.bucket_rate_qps = 1.0e9;  // never rate-limited
  config.queue_bound = 8;
  TokenBucketPolicy policy(config);
  AdmissionContext ctx;
  ctx.now = 1.0;
  ctx.queued = 8;
  EXPECT_EQ(policy.decide(ctx), AdmissionDecision::Shed);
  ctx.queued = 7;
  EXPECT_EQ(policy.decide(ctx), AdmissionDecision::Admit);
}

TEST(Policies, SlaAwareConsultsPlanSlack) {
  PolicyConfig config;
  config.sla_margin = 1.0;
  SlaAwareAdmissionPolicy policy(config);
  PolicySnapshot plan;
  plan.have_plan = true;
  plan.feasible = true;
  plan.effective_server_budget = ms(10.0);
  plan.latency_constraint = ms(30.0);
  AdmissionContext ctx;
  ctx.plan = &plan;
  ctx.sustainable_rate_qps = 1000.0;  // 1 query per ms of capacity
  ctx.inflight = 2;
  ctx.queued = 0;
  // Expected wait 3 ms < 10 ms budget: admit.
  EXPECT_EQ(policy.decide(ctx), AdmissionDecision::Admit);
  ctx.inflight = 30;
  // Expected wait 31 ms > 10 ms budget: shed.
  EXPECT_EQ(policy.decide(ctx), AdmissionDecision::Shed);
  // An infeasible plan halves the margin: 6 in flight (7 ms) now sheds.
  plan.feasible = false;
  ctx.inflight = 6;
  EXPECT_EQ(policy.decide(ctx), AdmissionDecision::Shed);
  plan.feasible = true;
  EXPECT_EQ(policy.decide(ctx), AdmissionDecision::Admit);
}

TEST(Policies, DeadlineShedDropsStaleQueries) {
  PolicyConfig config;
  config.deadline_fraction = 0.5;
  DeadlineShedPolicy policy(config);
  PolicySnapshot plan;
  plan.have_plan = true;
  plan.latency_constraint = ms(30.0);
  ShedContext ctx;
  ctx.plan = &plan;
  ctx.waited = ms(10.0);
  EXPECT_FALSE(policy.should_shed(ctx));
  ctx.waited = ms(16.0);
  EXPECT_TRUE(policy.should_shed(ctx));
}

TEST(Jsonl, ServingWindowGolden) {
  obs::ServingWindowRecord record;
  record.window = 3;
  record.epoch = 1;
  record.window_start_us = 180000000.0;
  record.window_end_us = 240000000.0;
  record.offered_qps = 42.5;
  record.arrivals = 2550;
  record.admitted = 2400;
  record.queued = 120;
  record.shed = 100;
  record.dropped = 50;
  record.late_shed = 7;
  record.completed = 2390;
  record.subqueries = 35850;
  record.sla_misses = 12;
  record.latency_p50_us = 9500.25;
  record.latency_p95_us = 21000.5;
  record.latency_p99_us = 28000.75;
  record.energy_per_admitted_j = 0.125;
  record.transition_penalized = 31;
  EXPECT_EQ(
      obs::to_jsonl(record),
      "{\"source\": \"serving_window\", \"window\": 3, \"epoch\": 1, "
      "\"window_start_us\": 180000000, \"window_end_us\": 240000000, "
      "\"offered_qps\": 42.5, \"arrivals\": 2550, \"admitted\": 2400, "
      "\"queued\": 120, \"shed\": 100, \"dropped\": 50, \"late_shed\": 7, "
      "\"completed\": 2390, \"subqueries\": 35850, \"sla_misses\": 12, "
      "\"latency_p50_us\": 9500.25, "
      "\"latency_p95_us\": 21000.5, \"latency_p99_us\": 28000.75, "
      "\"energy_per_admitted_j\": 0.125, \"transition_penalized\": 31}\n");
}

// ---- Harness fixtures ------------------------------------------------

Scenario serve_scenario(int threads = 0) {
  SyntheticWorkloadConfig workload;
  workload.samples = 20000;
  workload.bins = 256;
  ScenarioBuilder builder;
  builder.seed(1).fat_tree(4).workload(workload);
  if (threads > 0) builder.threads(threads);
  return builder.build();
}

ServingHarnessConfig harness_config(const Scenario& scn,
                                    double peak_qps = 60.0) {
  ServingHarnessConfig config;
  config.arrivals.horizon = sec(240.0);
  config.arrivals.peak_rate_qps = peak_qps;
  config.arrivals.seed = 11;
  config.arrivals.flash.events_per_hour = 15.0;
  config.arrivals.diurnal_start = 9.0 * 3600.0 * 1.0e6;
  config.epoch.transition.epoch_length = sec(80.0);
  config.epoch.joint.slack.samples_per_pair = 100;
  config.flow_gen = scn.flow_gen();
  config.report_window = sec(40.0);
  config.seed = 5;
  return config;
}

TEST(ServingHarness, OpenLoopRunCompletesThroughReplanning) {
  const Scenario scn = serve_scenario();
  ServingHarnessConfig config = harness_config(scn);
  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  const ServingReport report = harness.run();
  EXPECT_EQ(report.epochs, 3);  // 240 s at 80 s epochs
  EXPECT_EQ(static_cast<int>(report.windows.size()), 6);
  EXPECT_GT(report.arrivals, 1000);
  EXPECT_GT(report.completed, 0);
  EXPECT_GT(report.latency.p99, report.latency.p50);
  EXPECT_GT(report.total_energy_j, 0.0);
  // The SLA object is the per-subquery tail; at moderate load it should be
  // in the same regime as the closed-loop DES (integration bound: 15%).
  EXPECT_GT(report.subqueries_completed, 0);
  EXPECT_LT(static_cast<double>(report.sla_misses) /
                static_cast<double>(report.subqueries_completed),
            0.15);
  // Open loop: arrivals came from the generator, not the completion rate.
  ArrivalGenerator twin(config.arrivals);
  const double expected = twin.integrated_rate(0.0, config.arrivals.horizon);
  EXPECT_LE(std::abs(static_cast<double>(report.arrivals) - expected),
            6.0 * std::sqrt(expected));
}

/// Every window conserves arrivals exactly, and the windows sum to the run.
void expect_windows_conserved(const ServingReport& report) {
  long long arrivals = 0, admitted = 0, shed = 0, dropped = 0;
  for (const auto& window : report.windows) {
    EXPECT_EQ(window.arrivals, window.admitted + window.shed + window.dropped)
        << "window " << window.window;
    EXPECT_LE(window.latency_p50_us, window.latency_p95_us);
    EXPECT_LE(window.latency_p95_us, window.latency_p99_us);
    arrivals += window.arrivals;
    admitted += window.admitted;
    shed += window.shed;
    dropped += window.dropped;
  }
  EXPECT_EQ(arrivals, report.arrivals);
  EXPECT_EQ(admitted, report.admitted);
  EXPECT_EQ(shed, report.shed);
  EXPECT_EQ(dropped, report.dropped);
}

TEST(ServingHarness, WindowConservationExact) {
  const Scenario scn = serve_scenario();
  ServingHarnessConfig config = harness_config(scn);
  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  expect_windows_conserved(harness.run());
}

TEST(ServingHarness, PolicySwapChangesOutcomesOnIdenticalArrivals) {
  const Scenario scn = serve_scenario();
  // Genuine overload: the substrate sustains ~1450 qps at f_max; offer
  // well above that with a tight in-flight cap so admission control
  // matters. Shorter horizon keeps the arrival count manageable.
  ServingHarnessConfig base = harness_config(scn, 2500.0);
  base.arrivals.horizon = sec(120.0);
  base.epoch.transition.epoch_length = sec(60.0);
  base.report_window = sec(60.0);
  base.max_inflight = 12;
  base.queue_limit = 24;

  ServingHarnessConfig always = base;
  always.admission = "always";
  ServingHarness h1(&scn.topology(), &scn.service_model(),
                    &scn.power_model(), always);
  const ServingReport r1 = h1.run();

  ServingHarnessConfig bucket = base;
  bucket.admission = "token-bucket";
  bucket.policy.bucket_rate_qps = 50.0;
  bucket.policy.bucket_burst = 20.0;
  ServingHarness h2(&scn.topology(), &scn.service_model(),
                    &scn.power_model(), bucket);
  const ServingReport r2 = h2.run();

  ServingHarnessConfig sla = base;
  sla.admission = "sla-aware";
  ServingHarness h3(&scn.topology(), &scn.service_model(),
                    &scn.power_model(), sla);
  const ServingReport r3 = h3.run();

  // Identical arrival streams (same ArrivalStreamConfig)...
  EXPECT_EQ(r1.arrivals, r2.arrivals);
  EXPECT_EQ(r1.arrivals, r3.arrivals);
  // ...different admission outcomes.
  EXPECT_EQ(r1.shed, 0);  // always-admit never sheds at the door
  EXPECT_GT(r2.shed, 0) << "token bucket must shed under overload";
  EXPECT_GT(r3.shed, 0) << "sla-aware must shed under overload";
  EXPECT_NE(r2.shed, r3.shed);
  // Always-admit pushes the overload into queue drops instead.
  EXPECT_GT(r1.dropped, 0);
}

TEST(ServingHarness, DeadlineShedDropsStaleUnderOverload) {
  const Scenario scn = serve_scenario();
  ServingHarnessConfig config = harness_config(scn, 400.0);
  config.max_inflight = 8;
  config.queue_limit = 64;
  config.shed = "deadline";
  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  const ServingReport report = harness.run();
  EXPECT_GT(report.late_shed, 0);
}

TEST(ServingHarness, EpochLogByteIdenticalAcrossThreads) {
  std::string logs[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const Scenario scn = serve_scenario(threads[i]);
    std::ostringstream sink_stream;
    obs::JsonlWriter sink(&sink_stream);
    ServingHarnessConfig config = harness_config(scn);
    config.epoch.runtime.threads = threads[i];
    config.sink = &sink;
    ServingHarness harness(&scn.topology(), &scn.service_model(),
                           &scn.power_model(), config);
    (void)harness.run();
    logs[i] = sink_stream.str();
  }
  ASSERT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[0], logs[1])
      << "serving JSONL must be byte-identical for any --threads";
}

TEST(ServingHarness, TransitionPenaltyChargedOnPathChange) {
  const Scenario scn = serve_scenario();
  // Strong diurnal swing across epochs forces K/placement changes; with a
  // huge penalty any straddling query blows the SLA visibly.
  ServingHarnessConfig config = harness_config(scn, 120.0);
  config.reconfig_penalty = ms(50.0);
  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  const ServingReport report = harness.run();
  long long penalized = 0;
  for (const auto& window : report.windows) {
    penalized += window.transition_penalized;
  }
  EXPECT_EQ(penalized, report.transition_penalized);
  // Not asserted > 0: placements can legitimately be stable across epochs.
}

TEST(ServingHarness, TemporalScheduleSmoke) {
  const Scenario scn = serve_scenario();
  ServingHarnessConfig config = harness_config(scn);
  config.temporal.enabled = true;
  config.temporal.flows = 6;
  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  const ServingReport report = harness.run();
  EXPECT_TRUE(report.temporal);
  // Schedule roll-up present and exactly conserved (integer Mbit).
  EXPECT_EQ(report.schedule.flows, 6);
  EXPECT_GT(report.schedule.total_volume_mbit, 0);
  EXPECT_EQ(report.schedule.carried_total_mbit +
                report.schedule.missed_total_mbit,
            report.schedule.total_volume_mbit);
  // The temporal split is appended after ctrl/bg/sim, so enabling it must
  // not perturb the arrival stream the foreground queries see.
  ServingHarnessConfig plain = harness_config(scn);
  ServingHarness baseline(&scn.topology(), &scn.service_model(),
                          &scn.power_model(), plain);
  const ServingReport base = baseline.run();
  EXPECT_FALSE(base.temporal);
  EXPECT_EQ(base.schedule.total_volume_mbit, 0);
  EXPECT_EQ(report.arrivals, base.arrivals);
}

TEST(ServingHarness, DesAggregatorIsThePlannersAggregator) {
  // The planner routes query flows to and from its own aggregator host;
  // the DES fans out from the same host, so moving it off host 0 is one
  // setting, and the run conserves every window exactly.
  const Scenario scn = serve_scenario();
  ServingHarnessConfig config = harness_config(scn);
  config.arrivals.horizon = sec(80.0);
  config.epoch.transition.epoch_length = sec(40.0);
  config.epoch.joint.aggregator_host = 3;
  config.flow_gen = scn.flow_gen(3);
  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  const ServingReport report = harness.run();
  EXPECT_EQ(report.epochs, 2);
  EXPECT_GT(report.completed, 0);
  expect_windows_conserved(report);
}

// ---- DES golden digest ----
//
// Both partition-aggregate simulators (ServingHarness, SearchCluster)
// pinned bit for bit to constants captured from the reference
// implementation. Event order, RNG consumption, latency sampling and every
// DVFS decision feed these digests, so a change that alters any modeled
// output fails here even when every property test above still holds.

void mix_latency(BitDigest* digest, const LatencyStats& stats) {
  digest->mix_double(stats.mean);
  digest->mix_double(stats.p50);
  digest->mix_double(stats.p95);
  digest->mix_double(stats.p99);
  digest->mix_double(stats.max);
  digest->mix(stats.count);
}

void mix_cluster(BitDigest* digest, const ClusterMetrics& m) {
  mix_latency(digest, m.query_latency);
  mix_latency(digest, m.network_latency);
  mix_latency(digest, m.server_latency);
  mix_latency(digest, m.subquery_latency);
  digest->mix_double(m.query_miss_rate);
  digest->mix_double(m.subquery_miss_rate);
  digest->mix_double(m.avg_cpu_power_per_server);
  digest->mix_double(m.total_system_power);
  digest->mix_double(m.measured_core_utilization);
  digest->mix(m.queries_completed);
  digest->mix(m.subqueries_completed);
  digest->mix(m.flows_rerouted);
  digest->mix(m.subqueries_dropped);
  digest->mix(m.outage_sla_misses);
}

std::uint64_t serving_digest(const ServingReport& report) {
  BitDigest digest;
  for (const auto& window : report.windows) {
    digest.mix_string(obs::to_jsonl(window));
  }
  mix_latency(&digest, report.latency);
  digest.mix_double(report.total_energy_j);
  digest.mix(static_cast<std::uint64_t>(report.subqueries_completed));
  digest.mix(static_cast<std::uint64_t>(report.sla_misses));
  return digest.value();
}

TEST(DesGolden, ServingHarnessWindowsMatchReferenceBits) {
  const Scenario scn = serve_scenario();
  ServingHarnessConfig config = harness_config(scn, 120.0);
  config.arrivals.horizon = sec(120.0);
  config.epoch.transition.epoch_length = sec(40.0);  // two re-plans
  config.report_window = sec(20.0);
  config.admission = "sla-aware";
  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  const ServingReport report = harness.run();
  ASSERT_EQ(report.epochs, 3);
  EXPECT_EQ(serving_digest(report), 0xd289b54b5cf840ddull);
}

TEST(DesGolden, ServingOverloadMatchesReferenceBits) {
  // 20x the 40 qps base peak against 16 queries in flight: the dispatch
  // queue, door drops, both shed points and the re-plan penalty all fire,
  // none of which the moderate-load run above reaches.
  const Scenario scn = serve_scenario();
  ServingHarnessConfig base = harness_config(scn, 20.0 * 40.0);
  base.arrivals.horizon = sec(60.0);
  base.epoch.transition.epoch_length = sec(20.0);
  base.report_window = sec(20.0);
  base.max_inflight = 16;
  base.queue_limit = 32;
  base.reconfig_penalty = ms(50.0);
  base.policy.bucket_rate_qps = 250.0;
  struct Run {
    const char* admission;
    const char* shed;
    std::uint64_t digest;
  };
  const Run runs[] = {
      {"always", "deadline", 0xc3171787ad94a7f3ull},
      {"always", "never", 0xfd93038a639dbaa2ull},
      {"token-bucket", "never", 0xafa0c532cf523394ull},
  };
  long long queued = 0, shed = 0, dropped = 0, late_shed = 0, penalized = 0;
  for (const Run& run : runs) {
    ServingHarnessConfig config = base;
    config.admission = run.admission;
    config.shed = run.shed;
    ServingHarness harness(&scn.topology(), &scn.service_model(),
                           &scn.power_model(), config);
    const ServingReport report = harness.run();
    EXPECT_EQ(serving_digest(report), run.digest)
        << run.admission << "/" << run.shed;
    queued += report.queued;
    shed += report.shed;
    dropped += report.dropped;
    late_shed += report.late_shed;
    penalized += report.transition_penalized;
  }
  EXPECT_GT(queued, 0);
  EXPECT_GT(shed, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(late_shed, 0);
  EXPECT_GT(penalized, 0);
}

TEST(DesGolden, SearchClusterMetricsMatchReferenceBits) {
  const Scenario scn = serve_scenario();
  Rng bg_rng(3);
  const FlowSet background =
      make_background_flows(scn.flow_gen(), 6, 0.1, 0.1, bg_rng);

  // Dense faults inside a short run on the full fabric (a consolidated
  // subnet leaves no alternate path), so reroutes and drops both happen.
  FaultInjectorConfig faults;
  faults.mtbf = sec(0.3);
  faults.mttr = sec(0.5);
  faults.horizon = sec(2.5);
  faults.seed = 1;
  const FaultSchedule schedule =
      generate_fault_schedule(scn.topology().graph(), faults);
  ASSERT_NE(scn.fat_tree(), nullptr);
  const AggregationPolicies policies(scn.fat_tree());
  const std::vector<bool> full_fabric = policies.policy(0).switch_on;

  ScenarioConfig config;
  config.cluster.policy = "eprons";
  config.cluster.target_utilization = 0.3;
  config.cluster.warmup = sec(0.5);
  config.cluster.duration = sec(2.0);
  config.cluster.seed = 42;
  BitDigest digest;
  const ScenarioResult healthy = scn.run(background, config);
  mix_cluster(&digest, healthy.metrics);
  config.fault_timeline = &schedule.timeline;
  const ScenarioResult faulted = scn.run(background, config, &full_fabric);
  EXPECT_GT(faulted.metrics.flows_rerouted, 0u);
  EXPECT_GT(faulted.metrics.subqueries_dropped, 0u);
  mix_cluster(&digest, faulted.metrics);
  EXPECT_EQ(digest.value(), 0x5b03b614d609b5aeull);
}

TEST(DesGolden, SearchClusterPolicyNamesMatchReferenceBits) {
  // One short healthy run per make_policy name that no golden above pins
  // ("eprons" and "timetrader" are): the max-frequency baseline, Rubik,
  // Rubik+ and the three EPRONS-Server ablations, each deciding every
  // core's frequency in its own run. The load is high enough that waiting
  // queues form and EDF reorders them (at 0.3, a rule's EDF and FIFO runs
  // are identical), so Rubik+ and "eprons-maxvp", which differ only in
  // queue order, differ here.
  const Scenario scn = serve_scenario();
  Rng bg_rng(3);
  const FlowSet background =
      make_background_flows(scn.flow_gen(), 6, 0.1, 0.1, bg_rng);
  struct Run {
    const char* policy;
    std::uint64_t digest;
  };
  const Run runs[] = {
      {"max", 0x2baba138cafc5d06ull},
      {"rubik", 0x29ec0725bad8a470ull},
      {"rubik+", 0x24c207804190879full},
      {"eprons-noedf", 0xb7f4ae930832c0dull},
      {"eprons-noslack", 0x53cd4f6ed664e934ull},
      {"eprons-maxvp", 0x9964e76d630c56eeull},
  };
  std::vector<std::uint64_t> digests;
  for (const Run& run : runs) {
    ScenarioConfig config;
    config.cluster.policy = run.policy;
    config.cluster.target_utilization = 0.75;
    config.cluster.warmup = sec(0.5);
    config.cluster.duration = sec(2.0);
    config.cluster.seed = 42;
    const ScenarioResult result = scn.run(background, config);
    EXPECT_GT(result.metrics.queries_completed, 0u) << run.policy;
    BitDigest digest;
    mix_cluster(&digest, result.metrics);
    EXPECT_EQ(digest.value(), run.digest) << run.policy;
    digests.push_back(digest.value());
  }
  EXPECT_NE(digests[2], digests[5]);  // rubik+ vs eprons-maxvp: EDF only
}

TEST(DesGolden, SearchClusterTimeTraderFeedbackMatchesReferenceBits) {
  // TimeTrader re-tunes each core every 5 modeled seconds from the
  // sub-query latencies the cluster reports back, and turns conservative
  // when the ECN monitor flags the network tail against the network
  // budget. Two runs past two adjustment periods: the default budgets,
  // and a 0.2 ms network budget the monitor reports as congested.
  const Scenario scn = serve_scenario();
  Rng bg_rng(3);
  const FlowSet background =
      make_background_flows(scn.flow_gen(), 6, 0.1, 0.1, bg_rng);
  ScenarioConfig config;
  config.cluster.policy = "timetrader";
  config.cluster.target_utilization = 0.3;
  config.cluster.warmup = sec(0.5);
  config.cluster.feedback_warmup = sec(1.0);
  config.cluster.duration = sec(10.0);
  config.cluster.seed = 42;
  BitDigest digest;
  mix_cluster(&digest, scn.run(background, config).metrics);
  config.cluster.latency_constraint = ms(10.0);
  config.cluster.server_budget = ms(9.8);
  mix_cluster(&digest, scn.run(background, config).metrics);
  EXPECT_EQ(digest.value(), 0x6276d78fb24e9c6cull);
}

// ---- Clamped schedules ----

std::uint64_t clamped_events() {
  const obs::MetricsSnapshot snapshot = obs::metrics().snapshot();
  const auto it = snapshot.counters.find("sim.clamped_events");
  return it == snapshot.counters.end() ? 0 : it->second;
}

TEST(DesClamps, GoldenScenariosScheduleNothingIntoThePast) {
  // The DesGolden runs again: moderate and overload serving, the healthy
  // and faulted cluster, and TimeTrader. Neither driver may schedule an
  // event earlier than now() beyond round-off, which would silently run
  // it late; both report EventQueue::clamped() as sim.clamped_events.
  const std::uint64_t before = clamped_events();
  const Scenario scn = serve_scenario();
  auto serve = [&](const ServingHarnessConfig& config) {
    ServingHarness harness(&scn.topology(), &scn.service_model(),
                           &scn.power_model(), config);
    EXPECT_GT(harness.run().completed, 0);
  };
  ServingHarnessConfig moderate = harness_config(scn, 120.0);
  moderate.arrivals.horizon = sec(120.0);
  moderate.epoch.transition.epoch_length = sec(40.0);
  moderate.report_window = sec(20.0);
  moderate.admission = "sla-aware";
  serve(moderate);
  ServingHarnessConfig overload = harness_config(scn, 20.0 * 40.0);
  overload.arrivals.horizon = sec(60.0);
  overload.epoch.transition.epoch_length = sec(20.0);
  overload.report_window = sec(20.0);
  overload.max_inflight = 16;
  overload.queue_limit = 32;
  overload.reconfig_penalty = ms(50.0);
  overload.policy.bucket_rate_qps = 250.0;
  for (const auto& [admission, shed] :
       {std::pair{"always", "deadline"}, std::pair{"always", "never"},
        std::pair{"token-bucket", "never"}}) {
    overload.admission = admission;
    overload.shed = shed;
    serve(overload);
  }

  Rng bg_rng(3);
  const FlowSet background =
      make_background_flows(scn.flow_gen(), 6, 0.1, 0.1, bg_rng);
  FaultInjectorConfig faults;
  faults.mtbf = sec(0.3);
  faults.mttr = sec(0.5);
  faults.horizon = sec(2.5);
  faults.seed = 1;
  const FaultSchedule schedule =
      generate_fault_schedule(scn.topology().graph(), faults);
  ASSERT_NE(scn.fat_tree(), nullptr);
  const std::vector<bool> full_fabric =
      AggregationPolicies(scn.fat_tree()).policy(0).switch_on;
  ScenarioConfig cluster;
  cluster.cluster.policy = "eprons";
  cluster.cluster.target_utilization = 0.3;
  cluster.cluster.warmup = sec(0.5);
  cluster.cluster.duration = sec(2.0);
  cluster.cluster.seed = 42;
  EXPECT_GT(scn.run(background, cluster).metrics.queries_completed, 0u);
  cluster.fault_timeline = &schedule.timeline;
  EXPECT_GT(scn.run(background, cluster, &full_fabric)
                .metrics.subqueries_dropped,
            0u);

  ScenarioConfig timetrader;
  timetrader.cluster.policy = "timetrader";
  timetrader.cluster.target_utilization = 0.3;
  timetrader.cluster.warmup = sec(0.5);
  timetrader.cluster.feedback_warmup = sec(1.0);
  timetrader.cluster.duration = sec(10.0);
  timetrader.cluster.seed = 42;
  EXPECT_GT(scn.run(background, timetrader).metrics.queries_completed, 0u);
  timetrader.cluster.latency_constraint = ms(10.0);
  timetrader.cluster.server_budget = ms(9.8);
  EXPECT_GT(scn.run(background, timetrader).metrics.queries_completed, 0u);

  EXPECT_EQ(clamped_events(), before);
}

}  // namespace
}  // namespace eprons
