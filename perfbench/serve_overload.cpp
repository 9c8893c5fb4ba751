// serve-overload: the open-loop ServingHarness at the top row of the
// serving policy grid (8 x 40 qps peak from 09:00, bursts and flash crowds,
// sla-aware admission, max_inflight 16, queue_limit 32, eprons DVFS, K
// pinned at 2, epoch log written to a file).
//
// The discrete-event simulator does nearly all the work here, with active
// shedding; planning is a few milliseconds per epoch. Per-core queues stay
// shallow: the fan-out bound (16 queries in flight over 12 cores per index
// server) holds them at about one request (traced dvfs.queue_depth_mean
// 1.006). The deep queue is the harness's dispatch queue, in front of the
// DVFS layer. Event-queue, DVFS, latency-sampling and serving-bookkeeping
// changes move this workload; planner changes must not.
//
// Inputs: the arrival trace is part of the workload's definition (stream
// seed 1, the serving grid's own stream); --seed drives every other random
// stream of the run — DES work and latency draws, background flows and the
// controller's demand observations.
#include <fstream>
#include <memory>

#include "dvfs/policies.h"
#include "obs/jsonl.h"
#include "obs/telemetry.h"
#include "probes.h"
#include "serve/serving_harness.h"
#include "workloads.h"

namespace perfbench {

using namespace eprons;

namespace {

constexpr std::uint64_t kArrivalSeed = 1;
constexpr int kDefaultThreads = 2;

struct ServeShape {
  double horizon_s;
  double epoch_s;
  double window_s;
};

// The measured run, and the short run the determinism self-check repeats at
// 1 thread and at the workload's thread count.
constexpr ServeShape kFull{600.0, 200.0, 100.0};
constexpr ServeShape kShort{60.0, 20.0, 10.0};

ServingHarnessConfig serve_config(const Scenario& scn, const ServeShape& shape,
                                  std::uint64_t seed, int threads) {
  ServingHarnessConfig config;
  config.arrivals.horizon = sec(shape.horizon_s);
  config.arrivals.peak_rate_qps = 8.0 * 40.0;
  config.arrivals.seed = kArrivalSeed;
  config.arrivals.burst.enabled = true;
  config.arrivals.flash.events_per_hour = 1.0;
  config.arrivals.diurnal_start = 9.0 * 3600.0 * 1.0e6;
  config.epoch.transition.epoch_length = sec(shape.epoch_s);
  config.epoch.joint.k_min = 2.0;
  config.epoch.joint.k_max = 2.0;
  config.epoch.joint.slack.samples_per_pair = 150;
  config.epoch.runtime.threads = threads;
  config.flow_gen = scn.flow_gen();
  config.report_window = sec(shape.window_s);
  config.admission = "sla-aware";
  config.shed = "never";
  config.max_inflight = 16;
  config.queue_limit = 32;
  config.policy.bucket_rate_qps = 250.0;
  config.server_policy = "eprons";
  config.seed = seed;
  return config;
}

/// One harness run: set up, serve the horizon, read the log back.
struct ServeRun {
  /// Set-up parts, at the reference machine's speed (reference_speed()).
  double scenario_s = 0.0;
  double harness_s = 0.0;
  double wall_s = 0.0;
  ServingReport report;
  JsonlLog log;
  std::string fingerprint;
};

ServeRun serve_once(const ServeShape& shape, std::uint64_t seed, int threads,
                    const std::string& log_path,
                    const Consolidator* consolidator, bool run) {
  ServeRun out;
  const double speed = reference_speed();
  const auto t0 = Clock::now();
  const Scenario scn = make_scenario(4, threads);
  out.scenario_s = seconds_since(t0) * speed;

  const auto t1 = Clock::now();
  std::ofstream file(log_path, std::ios::trunc);
  obs::JsonlWriter writer(&file);
  ServingHarnessConfig config = serve_config(scn, shape, seed, threads);
  config.sink = &writer;
  config.epoch.consolidator = consolidator;
  ServingHarness harness(&scn.topology(), &scn.service_model(),
                         &scn.power_model(), config);
  out.harness_s = seconds_since(t1) * speed;
  if (!run) return out;

  const auto t2 = Clock::now();
  out.report = harness.run();
  file.close();
  out.wall_s = seconds_since(t2);

  out.log = read_jsonl_log(log_path);
  Fingerprint fp;
  for (const auto& window : out.report.windows) fp.text(obs::to_jsonl(window));
  out.fingerprint = fp.hex();
  return out;
}

void check_run(const ServeRun& run, const std::string& what, Checks* checks) {
  const ServingReport& r = run.report;
  for (const auto& w : r.windows) {
    checks->expect(w.arrivals == w.admitted + w.shed + w.dropped,
                   what + ": window " + std::to_string(w.window) +
                       " arrivals == admitted + shed + dropped");
    checks->expect(w.sla_misses <= w.subqueries,
                   what + ": window " + std::to_string(w.window) +
                       " sla_misses <= subqueries");
  }
  checks->expect(r.arrivals == r.admitted + r.shed + r.dropped,
                 what + ": arrivals == admitted + shed + dropped");
  checks->expect(r.completed <= r.admitted, what + ": completed <= admitted");
  checks->expect(r.sla_misses <= r.subqueries_completed,
                 what + ": sla_misses <= subqueries");
  checks->expect(r.arrivals > 0 && r.completed > 0,
                 what + ": served a non-empty stream");
  checks->expect(run.log.ledger_lines == r.epochs &&
                     run.log.ledger_violations == 0,
                 what + ": every epoch ledger total == network + server");
}

double refused_pct(const ServingReport& r) {
  return r.arrivals > 0
             ? 100.0 * static_cast<double>(r.shed + r.dropped + r.late_shed) /
                   static_cast<double>(r.arrivals)
             : 0.0;
}

double miss_pct(const ServingReport& r) {
  return r.subqueries_completed > 0
             ? 100.0 * static_cast<double>(r.sla_misses) /
                   static_cast<double>(r.subqueries_completed)
             : 0.0;
}

/// Per-layer metrics from one traced pass, its counters and spans, and the
/// DES component replays. Walls are the medians of the untraced and traced
/// passes of the run.
void traced_layers(const Options& options, const ServeShape& shape,
                   int threads, const ServeRun& traced,
                   const TraceCapture& trace, double untraced_wall,
                   double traced_wall, Outcome* out) {
  auto counter = [&](const char* name) { return trace.counter(name); };
  const ServingReport& r = traced.report;

  // serve: arrivals replayed on the identical stream config.
  const Scenario scn = make_scenario(4, threads);
  const ServingHarnessConfig config =
      serve_config(scn, shape, options.seed, threads);
  const auto init_start = Clock::now();
  const EpochController controller(&scn.topology(), &scn.service_model(),
                                   &scn.power_model(), config.epoch);
  out->set("setup.planner_init_s", seconds_since(init_start));
  out->checks.expect(controller.epochs_run() == 0, "planner constructs idle");
  const ArrivalReplay arrivals = replay_arrivals(config.arrivals);
  out->checks.expect(arrivals.arrivals == r.arrivals,
                     "arrival replay draws the served stream");
  out->set("serve.arrivals", static_cast<double>(r.arrivals));
  out->set("serve.subqueries", static_cast<double>(r.subqueries_completed));
  out->set("serve.arrival_ns", arrivals.ns_per_next);
  out->set("serve.thinning_accept_ratio", arrivals.accept_ratio);
  out->set("serve.shed", static_cast<double>(r.shed));
  out->set("serve.dropped", static_cast<double>(r.dropped));
  out->set("serve.late_shed", static_cast<double>(r.late_shed));
  out->set("serve.query_p99_ms", r.latency.p99 / 1000.0);
  out->set("serve.refused_pct", refused_pct(r));
  out->set("serve.energy_per_query_j", r.energy_per_admitted_j);

  // dvfs + net: one index server fed the served stream at the plan's
  // budgets, capped at the harness's fan-out bound.
  const double lambda = static_cast<double>(r.admitted) /
                        sec(shape.horizon_s);  // per us, per index server
  Rng bg_rng(options.seed);
  const FlowSet background = make_background_flows(
      config.flow_gen, config.background_flows, 0.3, 0.1, bg_rng);
  const double utilization = std::clamp(
      lambda * scn.service_model().mean_service_time(
                   scn.service_model().config().f_max) /
          scn.power_model().num_cores(),
      0.02, 0.9);
  const LatencyFixture net = make_latency_fixture(
      scn, config.epoch.joint, background, utilization, lambda);
  ServerReplayConfig replay;
  replay.policy = config.server_policy;
  replay.target_vp = config.target_vp;
  ArrivalGenerator gen(config.arrivals);
  for (SimTime t = gen.next(); t < config.arrivals.horizon; t = gen.next()) {
    replay.arrivals.push_back(t);
  }
  replay.server_budget = traced.log.mean_server_budget_us > 0.0
                             ? traced.log.mean_server_budget_us
                             : net.server_budget;
  replay.request_budget =
      0.5 * std::max(0.0, net.latency_constraint - replay.server_budget);
  replay.latency = net.latency.get();
  replay.request_path = &net.paths.front();
  replay.inflight_cap = static_cast<std::size_t>(config.max_inflight);
  replay.seed = options.seed;
  const ServerReplay server =
      replay_server(scn.service_model(), scn.power_model(), replay);

  const double isns = static_cast<double>(scn.topology().num_hosts() - 1);
  const double selections = counter("sim.dvfs_selections");
  const double subqueries = static_cast<double>(r.subqueries_completed);
  const double events =
      static_cast<double>(r.arrivals) + 2.0 * subqueries + selections;
  const double heap = static_cast<double>(server.heap_peak) * isns;
  const double event_ns =
      event_queue_ns(static_cast<std::size_t>(heap), 200000);
  const double net_samples = 2.0 * subqueries;
  const double net_ns =
      net_sample_ns(*net.latency, net.paths, 200000);
  out->set("sim.events", events);
  out->set("sim.event_ns", event_ns);
  out->set("sim.stale_event_ratio",
           events > 0.0 ? std::max(0.0, selections - subqueries) / events
                        : 0.0);
  out->set("sim.heap_peak", heap);
  out->set("sim.dvfs_selections", selections);
  out->set("sim.queries_per_s", static_cast<double>(r.arrivals) / untraced_wall);
  out->set("dvfs.select_ns_p50", server.select_ns_p50);
  out->set("dvfs.select_ns_p99", server.select_ns_p99);
  out->set("dvfs.queue_depth_mean", server.queue_depth_mean);
  out->set("dvfs.select_s", selections * server.select_ns_mean * 1e-9);
  out->set("net.samples", net_samples);
  out->set("net.sample_ns", net_ns);

  // core + consolidate: the controller's epochs inside the harness.
  const std::vector<double> epochs = span_durations_ms(trace.spans, "epoch");
  out->set("core.plan_calls", static_cast<double>(epochs.size()));
  out->set("core.plan_ms_p50", quantile(epochs, 0.5));
  out->set("core.plan_ms_p90", quantile(epochs, 0.9));
  const double planner_ms =
      set_planner_metrics(trace, {"epoch"}, traced_wall, out);

  // obs: the run's log file, and serialization of its returned records.
  const double obs_ns = record_ns(r.windows, &out->checks);
  out->set("obs.records", static_cast<double>(traced.log.records));
  out->set("obs.bytes", static_cast<double>(traced.log.bytes));
  out->set("obs.record_ns", obs_ns);

  out->set("trace.overhead_pct",
           100.0 * (traced_wall - untraced_wall) / untraced_wall);
  const double estimated_s =
      (static_cast<double>(r.arrivals) * arrivals.ns_per_next +
       events * event_ns + selections * server.select_ns_mean +
       net_samples * net_ns +
       static_cast<double>(traced.log.records) * obs_ns) *
          1e-9 +
      planner_ms / 1000.0;
  out->set("des.unattributed_share", 1.0 - estimated_s / traced_wall);
  out->note("replay.server_submitted", std::to_string(server.submitted));
  out->note("replay.server_stale_events", std::to_string(server.stale_events));
}

}  // namespace

Outcome run_serve_overload(const Options& options) {
  Outcome out;
  const int threads = options.threads > 0 ? options.threads : kDefaultThreads;
  const ServeShape shape = options.smoke ? kShort : kFull;
  const std::string log_path = options.run_dir + "/serve-overload.jsonl";

  Samples setup;
  auto add_setup = [&](const ServeRun& run) {
    setup["setup_s"].push_back(run.scenario_s + run.harness_s);
    setup["setup.scenario_s"].push_back(run.scenario_s);
    setup["setup.harness_init_s"].push_back(run.harness_s);
  };
  auto setup_only = [&] {
    add_setup(serve_once(shape, options.seed, threads, log_path, nullptr,
                         false));
  };
  ServeRun last;
  ServeRun traced_run;
  TraceCapture trace;
  const Timing timing =
      measure_units(options, threads, &out, [&](int index, bool traced) {
        for (int i = 1; i < kSetupsPerUnit; ++i) setup_only();
        const GreedyConsolidator greedy;
        const TimingConsolidator timed(&greedy);
        if (traced) begin_trace();
        ServeRun run = serve_once(shape, options.seed, threads, log_path,
                                  traced ? &timed : nullptr, true);
        if (traced) trace = end_trace(&timed);
        add_setup(run);
        check_run(run, "unit " + std::to_string(index), &out.checks);
        const UnitResult result{run.wall_s, run.fingerprint};
        (traced ? traced_run : last) = std::move(run);
        return result;
      });
  while (static_cast<int>(setup["setup_s"].size()) < options.setup_samples()) {
    setup_only();
  }

  // Determinism self-check: the short run at 1 thread and at the workload's
  // thread count must agree byte for byte.
  const std::string check_log = options.run_dir + "/serve-overload-check.jsonl";
  const ServeRun serial =
      serve_once(kShort, options.seed, 1, check_log, nullptr, true);
  const ServeRun parallel =
      serve_once(kShort, options.seed, threads, check_log, nullptr, true);
  out.checks.expect(serial.fingerprint == parallel.fingerprint,
                    "1-thread and " + std::to_string(threads) +
                        "-thread runs give identical outputs");

  const ServingReport& r = last.report;
  const double untraced_wall = median(timing.untraced_walls);
  out.note("arrivals", std::to_string(r.arrivals));
  out.note("query_p99_ms", std::to_string(r.latency.p99 / 1000.0));
  out.note("refused_pct", std::to_string(refused_pct(r)));
  out.note("energy_per_query_j", std::to_string(r.energy_per_admitted_j));
  out.note("sim_queries_per_s",
           std::to_string(static_cast<double>(r.arrivals) / untraced_wall));

  if (options.trace) {
    traced_layers(options, shape, threads, traced_run, trace, untraced_wall,
                  median(timing.traced_walls), &out);
    add_setup_parts(&out, setup);
    return out;
  }
  add_common_metrics(&out, timing, setup);
  out.set("avg_total_power_w", r.total_energy_j / shape.horizon_s);
  out.set("subquery_miss_pct", miss_pct(r));
  return out;
}

}  // namespace perfbench
