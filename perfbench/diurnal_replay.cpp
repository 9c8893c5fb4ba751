// diurnal-replay: TraceReplay (paper Fig. 15) of the no-pm and eprons
// schemes on the bench k=4 fat-tree — SearchCluster calibrations at the five
// diurnal shapes, one cold K sweep per eprons point, and the 1440-minute
// interpolation.
//
// This is the paper's headline number and the repo's second DES driver. It
// runs at utilization 0.1-0.5, so queues are shallow and the DVFS decisions
// are a different mix from serve-overload's: a DES change tuned for deep
// queues, or a DES unification, must show no regression here. TimeTrader is
// left out on purpose: its 300 s modeled feedback warm-up would dominate
// the run.
//
// Inputs: --seed drives the per-shape background flows, the DES sampling
// and the diurnal trace's minute-level noise.
#include <memory>

#include "core/trace_replay.h"
#include "obs/telemetry.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

using namespace eprons;

namespace {

TraceReplayConfig replay_config(const Options& options) {
  TraceReplayConfig config;
  config.scenario.cluster.warmup = sec(1.0);
  config.scenario.cluster.duration = sec(options.smoke ? 1.0 : 6.0);
  config.peak_utilization = 0.5;
  config.joint.slack.samples_per_pair = 200;
  config.joint.runtime.threads = 1;
  config.seed = options.seed;
  config.scenario.cluster.seed = options.seed;
  config.trace.seed = options.seed;
  if (options.smoke) config.calibration_shapes = {0.0, 1.0};
  return config;
}

struct DiurnalRun {
  double wall_s = 0.0;
  ReplayResult base;
  ReplayResult eprons;
  TraceReplay::Savings savings;
  /// sim.dvfs_selections spent by each scheme (counter deltas).
  double base_selections = 0.0;
  double eprons_selections = 0.0;
  std::string fingerprint;
};

double selections_counter() {
  return static_cast<double>(
      obs::metrics().counter("sim.dvfs_selections").value());
}

DiurnalRun replay_once(const TraceReplay& replay) {
  DiurnalRun out;
  const double sel0 = selections_counter();
  const auto start = Clock::now();
  out.base = replay.replay(Scheme::NoPowerManagement);
  const double sel1 = selections_counter();
  out.eprons = replay.replay(Scheme::Eprons);
  out.savings = TraceReplay::savings(out.base, out.eprons);
  out.wall_s = seconds_since(start);
  out.base_selections = sel1 - sel0;
  out.eprons_selections = selections_counter() - sel1;

  Fingerprint fp;
  for (const ReplayResult* r : {&out.base, &out.eprons}) {
    for (const CalibrationPoint& p : r->calibration) {
      for (const double v :
           {p.shape, p.utilization, p.background_util, p.cpu_power_per_server,
            p.network_power, p.subquery_miss_rate, p.chosen_k,
            p.predicted_total, p.slack_total_p95, p.server_budget}) {
        fp.f64(v);
      }
      fp.i64(p.active_switches);
    }
    fp.f64(r->average_total_power);
    fp.f64(r->peak_total_power);
    fp.f64(r->min_total_power);
  }
  out.fingerprint = fp.hex();
  return out;
}

void check_run(const DiurnalRun& run, int minutes, Checks* checks) {
  for (const ReplayResult* r : {&run.base, &run.eprons}) {
    const std::string scheme = scheme_name(r->scheme);
    for (const CalibrationPoint& p : r->calibration) {
      checks->expect(p.subquery_miss_rate >= 0.0 &&
                         p.subquery_miss_rate <= 1.0 &&
                         p.cpu_power_per_server > 0.0,
                     scheme + ": calibration point in range");
    }
    bool ledger = static_cast<int>(r->series.size()) == minutes;
    for (const MinutePower& m : r->series) {
      ledger = ledger && m.total_power == m.server_power + m.network_power;
    }
    checks->expect(ledger,
                   scheme + ": every minute total == server + network");
  }
}

double mean_miss_pct(const ReplayResult& r) {
  std::vector<double> misses;
  for (const CalibrationPoint& p : r.calibration) {
    misses.push_back(100.0 * p.subquery_miss_rate);
  }
  return mean(misses);
}

/// Per-layer metrics from one traced pass, its counters and spans, and the
/// DES component replays. Walls are the medians of the untraced and traced
/// passes of the run.
void traced_layers(const Options& options, const Scenario& scn,
                   const TraceReplayConfig& config, const DiurnalRun& traced,
                   const TraceCapture& trace, double untraced_wall,
                   double traced_wall, Outcome* out) {
  auto counter = [&](const char* name) { return trace.counter(name); };
  out->checks.expect(counter("sim.subquery_misses") <= counter("sim.subqueries"),
                     "sim: subquery misses <= subqueries");

  // The DES counters cover the measured window; warmup traffic ran too.
  const auto& cluster = config.scenario.cluster;
  const double span_scale = (cluster.warmup + cluster.duration) /
                            cluster.duration;
  const double queries = counter("sim.queries") * span_scale;
  const double subqueries = counter("sim.subqueries") * span_scale;
  const double selections = traced.base_selections + traced.eprons_selections;
  const double events = queries + 2.0 * subqueries + selections;

  // dvfs + net: one index server per calibration point, fed at the point's
  // per-server rate and budget, once per scheme.
  Rng bg_rng(options.seed);
  FlowGenConfig gen = scn.flow_gen(cluster.aggregator_host);
  const FlowSet background = make_background_flows(gen, 6, 0.3, 0.1, bg_rng);
  const double mid_lambda = query_arrival_rate_per_us(
      scn.service_model(), scn.power_model().num_cores(), 0.3);
  const LatencyFixture net = make_latency_fixture(scn, config.joint,
                                                  background, 0.3, mid_lambda);
  double ep_ns = 0.0, ep_sel = 0.0, depth = 0.0, max_ns = 0.0, max_sel = 0.0;
  std::vector<double> p50s, p99s;
  std::size_t heap = 0;
  for (std::size_t i = 0; i < traced.eprons.calibration.size(); ++i) {
    const CalibrationPoint& p = traced.eprons.calibration[i];
    ServerReplayConfig replay_cfg;
    replay_cfg.arrivals = poisson_times(
        query_arrival_rate_per_us(scn.service_model(),
                                  scn.power_model().num_cores(),
                                  p.utilization),
        cluster.warmup + cluster.duration, options.seed + i);
    replay_cfg.latency = net.latency.get();
    replay_cfg.request_path = &net.paths.front();
    replay_cfg.seed = options.seed + i;
    replay_cfg.target_vp = cluster.target_vp;
    for (const bool eprons : {true, false}) {
      replay_cfg.policy = eprons ? "eprons" : "max";
      replay_cfg.server_budget =
          eprons && p.plan_feasible && p.server_budget > 0.0
              ? std::min(cluster.latency_constraint, p.server_budget)
              : cluster.server_budget;
      replay_cfg.request_budget =
          cluster.request_budget_fraction *
          std::max(0.0, cluster.latency_constraint - replay_cfg.server_budget);
      const ServerReplay s =
          replay_server(scn.service_model(), scn.power_model(), replay_cfg);
      const double n = static_cast<double>(s.selections);
      heap = std::max(heap, s.heap_peak);
      if (eprons) {
        ep_ns += s.select_ns_mean * n;
        ep_sel += n;
        depth += s.queue_depth_mean * n;
        p50s.push_back(s.select_ns_p50);
        p99s.push_back(s.select_ns_p99);
      } else {
        max_ns += s.select_ns_mean * n;
        max_sel += n;
      }
    }
  }
  const double ep_mean_ns = ep_sel > 0.0 ? ep_ns / ep_sel : 0.0;
  const double max_mean_ns = max_sel > 0.0 ? max_ns / max_sel : 0.0;
  const double select_s = (traced.eprons_selections * ep_mean_ns +
                           traced.base_selections * max_mean_ns) *
                          1e-9;
  const double isns = static_cast<double>(scn.topology().num_hosts() - 1);
  const double heap_est = static_cast<double>(heap) * isns;
  const double event_ns =
      event_queue_ns(static_cast<std::size_t>(heap_est), 200000);
  const double net_samples = 2.0 * subqueries;
  const double net_ns =
      net_sample_ns(*net.latency, net.paths, 200000);

  out->set("sim.events", events);
  out->set("sim.event_ns", event_ns);
  out->set("sim.stale_event_ratio",
           events > 0.0 ? std::max(0.0, selections - subqueries) / events
                        : 0.0);
  out->set("sim.heap_peak", heap_est);
  out->set("sim.dvfs_selections", selections);
  out->set("sim.queries_per_s", counter("sim.queries") / untraced_wall);
  out->set("dvfs.select_ns_p50", median(p50s));
  out->set("dvfs.select_ns_p99", median(p99s));
  out->set("dvfs.queue_depth_mean", ep_sel > 0.0 ? depth / ep_sel : 0.0);
  out->set("dvfs.select_s", select_s);
  out->set("net.samples", net_samples);
  out->set("net.sample_ns", net_ns);

  // core + consolidate: one cold sweep per eprons calibration point, plus
  // the DES runs' own subnet consolidations.
  const std::vector<double> sweeps = span_durations_ms(trace.spans, "k_search");
  out->set("core.plan_calls", static_cast<double>(sweeps.size()));
  out->set("core.plan_ms_p50", quantile(sweeps, 0.5));
  out->set("core.plan_ms_p90", quantile(sweeps, 0.9));
  const double planner_ms = set_planner_metrics(
      trace, {"k_search", "consolidate_greedy"}, traced_wall, out);
  out->set("core.eprons_saving_pct", traced.savings.total_pct);

  out->set("trace.overhead_pct",
           100.0 * (traced_wall - untraced_wall) / untraced_wall);
  const double estimated_s =
      (events * event_ns + net_samples * net_ns) * 1e-9 + select_s +
      planner_ms / 1000.0;
  out->set("des.unattributed_share", 1.0 - estimated_s / traced_wall);
}

}  // namespace

Outcome run_diurnal_replay(const Options& options) {
  Outcome out;
  const int threads = options.threads > 0 ? options.threads : 1;
  const TraceReplayConfig config = replay_config(options);

  Samples setup;
  std::unique_ptr<Scenario> scn;
  std::unique_ptr<TraceReplay> replay;
  auto set_up = [&] {
    replay.reset();
    scn.reset();
    const double speed = reference_speed();
    const auto t0 = Clock::now();
    scn = std::make_unique<Scenario>(make_scenario(4, threads));
    const double scenario_s = seconds_since(t0) * speed;
    const auto t1 = Clock::now();
    TraceReplayConfig cfg = config;
    cfg.joint.runtime.threads = threads;
    replay = std::make_unique<TraceReplay>(scn->fat_tree(),
                                           &scn->service_model(),
                                           &scn->power_model(), cfg);
    const double harness_s = seconds_since(t1) * speed;
    setup["setup_s"].push_back(seconds_since(t0) * speed);
    setup["setup.scenario_s"].push_back(scenario_s);
    setup["setup.harness_init_s"].push_back(harness_s);
  };
  DiurnalRun last;
  DiurnalRun traced_run;
  TraceCapture trace;
  const Timing timing =
      measure_units(options, threads, &out, [&](int, bool traced) {
        for (int i = 0; i < kSetupsPerUnit; ++i) set_up();
        if (traced) begin_trace();
        DiurnalRun run = replay_once(*replay);
        if (traced) trace = end_trace();
        check_run(run, config.trace.minutes, &out.checks);
        const UnitResult result{run.wall_s, run.fingerprint};
        (traced ? traced_run : last) = std::move(run);
        return result;
      });
  while (static_cast<int>(setup["setup_s"].size()) < options.setup_samples()) {
    set_up();
  }

  out.note("eprons_saving_pct", std::to_string(last.savings.total_pct));
  out.note("eprons_peak_minute_saving_pct",
           std::to_string(last.savings.peak_total_pct));
  out.note("no_pm_avg_total_power_w",
           std::to_string(last.base.average_total_power));

  if (options.trace) {
    traced_layers(options, *scn, config, traced_run, trace,
                  median(timing.untraced_walls), median(timing.traced_walls),
                  &out);
    // TraceReplay builds one optimizer per eprons calibration point inside
    // the measured phase; this is the cost of one such construction.
    const auto t0 = Clock::now();
    const JointOptimizer optimizer(scn->fat_tree(), &scn->service_model(),
                                   &scn->power_model(), config.joint);
    out.set("setup.planner_init_s", seconds_since(t0));
    out.checks.expect(optimizer.config().k_max >= optimizer.config().k_min,
                      "planner constructs");
    add_setup_parts(&out, setup);
    return out;
  }
  add_common_metrics(&out, timing, setup);
  out.set("avg_total_power_w", last.eprons.average_total_power);
  out.set("subquery_miss_pct", mean_miss_pct(last.eprons));
  return out;
}

}  // namespace perfbench
