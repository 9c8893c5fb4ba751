// plan-k16: a planner-only control loop with no DES. EpochController with
// HierarchicalConsolidator on a k=16 fat-tree (1024 hosts), query demands
// and SLA as in bench_ablation_hierarchy, a cold K sweep 1-5 every epoch
// over a full diurnal day of 10-minute epochs, a seeded fault schedule
// delivered as on_failure / clear_faults calls between epochs, and
// deadline-bound timed flows scheduled once by TemporalScheduler and
// layered onto each epoch's background. 2 planner threads.
//
// Consolidation, slack Monte-Carlo, DVFS prediction, transitions, the
// temporal scheduler and the attribution JSONL do all the work. The cold
// sweep (run_epoch) and the constrained emergency re-plan (on_failure) use
// the same planner in two ways.
//
// Inputs: --seed drives the diurnal trace noise, the background flows, the
// timed flows, the fault schedule and the controller's observations.
#include <fstream>
#include <memory>

#include "consolidate/hierarchical_consolidator.h"
#include "fault/fault_injector.h"
#include "obs/telemetry.h"
#include "probes.h"
#include "schedule/temporal_scheduler.h"
#include "workloads.h"

namespace perfbench {

using namespace eprons;

namespace {

constexpr int kDefaultThreads = 2;
/// Epochs the determinism self-check replays at 1 thread.
constexpr int kCheckEpochs = 4;

struct PlanShape {
  int epochs;
  double epoch_s;
  int timed_flows;
  double mtbf_s;
  double mttr_s;
};
// 144 epochs leave 14 samples above the p90 of the epoch time.
constexpr PlanShape kFull{144, 600.0, 16, 7200.0, 600.0};
constexpr PlanShape kSmoke{8, 600.0, 16, 1200.0, 600.0};

/// Everything the loop feeds the planner, generated from the seed before
/// the measured phase starts.
struct PlanInputs {
  std::vector<FlowSet> backgrounds;
  std::vector<double> utilizations;
  FaultSchedule faults;
  TimedFlowSet timed;
  TemporalSchedule schedule;
  double schedule_ms = 0.0;
};

PlanInputs make_inputs(const Scenario& scn, const PlanShape& shape,
                       std::uint64_t seed, int threads) {
  PlanInputs in;
  Rng base(seed);
  Rng bg_rng = base.split();
  Rng timed_rng = base.split();

  DiurnalTraceConfig diurnal;
  diurnal.seed = seed;
  const std::vector<TracePoint> trace = make_diurnal_trace(diurnal);
  const FlowGenConfig gen = scn.flow_gen();
  const int elephants = scn.topology().num_hosts() / 16 * 3;

  TimedFlowGenConfig timed_gen = scn.timed_flow_gen();
  timed_gen.epochs = shape.epochs;
  timed_gen.mean_volume_mbit = static_cast<long long>(
      scn.topology().link_capacity() * shape.epoch_s * 0.10);
  in.timed = make_timed_background_flows(timed_gen, shape.timed_flows,
                                         timed_rng);
  TemporalSchedulerConfig sched;
  sched.epochs = shape.epochs;
  sched.epoch_seconds = shape.epoch_s;
  sched.epoch_cost = TemporalScheduler::diurnal_epoch_cost(
      diurnal, shape.epochs, shape.epoch_s);
  sched.runtime.threads = threads;
  const TemporalScheduler scheduler = scn.temporal_scheduler(sched);
  const auto t0 = Clock::now();
  in.schedule = scheduler.schedule(in.timed);
  in.schedule_ms = seconds_since(t0) * 1000.0;

  const int minutes_per_epoch = static_cast<int>(shape.epoch_s / 60.0);
  for (int e = 0; e < shape.epochs; ++e) {
    const TracePoint& point = trace[static_cast<std::size_t>(
        e * minutes_per_epoch) % trace.size()];
    FlowSet background = make_background_flows(
        gen, elephants, point.background_util, 0.1, bg_rng);
    in.schedule.append_epoch_flows(e, &background);
    in.backgrounds.push_back(std::move(background));
    in.utilizations.push_back(std::max(0.02, 0.5 * point.search_load));
  }

  FaultInjectorConfig faults;
  faults.mtbf = sec(shape.mtbf_s);
  faults.mttr = sec(shape.mttr_s);
  faults.horizon = sec(shape.epochs * shape.epoch_s);
  faults.seed = seed;
  in.faults = generate_fault_schedule(scn.topology().graph(), faults);
  return in;
}

EpochControllerConfig controller_config(const PlanShape& shape, int threads,
                                        const Consolidator* consolidator,
                                        obs::JsonlWriter* log) {
  EpochControllerConfig config;
  config.joint.slack.samples_per_pair = 60;
  // Per-leaf query demand shrinks with the 1023-leaf fan-out and the SLA
  // grows with the fan-out tail (bench_ablation_hierarchy's k=16 setting).
  config.joint.query_request_demand = 0.2;
  config.joint.query_reply_demand = 0.4;
  config.joint.latency_constraint = ms(120.0);
  config.joint.k_min = 1.0;
  config.joint.k_max = 5.0;
  config.joint.runtime.threads = threads;
  config.runtime.threads = threads;
  config.transition.epoch_length = sec(shape.epoch_s);
  config.consolidator = consolidator;
  config.epoch_log = log;
  return config;
}

/// One controller with the consolidator it borrows.
struct Planner {
  std::unique_ptr<HierarchicalConsolidator> hier;
  std::unique_ptr<TimingConsolidator> timing;
  std::unique_ptr<std::ofstream> file;
  std::unique_ptr<obs::JsonlWriter> writer;
  std::unique_ptr<EpochController> controller;
};

Planner make_planner(const Scenario& scn, const PlanShape& shape, int threads,
                     bool timed, const std::string& log_path) {
  Planner p;
  p.hier = std::make_unique<HierarchicalConsolidator>(
      nullptr, HierarchicalConsolidatorOptions{threads});
  const Consolidator* consolidator = p.hier.get();
  if (timed) {
    p.timing = std::make_unique<TimingConsolidator>(p.hier.get());
    consolidator = p.timing.get();
  }
  p.file = std::make_unique<std::ofstream>(log_path, std::ios::trunc);
  p.writer = std::make_unique<obs::JsonlWriter>(p.file.get());
  p.controller = std::make_unique<EpochController>(
      &scn.topology(), &scn.service_model(), &scn.power_model(),
      controller_config(shape, threads, consolidator, p.writer.get()));
  return p;
}

struct PlanRun {
  double wall_s = 0.0;
  std::vector<double> epoch_ms;
  std::vector<double> replan_ms;
  /// Fingerprint after each epoch (and the faults delivered after it).
  std::vector<std::string> chain;
  std::vector<EpochReport> reports;
  double power_sum_w = 0.0;
  double vp_sum = 0.0;
};

void check_ledger(const JointPlan& plan, const std::string& what,
                  Checks* checks) {
  const ConsolidationResult& c = plan.placement;
  checks->expect(
      plan.total_power == plan.network_power + plan.server_power_w &&
          plan.server_power_w == (plan.server_idle_w + plan.server_dynamic_w) +
                                     plan.server_dvfs_residual_w &&
          c.network_power ==
              ((c.edge_power_w + c.agg_power_w) + c.core_power_w) +
                  c.link_power_w,
      what + ": ledger total == network + server");
}

PlanRun run_loop(EpochController& controller, const Graph& graph,
                 const PlanInputs& in, std::uint64_t seed, double epoch_s,
                 int epochs, Checks* checks) {
  PlanRun run;
  Rng base(seed);
  base.split();
  base.split();
  Rng ctrl_rng = base.split();
  FaultCursor cursor(&graph, &in.faults.timeline);
  Fingerprint fp;
  const auto start = Clock::now();
  for (int e = 0; e < epochs; ++e) {
    const auto t0 = Clock::now();
    const EpochReport report = controller.run_epoch(
        in.backgrounds[static_cast<std::size_t>(e)],
        in.utilizations[static_cast<std::size_t>(e)], ctrl_rng);
    run.epoch_ms.push_back(seconds_since(t0) * 1000.0);
    const JointPlan& plan = controller.last_plan();
    check_ledger(plan, "epoch " + std::to_string(e), checks);
    run.power_sum_w += plan.total_power;
    run.vp_sum += plan.server.achieved_vp;
    run.reports.push_back(report);
    fp.f64(report.chosen_k);
    fp.i64(report.feasible);
    fp.i64(report.actual_switches);
    fp.f64(report.network_power);
    fp.f64(plan.total_power);
    fp.u64(placement_fingerprint(plan.placement));

    const SimTime epoch_end = (e + 1) * sec(epoch_s);
    while (!cursor.exhausted() && cursor.next_time() <= epoch_end) {
      cursor.advance_to(cursor.next_time());
      if (!cursor.overlay().any_failed()) {
        controller.clear_faults();
        fp.i64(-1);
        continue;
      }
      const auto t1 = Clock::now();
      const RecoveryReport r = controller.on_failure(cursor.overlay());
      const double replan_ms = seconds_since(t1) * 1000.0;
      if (r.replanned) {
        run.replan_ms.push_back(replan_ms);
        check_ledger(controller.last_plan(),
                     "replan after epoch " + std::to_string(e), checks);
      }
      fp.i64(r.replanned);
      fp.i64(r.hot_recovery);
      fp.f64(r.chosen_k);
      fp.i64(r.emergency_boots);
      fp.i64(r.flows_rerouted);
      fp.i64(r.actual_switches);
      fp.f64(r.network_power);
    }
    run.chain.push_back(fp.hex());
  }
  run.wall_s = seconds_since(start);
  return run;
}

void check_schedule(const PlanInputs& in, Checks* checks) {
  const TemporalSchedule& s = in.schedule;
  checks->expect(s.carried_total_mbit + s.missed_total_mbit ==
                         s.total_volume_mbit &&
                     s.total_volume_mbit == in.timed.total_volume_mbit(),
                 "schedule: carried + missed == total");
}

void check_log(const std::string& path, int epochs, Checks* checks) {
  const JsonlLog log = read_jsonl_log(path);
  checks->expect(log.ledger_lines >= epochs && log.ledger_violations == 0,
                 "epoch log: every ledger total == network + server");
}

}  // namespace

Outcome run_plan_k16(const Options& options) {
  Outcome out;
  const int threads = options.threads > 0 ? options.threads : kDefaultThreads;
  const PlanShape shape = options.smoke ? kSmoke : kFull;
  const std::string log_path = options.run_dir + "/plan-k16.jsonl";

  Samples setup;
  std::unique_ptr<Scenario> scn;
  std::unique_ptr<PlanInputs> inputs;
  Planner planner;
  auto set_up = [&](bool timed) {
    planner.controller.reset();
    planner = Planner{};
    inputs.reset();
    scn.reset();
    const double speed = reference_speed();
    const auto t0 = Clock::now();
    scn = std::make_unique<Scenario>(make_scenario(16, threads));
    const double scenario_s = seconds_since(t0) * speed;
    const auto t1 = Clock::now();
    planner = make_planner(*scn, shape, threads, timed, log_path);
    const double planner_s = seconds_since(t1) * speed;
    const auto t2 = Clock::now();
    inputs = std::make_unique<PlanInputs>(
        make_inputs(*scn, shape, options.seed, threads));
    const double inputs_s = seconds_since(t2) * speed;
    setup["setup_s"].push_back(seconds_since(t0) * speed);
    setup["setup.scenario_s"].push_back(scenario_s);
    setup["setup.planner_init_s"].push_back(planner_s);
    setup["setup.harness_init_s"].push_back(inputs_s);
    setup["schedule.ms"].push_back(inputs->schedule_ms * speed);
    check_schedule(*inputs, &out.checks);
  };

  PlanRun run;
  TraceCapture trace;
  const Timing timing =
      measure_units(options, threads, &out, [&](int, bool traced) {
        for (int i = 0; i < kSetupsPerUnit; ++i) set_up(traced);
        if (traced) begin_trace();
        PlanRun r = run_loop(*planner.controller, scn->topology().graph(),
                             *inputs, options.seed, shape.epoch_s,
                             shape.epochs, &out.checks);
        if (traced) trace = end_trace(planner.timing.get());
        planner.file->close();
        check_log(log_path, shape.epochs, &out.checks);
        const UnitResult result{r.wall_s, r.chain.back()};
        if (!traced) run = std::move(r);
        return result;
      });

  // Determinism self-check: the first epochs (with their fault deliveries)
  // replayed at 1 thread must match the measured run's chain.
  {
    Planner serial = make_planner(*scn, shape, 1, false,
                                  options.run_dir + "/plan-k16-check.jsonl");
    const PlanInputs serial_in = make_inputs(*scn, shape, options.seed, 1);
    const int n = std::min(kCheckEpochs, shape.epochs);
    Checks scratch;
    const PlanRun prefix =
        run_loop(*serial.controller, scn->topology().graph(), serial_in,
                 options.seed, shape.epoch_s, n, &scratch);
    out.checks.expect(scratch.failed == 0 &&
                          prefix.chain.back() ==
                              run.chain[static_cast<std::size_t>(n - 1)],
                      "1-thread and " + std::to_string(threads) +
                          "-thread plans are identical");
  }

  const double epochs = static_cast<double>(shape.epochs);
  out.note("epochs", std::to_string(shape.epochs));
  out.note("plan_ms_p50", std::to_string(quantile(run.epoch_ms, 0.5)));
  out.note("plan_ms_p90", std::to_string(quantile(run.epoch_ms, 0.9)));
  out.note("replans", std::to_string(run.replan_ms.size()));
  out.note("replan_ms_p50", std::to_string(quantile(run.replan_ms, 0.5)));

  if (!options.trace) {
    while (static_cast<int>(setup["setup_s"].size()) <
           options.setup_samples()) {
      set_up(false);
    }
    add_common_metrics(&out, timing, setup);
    out.set("avg_total_power_w", run.power_sum_w / epochs);
    out.set("subquery_miss_pct", 100.0 * run.vp_sum / epochs);
    return out;
  }

  auto counter = [&](const char* name) { return trace.counter(name); };
  const double untraced_wall = median(timing.untraced_walls);
  const double traced_wall = median(timing.traced_walls);

  // No DES runs here: the simulator counters must stay at zero.
  out.set("sim.events", counter("sim.queries") + counter("sim.subqueries") +
                            counter("sim.dvfs_selections"));
  out.set("sim.dvfs_selections", counter("sim.dvfs_selections"));

  out.set("core.plan_calls", epochs);
  out.set("core.plan_ms_p50", quantile(run.epoch_ms, 0.5));
  out.set("core.plan_ms_p90", quantile(run.epoch_ms, 0.9));
  const double planner_ms =
      set_planner_metrics(trace, {"epoch", "k_search"}, traced_wall, &out);
  out.set("fault.replans", counter("fault.replans"));
  out.set("fault.flows_rerouted", counter("fault.flows_rerouted"));
  out.set("fault.emergency_boots", counter("fault.emergency_boots"));
  out.set("fault.replan_ms_p50", quantile(run.replan_ms, 0.5));
  const TemporalSchedule& s = inputs->schedule;
  out.set("schedule.carried_ratio",
          s.total_volume_mbit > 0
              ? static_cast<double>(s.carried_total_mbit) /
                    static_cast<double>(s.total_volume_mbit)
              : 0.0);
  out.set("schedule.deadline_misses", static_cast<double>(s.deadline_misses));

  // obs: the epoch log, and serialization of the run's epoch records.
  const JsonlLog log = read_jsonl_log(log_path);
  std::vector<obs::EpochRecord> records;
  for (const EpochReport& r : run.reports) {
    obs::EpochRecord rec;
    rec.epoch = r.epoch;
    rec.chosen_k = r.chosen_k;
    rec.feasible = r.feasible;
    rec.wanted_switches = r.wanted_switches;
    rec.actual_switches = r.actual_switches;
    rec.predicted_total_w = r.predicted_total;
    rec.realized_network_w = r.network_power;
    rec.prediction_ratio = r.prediction_ratio;
    rec.slack_total_p95_us = r.slack_total_p95;
    rec.slack_total_p99_us = r.slack_total_p99;
    rec.server_budget_us = r.server_budget;
    records.push_back(rec);
  }
  const double obs_ns = record_ns(records, &out.checks);
  out.set("obs.records", static_cast<double>(log.records));
  out.set("obs.bytes", static_cast<double>(log.bytes));
  out.set("obs.record_ns", obs_ns);

  add_setup_parts(&out, setup);
  out.set("trace.overhead_pct",
          100.0 * (traced_wall - untraced_wall) / untraced_wall);
  out.set("des.unattributed_share",
          1.0 - (planner_ms / 1000.0 +
                 static_cast<double>(log.records) * obs_ns * 1e-9) /
                    traced_wall);
  return out;
}

}  // namespace perfbench
