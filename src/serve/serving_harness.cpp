#include "serve/serving_harness.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/scenario.h"
#include "obs/telemetry.h"
#include "serve/policies.h"
#include "util/log.h"

namespace eprons {
namespace {

constexpr double kUsPerSecond = 1.0e6;
constexpr double kUsPerMinute = 60.0e6;
constexpr double kUjPerJoule = 1.0e6;
/// Demand jitter of each epoch's background elephants.
constexpr double kBackgroundJitter = 0.1;
/// The planner's utilization input derived from the arrival stream is
/// clamped to this range.
constexpr double kMinUtilization = 0.02;
constexpr double kMaxUtilization = 0.90;

}  // namespace

ServingHarness::ServingHarness(const Topology* topo,
                               const ServiceModel* service_model,
                               const ServerPowerModel* power_model,
                               ServingHarnessConfig config)
    : topo_(topo),
      service_model_(service_model),
      power_model_(power_model),
      config_(std::move(config)),
      ctrl_rng_(0),
      bg_rng_(0),
      offered_load_(&topo->graph()) {
  if (!topo_ || !service_model_ || !power_model_) {
    throw std::invalid_argument("serving harness inputs incomplete");
  }
  if (config_.max_inflight <= 0 || config_.queue_limit < 0) {
    throw std::invalid_argument("serving bounds must be positive");
  }

  // Fixed split order (docs/DETERMINISM.md): controller observations,
  // background draws, DES sampling, then the timed-flow draw. The arrival
  // stream has its own seed inside ArrivalStreamConfig. The 4th split is
  // appended, so enabling the temporal layer leaves ctrl/bg/sim streams
  // bit-identical.
  Rng base(config_.seed);
  ctrl_rng_ = base.split();
  bg_rng_ = base.split();
  const Rng sim_rng = base.split();  // DES latency/work sampling
  Rng timed_rng = base.split();

  const JointOptimizerConfig& joint = config_.epoch.joint;
  PartitionAggregateConfig core;
  core.topo = topo_;
  core.service_model = service_model_;
  core.power_model = power_model_;
  core.policy = config_.server_policy;
  core.target_vp = config_.target_vp;
  core.aggregator_host = joint.aggregator_host;
  core.latency_constraint = joint.latency_constraint;
  core.network_budget =
      std::max(0.0, joint.latency_constraint - joint.server_budget);
  PartitionAggregate::Listener* listener = this;
  des_ = std::make_unique<PartitionAggregate>(core, sim_rng, listener);
  if (config_.temporal.enabled) init_temporal(timed_rng);

  if (config_.sink != nullptr) config_.epoch.epoch_log = config_.sink;
  arrivals_ = std::make_unique<ArrivalGenerator>(config_.arrivals);
  controller_ = std::make_unique<EpochController>(topo_, service_model_,
                                                  power_model_, config_.epoch);
  admission_ = make_admission_policy(config_.admission, config_.policy);
  shed_ = make_shed_policy(config_.shed, config_.policy);

  const SimTime mean_service =
      service_model_->mean_service_time(service_model_->config().f_max);
  sustainable_rate_qps_ =
      power_model_->num_cores() / mean_service * kUsPerSecond;
}

ServingHarness::~ServingHarness() = default;

void ServingHarness::init_temporal(Rng& timed_rng) {
  const SimTime epoch_len = config_.epoch.transition.epoch_length;
  const SimTime horizon = config_.arrivals.horizon;
  if (epoch_len <= 0.0 || horizon <= 0.0) {
    throw std::invalid_argument(
        "temporal serving needs a positive epoch length and horizon");
  }
  const int epochs =
      static_cast<int>(std::ceil(horizon / epoch_len - 1.0e-9));

  TemporalSchedulerConfig sched = config_.temporal.scheduler;
  sched.epochs = epochs;
  sched.epoch_seconds = epoch_len / kUsPerSecond;
  if (sched.epoch_cost.empty()) {
    sched.epoch_cost = TemporalScheduler::diurnal_epoch_cost(
        config_.arrivals.diurnal, epochs, sched.epoch_seconds,
        config_.arrivals.diurnal_start / kUsPerSecond);
  }
  sched = topology_scheduler_config(*topo_, config_.epoch.runtime,
                                    std::move(sched));

  TimedFlowGenConfig gen = config_.temporal.gen;
  gen.epochs = epochs;
  if (gen.endpoints.num_hosts == 0) {
    gen.endpoints =
        topology_flow_gen(*topo_, config_.epoch.joint.aggregator_host);
  }
  if (gen.mean_volume_mbit <= 0) {
    gen.mean_volume_mbit = static_cast<long long>(
        topo_->link_capacity() * sched.epoch_seconds * 0.10);
  }

  const TimedFlowSet flows =
      make_timed_background_flows(gen, config_.temporal.flows, timed_rng);
  scheduler_ = std::make_unique<TemporalScheduler>(std::move(sched));
  schedule_ =
      std::make_unique<TemporalSchedule>(scheduler_->schedule(flows));
  EPRONS_LOG(Info) << "temporal schedule: " << flows.size() << " flows, "
                   << schedule_->carried_total_mbit << " Mbit carried, "
                   << schedule_->deadline_misses << " deadline misses"
                   << (schedule_->used_edf_fallback ? " (EDF fallback)" : "");
}

void ServingHarness::emit_schedule_epoch() {
  if (!schedule_ || epoch_index_ >= schedule_->epochs) return;
  const auto e = static_cast<std::size_t>(epoch_index_);
  obs::ScheduleEpochRecord rec;
  rec.epoch = epoch_index_;
  rec.carried_mbit = schedule_->carried_mbit[e];
  rec.backlog_mbit = schedule_->backlog_mbit[e];
  rec.expired_mbit = schedule_->expired_mbit[e];
  rec.flows_active = schedule_->flows_active[e];
  rec.flows_completed = schedule_->flows_completed[e];
  rec.cap_mbit = scheduler_->config().epoch_cap_mbit;
  rec.cost_level = scheduler_->epoch_cost(epoch_index_);
  rec.demand_mbps = schedule_->demand_mbps(epoch_index_);
  obs::JsonlWriter* sink =
      config_.sink != nullptr ? config_.sink : obs::epoch_log();
  if (sink != nullptr) sink->write(rec);
}

AdmissionContext ServingHarness::admission_context(SimTime now) const {
  AdmissionContext ctx;
  ctx.now = now;
  ctx.inflight = static_cast<int>(des_->inflight());
  ctx.queued = static_cast<int>(dispatch_queue_.size());
  ctx.sustainable_rate_qps = sustainable_rate_qps_;
  ctx.plan = &snapshot_;
  return ctx;
}

void ServingHarness::begin_epoch() {
  const SimTime now = des_->events().now();
  accrue_fixed_energy(now);
  ++epoch_index_;

  // Diurnal operating point at the epoch start.
  const double day = config_.arrivals.diurnal.minutes * kUsPerMinute;
  double pos = std::fmod(now + config_.arrivals.diurnal_start, day);
  if (pos < 0.0) pos += day;
  const int minute = std::min(config_.arrivals.diurnal.minutes - 1,
                              static_cast<int>(pos / kUsPerMinute));
  const double shape = diurnal_shape(config_.arrivals.diurnal, minute);
  const double bg_level =
      config_.arrivals.diurnal.background_trough +
      (config_.arrivals.diurnal.background_peak -
       config_.arrivals.diurnal.background_trough) *
          shape;
  FlowSet background =
      make_background_flows(config_.flow_gen, config_.background_flows,
                            bg_level, kBackgroundJitter, bg_rng_);
  // Layer the temporal schedule's demand for this epoch on top of the
  // inelastic elephants; the planner consumes the combined set unchanged.
  if (schedule_ && epoch_index_ < schedule_->epochs) {
    schedule_->append_epoch_flows(epoch_index_, &background);
  }

  // Planner utilization input from the arrival stream's expected rate over
  // the coming epoch: u = lambda * mean_service / cores (per ISN — every
  // query lands one subquery on each ISN).
  const SimTime epoch_len = config_.epoch.transition.epoch_length;
  const SimTime epoch_end =
      std::min(now + epoch_len, config_.arrivals.horizon);
  const double expected =
      arrivals_->integrated_rate(now, std::max(epoch_end, now + 1.0));
  const double lambda =
      epoch_end > now ? expected / (epoch_end - now) : 0.0;  // per us
  const SimTime mean_service =
      service_model_->mean_service_time(service_model_->config().f_max);
  const double utilization =
      std::clamp(lambda * mean_service / power_model_->num_cores(),
                 kMinUtilization, kMaxUtilization);

  const EpochReport report =
      controller_->run_epoch(background, utilization, ctrl_rng_);
  if (!controller_->has_plan()) {
    throw std::runtime_error("epoch controller produced no plan");
  }
  const JointPlan& plan = controller_->last_plan();

  // Offered load for the latency model: the plan's placement at the
  // arrival stream's actual expected message rates.
  offered_load_ = scenario_offered_load(
      topo_->graph(), plan.placement, plan.flows, plan.request_flow,
      plan.reply_flow, query_stream_rate(lambda, kQueryRequestBytes),
      query_stream_rate(lambda, kQueryReplyBytes));
  const bool paths_changed =
      des_->adopt_plan(plan.placement, plan.request_flow, plan.reply_flow,
                       &offered_load_);
  if (paths_changed && config_.reconfig_penalty > 0.0) {
    // Reprogramming forwarding rules under traffic: every query currently
    // in flight straddles the reconfiguration and pays the penalty once.
    const auto charged = static_cast<long long>(
        des_->charge_inflight(config_.reconfig_penalty));
    window_.transition_penalized += charged;
    report_.transition_penalized += charged;
  }
  network_power_w_ = report.network_power;
  emit_schedule_epoch();

  snapshot_.have_plan = true;
  snapshot_.feasible = plan.feasible;
  snapshot_.effective_server_budget = plan.effective_server_budget;
  snapshot_.latency_constraint = config_.epoch.joint.latency_constraint;
  // Deadline budgets of every fan-out until the next epoch.
  server_budget_ = plan.effective_server_budget > 0.0
                       ? plan.effective_server_budget
                       : config_.epoch.joint.server_budget;
  request_budget_ = std::max(0.0, config_.epoch.joint.latency_constraint -
                                      server_budget_) *
                    0.5;

  EPRONS_LOG(Info) << "serving epoch " << epoch_index_ << ": lambda "
                   << lambda * kUsPerSecond << " qps, utilization "
                   << utilization << ", K " << plan.k
                   << (plan.feasible ? "" : " (infeasible)");
}

void ServingHarness::schedule_next_arrival() {
  const SimTime when = arrivals_->next();
  if (when >= config_.arrivals.horizon) return;  // kNoTime past horizon
  des_->events().schedule(when, [this] {
    on_arrival();
    schedule_next_arrival();
  });
}

void ServingHarness::on_arrival() {
  const SimTime now = des_->events().now();
  ++window_.arrivals;
  ++report_.arrivals;

  const AdmissionContext ctx = admission_context(now);
  if (admission_->decide(ctx) == AdmissionDecision::Shed) {
    ++window_.shed;
    ++report_.shed;
    return;
  }
  if (static_cast<int>(des_->inflight()) < config_.max_inflight) {
    ++window_.admitted;
    ++report_.admitted;
    des_->fan_out(now, server_budget_, request_budget_);
    return;
  }
  if (static_cast<int>(dispatch_queue_.size()) >= config_.queue_limit) {
    ++window_.dropped;
    ++report_.dropped;
    return;
  }
  ++window_.admitted;
  ++report_.admitted;
  ++window_.queued;
  ++report_.queued;
  dispatch_queue_.push_back(now);
}

void ServingHarness::drain_dispatch_queue() {
  const SimTime now = des_->events().now();
  while (!dispatch_queue_.empty() &&
         static_cast<int>(des_->inflight()) < config_.max_inflight) {
    const SimTime enqueued = dispatch_queue_.front();
    dispatch_queue_.pop_front();
    ShedContext ctx;
    ctx.now = now;
    ctx.waited = now - enqueued;
    ctx.plan = &snapshot_;
    if (shed_->should_shed(ctx)) {
      ++window_.late_shed;
      ++report_.late_shed;
      continue;
    }
    des_->fan_out(enqueued, server_budget_, request_budget_);
  }
}

void ServingHarness::on_subquery_done(
    const PendingQuery& query, const PartitionAggregate::SubqueryDone&) {
  // The SLA object is the per-sub-request tail (the paper's violation
  // probability), measured from fan-out to reply arrival, matching
  // ClusterMetrics::subquery_miss_rate in the closed-loop DES. The
  // query-level max-over-fan-out only feeds the latency percentiles.
  ++window_.subqueries;
  ++report_.subqueries_completed;
  if (des_->events().now() - query.issued >
      config_.epoch.joint.latency_constraint) {
    ++window_.sla_misses;
    ++report_.sla_misses;
  }
}

void ServingHarness::on_query_done(const PendingQuery& query) {
  const SimTime e2e =
      (des_->events().now() - query.arrived) + query.penalty;
  ++window_.completed;
  ++report_.completed;
  window_latency_.add(e2e);
  total_latency_.add(e2e);
  drain_dispatch_queue();
}

void ServingHarness::accrue_fixed_energy(SimTime now) {
  const double hosts = static_cast<double>(topo_->num_hosts());
  const double static_w = power_model_->config().static_power;
  fixed_energy_uj_ +=
      (static_w * hosts + network_power_w_) * (now - energy_mark_);
  energy_mark_ = now;
}

void ServingHarness::emit_window(SimTime window_end) {
  accrue_fixed_energy(window_end);
  double cpu_uj = 0.0;
  for (auto& server : des_->servers()) {
    server->sync_energy(window_end);
    cpu_uj += server->total_cpu_energy();
  }
  const double window_cpu_uj = cpu_uj - cpu_energy_mark_uj_;
  cpu_energy_mark_uj_ = cpu_uj;
  const double window_energy_j =
      (window_cpu_uj + fixed_energy_uj_) / kUjPerJoule;
  fixed_energy_uj_ = 0.0;
  report_.total_energy_j += window_energy_j;

  window_.window = window_index_;
  window_.epoch = epoch_index_;
  window_.window_start_us = window_start_;
  window_.window_end_us = window_end;
  const SimTime span = window_end - window_start_;
  window_.offered_qps =
      span > 0.0
          ? arrivals_->integrated_rate(window_start_, window_end) / span *
                kUsPerSecond
          : 0.0;
  window_.latency_p50_us = window_latency_.quantile(0.50);
  window_.latency_p95_us = window_latency_.quantile(0.95);
  window_.latency_p99_us = window_latency_.quantile(0.99);
  window_.energy_per_admitted_j =
      window_.admitted > 0
          ? window_energy_j / static_cast<double>(window_.admitted)
          : 0.0;

  obs::JsonlWriter* sink =
      config_.sink != nullptr ? config_.sink : obs::epoch_log();
  if (sink != nullptr) sink->write(window_);
  report_.windows.push_back(window_);

  // Reset per-window state.
  window_ = obs::ServingWindowRecord{};
  window_latency_.clear();
  window_start_ = window_end;
  ++window_index_;
}

ServingReport ServingHarness::run() {
  const obs::ScopedSpan span(obs::tracer(), "serving_run", "serve",
                             "horizon_s",
                             config_.arrivals.horizon / kUsPerSecond);
  const SimTime horizon = config_.arrivals.horizon;
  const SimTime epoch_len = config_.epoch.transition.epoch_length;
  const SimTime window_len = config_.report_window;
  if (epoch_len <= 0.0 || window_len <= 0.0 || horizon <= 0.0) {
    throw std::invalid_argument("serving horizon/epoch/window must be > 0");
  }

  begin_epoch();  // epoch 0 plans before the first arrival
  schedule_next_arrival();

  SimTime t = 0.0;
  int next_epoch = 1;
  int next_window = 1;
  while (t < horizon) {
    const SimTime epoch_at = next_epoch * epoch_len;
    const SimTime window_at = next_window * window_len;
    const SimTime target = std::min({epoch_at, window_at, horizon});
    des_->events().run_until(target);
    t = target;
    if (t == window_at || t == horizon) {
      emit_window(t);
      next_window = static_cast<int>(t / window_len) + 1;
    }
    if (t == epoch_at && t < horizon) {
      begin_epoch();
      ++next_epoch;
    }
  }

  if (schedule_) {
    obs::ScheduleSummaryRecord summary;
    summary.epochs = schedule_->epochs;
    summary.flows = static_cast<int>(schedule_->per_flow.size());
    summary.carried_total_mbit = schedule_->carried_total_mbit;
    summary.missed_total_mbit = schedule_->missed_total_mbit;
    summary.total_volume_mbit = schedule_->total_volume_mbit;
    summary.deadline_misses = schedule_->deadline_misses;
    summary.deferred_mbit_epochs = schedule_->deferred_mbit_epochs;
    summary.used_edf_fallback = schedule_->used_edf_fallback;
    summary.objective_cost = schedule_->objective_cost;
    obs::JsonlWriter* sink =
        config_.sink != nullptr ? config_.sink : obs::epoch_log();
    if (sink != nullptr) sink->write(summary);
    report_.temporal = true;
    report_.schedule = summary;
  }

  report_.epochs = controller_->epochs_run();
  report_.latency = summarize(total_latency_);
  report_.energy_per_admitted_j =
      report_.admitted > 0
          ? report_.total_energy_j / static_cast<double>(report_.admitted)
          : 0.0;

  static obs::Counter& serve_runs = obs::metrics().counter("serve.runs");
  static obs::Counter& serve_arrivals =
      obs::metrics().counter("serve.arrivals");
  static obs::Counter& serve_admitted =
      obs::metrics().counter("serve.admitted");
  static obs::Counter& serve_shed = obs::metrics().counter("serve.shed");
  static obs::Counter& serve_dropped =
      obs::metrics().counter("serve.dropped");
  static obs::Counter& serve_completed =
      obs::metrics().counter("serve.completed");
  serve_runs.add();
  serve_arrivals.add(static_cast<std::uint64_t>(report_.arrivals));
  serve_admitted.add(static_cast<std::uint64_t>(report_.admitted));
  serve_shed.add(static_cast<std::uint64_t>(report_.shed));
  serve_dropped.add(static_cast<std::uint64_t>(report_.dropped));
  serve_completed.add(static_cast<std::uint64_t>(report_.completed));
  des_->report_clamps();
  return report_;
}

}  // namespace eprons
