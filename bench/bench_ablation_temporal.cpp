// Temporal-scheduling ablation: K-only baseline vs. deadline-aware
// trough-filling over one modeled diurnal day.
//
// Both schemes see the same deadline-bound background transfers
// (flow/timed_flow.h) and the same diurnal query load, planned by two
// EpochControllers with identical Rng streams. The K-only baseline treats
// each transfer the way today's fixed-demand pipeline would: a constant
// uniform rate volume/(window * epoch_s) across its whole
// [release, deadline] window, so every epoch the window touches carries
// demand. The temporal scheme runs the greedy trough-filler
// (schedule/temporal_scheduler.h) first, which concentrates each volume
// into the cheapest epochs of its window — most nighttime epochs then
// carry zero elastic demand, the consolidator shrinks the subnet deeper,
// and no hard deadline is missed (EDF fallback guarantees feasibility
// whenever any schedule exists).
//
// Headline: mean realized network power over the trough epochs (bottom
// cost quartile of the diurnal curve) — strictly lower under temporal
// scheduling with zero hard-deadline misses. Output is byte-identical for
// any --threads (planner + scheduler are bit-identical by contract); the
// trailing `temporal-fingerprint:`, `temporal_trough_saving_pct:` and
// `temporal_hard_deadline_misses:` lines are gated in CI by
// tools/check_trajectory.py against bench/trajectories/BENCH_10.json.
//
//   ./bench_ablation_temporal [--epochs=24] [--epoch-sec=3600] [--flows=12]
//       [--seed=1] [--threads=N] [--epoch-log=F]
#include <cinttypes>
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "flow/timed_flow.h"
#include "obs/jsonl.h"
#include "obs/telemetry.h"
#include "schedule/temporal_scheduler.h"
#include "trace/diurnal.h"

using namespace eprons;

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t* h, const std::string& text) {
  for (const char c : text) {
    *h ^= static_cast<unsigned char>(c);
    *h *= kFnvPrime;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  bench::print_header(
      "Temporal scheduling ablation — K-only vs. deadline-aware troughs",
      "scheduling extension (no paper figure): deferring deadline-bound "
      "background volume into diurnal troughs deepens the nighttime subnet "
      "shutdown beyond what the scale factor alone achieves, with zero "
      "hard-deadline misses");

  const Scenario scn = bench::make_scenario(cli);
  const int epochs = static_cast<int>(cli.get_int("epochs", 24));
  const double epoch_sec = cli.get_double("epoch-sec", 3600.0);
  const int num_flows = static_cast<int>(cli.get_int("flows", 12));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  // Diurnal price signal: cost[e] = 1 - mean shape (night epochs are
  // expensive to carry volume in — they keep an otherwise-sleeping subnet
  // awake); shape[e] drives the query operating point.
  const DiurnalTraceConfig diurnal;
  const std::vector<double> cost =
      TemporalScheduler::diurnal_epoch_cost(diurnal, epochs, epoch_sec);
  std::vector<double> shape(cost.size());
  for (std::size_t e = 0; e < cost.size(); ++e) shape[e] = 1.0 - cost[e];

  // Multi-hour transfer windows (8-16 epochs) so every window reaches the
  // daytime subnet, and volumes big enough (default 2 uplink-epochs) that
  // the baseline's uniform spread is a real load on the night subnet. The
  // per-flow rate cap lets the scheduler pack a flow into a few peak
  // epochs without saturating any single uplink.
  const double uplink_epoch = scn.topology().link_capacity() * epoch_sec;
  TimedFlowGenConfig gen = scn.timed_flow_gen();
  gen.epochs = epochs;
  gen.min_window_epochs = std::max(2, epochs / 3);
  gen.max_window_epochs = std::max(gen.min_window_epochs, 2 * epochs / 3);
  gen.mean_volume_mbit = static_cast<long long>(
      cli.get_double("volume-x", 4.0) * uplink_epoch);
  Rng flow_rng(seed);
  const TimedFlowSet timed =
      make_timed_background_flows(gen, num_flows, flow_rng);

  TemporalSchedulerConfig sched_config;
  sched_config.epochs = epochs;
  sched_config.epoch_seconds = epoch_sec;
  sched_config.epoch_cost = cost;
  sched_config.epoch_cap_mbit = static_cast<long long>(
      cli.get_double("cap-x", 6.0) * uplink_epoch);
  sched_config.flow_rate_cap_mbit =
      static_cast<long long>(cli.get_double("rate-x", 0.8) * uplink_epoch);
  const TemporalScheduler scheduler = scn.temporal_scheduler(sched_config);
  const TemporalSchedule schedule = scheduler.schedule(timed);

  // K-only baseline: today's fixed-demand treatment of an elastic
  // transfer — a constant rate across the whole window.
  auto baseline_flows_at = [&](int e) {
    FlowSet fs;
    for (std::size_t f = 0; f < timed.size(); ++f) {
      const TimedFlow& flow = timed[f];
      if (e < flow.release_epoch || e > flow.deadline_epoch) continue;
      const double rate = static_cast<double>(flow.volume_mbit) /
                          (flow.window_epochs() * epoch_sec);
      fs.add(flow.src_host, flow.dst_host, rate, FlowClass::LatencyTolerant);
    }
    return fs;
  };

  // Two controllers with identical Rng streams: the only difference
  // between the columns is *when* the elastic volume moves.
  EpochControllerConfig ctrl_config;
  ctrl_config.transition.epoch_length = sec(epoch_sec);
  ctrl_config.joint.slack.samples_per_pair = 150;
  EpochController base_ctrl = scn.epoch_controller(ctrl_config);
  EpochController temp_ctrl = scn.epoch_controller(ctrl_config);
  Rng base_rng(seed + 1);
  Rng temp_rng(seed + 1);

  obs::JsonlWriter* sink = obs::epoch_log();

  Table table({"epoch", "shape", "base_mbps", "temp_mbps", "base_net_w",
               "temp_net_w", "trough"});
  table.set_precision(2);

  // Trough = the night: bottom quartile of the diurnal shape (at least
  // one epoch).
  std::vector<int> order(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) order[static_cast<std::size_t>(e)] = e;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return shape[static_cast<std::size_t>(a)] <
           shape[static_cast<std::size_t>(b)];
  });
  const int trough_count = std::max(1, epochs / 4);
  std::vector<bool> is_trough(static_cast<std::size_t>(epochs), false);
  for (int i = 0; i < trough_count; ++i) {
    is_trough[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        true;
  }

  std::uint64_t fp = kFnvOffset;
  fnv_mix(&fp, schedule.dump());
  double base_trough_w = 0.0;
  double temp_trough_w = 0.0;

  for (int e = 0; e < epochs; ++e) {
    const double level = shape[static_cast<std::size_t>(e)];
    // Query operating point off the same curve the paper's Fig. 14 day
    // uses: search load in [search_trough, search_peak] x a 0.6 peak
    // utilization.
    const double utilization =
        0.6 * (diurnal.search_trough +
               (diurnal.search_peak - diurnal.search_trough) * level);

    const FlowSet base_fs = baseline_flows_at(e);
    FlowSet temp_fs;
    schedule.append_epoch_flows(e, &temp_fs);

    const EpochReport base_report =
        base_ctrl.run_epoch(base_fs, utilization, base_rng);
    const EpochReport temp_report =
        temp_ctrl.run_epoch(temp_fs, utilization, temp_rng);

    if (sink != nullptr) {
      obs::ScheduleEpochRecord rec;
      rec.epoch = e;
      rec.carried_mbit = schedule.carried_mbit[static_cast<std::size_t>(e)];
      rec.backlog_mbit = schedule.backlog_mbit[static_cast<std::size_t>(e)];
      rec.expired_mbit = schedule.expired_mbit[static_cast<std::size_t>(e)];
      rec.flows_active = schedule.flows_active[static_cast<std::size_t>(e)];
      rec.flows_completed =
          schedule.flows_completed[static_cast<std::size_t>(e)];
      rec.cap_mbit = scheduler.config().epoch_cap_mbit;
      rec.cost_level = scheduler.epoch_cost(e);
      rec.demand_mbps = schedule.demand_mbps(e);
      sink->write(rec);
    }

    if (is_trough[static_cast<std::size_t>(e)]) {
      base_trough_w += base_report.network_power;
      temp_trough_w += temp_report.network_power;
    }

    const double base_mbps = base_fs.total_demand();
    char row_fp[64];
    std::snprintf(row_fp, sizeof(row_fp), "%d|%.6f|%.6f", e,
                  base_report.network_power, temp_report.network_power);
    fnv_mix(&fp, row_fp);

    table.add_row({static_cast<long long>(e), level, base_mbps,
                   schedule.demand_mbps(e), base_report.network_power,
                   temp_report.network_power,
                   std::string(is_trough[static_cast<std::size_t>(e)]
                                   ? "yes"
                                   : "")});
  }
  table.print(std::cout, fmt);

  if (sink != nullptr) {
    obs::ScheduleSummaryRecord summary;
    summary.epochs = schedule.epochs;
    summary.flows = static_cast<int>(schedule.per_flow.size());
    summary.carried_total_mbit = schedule.carried_total_mbit;
    summary.missed_total_mbit = schedule.missed_total_mbit;
    summary.total_volume_mbit = schedule.total_volume_mbit;
    summary.deadline_misses = schedule.deadline_misses;
    summary.deferred_mbit_epochs = schedule.deferred_mbit_epochs;
    summary.used_edf_fallback = schedule.used_edf_fallback;
    summary.objective_cost = schedule.objective_cost;
    sink->write(summary);
  }

  const double base_avg = base_trough_w / trough_count;
  const double temp_avg = temp_trough_w / trough_count;
  const double saving_pct =
      base_avg > 0.0 ? 100.0 * (base_avg - temp_avg) / base_avg : 0.0;

  std::printf("\n%d timed flows, %lld Mbit total volume, %lld Mbit-epochs "
              "deferred%s\n",
              num_flows, schedule.total_volume_mbit,
              schedule.deferred_mbit_epochs,
              schedule.used_edf_fallback ? " (EDF fallback)" : "");
  std::printf("volume conservation: %lld carried + %lld missed == %lld "
              "total (%s)\n",
              schedule.carried_total_mbit, schedule.missed_total_mbit,
              schedule.total_volume_mbit,
              schedule.carried_total_mbit + schedule.missed_total_mbit ==
                      schedule.total_volume_mbit
                  ? "exact"
                  : "VIOLATED");

  // Machine-checked trailer (tools/check_trajectory.py).
  std::printf("\ntemporal-fingerprint: %016" PRIx64 "\n", fp);
  std::printf("baseline_trough_network_w: %.3f\n", base_avg);
  std::printf("temporal_trough_network_w: %.3f\n", temp_avg);
  std::printf("temporal_trough_saving_pct: %.3f\n", saving_pct);
  std::printf("temporal_hard_deadline_misses: %d\n",
              schedule.deadline_misses);
  return 0;
}
