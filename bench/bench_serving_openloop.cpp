// Open-loop serving sweep: arrival rate x admission policy x scale factor K.
//
// Each cell runs the ServingHarness (serve/serving_harness.h) over a short
// diurnal horizon with burst noise and flash crowds: arrivals are never
// gated on completions, the EpochController re-plans on every epoch
// boundary, and the selected admission policy decides what the cluster
// actually accepts. Rows report admit/shed/drop shares, tail latency of
// completed queries, and energy per admitted query — the serving-mode
// counterpart of the closed-loop figure benches.
//
// Output is byte-identical for any --threads (the DES is serial; threads
// only parallelize the planner, which is bit-identical by contract). The
// trailing `serving-fingerprint:`, `serving_throughput_qps:` and
// `serving_total_arrivals:` lines are gated in CI by
// tools/check_trajectory.py against bench/trajectories/BENCH_9.json.
//
//   ./bench_serving_openloop [--peak-qps=40] [--horizon=900] [--window=60]
//       [--epoch-len=300] [--admission=...] [--threads=N] [--epoch-log=F]
//       [--temporal] [--temporal-flows=N] [--temporal-cap=MBIT]
//       [--temporal-volume=MBIT]
#include <cinttypes>

#include "bench_common.h"
#include "obs/jsonl.h"
#include "serve/serving_harness.h"

using namespace eprons;

namespace {

/// FNV-1a over the serialized window records — the run's identity for the
/// cross-thread determinism diff and the trajectory gate.
std::uint64_t fingerprint_windows(
    const std::vector<obs::ServingWindowRecord>& windows) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& window : windows) {
    for (const char c : obs::to_jsonl(window)) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const ServingFlags serve = serving_flags_from_cli(cli);
  bench::print_header(
      "Open-loop serving — arrival rate x admission policy x K",
      "serving-mode extension (no paper figure): admission control trades "
      "shed queries for tail latency and energy per admitted query while "
      "the planner re-consolidates each epoch");

  const Scenario scn = bench::make_scenario(cli);

  // The top multiplier pushes flash-crowd peaks past the in-flight cap so
  // the admission column actually differentiates; the lower ones stay in
  // the closed-loop-comparable regime.
  std::vector<double> rates = {0.5, 2.0, 8.0};  // x peak_qps
  std::vector<std::string> policies = {"always", "token-bucket", "sla-aware"};
  std::vector<double> ks = {2.0};
  if (cli.has_flag("full-k")) ks = {1.0, 2.0, 3.0};
  const std::string only_policy = cli.get_string("admission", "");
  if (!only_policy.empty()) policies = {only_policy};

  Table table({"rate_x", "policy", "K", "arrivals", "admit%", "shed%",
               "drop%", "p50_ms", "p99_ms", "miss%", "J/query"});
  table.set_precision(2);

  std::uint64_t fp = 1469598103934665603ULL;
  double peak_throughput_qps = 0.0;
  long long total_arrivals = 0;

  for (const double rate_x : rates) {
    for (const std::string& policy : policies) {
      for (const double k : ks) {
        ServingHarnessConfig config;
        config.arrivals.horizon = sec(serve.horizon_s);
        config.arrivals.peak_rate_qps = serve.peak_qps * rate_x;
        config.arrivals.seed = static_cast<std::uint64_t>(serve.seed);
        config.arrivals.flash.events_per_hour = serve.flash_per_hour;
        config.arrivals.burst.enabled = !serve.no_burst;
        // Start mid-morning so a short horizon still sees rising load.
        config.arrivals.diurnal_start = 9.0 * 3600.0 * 1.0e6;
        config.epoch.transition.epoch_length = sec(serve.epoch_s);
        config.epoch.joint.k_min = k;
        config.epoch.joint.k_max = k;  // pin K for the ablation axis
        config.epoch.joint.slack.samples_per_pair = 150;
        config.epoch.runtime = runtime_from_cli(cli);
        config.flow_gen = scn.flow_gen();
        config.report_window = sec(serve.window_s);
        config.admission = policy;
        config.shed = serve.shed;
        // Tight fan-out concurrency so overload is a reachable state at
        // the top of the rate axis (sustainable rate is ~1450 qps on the
        // default substrate; the cap binds during flash crowds).
        config.max_inflight = 16;
        config.queue_limit = 32;
        // Explicit bucket rate below the top row's offered mean (the auto
        // rate — the sustainable ~1450 qps — would never bind here).
        config.policy.bucket_rate_qps = 250.0;
        config.seed = static_cast<std::uint64_t>(serve.seed);
        // Optional deadline-bound background layer (--temporal*).
        config.temporal.enabled = serve.temporal;
        config.temporal.flows = static_cast<int>(serve.temporal_flows);
        config.temporal.scheduler.epoch_cap_mbit = serve.temporal_cap;
        config.temporal.gen.mean_volume_mbit = serve.temporal_volume;

        ServingHarness harness(&scn.topology(), &scn.service_model(),
                               &scn.power_model(), config);
        const ServingReport report = harness.run();

        const double n = std::max(1.0, static_cast<double>(report.arrivals));
        const double span_s = serve.horizon_s;
        const double throughput = static_cast<double>(report.completed) /
                                  std::max(1.0, span_s);
        peak_throughput_qps = std::max(peak_throughput_qps, throughput);
        total_arrivals += report.arrivals;

        table.add_row(
            {rate_x, policy, k, static_cast<long long>(report.arrivals),
             100.0 * static_cast<double>(report.admitted) / n,
             100.0 * static_cast<double>(report.shed) / n,
             100.0 * static_cast<double>(report.dropped + report.late_shed) /
                 n,
             to_ms(report.latency.p50), to_ms(report.latency.p99),
             report.subqueries_completed > 0
                 ? 100.0 * static_cast<double>(report.sla_misses) /
                       static_cast<double>(report.subqueries_completed)
                 : 0.0,
             report.energy_per_admitted_j});

        fp ^= fingerprint_windows(report.windows);
        fp *= 1099511628211ULL;
      }
    }
  }
  table.print(std::cout, fmt);

  // Machine-checked trailer (tools/check_trajectory.py).
  std::printf("\nserving-fingerprint: %016" PRIx64 "\n", fp);
  std::printf("serving_throughput_qps: %.3f\n", peak_throughput_qps);
  std::printf("serving_total_arrivals: %lld\n", total_arrivals);
  return 0;
}
