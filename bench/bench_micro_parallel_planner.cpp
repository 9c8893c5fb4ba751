// Microbenchmark: the cold joint-optimizer K sweep — reference vs fast
// paths, serial vs parallel.
//
// The cold sweep is the planner's hot path — every diurnal epoch without a
// usable previous plan pays one full optimize() (per-K consolidation +
// Monte-Carlo slack estimation + server power prediction). This bench
// times optimize() through two implementations of that pipeline:
//
//   * `reference` — the retained straight-line paths: per-sample
//     Monte-Carlo walks in a K-order loop of one-candidate passes,
//     frequency-valued violation probabilities, per-call path enumeration
//     (PlanRequest use_reference_* all set);
//   * `fast` — the production paths: one pass over every candidate with
//     chunked antithetic sampling and vectorized block logs, violation
//     probabilities read by grid index, the memoized PathCatalog, and
//     placement-deduplicated slack estimation.
//
// The fast rows run at 1/2/4 worker threads. Every row must produce a
// byte-identical plan (the determinism contract: results are a function of
// seed and shard count — never of worker count or of which implementation
// ran), which the bench checks field-for-field and summarizes as one
// 64-bit plan fingerprint per row; it exits non-zero when any row differs.
// The `plan-fingerprint:` and `speedup_vs_reference:` trailer lines are
// gated by tools/check_trajectory.py against
// bench/trajectories/BENCH_7.json (the pinned fingerprint and the
// within-run speedup floor).
//
//   ./bench_micro_parallel_planner [--reps=5] [--samples=400] [--csv|--json]
//       [--no-timing] [--threads=N]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "bench_common.h"
#include "core/joint_optimizer.h"

using namespace eprons;

namespace {

double time_optimize(const JointOptimizer& optimizer,
                     const PlanRequest& request, int reps, JointPlan* out) {
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    JointPlan plan = optimizer.optimize(request);
    const auto stop = std::chrono::steady_clock::now();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    best_ms = std::min(best_ms, elapsed_ms);
    *out = std::move(plan);
  }
  return best_ms;
}

bool plans_identical(const JointPlan& a, const JointPlan& b) {
  return a.feasible == b.feasible && a.k == b.k &&
         a.placement.switch_on == b.placement.switch_on &&
         a.placement.flow_paths == b.placement.flow_paths &&
         a.slack.request_p95 == b.slack.request_p95 &&
         a.slack.total_p95 == b.slack.total_p95 &&
         a.effective_server_budget == b.effective_server_budget &&
         a.network_power == b.network_power &&
         a.total_power == b.total_power;
}

// FNV-1a over the plan's decision-relevant state: one line of output CI can
// diff across implementations, thread counts, and commits.
std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return fnv1a(hash, bits);
}

std::uint64_t plan_fingerprint(const JointPlan& plan) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = fnv1a(hash, static_cast<std::uint64_t>(plan.feasible));
  hash = fnv1a(hash, plan.k);
  hash = fnv1a(hash, plan.slack.request_mean);
  hash = fnv1a(hash, plan.slack.request_p95);
  hash = fnv1a(hash, plan.slack.total_mean);
  hash = fnv1a(hash, plan.slack.total_p95);
  hash = fnv1a(hash, plan.slack.total_p99);
  hash = fnv1a(hash, plan.server.frequency);
  hash = fnv1a(hash, plan.server.busy_fraction);
  hash = fnv1a(hash, plan.server.server_power);
  hash = fnv1a(hash, plan.effective_server_budget);
  hash = fnv1a(hash, plan.network_power);
  hash = fnv1a(hash, plan.total_power);
  for (std::size_t i = 0; i < plan.placement.switch_on.size(); ++i) {
    if (plan.placement.switch_on[i]) hash = fnv1a(hash, i);
  }
  for (const Path& path : plan.placement.flow_paths) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(path.size()));
    for (NodeId node : path) {
      hash = fnv1a(hash, static_cast<std::uint64_t>(node));
    }
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const bool no_timing = cli.has_flag("no-timing");
  bench::print_header(
      "Micro — cold K sweep, reference vs fast, serial vs parallel",
      "n/a (implementation microbenchmark: byte-identical plans from every "
      "implementation at any thread count; speedup from the batched fast "
      "paths and from evaluating the K candidates concurrently)");

  const Scenario scn = bench::make_scenario(cli);
  Rng bg_rng(42);
  const FlowSet background =
      make_background_flows(scn.flow_gen(), 6, 0.2, 0.1, bg_rng);
  const double utilization = 0.3;

  JointOptimizerConfig config;
  config.slack.samples_per_pair =
      static_cast<int>(cli.get_int("samples", 400));

  Table table({"mode", "threads", "best_ms", "speedup", "K", "total_W",
               "fingerprint", "plan_identical"});
  table.set_precision(2);

  JointPlan reference_plan;
  double reference_ms = 0.0;
  double fast_serial_ms = 0.0;
  bool all_identical = true;
  std::uint64_t reference_fp = 0;
  std::uint64_t fast_fp = 0;

  struct RowSpec {
    const char* mode;
    int threads;
    bool reference;
  };
  const RowSpec rows[] = {
      {"reference", 1, true},
      {"fast", 1, false},
      {"fast", 2, false},
      {"fast", 4, false},
  };
  for (const RowSpec& spec : rows) {
    JointOptimizerConfig cfg = config;
    cfg.runtime.threads = spec.threads;
    const JointOptimizer optimizer = scn.optimizer(cfg);

    PlanRequest request;
    request.background = &background;
    request.utilization = utilization;
    request.use_reference_slack = spec.reference;
    request.use_reference_dvfs = spec.reference;
    request.use_reference_enumeration = spec.reference;

    JointPlan plan;
    const double best_ms = time_optimize(optimizer, request, reps, &plan);
    const std::uint64_t fp = plan_fingerprint(plan);
    if (spec.reference) {
      reference_plan = plan;
      reference_ms = best_ms;
      reference_fp = fp;
    } else if (spec.threads == 1) {
      fast_serial_ms = best_ms;
      fast_fp = fp;
    }
    const bool identical = plans_identical(plan, reference_plan);
    all_identical = all_identical && identical && fp == reference_fp;
    table.add_row({std::string(spec.mode),
                   static_cast<long long>(spec.threads),
                   no_timing ? 0.0 : best_ms,
                   no_timing ? 0.0 : reference_ms / best_ms, plan.k,
                   plan.total_power, strformat("%016llx",
                       static_cast<unsigned long long>(fp)),
                   std::string(identical ? "yes" : "NO")});
  }
  table.print(std::cout, fmt);

  std::printf("\nfingerprint fast=%016llx reference=%016llx identical=%s\n",
              static_cast<unsigned long long>(fast_fp),
              static_cast<unsigned long long>(reference_fp),
              all_identical ? "yes" : "NO");
  if (!all_identical) {
    std::printf("FAIL: plans differ across implementations/threads\n");
    return EXIT_FAILURE;
  }
  const double speedup =
      fast_serial_ms > 0.0 ? reference_ms / fast_serial_ms : 0.0;
  if (!no_timing) {
    std::printf("serial cold sweep: reference %.2f ms, fast %.2f ms "
                "(%.1fx)\n",
                reference_ms, fast_serial_ms, speedup);
  }
  std::printf("all implementations and thread counts produced "
              "byte-identical plans\n");

  // Machine-checked trailer (tools/check_trajectory.py).
  std::printf("plan-fingerprint: %016llx\n",
              static_cast<unsigned long long>(fast_fp));
  if (!no_timing) std::printf("speedup_vs_reference: %.1f\n", speedup);
  return EXIT_SUCCESS;
}
