// Ablation: hierarchical pod-decomposed consolidation vs the flat solver.
//
// Three questions, one table each:
//   A. power gap — how much optimality does the pod decomposition give up
//      on fabrics the flat greedy can still handle (k=4, k=8)? Reported
//      as the mean/max hier-vs-flat network-power ratio over seeded
//      random instances (ratios below 1.0 mean the decomposition won).
//   B. wall-clock at scale — cold consolidation time on a k=16 fat-tree
//      (1024 hosts) for the flat greedy and the hierarchical solver at
//      1/4/8 pod-solve threads, with the placement fingerprint per row:
//      every hierarchical row must print the same fingerprint (the
//      determinism contract), or the bench exits non-zero.
//   C. end-to-end — one full joint-optimizer cold K sweep at k=4 vs k=16
//      (hierarchical), same sampling knobs; the k=16 sweep must land
//      within ~2x of the k=4 one per flow x candidate-path.
//
// The trailer lines (`hierarchical-fingerprint:`, `power_gap_k*_compared:`,
// `power_gap_k*_max_ratio:` and `k16_vs_k4_per_flowpath_ratio:`) are
// gated by tools/check_trajectory.py against
// bench/trajectories/BENCH_8.json.
//
//   ./bench_ablation_hierarchy [--trials=N] [--reps=N] [--csv|--json]
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <set>

#include "bench_common.h"
#include "consolidate/hierarchical_consolidator.h"
#include "core/joint_optimizer.h"

using namespace eprons;

namespace {

double time_best_ms(int reps, const std::function<void()>& fn) {
  double best_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best_ms = std::min(
        best_ms,
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best_ms;
}

FlowSet random_flows(const FatTree& ft, Rng& rng, int count) {
  FlowSet flows;
  for (int i = 0; i < count; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, ft.num_hosts() - 1));
    int dst = src;
    while (dst == src) {
      dst = static_cast<int>(rng.uniform_int(0, ft.num_hosts() - 1));
    }
    flows.add(src, dst, rng.uniform(20.0, 220.0),
              rng.bernoulli(0.5) ? FlowClass::LatencySensitive
                                 : FlowClass::LatencyTolerant);
  }
  return flows;
}

ConsolidationConfig consolidation_config() {
  ConsolidationConfig config;
  config.scale_factor_k = 2.0;
  config.safety_margin = 50.0;
  config.switch_power = 36.0;
  return config;
}

/// Instances where both solvers found a plan, and the worst hier/flat
/// network-power ratio among them.
struct PowerGap {
  int compared = 0;
  double max_ratio = 0.0;
};

PowerGap power_gap(int k_ary, int trials, int flows_per_trial,
                   TableFormat fmt) {
  const FatTree ft(k_ary);
  const GreedyConsolidator flat(&ft);
  const HierarchicalConsolidator hier;
  const ConsolidationConfig config = consolidation_config();
  Rng rng(static_cast<std::uint64_t>(500 + k_ary));
  int compared = 0;
  double flat_sum = 0.0, hier_sum = 0.0, ratio_sum = 0.0, ratio_max = 0.0;
  for (int t = 0; t < trials; ++t) {
    const FlowSet flows = random_flows(ft, rng, flows_per_trial);
    const ConsolidationResult a = flat.consolidate(ft, flows, config);
    const ConsolidationResult b = hier.consolidate(ft, flows, config);
    if (!a.feasible || !b.feasible || a.network_power <= 0.0) continue;
    ++compared;
    flat_sum += a.network_power;
    hier_sum += b.network_power;
    const double ratio = b.network_power / a.network_power;
    ratio_sum += ratio;
    ratio_max = std::max(ratio_max, ratio);
  }
  Table t({"k_ary", "trials", "compared", "mean_flat_W", "mean_hier_W",
           "mean_ratio", "max_ratio"});
  t.set_precision(3);
  t.add_row({static_cast<long long>(k_ary), static_cast<long long>(trials),
             static_cast<long long>(compared),
             compared ? flat_sum / compared : 0.0,
             compared ? hier_sum / compared : 0.0,
             compared ? ratio_sum / compared : 0.0, ratio_max});
  t.print(std::cout, fmt);
  std::printf("\n");
  return {compared, ratio_max};
}

/// Returns the hierarchical placement fingerprint, or nullopt when the
/// 1/4/8-thread rows disagree.
std::optional<std::uint64_t> scale_wallclock(int reps, TableFormat fmt) {
  const FatTree ft(16);
  std::printf("k=16 fat-tree: %d hosts, %d switches, cold consolidation of "
              "256 flows\n",
              ft.num_hosts(), ft.num_switches());
  Rng rng(616);
  const FlowSet flows = random_flows(ft, rng, 256);
  const ConsolidationConfig config = consolidation_config();

  Table t({"solver", "cold_ms", "active_switches", "fingerprint"});
  t.set_precision(2);
  const GreedyConsolidator flat(&ft);
  ConsolidationResult result;
  double ms = time_best_ms(
      reps, [&] { result = flat.consolidate(ft, flows, config); });
  t.add_row({std::string("flat greedy"), ms,
             static_cast<long long>(result.active_switches),
             strformat("%016llx", static_cast<unsigned long long>(
                                   placement_fingerprint(result)))});
  std::set<std::uint64_t> hier_fps;
  for (const int threads : {1, 4, 8}) {
    const HierarchicalConsolidator hier(nullptr, {threads});
    ms = time_best_ms(reps,
                      [&] { result = hier.consolidate(ft, flows, config); });
    const std::uint64_t fp = placement_fingerprint(result);
    hier_fps.insert(fp);
    t.add_row({strformat("hierarchical t=%d", threads), ms,
               static_cast<long long>(result.active_switches),
               strformat("%016llx", static_cast<unsigned long long>(fp))});
  }
  t.print(std::cout, fmt);
  std::printf("\n");
  if (hier_fps.size() != 1) return std::nullopt;
  return *hier_fps.begin();
}

/// Candidate fat-tree paths the packer scores for one flow set: 1 for a
/// same-edge pair, k/2 same-pod, (k/2)^2 inter-pod. The end-to-end rows
/// normalize wall-clock by flows x candidate paths — the unit of packing
/// work — because a k=16 sweep carries 62x the flows and 16x the paths
/// per flow of a k=4 sweep; raw wall-clock comparisons across scales only
/// measure that the instance grew.
std::size_t candidate_paths(const FatTree& ft, const FlowSet& flows) {
  const int half = ft.num_pods() / 2;
  std::size_t total = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    if (ft.pod_of_host(f.src_host) != ft.pod_of_host(f.dst_host)) {
      total += static_cast<std::size_t>(half) * half;
    } else if (f.src_host / half == f.dst_host / half) {
      total += 1;
    } else {
      total += static_cast<std::size_t>(half);
    }
  }
  return total;
}

void end_to_end(int reps, TableFormat fmt) {
  SyntheticWorkloadConfig wl;
  wl.samples = 30000;
  wl.bins = 256;
  Rng mrng(41);
  const ServiceModel model = make_search_service_model(wl, mrng);
  const ServerPowerModel power;

  Table t({"scale", "optimize_ms", "feasible", "chosen_K", "total_W", "flows",
           "us_per_flowpath"});
  t.set_precision(2);
  double k4_unit_us = 0.0, k16_unit_us = 0.0;
  double k4_ms = 0.0, k16_ms = 0.0;
  for (const int k_ary : {4, 16}) {
    const FatTree topo(k_ary);
    FlowGenConfig gen;
    gen.num_hosts = topo.num_hosts();
    gen.hosts_per_edge = topo.hosts_per_access_switch();
    gen.exclude_host = 0;
    Rng rng(13);
    const FlowSet background =
        make_background_flows(gen, topo.num_hosts() / 16 * 3, 0.2, 0.1, rng);

    JointOptimizerConfig config;
    config.slack.samples_per_pair = 60;
    if (k_ary == 16) {
      // Per-leaf query demand shrinks with the 1023-leaf fan-out and the
      // SLA budget grows with the fan-out tail (see the k=16 scale smoke
      // in tests/integration_test.cpp for the derivation).
      config.query_request_demand = 0.2;
      config.query_reply_demand = 0.4;
      config.latency_constraint = ms(120.0);
    }
    const HierarchicalConsolidator hier(nullptr, {4});
    const JointOptimizer optimizer(&topo, &model, &power, config,
                                   k_ary == 16 ? &hier : nullptr);
    PlanRequest request;
    request.background = &background;
    request.utilization = 0.2;
    JointPlan plan;
    const double best =
        time_best_ms(reps, [&] { plan = optimizer.optimize(request); });
    const std::size_t paths = candidate_paths(topo, plan.flows);
    const double unit_us =
        paths > 0 ? best * 1000.0 / static_cast<double>(paths) : 0.0;
    (k_ary == 4 ? k4_ms : k16_ms) = best;
    (k_ary == 4 ? k4_unit_us : k16_unit_us) = unit_us;
    t.add_row({strformat("k=%d%s", k_ary, k_ary == 16 ? " hier" : " flat"),
               best, std::string(plan.feasible ? "yes" : "no"), plan.k,
               plan.total_power,
               static_cast<long long>(plan.flows.size()), unit_us});
  }
  t.print(std::cout, fmt);
  std::printf("k16_vs_k4_cold_sweep_ratio: %.2f\n",
              k4_ms > 0.0 ? k16_ms / k4_ms : 0.0);
  std::printf("k16_vs_k4_per_flowpath_ratio: %.3f\n\n",
              k4_unit_us > 0.0 ? k16_unit_us / k4_unit_us : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const int trials = static_cast<int>(cli.get_int("trials", 40));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  bench::print_header(
      "Ablation — hierarchical pod decomposition vs flat consolidation",
      "per-pod solves + one core-level instance (GreenDCN-style "
      "decomposition); the gap it pays and the scale it buys");

  const PowerGap k4 = power_gap(4, trials, 6, fmt);
  const PowerGap k8 = power_gap(8, trials, 24, fmt);
  const std::optional<std::uint64_t> hier_fp = scale_wallclock(reps, fmt);
  end_to_end(reps, fmt);
  if (!hier_fp) {
    std::printf("FAIL: hierarchical placements differ across pod-solve "
                "thread counts\n");
    return EXIT_FAILURE;
  }

  // Machine-checked trailer (tools/check_trajectory.py).
  std::printf("hierarchical-fingerprint: %016llx\n",
              static_cast<unsigned long long>(*hier_fp));
  std::printf("power_gap_k4_compared: %d\n", k4.compared);
  std::printf("power_gap_k4_max_ratio: %.3f\n", k4.max_ratio);
  std::printf("power_gap_k8_compared: %d\n", k8.compared);
  std::printf("power_gap_k8_max_ratio: %.3f\n", k8.max_ratio);
  return EXIT_SUCCESS;
}
