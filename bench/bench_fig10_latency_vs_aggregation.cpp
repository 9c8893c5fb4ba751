// Fig. 10: network latency of search queries vs. degree of aggregation.
//
// (a) At 20% background traffic, average and 99th-percentile query network
//     latency grow as traffic consolidates onto fewer switches — the paper
//     reports the 99th rising from 5.64 ms (aggregation 0) to 25.74 ms
//     (aggregation 3).
// (b) The 95th-percentile tail follows the same trend across background
//     loads of 5-50%.
#include "bench_common.h"
#include "sim/search_cluster.h"
#include "topo/aggregation.h"

using namespace eprons;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const double duration_s = cli.get_double("duration", 8.0);
  bench::print_header(
      "Fig. 10 — network latency vs aggregation",
      "(a) @20% background: 99th grows ~5.64 ms -> ~25.74 ms from "
      "aggregation 0 to 3; (b) 95th rises with aggregation for 5-50% "
      "background");

  const Scenario scn = bench::make_scenario(cli);
  const AggregationPolicies policies(scn.fat_tree());

  auto run_point = [&](int level, double bg) {
    Rng rng(100 + static_cast<std::uint64_t>(bg * 1000));
    const FlowSet background =
        make_background_flows(scn.flow_gen(), 6, bg, 0.1, rng);
    ScenarioConfig scenario;
    scenario.cluster.policy = "max";  // isolate the network effect
    scenario.cluster.target_utilization = 0.3;
    scenario.cluster.duration = sec(duration_s);
    scenario.cluster.warmup = sec(1.0);
    const auto subnet = policies.policy(level).switch_on;
    return scn.run(background, scenario, &subnet);
  };

  std::printf("(a) 20%% background traffic\n");
  Table a({"aggregation", "avg_ms", "p95_ms", "p99_ms"});
  a.set_precision(2);
  for (int level = 0; level <= 3; ++level) {
    const auto result = run_point(level, 0.20);
    a.add_row({static_cast<long long>(level),
               to_ms(result.metrics.network_latency.mean),
               to_ms(result.metrics.network_latency.p95),
               to_ms(result.metrics.network_latency.p99)});
  }
  a.print(std::cout, fmt);

  std::printf("\n(b) 95th-percentile tail network latency (ms)\n");
  Table b({"aggregation", "bg_5%", "bg_10%", "bg_20%", "bg_30%", "bg_50%"});
  b.set_precision(2);
  for (int level = 0; level <= 3; ++level) {
    std::vector<Cell> row{static_cast<long long>(level)};
    for (double bg : {0.05, 0.10, 0.20, 0.30, 0.50}) {
      const auto result = run_point(level, bg);
      // In place: moving a temporary Cell into the row trips a false GCC 12
      // -Wmaybe-uninitialized on the variant's string alternative.
      row.emplace_back(std::in_place_type<double>,
                       to_ms(result.metrics.network_latency.p95));
    }
    b.add_row(std::move(row));
  }
  b.print(std::cout, fmt);
  return 0;
}
