// Fig. 11: the scale factor K trades network tail latency for switches.
//
// (a) Larger K -> lower tail network latency (e.g. at 50% background the
//     tail drops to ~4.75 ms at K=4 in the paper).
// (b) Larger K -> more active switches (13..19 of 20 for k=4).
// (c) #switches vs tail latency: each point is one K; K trades one for
//     the other, the best K sits nearest the origin.
#include "bench_common.h"
#include "sim/search_cluster.h"

using namespace eprons;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const double duration_s = cli.get_double("duration", 8.0);
  bench::print_header(
      "Fig. 11 — scale factor K vs tail latency and active switches",
      "larger K: lower network tail, more switches (13-19 active); the "
      "knee of the (switches, tail) curve picks the operating K");

  const Scenario scn = bench::make_scenario(cli);
  const std::vector<double> backgrounds = {0.05, 0.10, 0.20, 0.30, 0.50};

  struct Point {
    double tail_ms = 0.0;
    int switches = 0;
  };
  std::vector<std::vector<Point>> grid(backgrounds.size());

  for (std::size_t b = 0; b < backgrounds.size(); ++b) {
    for (int k = 1; k <= 5; ++k) {
      Rng rng(200 + static_cast<std::uint64_t>(b));
      const FlowSet background = make_background_flows(
          FlowGenConfig{}, 8, backgrounds[b], 0.1, rng);
      ScenarioConfig scenario;
      scenario.cluster.policy = "max";
      scenario.cluster.target_utilization = 0.3;
      scenario.cluster.duration = sec(duration_s);
      scenario.cluster.warmup = sec(1.0);
      scenario.consolidation.scale_factor_k = k;
      const auto result =
          scn.run(background, scenario);  // free consolidation
      grid[b].push_back(Point{to_ms(result.metrics.network_latency.p95),
                              result.placement.active_switches});
    }
  }

  std::printf("(a) 95th tail network latency (ms) vs K\n");
  Table a({"K", "bg_5%", "bg_10%", "bg_20%", "bg_30%", "bg_50%"});
  a.set_precision(2);
  for (int k = 1; k <= 5; ++k) {
    std::vector<Cell> row{static_cast<long long>(k)};
    for (std::size_t b = 0; b < backgrounds.size(); ++b) {
      // In place: moving a temporary Cell into the row trips a false GCC 12
      // -Wmaybe-uninitialized on the variant's string alternative.
      row.emplace_back(std::in_place_type<double>,
                       grid[b][static_cast<std::size_t>(k - 1)].tail_ms);
    }
    a.add_row(std::move(row));
  }
  a.print(std::cout, fmt);

  std::printf("\n(b) active switches vs K\n");
  Table bt({"K", "bg_5%", "bg_10%", "bg_20%", "bg_30%", "bg_50%"});
  for (int k = 1; k <= 5; ++k) {
    std::vector<Cell> row{static_cast<long long>(k)};
    for (std::size_t b = 0; b < backgrounds.size(); ++b) {
      row.emplace_back(std::in_place_type<long long>,
                       grid[b][static_cast<std::size_t>(k - 1)].switches);
    }
    bt.add_row(std::move(row));
  }
  bt.print(std::cout, fmt);

  std::printf("\n(c) (active switches, tail ms) per K at 50%% background\n");
  Table c({"K", "active_switches", "tail_ms"});
  c.set_precision(2);
  for (int k = 1; k <= 5; ++k) {
    const Point& p = grid.back()[static_cast<std::size_t>(k - 1)];
    c.add_row({static_cast<long long>(k),
               static_cast<long long>(p.switches), p.tail_ms});
  }
  c.print(std::cout, fmt);
  return 0;
}
