// Section IV-B: exact optimization vs the greedy heuristic.
//
// The paper: "the computation time of the linear programming model can be
// more than 42 min ... with 3000 flows"; the greedy bin-packing heuristic
// is the production path. This bench sweeps flow count and reports solve
// time and objective (active switches) for:
//   * the paper-literal arc LP relaxation (lower bound),
//   * the exact path MILP (small instances only),
//   * the greedy heuristic.
// Defaults keep the sweep quick; pass --max-exact=12 to watch the MILP
// blow past 6 minutes at just 12 flows.
#include <chrono>

#include "bench_common.h"
#include "consolidate/arc_lp.h"
#include "consolidate/greedy_consolidator.h"
#include "consolidate/milp_consolidator.h"

using namespace eprons;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const int max_exact = static_cast<int>(cli.get_int("max-exact", 8));
  // The dense arc LP grows as (flows x nodes) rows by (flows x arcs)
  // columns; past ~24 flows a solve takes minutes on this substrate --
  // which is the paper's point ("more than 42 min with 3000 flows").
  const int max_lp = static_cast<int>(cli.get_int("max-lp", 24));
  const int max_flows = static_cast<int>(cli.get_int("max-flows", 96));
  bench::print_header(
      "Section IV-B — exact LP/MILP vs greedy heuristic",
      "exact optimization is orders of magnitude slower (42 min @ 3000 "
      "flows on the paper's platform); the heuristic is near-optimal in "
      "active-switch count and runs in microseconds");

  const FatTree topo(4);
  const ArcLpRelaxation relax(&topo);
  const MilpConsolidator milp(&topo);
  const GreedyConsolidator greedy(&topo);

  Table table({"flows", "lp_bound_W", "lp_sec", "milp_switches", "milp_sec",
               "greedy_switches", "greedy_sec", "lp_rows", "lp_vars"});
  table.set_precision(4);

  for (int flows_n : {2, 4, 8, 12, 24, 48, 96}) {
    if (flows_n > max_flows) break;
    Rng rng(500 + static_cast<std::uint64_t>(flows_n));
    FlowSet flows;
    for (int i = 0; i < flows_n; ++i) {
      const int src = static_cast<int>(rng.uniform_int(0, 15));
      int dst = src;
      while (dst == src) dst = static_cast<int>(rng.uniform_int(0, 15));
      flows.add(src, dst, rng.uniform(10.0, 120.0),
                rng.bernoulli(0.3) ? FlowClass::LatencySensitive
                                   : FlowClass::LatencyTolerant);
    }
    ConsolidationConfig config;
    config.scale_factor_k = 2.0;

    std::vector<Cell> row{static_cast<long long>(flows_n)};
    // Cells are built in place: moving a temporary Cell into the row trips
    // a false GCC 12 -Wmaybe-uninitialized on the variant's string
    // alternative.
    auto add_dash = [&row] {
      row.emplace_back(std::in_place_type<std::string>, "-");
    };
    auto add_count = [&row, &add_dash](bool ok, long long n) {
      if (ok) {
        row.emplace_back(std::in_place_type<long long>, n);
      } else {
        add_dash();
      }
    };

    if (flows_n <= max_lp) {
      const auto start = std::chrono::steady_clock::now();
      const ArcLpResult bound = relax.solve(flows, config);
      const double secs = seconds_since(start);
      if (bound.status == lp::SolveStatus::Optimal) {
        row.emplace_back(std::in_place_type<double>,
                         bound.network_power_bound);
      } else {
        add_dash();
      }
      row.emplace_back(std::in_place_type<double>, secs);
    } else {
      row.emplace_back(std::in_place_type<std::string>, "(too slow)");
      add_dash();
    }
    if (flows_n <= max_exact) {
      const auto start = std::chrono::steady_clock::now();
      const ConsolidationResult exact = milp.consolidate(topo, flows, config);
      const double secs = seconds_since(start);
      add_count(exact.feasible, exact.active_switches);
      row.emplace_back(std::in_place_type<double>, secs);
    } else {
      row.emplace_back(std::in_place_type<std::string>, "(skipped)");
      add_dash();
    }
    {
      const auto start = std::chrono::steady_clock::now();
      const ConsolidationResult heur = greedy.consolidate(topo, flows, config);
      const double secs = seconds_since(start);
      add_count(heur.feasible, heur.active_switches);
      row.emplace_back(std::in_place_type<double>, secs);
    }
    {
      const lp::Model model = relax.build_model(flows, config);
      row.emplace_back(std::in_place_type<long long>, model.num_rows());
      row.emplace_back(std::in_place_type<long long>, model.num_variables());
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout, fmt);
  return 0;
}
