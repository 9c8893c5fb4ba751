// Fig. 12: server power management comparison (no network power mgmt,
// full topology, 20% background traffic — the paper's section V-B2 setup).
//
// (a) CPU power vs server utilization (10-50%) at a 30 ms constraint
//     (25 ms server + 5 ms network): Rubik worst of the managed policies,
//     TimeTrader in between, Rubik+ and EPRONS-Server best, EPRONS-Server
//     lowest across the range.
// (b) CPU power vs request tail-latency constraint at 30% utilization:
//     nothing meets < ~18 ms; EPRONS-Server wins at 19 ms and above.
// (c) EPRONS-Server power vs constraint for utilizations 10-50%.
#include "bench_common.h"
#include "sim/search_cluster.h"
#include "topo/aggregation.h"

using namespace eprons;

namespace {

struct PolicyRun {
  double cpu_power = 0.0;
  double p95_ms = 0.0;
  double miss = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const TableFormat fmt = table_format_from_cli(cli);
  const double duration_s = cli.get_double("duration", 8.0);
  bench::print_header(
      "Fig. 12 — server power management (Rubik/Rubik+/TimeTrader/EPRONS)",
      "(a) EPRONS-Server lowest power across 10-50% utilization; Rubik "
      "highest managed; (b) constraints < ~18 ms unreachable, EPRONS best "
      "from 19 ms; (c) power falls steeply as the constraint loosens");

  const Scenario scn = bench::make_scenario(cli);
  const AggregationPolicies policies(scn.fat_tree());
  const auto full = policies.policy(0).switch_on;  // no net power mgmt
  Rng bg_rng(300);
  const FlowSet background =
      make_background_flows(scn.flow_gen(), 6, 0.20, 0.1, bg_rng);

  auto run = [&](const std::string& policy, double util,
                 double constraint_ms, double server_budget_ms) {
    ScenarioConfig scenario;
    scenario.cluster.policy = policy;
    scenario.cluster.target_utilization = util;
    scenario.cluster.latency_constraint = ms(constraint_ms);
    scenario.cluster.server_budget = ms(server_budget_ms);
    scenario.cluster.duration = sec(duration_s);
    scenario.cluster.warmup = sec(1.0);
    const auto result = scn.run(background, scenario, &full);
    return PolicyRun{result.metrics.avg_cpu_power_per_server,
                     to_ms(result.metrics.subquery_latency.p95),
                     result.metrics.subquery_miss_rate};
  };

  const std::vector<std::string> all_policies = {"max", "timetrader", "rubik",
                                                 "rubik+", "eprons"};

  std::printf("(a) CPU power (W/server) vs utilization @ 30 ms constraint\n");
  Table a({"policy", "util_10%", "util_20%", "util_30%", "util_40%",
           "util_50%"});
  a.set_precision(2);
  for (const auto& policy : all_policies) {
    std::vector<Cell> row{policy};
    for (double util : {0.1, 0.2, 0.3, 0.4, 0.5}) {
      // Built in place: moving a temporary Cell into the row trips a false
      // GCC 12 -Wmaybe-uninitialized on the variant's string alternative.
      row.emplace_back(std::in_place_type<double>,
                       run(policy, util, 30.0, 25.0).cpu_power);
    }
    a.add_row(std::move(row));
  }
  a.print(std::cout, fmt);

  std::printf(
      "\n(b) CPU power (W/server) vs constraint @ 30%% utilization\n"
      "    (server budget = constraint - 5 ms network budget)\n");
  const std::vector<double> constraints = {18, 19, 22, 25, 28, 31, 34, 40};
  {
    std::vector<std::string> cols = {"policy"};
    for (double c : constraints) cols.push_back(strformat("%.0fms", c));
    Table b(std::move(cols));
    b.set_precision(2);
    for (const auto& policy : all_policies) {
      std::vector<Cell> row{policy};
      for (double c : constraints) {
        row.emplace_back(std::in_place_type<double>,
                         run(policy, 0.3, c, c - 5.0).cpu_power);
      }
      b.add_row(std::move(row));
    }
    b.print(std::cout, fmt);

    // SLA feasibility companion: p95 vs constraint for EPRONS.
    Table miss({"constraint_ms", "eprons_p95_ms", "eprons_miss_%"});
    miss.set_precision(2);
    for (double c : constraints) {
      const PolicyRun r = run("eprons", 0.3, c, c - 5.0);
      miss.add_row({c, r.p95_ms, 100.0 * r.miss});
    }
    std::printf("\n    EPRONS-Server SLA check:\n");
    miss.print(std::cout, fmt);
  }

  std::printf("\n(c) EPRONS-Server CPU power (W/server): utilization x "
              "constraint\n");
  {
    std::vector<std::string> cols = {"utilization"};
    for (double c : constraints) cols.push_back(strformat("%.0fms", c));
    Table ct(std::move(cols));
    ct.set_precision(2);
    for (double util : {0.1, 0.2, 0.3, 0.4, 0.5}) {
      std::vector<Cell> row{strformat("%.0f%%", util * 100.0)};
      for (double c : constraints) {
        row.emplace_back(std::in_place_type<double>,
                         run("eprons", util, c, c - 5.0).cpu_power);
      }
      ct.add_row(std::move(row));
    }
    ct.print(std::cout, fmt);
  }
  return 0;
}
